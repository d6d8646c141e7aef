"""The four CLI workloads: config, size of one round, and output check.

A round is one CLI run in a fresh process on a config whose seed is drawn
from the benchmark seed and the round number.  Sizes are chosen so that a
round takes 2.5-5 s on a 2-CPU machine, of which about 1.3 s is set-up.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import checks

EXP1 = {"family": "exponential", "params": {"rate": 1.0}}

# The README model: exp(1) increments, Y = X - 1, centred geometric MA of
# depth 27 (the default for beta = 1/2) and Q = 1/2.
TM1 = {"kind": "perturbed_walk", "increment": EXP1,
       "vector": {"kind": "centered_x", "coeffs": [1.0]},
       "stationary": {"kind": "geometric_ma", "h": "identity", "beta": 0.5,
                      "centered": True},
       "quadratic": {"Q": [[0.5]]}}
PLAIN = {"kind": "perturbed_walk", "increment": EXP1}
STAG = {"kind": "staggered", "arrival_rate": 1.0, "theta": 1.0,
        "g": "fixed_width_ci"}


@dataclass(frozen=True)
class Workload:
    fields: dict        # config fields other than seed, reps, out, workers
    reps: int
    workers: int
    check: Callable[[list, dict], list]

    @property
    def kind(self) -> str:
        return self.fields["kind"]

    @property
    def replications(self) -> int:
        """Monte Carlo replications one round makes: passage (or trial)
        replications at each level plus the backward functional's."""
        levels = len(self.fields.get("a_grid", [None]))
        backward = 0 if self.kind == "simulate" else self.reps
        return self.reps * levels + backward

    def config(self, seed: int, out: str, workers: int = None) -> dict:
        return dict(self.fields, seed=seed, reps=self.reps, out=out,
                    workers=self.workers if workers is None else workers)


WORKLOADS = {
    "thm4-tm1": Workload({"kind": "verify-thm4", "a_grid": [25, 50, 100],
                          "model": TM1}, reps=8000, workers=1,
                         check=checks.check_thm4),
    "thm3-tm1": Workload({"kind": "verify-thm3", "a": 100, "model": TM1},
                         reps=1000, workers=1, check=checks.check_thm3),
    # short rounds: each CLI process falls into one of two page-fault
    # regimes (see README), so a run needs many processes for a steady median
    "fwci-h01": Workload({"kind": "example-fwci", "h": 0.1, "c": 1.96,
                          "model": STAG}, reps=300, workers=1,
                         check=checks.check_fwci),
    # 6 chunks of 1024 per level, so both workers get equal shares
    "plain-long": Workload({"kind": "simulate", "a_grid": [1000, 4000],
                            "model": PLAIN}, reps=6144, workers=2,
                           check=checks.check_plain),
}


def round_seed(seed: int, index: int) -> int:
    """Config seed of round ``index`` of a run with benchmark seed ``seed``."""
    digest = hashlib.sha256(f"{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1
