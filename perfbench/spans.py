"""Spans around the calls into renewalsim's public functions.

``install`` swaps each function named in ``TRACED`` for a wrapper, in every
renewalsim module that holds a reference to it (the CLI imports names
directly), so that each call records a span: name, start, end and the span
that was open when it was made.  Only functions called a few times per
chunk of replications are wrapped; per-replication costs (``rng``,
``laws``, ``perturbation``) are micro-timed by ``layers.py`` instead, since
a span per call would cost about as much as the call.

Spans stay in memory and are written when the process ends, one JSONL file
per process: the CLI process writes at the end of ``child.py``, a forked
pool worker from a multiprocessing finalizer.  The last line of each file
holds the counts: calls and items (replications, or CDF points for
``mixture_cdf``) per span name.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from multiprocessing import util

TRACED = {
    "cli": ("main", "run"),
    "config": ("ExperimentConfig.load", "ExperimentConfig.from_dict",
               "validate_for_kind", "build_model"),
    "first_passage": ("collect_passage", "summarize_passage",
                      "backward_min_functional", "estimate_rho_nu",
                      "constants_from_batch", "excess_cdf_from_backward"),
    "verification": ("theorem3_experiment", "theorem4_experiment"),
    "mixture": ("mixture_weights", "mixture_cdf"),
    "staggered": ("example1_collect", "example1_run",
                  "staggered_backward_batch", "staggered_constants"),
}

# (name, position) of the argument that says how many items a call handles
_ITEMS_ARG = {"mixture_cdf": ("z", 1)}
_REPS_ARG = ("reps", 2)


def _items(fn_name: str, args: tuple, kwargs: dict) -> int:
    name, pos = _ITEMS_ARG.get(fn_name, _REPS_ARG)
    value = kwargs.get(name, args[pos] if len(args) > pos else None)
    if fn_name == "mixture_cdf":
        return int(getattr(value, "size", 1))
    return value if isinstance(value, int) else 0


class Recorder:
    """The spans of one process, kept in memory until ``flush``."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.spans = []
        self.stack = []
        self.next_id = 0

    def wrap(self, name: str, fn):
        fn_name = name.rsplit(".", 1)[-1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans.append((sid, name, parent, start, end,
                                   _items(fn_name, args, kwargs)))
        return traced

    def flush(self) -> None:
        counts = {}
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            for sid, name, parent, start, end, items in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                    "start": start, "end": end,
                                    "items": items}) + "\n")
                c = counts.setdefault(name, {"calls": 0, "items": 0})
                c["calls"] += 1
                c["items"] += items
            f.write(json.dumps({"counts": counts}) + "\n")

    def _after_fork(self) -> None:
        # a forked pool worker starts with no open span and its own file
        self.spans, self.stack = [], []
        util.Finalize(self, self.flush, exitpriority=100)


def install(out_dir: str) -> Recorder:
    """Wrap every function in TRACED; returns this process's recorder."""
    rec = Recorder(out_dir)
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "renewalsim"
                                     or n.startswith("renewalsim."))]
    for mod_name, names in TRACED.items():
        home = sys.modules[f"renewalsim.{mod_name}"]
        for qual in names:
            owner_name, _, attr = qual.rpartition(".")
            if owner_name:
                owner = getattr(home, owner_name)
                setattr(owner, attr, staticmethod(
                    rec.wrap(f"{mod_name}.{qual}", getattr(owner, attr))))
                continue
            original = getattr(home, attr)
            wrapped = rec.wrap(f"{mod_name}.{qual}", original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
    util.register_after_fork(rec, Recorder._after_fork)
    return rec
