"""Benchmark of the renewalsim CLI: end-to-end throughput and layer costs.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One run repeats rounds of the workload for about S seconds; a
round is one CLI run in a fresh process (``child.py``) on a config seeded
from N and the round number, followed by the checks of its outputs; the
statistical checks are pooled over the run's rounds (``checks.py``).

With ``--trace 1`` untraced and traced rounds alternate on the same seeds;
the traced ones record spans (``spans.py``), which give each module's self
time, and the difference of the two medians is the tracing overhead.  The
run then micro-times the inner layers (``layers.py``) and compares a
1-worker and a 2-worker plain-long run.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Exit code 0 when a result was printed, 2 when the checkout holds
no renewalsim source.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread per process, so that no run exceeds nproc threads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import layers
from workloads import WORKLOADS, Workload, round_seed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CHILD_LIMIT_S = 120.0  # a CLI run that takes longer is killed and failed
FWCI_ORACLE_TRIALS = 4
FWCI_ORACLE_PATIENTS = 384

SELF_UNITS = {"cli.self_s": "s", "config.self_s": "s",
              "first_passage.self_s": "s", "verification.self_ms": "ms",
              "mixture.self_s": "s", "staggered.self_s": "s"}


@dataclass
class Round:
    """One CLI run: its measurements and what its checks found."""

    seed: int
    wall_s: float
    setup_s: float
    cpu_s: float  # after set-up, of the process and the workers it reaped
    rss_mb: float
    exit_code: int
    out_dir: str
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    deviations: list = field(default_factory=list)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_cli(wl: Workload, seed: int, run_dir: Path, name: str,
            workers: int = None, trace: bool = False) -> Round:
    """One CLI run of the workload in a fresh process."""
    rdir = run_dir / name
    rdir.mkdir(parents=True)
    cfg_path = rdir / "config.json"
    cfg_path.write_text(json.dumps(wl.config(seed, str(rdir / "out"),
                                             workers)))
    stamp = rdir / "stamp.json"
    cmd = [sys.executable, str(BENCH / "child.py"), str(cfg_path), str(stamp)]
    if trace:
        (rdir / "spans").mkdir()
        cmd.append(str(rdir / "spans"))
    with open(rdir / "log.txt", "w", encoding="utf-8") as log:
        start = time.monotonic()
        # own process group, so that a kill also reaches pool workers
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=log,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        watchdog = threading.Timer(CHILD_LIMIT_S, os.killpg,
                                   (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    setup_s, setup_cpu = wall, 0.0
    if stamp.is_file():
        st = json.loads(stamp.read_text())
        setup_s, setup_cpu = st["monotonic"] - start, st["cpu"]
    return Round(seed, wall, setup_s,
                 usage.ru_utime + usage.ru_stime - setup_cpu,
                 usage.ru_maxrss / 1024.0, proc.returncode, str(rdir / "out"))


def check_round(wl: Workload, rnd: Round) -> None:
    """Checks the CLI's outputs and runs the workload's own operations."""
    rnd.attempted += wl.replications
    # exit code 1 is a gate verdict or quality flag: the run completed
    if rnd.exit_code not in (0, 1):
        rnd.failed += wl.replications
        rnd.errors.append(f"CLI exit code {rnd.exit_code}")
        return
    try:
        rows, manifest = checks.read_outputs(rnd.out_dir, wl.kind)
    except (OSError, ValueError) as exc:
        rnd.failed += wl.replications
        rnd.errors.append(f"outputs unreadable: {exc}")
        return
    errors, deviations = wl.check(rows, manifest)
    rnd.errors += errors
    rnd.deviations += deviations
    if wl.kind == "verify-thm3":
        _mixture_grid(rnd)
    elif wl.kind == "example-fwci":
        _trial_oracle(rnd)


def _mixture_grid(rnd: Round) -> None:
    """mixture_cdf at fixed points against closed forms; one operation
    per point, failed when more than 1e-6 off."""
    from renewalsim import ChiSquareMixture, mixture_cdf
    for weights, z, ref in checks.cdf_grid():
        values = mixture_cdf(ChiSquareMixture(weights), z)
        rnd.attempted += len(z)
        rnd.failed += checks.cdf_misses(values, ref)


def _trial_oracle(rnd: Round) -> None:
    """Trial statistics on separately simulated trials against a
    brute-force recomputation; one operation per trial."""
    import numpy as np
    from renewalsim import (GStatistic, RngStream, StaggeredExponentialModel,
                            TrialState, simulate_trial, statistic_trajectory)
    model = StaggeredExponentialModel(1.0, 1.0, GStatistic.fixed_width_ci())
    for k in range(FWCI_ORACLE_TRIALS):
        state = simulate_trial(model, FWCI_ORACLE_PATIENTS,
                               RngStream(rnd.seed, k, 77))
        prefixes = [TrialState.from_data(state.tau[:j + 1], state.L[:j])
                    for j in range(1, state.n + 1)]
        K = np.array([s.K_n for s in prefixes])
        T = np.array([s.T_star for s in prefixes])
        Z = statistic_trajectory(state, model.g)
        errors = checks.compare_trial(
            K, T, Z, *checks.brute_trial_counts(state.tau, state.L))
        rnd.attempted += 1
        rnd.failed += bool(errors)
        rnd.errors += [f"trial {k}: {e}" for e in errors]


def _rounds(wl: Workload, seed: int, seconds: float, run_dir: Path,
            traced: bool) -> list:
    """Rounds until the next one would end past ``seconds``; with
    ``traced``, pairs of an untraced and a traced round on one seed."""
    rounds = []
    start = time.monotonic()
    while True:
        s = round_seed(seed, len(rounds) // (2 if traced else 1))
        for trace in ((False, True) if traced else (False,)):
            rnd = run_cli(wl, s, run_dir, f"r{len(rounds)}", trace=trace)
            check_round(wl, rnd)
            print(f"round {len(rounds)} seed {s} trace {int(trace)}: wall "
                  f"{rnd.wall_s:.3f} s, setup {rnd.setup_s:.3f} s, cpu "
                  f"{rnd.cpu_s:.3f} s, exit "
                  f"{rnd.exit_code}, {rnd.attempted} ops, {rnd.failed} "
                  f"failed" + "".join(f"\n  FAIL {e}" for e in rnd.errors))
            rounds.append(rnd)
        elapsed = time.monotonic() - start
        if elapsed * (len(rounds) + (2 if traced else 1)) / len(rounds) \
                > seconds:
            return rounds


def run_metrics(wl: Workload, rounds: list) -> dict:
    """The end-to-end metrics of a run.  Set-up and memory are medians over
    the rounds; wall time is their mean, and the throughputs divide all
    replications by the summed time (or CPU time) after set-up.  A CLI
    process of fwci-h01 runs in one of two page-fault regimes, and a median
    over rounds jumps between them where a mean moves by the share of
    rounds in each."""
    reps = wl.replications * len(rounds)
    # a run that died before its stamp has no time after set-up; its
    # errors already make the result incorrect
    return {
        "setup_s": (statistics.median(r.setup_s for r in rounds), "s"),
        "wall_s": (statistics.mean(r.wall_s for r in rounds), "s"),
        "reps_per_s": (reps / max(sum(r.wall_s - r.setup_s for r in rounds),
                                  1e-9), "1/s"),
        "reps_per_cpu_s": (reps / max(sum(r.cpu_s for r in rounds), 1e-9),
                           "1/s"),
        "peak_rss_mb": (statistics.median(r.rss_mb for r in rounds), "MB")}


def span_metrics(spans_dir: Path) -> dict:
    """Each traced module's self time in one traced CLI run, and the number
    of mixture CDF points evaluated."""
    self_s = {name.split(".")[0]: 0.0 for name in SELF_UNITS}
    cdf_points = 0
    for path in spans_dir.glob("spans-*.jsonl"):
        lines = [json.loads(x) for x in path.read_text().splitlines()]
        spans = [x for x in lines if "id" in x]
        child_time = {}
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) \
                    + s["end"] - s["start"]
        for s in spans:
            module = s["name"].split(".")[0]
            self_s[module] += s["end"] - s["start"] - child_time.get(s["id"],
                                                                      0.0)
        counts = lines[-1]["counts"]
        cdf_points += counts.get("mixture.mixture_cdf", {}).get("items", 0)
    out = {}
    for name, unit in SELF_UNITS.items():
        value = self_s[name.split(".")[0]]
        out[name] = value * 1e3 if unit == "ms" else value
    out["mixture.cdf_points"] = cdf_points
    return out


def import_seconds() -> float:
    """Median time of a fresh ``import renewalsim`` in a new interpreter."""
    code = ("import time; t = time.perf_counter(); import renewalsim; "
            "print(time.perf_counter() - t)")
    times = [float(subprocess.run([sys.executable, "-c", code], env=_env(),
                                  cwd=ROOT, check=True, capture_output=True,
                                  text=True).stdout) for _ in range(3)]
    return statistics.median(times)


def parallel_pair(seed: int, run_dir: Path):
    """plain-long with 1 and 2 workers on one seed: the CLI's run time with
    1 worker over twice that with 2, and whether the CSVs are identical."""
    wl = WORKLOADS["plain-long"]
    times, tables = [], []
    for workers in (1, 2):
        rnd = run_cli(wl, seed, run_dir, f"plain-w{workers}", workers)
        if rnd.exit_code != 0:
            return None, [f"plain-long with {workers} worker(s) exited "
                          f"{rnd.exit_code}"]
        out = Path(rnd.out_dir)
        times.append(json.loads((out / "manifest.json").read_text())
                     ["wall_time_seconds"])
        tables.append((out / "simulate.csv").read_bytes())
    errors = [] if tables[0] == tables[1] else \
        ["plain-long CSV differs between 1 and 2 workers"]
    return times[0] / (2.0 * times[1]), errors


def traced_run(wl: Workload, seed: int, seconds: float, run_dir: Path):
    rounds = _rounds(wl, seed, seconds, run_dir, traced=True)
    plain_rounds, traced_rounds = rounds[0::2], rounds[1::2]
    metrics = {}
    per_trace = [span_metrics(Path(r.out_dir).parent / "spans")
                 for r in traced_rounds]
    for name in per_trace[0]:
        unit = SELF_UNITS.get(name, "count")
        metrics[name] = (statistics.median(m[name] for m in per_trace), unit)
    metrics["trace.overhead_s"] = (
        statistics.median(r.wall_s for r in traced_rounds)
        - statistics.median(r.wall_s for r in plain_rounds), "s")
    metrics["init.import_s"] = (import_seconds(), "s")
    metrics.update(layers.measure(str(run_dir / "r0" / "config.json")))
    efficiency, errors = parallel_pair(round_seed(seed, 0), run_dir)
    if efficiency is not None:
        metrics["cli.parallel_efficiency"] = (efficiency, "ratio")
    return rounds, metrics, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "renewalsim" / "__init__.py").is_file():
        print(f"error: no renewalsim source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    errors = []
    if args.trace:
        rounds, metrics, errors = traced_run(wl, args.seed, args.seconds,
                                             run_dir)
    else:
        rounds = _rounds(wl, args.seed, args.seconds, run_dir, traced=False)
        metrics = run_metrics(wl, rounds)
    errors += [e for r in rounds for e in r.errors]
    pooled = checks.pooled_errors([d for r in rounds for d in r.deviations])
    errors += pooled
    for e in pooled:
        print(f"FAIL {e}")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"{args.workload}: {len(rounds)} rounds, {attempted} operations, "
          f"{failed} failed, {len(errors)} check failure(s)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if not args.trace:
        shutil.rmtree(run_dir)
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
