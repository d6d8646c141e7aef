"""Paired benchmark of two commits, written as a BENCH_<n>.json record.

Usage:
    python3 tools/bench_pairs.py --out BENCH_6.json [--base REV] [--head REV]
        [--seed 1001]

The committed files of ``--base`` (default HEAD~1) and ``--head`` (default
HEAD) are extracted with ``git archive`` into a temporary directory, so
neither side sees uncommitted edits and the repository gains no worktree.
For each workload of BENCHMARK.json, pair i (of PAIRS) runs the
unmodified ``perfbench/run.py --workload W --seed SEED+i --seconds S
--trace 0`` once in each checkout, S being BENCHMARK.json's
``run_seconds``, one after the other: the base runs first in even pairs,
the head in odd ones.  The record holds, per workload and end-to-end metric of
BENCHMARK.json, each side's runs, median and quartiles, the head's
change of the median, and the pairs the head won; per workload also
each side's attempted and failed operations and whether every run was
correct.  Progress goes to stderr; the record is rewritten after every
pair, so an interrupted run keeps the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _extract(rev: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run; its final JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout.name} {workload} seed {seed}: "
                           f"exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spread(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else (values[0],) * 3
    return {"median": q2, "q1": q1, "q3": q3, "runs": values}


def summarize(runs: dict, end_to_end: list) -> dict:
    """Per-workload record from runs[side][workload] = [result, ...]."""
    out = {}
    for workload in runs["base"]:
        base, head = runs["base"][workload], runs["head"][workload]
        pairs = min(len(base), len(head))
        metrics = {}
        for metric in end_to_end:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in base[:pairs]]
            h = [r["metrics"][name]["value"] for r in head[:pairs]]
            if not b:
                continue
            lower = metric["better"] == "lower"
            won = sum((y < x) if lower else (y > x) for x, y in zip(b, h))
            sb, sh = _spread(b), _spread(h)
            metrics[name] = {
                "unit": metric["unit"], "better": metric["better"],
                "bound": metric["bound"], "base": sb, "head": sh,
                "head_change": sh["median"] / sb["median"] - 1.0,
                "head_won": won}
        out[workload] = {
            "pairs": pairs, "metrics": metrics,
            "operations": {side: {
                "attempted": sum(r["attempted"] for r in rs[:pairs]),
                "failed": sum(r["failed"] for r in rs[:pairs])}
                for side, rs in (("base", base), ("head", head))},
            "all_correct": {side: all(r["correct"] for r in rs[:pairs])
                            for side, rs in (("base", base), ("head", head))}}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--base", default="HEAD~1")
    parser.add_argument("--head", default="HEAD")
    parser.add_argument("--seed", type=int, default=1001)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    revs = {side: _git("rev-parse", rev)
            for side, rev in (("base", args.base), ("head", args.head))}
    record = {
        "base": revs["base"], "head": revs["head"],
        "command": "perfbench/run.py --workload W --seed SEED --seconds "
                   f"{seconds:g} --trace 0",
        "seeds": [args.seed + i for i in range(PAIRS)],
        "order": "base first in even pairs, head first in odd pairs",
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "system": platform.platform()}}
    runs = {"base": {w: [] for w in workloads},
            "head": {w: [] for w in workloads}}
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {side: Path(tmp) / side for side in revs}
        for side, rev in revs.items():
            _extract(rev, dirs[side])
        for workload in workloads:
            for i in range(PAIRS):
                seed = args.seed + i
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                for side in order:
                    result = _run(dirs[side], workload, seed, seconds)
                    runs[side][workload].append(result)
                    print(f"{workload} pair {i} {side}: reps_per_s "
                          f"{result['metrics']['reps_per_s']['value']:.0f}",
                          file=sys.stderr)
                record["workloads"] = summarize(runs, bench["end_to_end"])
                Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
