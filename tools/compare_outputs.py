"""Compare the CLI outputs of two commits on 18 fixed configs.

Usage:
    python3 tools/compare_outputs.py [--base REV] [--head REV]

The committed files of ``--base`` (default HEAD~1) and ``--head`` (default
HEAD) are extracted with ``git archive`` into a temporary directory, as
``tools/bench_pairs.py`` does.  The configs are the nine
``_INVARIANCE_DOCS`` of ``tests/test_acceptance.py`` and the four
``perfbench/workloads.py`` workloads at ``round_seed(7, 0)``, both read
from the head checkout, and two staggered configs whose trials run past
their first draw segment: the calibrated ``example-rst`` doc at horizon
700 and the ``example-fwci`` doc at h = 0.05.  The last three draw W
from laws other than exp(1), whose standard variates are scaled apart
from the draw: a plain N(1, 1) walk, which steps down (``simulate``,
a = 200); gamma(2, 2) increments with a 2-d Gaussian vector, a centred
|W| as xi and a mixed-sign Q (``verify-thm4``); and a N(1, 0.8^2) walk
with a centred geometric cos W as xi and Q = 1/2 (``verify-thm4``), so
that the closed-form E h(W) of the centring is compared too.  Each
config runs once per side as
``python3 -m renewalsim.cli`` in a fresh process on that side's ``src``.
For each config one line is printed: whether the CSV bytes, the exit code
and every manifest field other than ``wall_time_seconds`` are identical.
Where CSV bytes or manifest fields differ, the line also gives the number
of differing CSV cells and manifest values, the largest relative
difference between two float cells, and whether every other cell
(integers, booleans, labels) is identical.  Exit code 1 when anything
differs, else 0.
"""

from __future__ import annotations

import argparse
import ast
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

from bench_pairs import _extract, _git


def _invariance_docs(checkout: Path) -> dict:
    """``_INVARIANCE_DOCS`` of the checkout's acceptance tests, from the
    module's top-level assignments alone (its imports need the package)."""
    tree = ast.parse((checkout / "tests" / "test_acceptance.py").read_text())
    names: dict = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            exec(compile(ast.Module([node], []), "test_acceptance", "exec"),
                 names)
    return names["_INVARIANCE_DOCS"]


def configs(checkout: Path) -> dict:
    """{name: config document without ``out``}, 18 in all."""
    docs = {f"acceptance:{kind}": dict(doc, kind=kind)
            for kind, doc in _invariance_docs(checkout).items()}
    sys.path.insert(0, str(checkout / "perfbench"))
    try:
        from workloads import WORKLOADS, round_seed
    finally:
        sys.path.pop(0)
    for name, workload in WORKLOADS.items():
        doc = workload.config(round_seed(7, 0), out="")
        del doc["out"]
        docs[f"perfbench:{name}"] = doc
    docs["multi-segment:example-rst"] = dict(
        docs["acceptance:example-rst"], horizon=700)
    docs["multi-segment:example-fwci"] = dict(
        docs["acceptance:example-fwci"], h=0.05, reps=400)
    docs["non-exponential:normal-walk"] = {
        "kind": "simulate", "seed": 41, "reps": 2500, "a_grid": [200.0],
        "model": {"kind": "perturbed_walk", "increment": {
            "family": "normal", "params": {"mean": 1.0, "sd": 1.0}}}}
    docs["non-exponential:gamma-gaussian"] = {
        "kind": "verify-thm4", "seed": 42, "reps": 1500,
        "a_grid": [10.0, 20.0],
        "model": {"kind": "perturbed_walk", "increment": {
            "family": "gamma", "params": {"shape": 2.0, "rate": 2.0}},
            "vector": {"kind": "gaussian",
                       "cov": [[1.0, 0.3], [0.3, 0.5]]},
            "stationary": {"kind": "instantaneous", "h": "abs",
                           "centered": True},
            "quadratic": {"Q": [[0.5, 0.0], [0.0, -0.25]]}}}
    docs["non-exponential:normal-cos"] = {
        "kind": "verify-thm4", "seed": 43, "reps": 1500,
        "a_grid": [10.0, 20.0],
        "model": {"kind": "perturbed_walk", "increment": {
            "family": "normal", "params": {"mean": 1.0, "sd": 0.8}},
            "vector": {"kind": "centered_x", "coeffs": [1.0]},
            "stationary": {"kind": "geometric_ma", "h": "cos", "beta": 0.5,
                           "centered": True},
            "quadratic": {"Q": [[0.5]]}}}
    return docs


def run_side(checkout: Path, doc: dict, work: Path) -> dict:
    """One CLI run of ``doc`` on the checkout's source: exit code, CSV
    bytes and manifest (None where the run wrote none)."""
    out = work / "out"
    path = work / "config.yaml"
    work.mkdir(parents=True)
    path.write_text(yaml.safe_dump(dict(doc, out=str(out))))
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, "-m", "renewalsim.cli",
                           "--config", str(path)], env=env, cwd=work,
                          capture_output=True, text=True)
    table = out / f"{doc['kind']}.csv"
    manifest = out / "manifest.json"
    result = {"exit": proc.returncode,
              "csv": table.read_bytes() if table.exists() else None,
              "manifest": (json.loads(manifest.read_text())
                           if manifest.exists() else None)}
    if result["manifest"] is not None:
        result["manifest"].pop("wall_time_seconds", None)
    if proc.returncode not in (0, 1):
        result["stderr"] = proc.stderr.strip().splitlines()[-1:]
    return result


def _cell(text: str):
    """A CSV cell as the value it writes: int, float, bool or label."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return {"true": True, "false": False}.get(text, text)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _leaves(value, path=()):
    """(path, value) of every leaf of nested dicts and lists."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else None
    if items is None:
        yield path, value
        return
    for key, item in items:
        yield from _leaves(item, path + (key,))


def cell_report(base: dict, head: dict) -> str:
    """How far two sides' CSV cells and manifest values moved: how many
    differ, the largest relative difference of two numbers of which one
    is a float, and whether no other cell (integer pairs, booleans,
    labels) differs."""
    sides = []
    for result in (base, head):
        rows = [] if result["csv"] is None else [
            [_cell(c) for c in row]
            for row in csv.reader(io.StringIO(result["csv"].decode()))]
        sides.append(dict(_leaves({"csv": rows,
                                   "manifest": result["manifest"] or {}})))
    count, rel, others, missing = 0, 0.0, True, object()
    for key in sides[0].keys() | sides[1].keys():
        x, y = (side.get(key, missing) for side in sides)
        if _is_number(x) and _is_number(y) and float in (type(x), type(y)):
            # a float against a float or an int ('1.0' against '1'): numbers
            x, y = float(x), float(y)
            if x == y or (math.isnan(x) and math.isnan(y)):
                continue
            count += 1
            rel = max(rel, abs(x - y) / max(abs(x), abs(y))
                      if math.isfinite(x - y) else math.inf)
        elif type(x) is not type(y) or x != y:  # so True is not 1
            count += 1
            others = False
    return (f"{count} cells differ, floats within {rel:.1e} relative, "
            f"non-float cells {'identical' if others else 'DIFFERENT'}")


def differences(base: dict, head: dict) -> list:
    """What differs between two sides' results, as short labels."""
    diff = []
    if base["exit"] != head["exit"]:
        diff.append(f"exit {base['exit']} -> {head['exit']}")
    if base["csv"] != head["csv"]:
        diff.append("csv bytes")
    mb, mh = base["manifest"] or {}, head["manifest"] or {}
    if (base["manifest"] is None) != (head["manifest"] is None):
        diff.append("manifest present on one side only")
    diff += [f"manifest[{k}]" for k in sorted(set(mb) | set(mh))
             if mb.get(k) != mh.get(k)]
    return diff


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD~1")
    parser.add_argument("--head", default="HEAD")
    args = parser.parse_args(argv)
    revs = {side: _git("rev-parse", rev)
            for side, rev in (("base", args.base), ("head", args.head))}
    print(f"base {revs['base']}\nhead {revs['head']}")
    differed = 0
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {side: Path(tmp) / side for side in revs}
        for side, rev in revs.items():
            _extract(rev, dirs[side])
        docs = configs(dirs["head"])
        for i, (name, doc) in enumerate(docs.items()):
            results = {side: run_side(dirs[side], doc,
                                      Path(tmp) / "runs" / side / str(i))
                       for side in revs}
            diff = differences(results["base"], results["head"])
            differed += bool(diff)
            status = "DIFFERENT: " + ", ".join(diff) if diff else "identical"
            if any(d == "csv bytes" or d.startswith("manifest")
                   for d in diff):
                status += "; " + cell_report(results["base"], results["head"])
            stderr = results["head"].get("stderr") or \
                results["base"].get("stderr")
            print(f"{name}: {status} (exit {results['base']['exit']}/"
                  f"{results['head']['exit']})"
                  + (f" {stderr}" if stderr else ""), flush=True)
    print(f"{differed} of {len(docs)} configs differ")
    return 1 if differed else 0


if __name__ == "__main__":
    sys.exit(main())
