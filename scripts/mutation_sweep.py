#!/usr/bin/env python3
"""Mutation sweep: how many small faults in one module the tests catch.

The sweep parses a module of ``src/qpmdesign`` with ``ast`` and lists its
mutation sites: every binary + - * / (swapped with its partner), every
comparison < <= > >= == != (each moved to its neighbour: < and <=, > and
>=, == and !=), every & and | (swapped, also in &= and |=), and every
numeric constant outside a docstring (a float times 1.001, an int plus 1;
a float 0, which that leaves unchanged, is no site).
It draws ``--sites`` of them with ``random.Random(--seed)``, and for each
writes the mutated module, by ``ast.unparse``, into a copy of the checkout
and runs ``pytest -x tests`` there. A mutant is killed when the suite
fails or runs past ``TIMEOUT`` seconds (a mutant can make a loop such as
``model_cutoff``'s never end), and survives when it passes.
Each verdict goes to stdout; the score and every survivor (line, kind, the
changed expression before and after) go, as JSON, to ``--out``.

It needs only the standard library and the test suite's own dependencies,
and is not part of the test suite or of CI: a full sweep runs the suite
once per site.

Run from the root of a checkout:

    python3 scripts/mutation_sweep.py src/qpmdesign/modesolver.py \\
        --sites 40 --seed 8 --out survivors.json
"""

from __future__ import annotations

import argparse
import ast
import copy
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
         ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
         ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
COPIED = ("src", "tests", "scripts", "perfbench", "pyproject.toml")
TIMEOUT = 300.0


def docstrings(tree):
    """The ids of the string constants that are docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                out.add(id(body[0].value))
    return out


def sites(tree):
    """(index, kind, lineno) of every mutation site, in ``ast.walk`` order:
    a site is the index-th node of that walk and what to change in it."""
    skip = docstrings(tree)
    found = []
    for index, node in enumerate(ast.walk(tree)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            found.append((index, "operator", node.lineno))
        elif isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    found.append((index, f"comparison {k}", node.lineno))
        elif (isinstance(node, ast.Constant) and id(node) not in skip
              and (type(node.value) is int or type(node.value) is float and node.value != 0.0)):
            found.append((index, "constant", node.lineno))
    return found


def mutate(tree, index, kind):
    """(mutated tree, the changed node before, after): a copy of ``tree``
    with the site (index, kind) changed, and the node as source."""
    tree = copy.deepcopy(tree)
    node = next(n for i, n in enumerate(ast.walk(tree)) if i == index)
    before = ast.unparse(node)
    if kind == "operator":
        node.op = SWAPS[type(node.op)]()
    elif kind.startswith("comparison"):
        k = int(kind.split()[1])
        node.ops[k] = SWAPS[type(node.ops[k])]()
    elif isinstance(node.value, float):
        node.value *= 1.001
    else:
        node.value += 1
    return ast.fix_missing_locations(tree), before, ast.unparse(node)


def run_suite(workdir):
    """'killed' or 'survived' for the checkout copy at ``workdir``."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"))
    try:
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"],
            cwd=workdir, env=env, capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "killed"
    return "survived" if result.returncode == 0 else "killed"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="path of the module to mutate, from the checkout root")
    parser.add_argument("--sites", type=int, default=40, help="mutation sites drawn (default 40)")
    parser.add_argument("--seed", type=int, default=8, help="seed of the draw (default 8)")
    parser.add_argument("--out", default="mutation_survivors.json", help="JSON report path")
    parser.add_argument("--workdir", default=None,
                        help="directory for the checkout copy (default: a new temporary one)")
    args = parser.parse_args(argv)

    module = (ROOT / args.module).resolve().relative_to(ROOT)  # only inside the checkout
    source = (ROOT / module).read_text()
    tree = ast.parse(source)
    everything = sites(tree)
    drawn = sorted(random.Random(args.seed).sample(everything, min(args.sites, len(everything))))
    base = Path(tempfile.mkdtemp(prefix="mutation-", dir=args.workdir))
    try:
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, base / name, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", "*.egg-info"))
            else:
                shutil.copy2(src, base / name)
        if run_suite(base) != "survived":
            sys.exit("the unmutated suite fails in the copy")
        results = []
        for index, kind, lineno in drawn:
            mutated, before, after = mutate(tree, index, kind)
            (base / module).write_text(ast.unparse(mutated) + "\n")
            start = time.perf_counter()
            verdict = run_suite(base)
            results.append({"line": lineno, "kind": kind, "verdict": verdict,
                            "before": before, "after": after,
                            "seconds": round(time.perf_counter() - start, 1)})
            print(f"{verdict:8} line {lineno:4} {kind:12} {before}  ->  {after}", flush=True)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    killed = sum(r["verdict"] == "killed" for r in results)
    report = {"module": str(module), "seed": args.seed, "sites_total": len(everything),
              "drawn": len(results), "killed": killed,
              "survivors": [r for r in results if r["verdict"] == "survived"]}
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"{module}: {killed} of {len(results)} drawn mutants killed "
          f"({len(everything)} sites); survivors in {args.out}")


if __name__ == "__main__":
    main()
