"""qpmdesign benchmark: one seeded, closed-loop workload per run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload design-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selfcheck

Workloads (inputs and checks in workloads.py, purposes in BENCHMARK.json):

- ``design-sweep``: in-process ``qpmdesign design --config <file>`` per seeded
  geometry, the four README design-table rows first; one in four geometries
  lies in the cutoff band, where exit 2 with NoGuidedMode is the answer.
- ``spectrum``: ``design_point``, then ``DesignResult.spectra`` (201 samples)
  and ``DesignResult.filtered_gamma``.
- ``grating``: ``synthesize_pattern`` and a 32-point ``fourier_component``
  K-scan around K1 and K2; no mode solves.

One client, one process, BLAS threads pinned to 1. Request times are
scaled to a fixed machine speed by a reference kernel sampled next to each
request (see ``worker.SpeedProbe``); the raw wall times are printed beside
them. ``--trace 0`` measures with tracing off and prints the end-to-end
metrics; ``setup_s`` is the median wall time over five fresh processes.
``--trace 1`` spends half the time untraced and half traced, replays the
first traced requests to check that their layer counts repeat exactly, and
prints the per-layer metrics. Every request's output is checked;
``fail_frac`` is failed over attempted requests. The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; a
failed check or count guard makes the exit code 1. Full results go to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import worker  # noqa: E402

WORKLOADS = ("design-sweep", "spectrum", "grating")
END_TO_END = (("setup_s", "s"), ("req_p50_ms", "ms"), ("req_tail_ms", "ms"),
              ("items_per_s", "items/s"), ("peak_rss_mib", "MiB"))
SETUP_PROBES = 4  # fresh set-up-only processes besides the measuring one
TIME_LIMIT_S = 170.0
SHOWN_FAILURES = 10
EXPECTED_CHECKS = {"design-sweep": ("design-table", "design-guided", "design-cutoff"),
                   "spectrum": ("spectrum",), "grating": ("grating",)}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in worker.BLAS_VARS})
    env["PYTHONHASHSEED"] = "0"
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_worker(args, workdir: Path, deadline: float, name: str, *extra: str) -> dict:
    result = workdir / f"{name}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir / "requests"),
           "--result", str(result), "--src", str(ROOT / "src"), *extra]
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name} process exceeded the time limit") from exc
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"{name} process exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(result.read_text())


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def measure(args, workdir: Path) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    setups = []
    if not args.trace:
        for i in range(SETUP_PROBES):
            setups.append(run_worker(args, workdir, deadline, f"setup-{i}", "--setup-only"))
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    extra = ("--spans", str(out_dir / f"spans-{args.workload}.jsonl")) if args.trace else ()
    doc = run_worker(args, workdir, deadline, "main", *extra)
    setups.append(doc)
    doc["setup_s_runs"] = [d["setup_s"] for d in setups]
    doc["provenance"].update(git_commit=git_commit(), workload=args.workload,
                             seed=args.seed, seconds=args.seconds, trace=args.trace)
    if args.trace:
        doc["metrics"] = doc.pop("layer")
    else:
        e2e = doc["end_to_end"]
        values = dict(e2e, setup_s=statistics.median(doc["setup_s_runs"]),
                      peak_rss_mib=doc["peak_rss_mib"])
        doc["metrics"] = {name: (values[name], unit) for name, unit in END_TO_END}
    doc["attempted"] = sum(len(p["latencies"]) for p in doc["passes"])
    doc["failed"] = sum(len(p["failures"]) for p in doc["passes"])
    mismatches = doc.get("guard", {}).get("mismatches", [])
    doc["correct"] = doc["failed"] == 0 and not mismatches and doc["attempted"] > 0
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(doc, indent=1))
    return doc


def report(args, doc: dict) -> None:
    prov = doc["provenance"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} commit={prov['git_commit']}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print("checks " + json.dumps(doc["checks_run"], sort_keys=True))
    fail_frac = doc["failed"] / doc["attempted"] if doc["attempted"] else 1.0
    print(f"requests attempted={doc['attempted']} failed={doc['failed']} "
          f"fail_frac={fail_frac!r} ratio")
    for p in doc["passes"]:
        for failure in p["failures"][:SHOWN_FAILURES]:
            print(f"FAIL {failure}")
    if args.trace:
        guard = doc["guard"]
        print(f"count guard: replayed {guard['replayed']} requests, "
              f"{len(guard['mismatches'])} mismatches")
        for mismatch in guard["mismatches"]:
            print(f"FAIL count guard {mismatch}")
        for cls, counts in sorted(doc["class_counts"].items()):
            print(f"counts {args.workload}/{cls} " + json.dumps(counts, sort_keys=True))
    else:
        e2e = doc["end_to_end"]
        print(f"setup_s over {len(doc['setup_s_runs'])} fresh processes: "
              + json.dumps(doc["setup_s_runs"]))
        print(f"req_tail_ms is p{e2e['tail_percentile']:g} of {e2e['samples']} requests "
              f"({e2e['tail_beyond']} beyond)")
        scales = doc["passes"][0]["scales"]
        print(f"wall times, unscaled: req_p50_ms={e2e['wall_req_p50_ms']!r} "
              f"req_tail_ms={e2e['wall_req_tail_ms']!r} (p{e2e['wall_tail_percentile']:g}) "
              f"items_per_s={e2e['wall_items_per_s']!r}; speed scale "
              f"{min(scales):.3f}..{max(scales):.3f}, median {statistics.median(scales):.3f}")
    for name, (value, unit) in doc["metrics"].items():
        print(f"metric {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in doc["metrics"].items()},
    }))


def bench(args) -> int:
    if not (ROOT / "src" / "qpmdesign" / "__init__.py").is_file():
        print(f"perfbench: no qpmdesign sources under {ROOT / 'src'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        doc = measure(args, workdir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(args, doc)
    return 0 if doc["correct"] else 1


def _checks_reject_bad_outputs() -> list[str]:
    ideal = checks.FIRST_ORDER
    good = {"gamma": 0.9957,
            "grating": {"Lambda1_um": 4.579, "Lambda2_um": 3.652},
            "amplitudes": {"delta_k_oe_rad_per_um": 0.0, "delta_k_eo_rad_per_um": 0.0}}

    def bad(**changes):
        doc = json.loads(json.dumps(good))
        for key, value in changes.items():
            section, _, field = key.partition("__")
            if field:
                doc[section][field] = value
            else:
                doc[section] = value
        return doc

    cutoff_err = "infeasible design: NoGuidedMode: no interior maximum"
    cases = (  # (case, problems found, whether problems are expected)
        ("guided ok", checks.design_guided(0, good), False),
        ("guided exit 2", checks.design_guided(2, None), True),
        ("guided gamma 0", checks.design_guided(0, bad(gamma=0.0)), True),
        ("guided gamma > 1", checks.design_guided(0, bad(gamma=1.01)), True),
        ("guided mismatch", checks.design_guided(0, bad(amplitudes__delta_k_eo_rad_per_um=1e-9)), True),
        ("table ok", checks.design_table_row(10.0, 10.0, good), False),
        ("table gamma", checks.design_table_row(10.0, 10.0, bad(gamma=0.97)), True),
        ("table period", checks.design_table_row(10.0, 10.0, bad(grating__Lambda2_um=3.74)), True),
        ("cutoff ok", checks.design_cutoff(2, cutoff_err, None), False),
        ("cutoff exit 0", checks.design_cutoff(0, "", good), True),
        ("cutoff other error", checks.design_cutoff(2, "NonPositiveFrequency", None), True),
        ("spectrum ok", checks.spectrum(0.9957, 0.29, 6.3, 0.9949), False),
        ("spectrum oe", checks.spectrum(0.9957, 0.40, 8.0, 0.9949), True),
        ("spectrum eo", checks.spectrum(0.9957, 0.29, 8.0, 0.9949), True),
        ("spectrum ratio", checks.spectrum(0.9957, 0.35, 4.9, 0.9949), True),
        ("spectrum filter", checks.spectrum(0.9957, 0.29, 6.3, 0.9937), True),
        ("grating ok", checks.grating(ideal, ideal * (1 - 5e-4)), False),
        ("grating K1", checks.grating(ideal * 1.002, ideal), True),
        ("grating K2", checks.grating(ideal, ideal * 0.998), True),
    )
    return [f"check case '{case}' found {problems or 'no problem'}"
            for case, problems, expected in cases if bool(problems) != expected]


def _run_self(*argv: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.splitlines()


def _result(lines: list[str]):
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def selfcheck() -> int:
    """One-second runs of every workload in both modes, plus the checks on
    corrupted outputs, repeated layer counts and a run without sources."""
    bench_doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in bench_doc["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench_doc["per_layer"]}}
    problems = _checks_reject_bad_outputs()
    out_dir = ROOT / ".perfbench_out"
    signatures = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            tag = f"{workload} trace={trace}"
            rc, lines = _run_self("--workload", workload, "--seed", "1",
                                  "--seconds", "1", "--trace", str(trace))
            result = _result(lines)
            if rc != 0 or result is None:
                problems.append(f"{tag}: exit {rc}, last line {lines[-1:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']}, "
                                f"{result['failed']}/{result['attempted']} failed")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != declared[trace]:
                problems.append(f"{tag}: metrics {units} differ from BENCHMARK.json")
            for name, unit in declared[trace].items():
                if not any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}")
                           for line in lines):
                    problems.append(f"{tag}: no printed line for {name} in {unit}")
            ran = json.loads(next(line for line in lines if line.startswith("checks "))[7:])
            missing = [c for c in EXPECTED_CHECKS[workload] if not ran.get(c)]
            if missing:
                problems.append(f"{tag}: checks never ran: {missing}")
            if trace:
                doc = json.loads((out_dir / f"{workload}-seed1-trace1.json").read_text())
                signatures[workload] = doc["signatures"]
                print("\n".join(line for line in lines if line.startswith("counts ")))
            print(f"selfcheck {tag}: {result['attempted']} requests checked")

    rc, lines = _run_self("--workload", "design-sweep", "--seed", "1",
                          "--seconds", "1", "--trace", "1")
    again = json.loads((out_dir / "design-sweep-seed1-trace1.json").read_text())["signatures"]
    first = signatures.get("design-sweep", [])
    common = min(len(first), len(again))
    if rc != 0 or common == 0 or first[:common] != again[:common]:
        problems.append("design-sweep layer counts differ between two runs of seed 1")
    print(f"selfcheck: layer counts of {common} design-sweep requests repeat across runs")

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        rc, lines = _run_self("--workload", "grating", "--seed", "1", "--seconds", "1",
                              "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if rc == 0 or _result(lines) is not None:
        problems.append(f"run without sources exited {rc} or printed a result")
    print(f"selfcheck: run without sources exits {rc} and prints no result")

    for problem in problems:
        print(f"SELFCHECK FAIL {problem}")
    print("selfcheck " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selfcheck", action="store_true",
                        help="tiny runs that check metric names, units and checks")
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
