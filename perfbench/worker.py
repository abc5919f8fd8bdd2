"""One benchmark process: set-up, warm-up, the timed closed loop, checks.

``run.py`` starts it with the checkout's ``src`` first on PYTHONPATH and the
BLAS thread variables set to 1, and reads the JSON it writes to ``--result``.
One client sends the next request only when the previous one has returned.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10
GUARD_REPLAY_S = 1.0  # replay traced requests until this much time is covered
PROBE_INTERVAL_S = 0.05
PROBE_WINDOW_S = 0.1
# About the reference kernel's median time under load on a 2-vCPU Intel
# Xeon virtual machine (Python 3.11.7, scipy 1.17.1).
REFERENCE_KERNEL_S = 0.7e-3


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = p / 100.0 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it, or the maximum when there are too few samples."""
    n = len(latencies)
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND:
            return p, percentile(latencies, p)
    return 100.0, max(latencies)


class SpeedProbe:
    """How fast the machine runs next to each request.

    The host's speed drifts in phases lasting seconds: request times swung by
    up to 2x between phases, and raw run medians by 40 % from run to run, far
    past any useful bound. A SIGALRM handler runs a fixed reference kernel
    every PROBE_INTERVAL_S. A request's time, less the handler's own time
    inside it, is multiplied by the mean of REFERENCE_KERNEL_S / kernel time
    over the samples within PROBE_WINDOW_S of the request: the mean speed
    relative to the reference, so the product is the request's time at a
    fixed machine speed. The raw wall times are reported beside the scaled
    ones.

    The kernel is a short scipy Nelder-Mead run, the machinery of the
    package's mode solver. On repeated identical requests of all three
    workloads, log request time rose with log kernel time at slope 0.99-1.03
    over 1.6-1.8x swings, and scaling halved the spread; kernels of bare
    numpy calls tracked at slope 0.67-0.92.
    """

    def __init__(self):
        import numpy
        from scipy import optimize

        self._np = numpy
        self._minimize = optimize.minimize
        self._grid = numpy.linspace(0.1, 1.0, 64)
        self.at: list[float] = []
        self.cost: list[float] = []
        self.kernel_s()  # the first run pays one-time costs

    def _objective(self, x) -> float:
        decay = self._np.exp(-self._grid * x[0])
        return (x[0] - 1.0) ** 2 + 2.0 * (x[1] - 0.5) ** 2 + 1e-3 * float(decay.sum())

    def kernel_s(self) -> float:
        """Seconds for twelve Nelder-Mead iterations on a fixed 2-D function."""
        start = time.perf_counter()
        self._minimize(self._objective, [2.0, 2.0], method="Nelder-Mead",
                       options={"maxiter": 12})
        return time.perf_counter() - start

    def sample(self, *_signal_args) -> None:
        self.at.append(time.perf_counter())
        self.cost.append(self.kernel_s())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> tuple[float, float]:
        """(scale factor, handler seconds spent inside [start, end])."""
        lo = bisect.bisect_left(self.at, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + PROBE_WINDOW_S)
        if lo == hi:  # no sample close by: take the nearest one
            lo = min(lo, len(self.at) - 1)
            hi = lo + 1
        window = range(lo, hi)
        inside = sum(self.cost[i] for i in window if start <= self.at[i] <= end)
        speed = statistics.fmean(REFERENCE_KERNEL_S / self.cost[i] for i in window)
        return speed, inside


class Pass:
    """Outcome of one timed pass over the request stream."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.items = 0
        self.failures: list[str] = []
        self.classes: list[str] = []
        self.wall: list[float] = []  # raw seconds
        self.scales: list[float] = []
        self.latencies: list[float] = []  # seconds at the reference speed

    def rescale(self, probe: SpeedProbe) -> None:
        for start, end in zip(self.starts, self.ends):
            scale, handler_s = probe.scale(start, end)
            self.wall.append(end - start)
            self.scales.append(scale)
            self.latencies.append((end - start - handler_s) * scale)


def timed_pass(workload, seed: int, seconds: float, tracer=None) -> Pass:
    """Send requests from the seeded stream until ``seconds`` have passed."""
    result = Pass()
    deadline = time.perf_counter() + seconds
    for index, params in enumerate(workload.inputs(seed)):
        if time.perf_counter() >= deadline:
            break
        prepared = workload.prepare(params)
        start = time.perf_counter()
        if tracer is not None:
            tracer.begin_request(index)
        try:
            outcome, error = workload.run(prepared), None
        except Exception as exc:  # an undocumented error fails the request
            outcome, error = None, exc
        finally:
            if tracer is not None:
                tracer.end_request()
        result.starts.append(start)
        result.ends.append(time.perf_counter())
        result.classes.append(params["class"])
        if error is None:
            problems = workload.check(params, outcome)
        else:
            problems = [f"raised {type(error).__name__}: {error}"]
        if problems:
            result.failures.append(f"request {index} ({params['class']}): "
                                   + "; ".join(problems))
        else:
            result.items += workload.items(params)
    return result


def replay(workload, seed: int, tracer, count: int) -> list[str]:
    """Run the first ``count`` requests again, traced, under replay ids."""
    ids = []
    for index, params in enumerate(workload.inputs(seed)):
        if index == count:
            break
        prepared = workload.prepare(params)
        tracer.begin_request(f"replay-{index}")
        try:
            workload.run(prepared)
        except Exception:  # the signature comparison reports the difference
            pass
        finally:
            tracer.end_request()
        ids.append(f"replay-{index}")
    return ids


def count_guard(tracer, traced: Pass, workload, seed: int) -> dict:
    """Layer counts of a request must repeat exactly when it is sent again."""
    covered, count = 0.0, 0
    while count < len(traced.starts) and (count == 0 or covered < GUARD_REPLAY_S):
        covered += traced.ends[count] - traced.starts[count]
        count += 1
    replay_ids = replay(workload, seed, tracer, count)
    first = tracer.signatures(range(count))
    again = tracer.signatures(replay_ids)
    mismatches = []
    for index, replay_id in enumerate(replay_ids):
        if first[index] != again[replay_id]:
            diff = {k: (first[index].get(k, 0), again[replay_id].get(k, 0))
                    for k in sorted(set(first[index]) | set(again[replay_id]))
                    if first[index].get(k, 0) != again[replay_id].get(k, 0)}
            mismatches.append(f"request {index}: {diff}")
    return {"replayed": count, "mismatches": mismatches}


def class_counts(tracer, traced: Pass) -> dict:
    """Distinct per-request counts of the guarded layers, by request class."""
    signatures = tracer.signatures(range(len(traced.classes)))
    names = ("modesolver.solve_mode", "dispersion.load_sellmeier",
             "qpm.fourier_component")
    out: dict = {}
    for index, cls in enumerate(traced.classes):
        entry = out.setdefault(cls, {"requests": 0, **{n: [] for n in names}})
        entry["requests"] += 1
        for name in names:
            value = signatures[index].get(name, 0)
            if value not in entry[name]:
                entry[name].append(value)
    return out


def provenance() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def end_to_end(run: Pass, prefix: str = "") -> dict:
    """Request metrics over the scaled latencies, or the raw ones with a prefix."""
    latencies = run.wall if prefix else run.latencies
    p, tail_s = tail(latencies)
    busy = sum(latencies)
    return {
        f"{prefix}req_p50_ms": statistics.median(latencies) * 1e3,
        f"{prefix}req_tail_ms": tail_s * 1e3,
        f"{prefix}items_per_s": run.items / busy if busy > 0 else 0.0,
        f"{prefix}tail_percentile": p,
        f"{prefix}tail_beyond": sum(x > tail_s for x in latencies),
        f"{prefix}samples": len(latencies),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", help="where the traced run writes its spans")
    parser.add_argument("--src", required=True, help="the checkout's src directory")
    args = parser.parse_args(argv)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    # setup_s: import, default material and one untimed warm-up request. It
    # stays in wall time: scaled by probe samples taken around it, its spread
    # over ten runs grew (0.36 against 0.10 of the median on design-sweep).
    start = time.perf_counter()
    import qpmdesign
    from qpmdesign.pipeline import Material

    material = Material.default()
    import workloads

    workload = workloads.WORKLOADS[args.workload](workdir, material)
    workload.run(workload.prepare(workload.warmup_input()))
    setup_s = time.perf_counter() - start

    package = Path(qpmdesign.__file__).resolve()
    if Path(args.src).resolve() not in package.parents:
        print(f"imported qpmdesign from {package}, not from {args.src}", file=sys.stderr)
        return 2
    doc = {"setup_s": setup_s, "provenance": provenance()}
    if not args.setup_only:
        doc.update(measure(workload, args, SpeedProbe()))
        doc["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(doc))
    return 0


def measure(workload, args, probe: SpeedProbe) -> dict:
    if not args.trace:
        with probe:
            run = timed_pass(workload, args.seed, args.seconds)
        run.rescale(probe)
        return {"passes": [run.__dict__],
                "end_to_end": {**end_to_end(run), **end_to_end(run, "wall_")},
                "checks_run": dict(workload.checks_run)}

    import tracer as tracing

    with probe:
        untraced = timed_pass(workload, args.seed, args.seconds / 2)
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            traced = timed_pass(workload, args.seed, args.seconds / 2, tracer)
            guard = count_guard(tracer, traced, workload, args.seed)
        finally:
            uninstall()
    untraced.rescale(probe)
    traced.rescale(probe)
    layer = tracer.layer_metrics(dict(enumerate(traced.scales)))
    overhead = (statistics.median(traced.latencies)
                / statistics.median(untraced.latencies) - 1.0)
    layer[tracing.OVERHEAD_METRIC[0]] = (overhead, tracing.OVERHEAD_METRIC[1])
    if args.spans:
        tracer.dump(args.spans)
    return {"passes": [untraced.__dict__, traced.__dict__],
            "layer": layer, "guard": guard,
            "class_counts": class_counts(tracer, traced),
            "signatures": list(tracer.signatures(range(len(traced.classes))).values()),
            "checks_run": dict(workload.checks_run)}


if __name__ == "__main__":
    sys.exit(main())
