"""qew benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload network-report --seed 1 --seconds 25 --trace 0

Run from the root of a qew checkout; qew is imported from its ``src``.
With ``--trace 0`` the workload's operations run in a closed loop for
``--seconds``, with a calibration loop timed between them, and the
end-to-end metrics are reported.  With ``--trace 1`` a
fixed number of operations runs untraced and then traced, and the per-layer
metrics are reported.  The last line of stdout is the result object; the
lines before it hold the environment and the workload's own named metrics.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
import traceback

from tracer import Tracer, per_layer_names

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

# One BLAS thread: a probe of a 10-qubit report read 4.3-5.5 s with two
# threads and 7.1-7.9 s with one; slower, but half the spread.
BLAS_THREADS = 1
SETUP_REPS = 5
# The calibration loop runs after an operation once this long has passed
# since its last run.
CALIBRATE_EVERY_S = 0.25
QEW_MODULES = ("qmat", "states", "witnesses", "oracle", "networks", "zkp", "cli")


def pin_blas_threads() -> int:
    """Pin the BLAS pool of this process; must run before numpy is imported."""
    n = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def import_qew():
    """Import qew afresh from this checkout's ``src``; fail if it is absent."""
    from types import SimpleNamespace

    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "qew" or n.startswith("qew.")]:
        del sys.modules[name]
    qew = importlib.import_module("qew")
    if os.path.dirname(os.path.dirname(os.path.abspath(qew.__file__))) != src:
        raise ImportError(f"qew was imported from {qew.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"qew.{m}") for m in QEW_MODULES})


def environment(np, blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
    }


class Calibration:
    """A fixed loop that runs no qew code, timed between operations.

    On a shared host the machine's speed swings by up to 2x over tens of
    seconds, and for every kind of work at once.  The loop's time tracks
    that swing; an operation's time over the loop's time cancels most of
    it.  The loop mixes the kinds of work the workloads do: small LAPACK
    calls from Python, a dense complex product, text formatting and
    parsing, and a pass over long arrays.  It writes its large results into
    buffers it owns: a fresh large array costs page faults that depend on
    what the process allocated before, which would tie the loop's time to
    qew's own allocations.
    """

    def __init__(self, np) -> None:
        rng = np.random.default_rng(0)
        self.np = np
        small = rng.standard_normal((4, 4))
        self.small = small + small.T
        self.dense = rng.standard_normal((192, 192)) + 1j * rng.standard_normal((192, 192))
        self.product = np.empty_like(self.dense)
        self.ints = rng.integers(0, 4, 200_000)
        self.mask = np.empty(self.ints.shape, dtype=bool)
        self.counts = np.empty_like(self.ints)
        self.times: list[float] = []
        self.last = -math.inf

    def run(self) -> float:
        np = self.np
        start = time.perf_counter()
        acc = sum(float(np.linalg.eigvalsh(self.small + k)[0]) for k in range(100))
        acc += float(np.matmul(self.dense, self.dense, out=self.product).real.sum())
        text = ",".join(map(str, self.ints[:5000].tolist()))
        acc += sum(int(v) for v in text.split(","))
        np.equal(self.ints, 2, out=self.mask)
        acc += int(np.cumsum(self.mask, out=self.counts)[-1])
        elapsed = time.perf_counter() - start
        if not math.isfinite(acc):
            raise ArithmeticError("calibration loop produced a non-finite value")
        return elapsed

    def tick(self) -> None:
        """Run the loop twice if it has not run for CALIBRATE_EVERY_S, and
        record the second time: the first pass refills the caches that the
        operation before it used."""
        if time.perf_counter() - self.last >= CALIBRATE_EVERY_S:
            self.run()
            self.times.append(self.run())
            self.last = time.perf_counter()


def setup(wl, seed: int, workdir: str) -> list[float]:
    """Fresh import, input generation and warm-up, repeated; returns the
    time of each.  The workload keeps the last set-up."""
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        wl.prepare(import_qew(), seed, workdir)
        times.append(time.perf_counter() - start)
    return times


def run_ops(
    wl, indices, deadline: float | None = None, tracer: Tracer | None = None, calibration: Calibration | None = None
) -> tuple[list[float], int]:
    """Run operations in a closed loop; returns (latencies, failed count).

    Only ``op`` is timed; its output is checked after the clock stops, with
    tracing paused, and then the calibration loop gets its turn.  With a
    deadline, stops before the first operation that would start after it,
    once every class has run.  An operation that raises counts as failed.
    """
    latencies, failed = [], 0
    for i in indices:
        if deadline is not None and len(latencies) >= wl.classes and time.perf_counter() >= deadline:
            break
        start = time.perf_counter()
        try:
            output, ok = wl.op(i), True
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        latencies.append(time.perf_counter() - start)
        if ok:
            try:
                with tracer.paused() if tracer else contextlib.nullcontext():
                    ok = wl.check(i, output)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
        failed += not ok
        if calibration is not None:
            calibration.tick()
    return latencies, failed


def class_medians(wl, latencies: list[float]) -> list[float]:
    """Median operation time of each class."""
    return [statistics.median(latencies[c :: wl.classes]) for c in range(wl.classes)]


def measure(wl, seconds: float, calibration: Calibration) -> tuple[dict, dict, int, int]:
    """Untraced closed loop for ``seconds``: end-to-end metrics.

    ``op_ms`` is the time of one operation of each class (sum of the class
    medians), and ``op_per_cal`` is that over the median time of the
    calibration loop run between operations; the workload also names its
    own metrics from the medians.
    """
    start = time.perf_counter()
    latencies, failed = run_ops(wl, range(sys.maxsize), deadline=start + seconds, calibration=calibration)
    medians = class_medians(wl, latencies)
    cal_s = statistics.median(calibration.times)
    n = len(latencies)
    named = {name: {"value": value, "unit": unit, "n": n} for name, (value, unit) in wl.named(medians).items()}
    named["op_ms"] = {"value": sum(medians) * 1e3, "unit": "ms", "n": n}
    named["cal_ms"] = {"value": cal_s * 1e3, "unit": "ms", "n": len(calibration.times)}
    return {"op_per_cal": {"value": sum(medians) / cal_s, "unit": "ratio"}}, named, n, failed


def trace_ops(wl, seconds: float) -> int:
    """Operations per half of a traced run: fixed by the workload and
    ``--seconds`` alone, so counts repeat exactly for a given seed."""
    return max(2 * wl.classes, math.ceil(seconds / 2 / wl.nominal_op_s))


def measure_traced(wl, seconds: float, spans_path: str) -> tuple[dict, int, int]:
    """The same operations untraced, then traced: per-layer metrics."""
    k = trace_ops(wl, seconds)
    plain, failed_plain = run_ops(wl, range(k))
    tracer = Tracer()
    tracer.install()
    try:
        traced, failed_traced = run_ops(wl, range(k), tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)
    # kept_frac is 0 on workloads that draw no channel images
    stats = {"oracle.channel_images.kept_frac": 0.0, **tracer.stats(), **getattr(wl, "counters", dict)()}
    untraced_ms = sum(class_medians(wl, plain)) * 1e3
    traced_ms = sum(class_medians(wl, traced)) * 1e3
    stats["trace.overhead_ms"] = traced_ms - untraced_ms
    stats["trace.overhead_frac"] = (traced_ms - untraced_ms) / untraced_ms
    return stats, 2 * k, failed_plain + failed_traced


def per_layer_units() -> dict[str, str]:
    units = dict(per_layer_names())
    units.update({"oracle.channel_images.kept_frac": "ratio", "trace.overhead_ms": "ms", "trace.overhead_frac": "ratio"})
    return units


def main(argv=None, workload=None) -> int:
    """Run one workload; ``workload`` overrides the named one (tests pass
    small instances)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    blas_threads = pin_blas_threads()
    import numpy as np

    from workloads import WORKLOADS

    if workload is None:
        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        workload = WORKLOADS[args.workload]()
    try:
        import_qew()
    except ImportError as exc:
        print(f"error: cannot import qew from {ROOT}/src: {exc}", file=sys.stderr)
        return 2

    env = environment(np, blas_threads)
    tag = f"{args.workload}-seed{args.seed}"
    workdir = os.path.join(OUT_DIR, f"{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setup_s = {"value": statistics.median(setup(workload, args.seed, workdir)), "unit": "s"}
        if args.trace:
            metrics, attempted, failed = measure_traced(
                workload, args.seconds, os.path.join(OUT_DIR, f"{tag}-spans.jsonl")
            )
            units = per_layer_units()
            metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
            named = {}
        else:
            metrics, named, attempted, failed = measure(workload, args.seconds, Calibration(np))
            metrics["setup_s"] = setup_s
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    named["setup_s"] = dict(setup_s, n=SETUP_REPS)
    named["fail_frac"] = {"value": failed / attempted, "unit": "ratio", "attempted": attempted}
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace, samples=attempted)
    print(json.dumps({"env": env}))
    print(json.dumps({"workload": args.workload, "named": named}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
