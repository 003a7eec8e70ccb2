"""End-to-end and per-layer benchmark of ``ladm``.

    python3 perfbench/run.py --workload {sweep,compare,generic} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; ``ladm`` is imported from its
``src/``. One client runs operations in a closed loop: the next starts
when the previous has returned, with no extra threads or processes for
load. Inputs come from the seed. Every operation's output is checked
against references computed without ``ladm`` (``refs.py``), outside the
timed region; an operation fails if it raises, exits non-zero or fails
its check.

Times are reported at a reference host speed: each operation's wall time
is divided by the time the fixed ``host_kernel`` took around it, and
multiplied by KERNEL_REF_S. See README.md for why.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
``spans.py``, from replaying the untraced run's operations with the
layers wrapped.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"

SETUP_REPEATS = 5
MIN_OPS = 120  # at least ten samples beyond p90
WARMUP_S = 2.0  # imports, first-call caches, allocator
KERNEL_REF_S = 1e-3  # reported times are those of a host on which host_kernel takes 1 ms
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import ladm, ladm.cli; ladm.cli.build_parser()"
)

_KERNEL_ARRAY = np.linspace(0.0, 1.0, 16)


def host_kernel() -> float:
    """Fixed work, independent of ladm, timed to gauge the host's current speed.

    Mixes interpreted float and dict work with small numpy calls, the blend
    the three workloads spend their time on. Returns its wall time in seconds.
    """
    t0 = time.perf_counter()
    acc: dict[int, float] = {}
    for i in range(1500):
        acc[i % 13] = acc.get(i % 13, 0.0) + math.sin(i * 0.001) * (i % 7)
    a = _KERNEL_ARRAY
    for i in range(150):
        a = np.abs(a * 0.999 - 0.001)
        acc[i % 13] += float(a[i % 16])
    return time.perf_counter() - t0


def measure_setup() -> float:
    """Median time of a fresh interpreter importing ladm and building the parser."""
    times = []
    before = host_kernel()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT, check=True)
        wall = time.perf_counter() - t0
        after = host_kernel()
        times.append(wall * 2 * KERNEL_REF_S / (before + after))
        before = after
    return statistics.median(times)


class Loop:
    """Runs operations one at a time, times them and checks their outputs.

    ``times`` holds each operation's time at the reference host speed,
    ``walls`` its raw wall time and ``kernels`` the host_kernel times.
    """

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.times: list[float] = []
        self.walls: list[float] = []
        self.kernels: list[float] = []
        self.failed = 0
        self.ref_err_max = 0.0

    def run(self, ops) -> None:
        wl = self.workload
        clock = time.perf_counter
        before = host_kernel()
        for op in ops:
            why = None
            t0 = clock()
            try:
                out = wl.run(op)
            except Exception:
                why = traceback.format_exc()
            wall = clock() - t0
            after = host_kernel()
            self.walls.append(wall)
            self.kernels.append(after)
            self.times.append(wall * 2 * KERNEL_REF_S / (before + after))
            before = after
            if why is not None:
                self._fail(op, why)
                continue
            if self.tracer is not None:
                self._count_bytes(op, out)
            try:
                self.ref_err_max = max(self.ref_err_max, wl.check(op, out))
            except Exception:
                self._fail(op, traceback.format_exc())

    def _fail(self, op, why: str) -> None:
        self.failed += 1
        if self.failed <= 3:
            print(f"FAILED {op}:\n{why}", file=sys.stderr)

    def _count_bytes(self, op, out) -> None:
        results = out if isinstance(out, tuple) else (out,)
        stdout = sum(len(r.stdout) for r in results if hasattr(r, "stdout"))
        files = sum(Path(p).stat().st_size for p in self.workload.outputs(op) if Path(p).exists())
        self.tracer.counts["cli.bytes_out"] += stdout + files


def run_cycles(loop: Loop, workload, seconds: float, min_ops: int) -> list:
    """Whole cycles until `seconds` of operation time and `min_ops` operations."""
    done = []
    while sum(loop.walls) < seconds or len(loop.walls) < min_ops:
        ops = workload.cycle()
        loop.run(ops)
        done.extend(ops)
    return done


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, seconds: float) -> tuple[dict, int, int]:
    setup_s = measure_setup()
    run_cycles(Loop(workload), workload, WARMUP_S, 0)
    loop = Loop(workload)
    run_cycles(loop, workload, seconds, MIN_OPS)
    t = loop.times
    n = len(t)
    p90 = statistics.quantiles(t, n=10)[8]
    print(f"{workload.name}: {n} ops, {sum(x > p90 for x in t)} beyond p90, "
          f"failed_frac={loop.failed / n}, ref_err_max={loop.ref_err_max:.3g}, "
          f"raw wall p50={statistics.median(loop.walls) * 1e3:.2f} ms, "
          f"host_kernel p50={statistics.median(loop.kernels) * 1e3:.3f} ms")
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "p50_ms": metric(statistics.median(t) * 1e3, "ms"),
        "p90_ms": metric(p90 * 1e3, "ms"),
        "ops_per_s": metric((n - loop.failed) / sum(t), "1/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, n, loop.failed


def per_layer(workload, seconds: float) -> tuple[dict, int, int]:
    import spans

    run_cycles(Loop(workload), workload, WARMUP_S, 0)
    plain = Loop(workload)
    ops = run_cycles(plain, workload, seconds / 2, 0)
    tracer = spans.Tracer()
    traced = Loop(workload, tracer)
    with tracer.installed():
        traced.run(ops)
    n = len(ops)
    kernel = statistics.median(traced.kernels)
    metrics = {k: metric(v * KERNEL_REF_S / kernel if u == "ms/op" else v, u)
               for k, (v, u) in tracer.metrics(n).items()}
    metrics["check.ref_err_max"] = metric(max(plain.ref_err_max, traced.ref_err_max), "1")
    metrics["check.failed"] = metric(plain.failed + traced.failed, "count")
    metrics["trace.overhead_frac"] = metric(sum(traced.times) / sum(plain.times) - 1.0, "ratio")
    metrics["host.kernel_ms"] = metric(kernel * 1e3, "ms")
    print(f"{workload.name}: {n} ops replayed traced, {traced.failed} failed")
    return metrics, 2 * n, plain.failed + traced.failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ladm" / "__init__.py").is_file():
        print(f"error: no ladm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ladm
    import workloads

    if Path(ladm.__file__).resolve().parent != SRC / "ladm":
        print(f"error: imported ladm from {ladm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    WORKDIR.mkdir(exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](random.Random(args.seed), WORKDIR)
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed = measure(wl, args.seconds)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
