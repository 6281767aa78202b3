"""Benchmark of the thetanulls package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.
Workloads (see README.md next to this file for why each was chosen):

  verify-all      one in-process verify.run_all(seed) per pass
  theta-campaign  certified theta_constant calls over seeded Siegel matrices
  cli-requests    cli.main(argv) in-process on a seeded deck of requests

A run builds the workload's inputs, then repeats whole passes over them in a
closed loop with one caller until the next pass would end after --seconds
(at least one pass), and checks every output afterwards.  With --trace 0 it
reports the end-to-end metrics, with times at the reference machine speed
of calibrate.py (raw times go to the metadata line); with --trace 1 it
runs an untraced and a
traced phase of --seconds/2 each and reports the per-layer metrics and the
tracing overhead.  The last line of stdout is the JSON result; the line
before it holds run metadata and the error rate.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
SETUP_PROBES = 5

# end-to-end metrics of an untraced run, in report order, with their units
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"),
              ("p50_ms", "ms"), ("p99_ms", "ms"), ("peak_rss_mb", "MB"),
              ("bound_excess_frac", "fraction")]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: build the workload's inputs in a fresh interpreter and exit
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return "unknown"


def _metadata() -> dict:
    import numpy
    src = ROOT / "src" / "thetanulls"
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted(src.glob("*.py")))
    return {"commit": _commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "src_lines": lines}


def setup_s(workload: str, seed: int) -> float:
    """Median wall time of SETUP_PROBES fresh interpreters that import the
    package and build this workload's inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, __file__, "--probe-setup",
                        "--workload", workload, "--seed", str(seed)],
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _phase(workload, seconds: float, tracer=None,
           sampler=None) -> tuple[list[tuple[float, float]], float]:
    """Run whole passes until the next one would end after `seconds`;
    return the (start, end) stamps of each pass and the peak RSS (MB) at
    the end of the first.  A `sampler` is active for the whole phase."""
    from tracing import Patches
    passes: list[tuple[float, float]] = []
    with Patches() as patches, sampler or contextlib.nullcontext():
        if tracer is not None:
            tracer.install(patches)
        workload.instrument(patches)
        start = time.perf_counter()
        while True:
            # each pass starts from the same collector state
            gc.collect()
            t0 = time.perf_counter()
            outputs = workload.run_pass()
            t1 = time.perf_counter()
            passes.append((t0, t1))
            workload.record(outputs)
            if len(passes) == 1:
                rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if t1 - start + (t1 - t0) > seconds:
                return passes, rss / 1024


def _percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks; defined for one value."""
    v = sorted(values)
    pos = (len(v) - 1) * q / 100
    lo = int(pos)
    return v[lo] + (v[min(lo + 1, len(v) - 1)] - v[lo]) * (pos - lo)


def measure(workload, seconds: float, trace: bool, setup=lambda: 0.0,
            trace_path=None) -> tuple[dict, list]:
    """Metric values and (name, unit) list of one run; `setup` gives
    setup_s, and a traced run writes its spans to `trace_path`."""
    if trace:
        from tracing import PER_LAYER, Tracer, layer_metrics
        plain, _rss = _phase(workload, seconds / 2)
        tracer = Tracer()
        traced, _rss = _phase(workload, seconds / 2, tracer)
        values = layer_metrics(tracer, len(traced))
        values["trace.overhead_s"] = (
            statistics.fmean(e - s for s, e in traced)
            - statistics.fmean(e - s for s, e in plain))
        if trace_path is not None:
            tracer.write(trace_path)
        return values, PER_LAYER
    from calibrate import Sampler
    sampler = Sampler()
    passes, rss_mb = _phase(workload, seconds, sampler=sampler)
    stamps = workload.stamps
    # reference times (see calibrate.py) for the gated metrics; raw ones
    # go to the metadata line
    values = {}
    for kind, length in (("", sampler.length), ("raw_", _raw_length)):
        walls = [length(s, e) for s, e in passes]
        lat = [length(stamps[i], stamps[i + 1])
               for i in range(0, len(stamps), 2)]
        values.update({
            # a mean: pass times are bimodal on a shared machine, and a
            # median of a bimodal sample jumps between the modes
            kind + "wall_s": statistics.fmean(walls),
            kind + "ops_per_s": len(lat) / sum(walls),
            kind + "p50_ms": statistics.median(lat) * 1e3,
            kind + "p99_ms": _percentile(lat, 99) * 1e3,
        })
    values.update({
        "setup_s": setup(),
        # at the end of the first pass: later passes can raise the peak a
        # little, and how many fit depends on the machine's speed
        "peak_rss_mb": rss_mb,
        "bound_excess_frac":
            workload.bound_excess / max(1, workload.theta_calls),
        "calibration_samples": len(sampler.starts),
        "calibration_kernel_ms": statistics.median(
            e - s for s, e in zip(sampler.starts, sampler.ends)) * 1e3,
    })
    return values, END_TO_END


def _raw_length(start: float, end: float) -> float:
    return end - start


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "thetanulls" / "__init__.py").is_file():
        print(f"perfbench: no thetanulls package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, str(workdir))
        if args.probe_setup:
            return 0
        return _run(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workload) -> int:
    values, units = measure(
        workload, args.seconds, bool(args.trace),
        lambda: setup_s(args.workload, args.seed),
        WORK / f"trace-{args.workload}-seed{args.seed}.jsonl")
    attempted, failed, notes = workload.check()
    for note in notes:
        print(note, file=sys.stderr)
    for name, unit in units:
        print(f"{args.workload:>14}  {name:<48} {values[name]:>14.6g} {unit}",
              file=sys.stderr)
    gated = {name for name, _unit in units}
    print(json.dumps({"metadata": _metadata(), "workload": args.workload,
                      "seed": args.seed, "passes": workload.passes,
                      "error_rate": failed / attempted,
                      "other": {name: value for name, value in values.items()
                                if name not in gated}}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
