"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Every workload runs at a tiny size, untraced and traced, through the same
`run.measure` the benchmark uses; its output checks must pass and it must
report every metric BENCHMARK.json names.  Then the command line is run
once for its output contract, and once in a directory holding only
BENCHMARK.json and this directory, where it must fail without a result.
Takes a few seconds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import run

sys.path.insert(0, str(run.ROOT / "src"))
from tracing import PER_LAYER  # noqa: E402
from workloads import (WORKLOADS, CliRequests, ThetaCampaign,  # noqa: E402
                       VerifyAll)

# tiny instance of each workload, and per-layer metrics it must reach
TINY = {
    "verify-all": (lambda d: VerifyAll(0, d, criteria=(1, 6, 7, 9)),
                   ["verify.criterion_9_s", "hyperelliptic.std_labeling.calls",
                    "bielliptic.verify_witnesses.ms_per_call",
                    "thetanum.theta_constant.ms_per_call.g3"]),
    "theta-campaign": (lambda d: ThetaCampaign(
        0, d, layout={1: (1, None), 2: (1, None), 5: (1, 2)}),
        ["thetanum.theta_constant.ms_per_call.g5",
         "thetanum.SiegelMatrix.us_per_construct",
         "thetanum.transform_modulus_check.self_ms",
         "thetanum.block_diag_split_check.self_ms"]),
    "cli-requests": (lambda d: CliRequests(1, d),
                     [f"cli.{sub}.p50_ms" for sub in (
                         "enumerate", "classify", "orbit-census",
                         "hyperelliptic", "bielliptic", "theta",
                         "transversal")]
                     + ["cli.main.self_ms", "orbits.orbit_bfs.nodes",
                        "transversal.basis_polys.max_coeff_bits"]),
}


def _names(metrics) -> list[str]:
    return [m["name"] for m in metrics]


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert _names(spec["workloads"]) == list(WORKLOADS) == list(TINY)
    work = run.WORK / "smoke"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name, (make, reached) in TINY.items():
            for trace in (False, True):
                workload = make(str(work))
                values, units = run.measure(workload, 0.01, trace)
                attempted, failed, notes = workload.check()
                assert attempted > 0 and failed == 0, notes
                want = spec["per_layer" if trace else "end_to_end"]
                assert [n for n, _ in units] == _names(want)
                assert all(math.isfinite(values[n]) for n, _ in units)
                if trace:
                    assert all(values[n] > 0 for n in reached), name
                else:
                    assert all(values[n] > 0 for n, _ in units
                               if n != "setup_s"), values
                print(f"smoke: {name} trace={int(trace)} ok "
                      f"({attempted} ops checked)")

        cmd = [sys.executable, "perfbench/run.py", "--workload",
               "cli-requests", "--seed", "2", "--seconds", "1", "--trace", "0"]
        out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True,
                             text=True, timeout=180)
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert list(result["metrics"]) == _names(spec["end_to_end"])
        print("smoke: command line ok")

        bare = work / "bare"
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        out = subprocess.run(cmd, cwd=bare, capture_output=True, text=True,
                             timeout=180)
        assert out.returncode != 0 and not out.stdout.strip(), out.stdout
        print("smoke: fails without the package ok")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
