"""Acceptance gate: one test per criterion, at the stated tolerances and
time budgets, printing one pass/fail line each."""

import json
import subprocess
import sys
import time

from thetanulls import verify

SEED = 0


def _run(fn, number, budget_s):
    start = time.monotonic()
    rep = fn(SEED)
    elapsed = time.monotonic() - start
    status = "PASS" if rep["pass"] else "FAIL"
    print(f"[criterion {number}] {rep['name']}: {status} ({elapsed:.2f}s)")
    assert rep["pass"], rep
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s"
    return rep


def test_criterion_01_characteristic_counts():
    rep = _run(verify.criterion_1, 1, 1.0)
    assert [r["even"] for r in rep["rows"]] == [3, 10, 36, 136, 528, 2080]
    assert [r["odd"] for r in rep["rows"]] == [1, 6, 28, 120, 496, 2016]


def test_criterion_02_arf_and_four_term_laws():
    rep = _run(verify.criterion_2, 2, 10.0)
    # exhaustive over g = 1, 2, 3: sum of 4^2g and 4^3g pair/triple counts
    assert rep["arf_checked"] == 16 + 256 + 4096
    assert rep["four_term_checked"] == 64 + 4096 + 262144


def test_criterion_03_classifier_well_definedness():
    rep = _run(verify.criterion_3, 3, 60.0)
    assert rep["trials"] == 10_000
    assert rep["violations"] == 0


def test_criterion_04_delta_parity_cross_check():
    rep = _run(verify.criterion_4, 4, 60.0)
    assert rep["exhaustive_g2"] == 210
    assert rep["random_g6"] == 100_000
    assert rep["mismatches"] == 0


def test_criterion_05_genus3_orbit_census():
    rep = _run(verify.criterion_5, 5, 300.0)
    assert rep["counts"] == {"A1": 945, "A2": 7560, "A3": 45360, "A4": 5040}
    assert rep["total"] == 58905
    assert rep["orbit_consistent"] is True


def test_criterion_06_bielliptic_witnesses():
    rep = _run(verify.criterion_6, 6, 1.0)
    assert [w["label"] for w in rep["witnesses"]] == ["A1", "A2", "A3", "A4"]


def test_criterion_07_hyperelliptic_model():
    rep = _run(verify.criterion_7, 7, 30.0)
    assert rep["vanishing_g6"] == 364
    assert rep["q_minus_matches_g6"] is True
    assert rep["q_plus_matches_g3"] is True
    assert rep["bijective"] is True
    assert rep["torsor_isomorphism"] is True


def test_criterion_08_transversality_rank():
    rep = _run(verify.criterion_8, 8, 60.0)
    assert [r["g"] for r in rep["rows"]] == [3, 4, 5, 6, 7, 8]
    assert all(r["rank"] == r["g"] - 2 for r in rep["rows"])
    assert all(r["integer_ok"] for r in rep["rows"])
    assert all(r["random_ok"] == 100 for r in rep["rows"])


def test_criterion_09_theta_numerics():
    rep = _run(verify.criterion_9, 9, 300.0)
    assert rep["worst_odd_modulus"] <= 1e-12
    assert rep["worst_split_diff"] <= 1e-10
    assert rep["worst_modulus_diff"] <= 1e-8
    assert rep["level_two_checked"] >= 20
    assert rep["radius_failures"] == 0


def test_run_all_leaves_numpy_ma_unimported():
    # numpy.ma costs about 15 ms to import, once per process
    code = ("import sys; from thetanulls import verify; "
            "assert verify.run_all(0)['all_pass']; "
            "print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_criterion_10_verify_all_deterministic():
    cmd = [sys.executable, "-m", "thetanulls.cli",
           "verify-all", "--seed", str(SEED)]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    ok = (first.returncode == 0 and second.returncode == 0
          and first.stdout == second.stdout)
    print(f"[criterion 10] end-to-end verify-all: {'PASS' if ok else 'FAIL'}")
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout
    rep = json.loads(first.stdout)
    assert rep["all_pass"] is True
    by_number = {c["criterion"]: c for c in rep["criteria"]}
    # report carries the census totals and the witness table
    assert by_number[5]["total"] == 58905
    assert [w["label"] for w in by_number[6]["witnesses"]] == \
        ["A1", "A2", "A3", "A4"]
    # timings go to stderr, keeping stdout deterministic
    assert b"criterion" in first.stderr
