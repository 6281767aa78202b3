"""Acceptance criteria drivers.

Each criterion function returns a JSON-serializable report with a "pass"
key.  run_all collects them; given a fixed seed the full report is
byte-deterministic (timings go to an optional per-criterion callback and are
kept out of the report for that reason).  Randomized suites draw from
generators seeded per criterion as seed * 1009 + criterion number, so
criteria are independently reproducible: criteria 3 and 4 sample whole
arrays of quadruples from numpy generators (np.random.default_rng), the
others use stdlib Mersenne generators (random.Random).
"""

from __future__ import annotations

import math
import random
import time
from typing import Callable

import numpy as np

from . import __version__
from .bielliptic import verify_witnesses
from .f2core import F2Vector, _mask_dtype, _pair, _q0
from .hyperelliptic import (_canonical, _h0, char_table, formula_agreement,
                            std_labeling, vanishing_thetanulls)
from .orbits import (_class_code, _delta_code, _differences_arr,
                     _invariants, all_quadruples, census_report,
                     classify_array, random_quadruples)
from .quadforms import (_transvect_char, characteristic_counts,
                        odd_characteristics)
from .thetanum import (random_int_symplectic, random_level_two,
                       random_siegel, block_diag_split_check,
                       theta_constant, transform_modulus_check)
from .transversal import NodeSet, _diagonal, transversality_report


def _sub_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1009 + index)


def _sub_generator(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(seed * 1009 + index)


def criterion_1(seed: int = 0) -> dict:
    """Even/odd characteristic counts 2^(g-1)(2^g +- 1), g=1..6."""
    rows = []
    ok = True
    for g in range(1, 7):
        even, odd = characteristic_counts(g)
        want_even = (1 << (g - 1)) * ((1 << g) + 1)
        want_odd = (1 << (g - 1)) * ((1 << g) - 1)
        good = even == want_even and odd == want_odd
        ok = ok and good
        rows.append({"g": g, "even": even, "odd": odd, "ok": good})
    return {"criterion": 1, "name": "characteristic counts",
            "rows": rows, "pass": ok}


def criterion_2(seed: int = 0) -> dict:
    """Arf shift law and the four-term relation, exhaustive for g <= 3, on
    the mask kernel, which is checked on every pair, as narrow mask arrays
    and as plain ints, against the coordinate-wise definitions."""
    arf_checked = 0
    four_checked = 0
    ok = True
    for g in (1, 2, 3):
        n = 1 << (2 * g)
        v = np.arange(n, dtype=_mask_dtype(2 * g))
        a, j = v[:, None], v[None, :]
        pair = _pair(a, j, g)
        q0 = _q0(v, g)
        # <a, b> = sum_i a_i b_(g+i) + a_(g+i) b_i and q0(v) = sum_i v_i
        # v_(g+i), coordinate by coordinate
        lo, hi = np.split((a >> np.arange(2 * g)) & 1, 2, axis=1)
        ok = (ok and pair.tolist() == ((lo @ hi.T + hi @ lo.T) % 2).tolist()
              == [[_pair(x, y, g) for y in range(n)] for x in range(n)]
              and q0.tolist() == ((lo * hi).sum(axis=1) % 2).tolist()
              == [_q0(x, g) for x in range(n)])
        # arf(q_c) = q0(c) and q_a(j) = q0(j) + <a, j>, so the shift law
        # arf(q_{a+j}) = arf(q_a) + q_a(j) reads:
        ok = ok and np.array_equal(_q0(a ^ j, g), q0[a] ^ q0[j] ^ pair)
        arf_checked += n * n
        # parity(k+j1+j2) + parity(k+j1) + parity(k+j2) + parity(k)
        # = <j1, j2>, with parity = q0
        k, j1, j2 = v[:, None, None], v[:, None], v[None, :]
        lhs = (_q0(k ^ j1 ^ j2, g) ^ _q0(k ^ j1, g)
               ^ _q0(k ^ j2, g) ^ q0[k])
        ok = ok and bool(np.all(lhs == pair))
        four_checked += n ** 3
    return {"criterion": 2, "name": "arf and four-term laws",
            "arf_checked": arf_checked, "four_term_checked": four_checked,
            "pass": ok}


def criterion_3(seed: int = 0) -> dict:
    """Classifier well-definedness on 10^4 random g=6 quadruples: all four
    bases agree, and a row permutation and 20 random transvections keep
    the label."""
    rng = _sub_generator(seed, 3)
    g = 6
    trials = 10_000
    ks = random_quadruples(g, trials, rng)
    label = classify_array(ks, g)
    bad = np.zeros(trials, dtype=bool)
    for base in range(3):
        bad |= classify_array(ks, g, base) != label
    bad |= classify_array(rng.permuted(ks, axis=1), g) != label
    moved = ks
    for _ in range(20):
        # drawn as int64, whose stream a narrow dtype would change
        v = rng.integers(1, 1 << (2 * g), size=(trials, 1)).astype(
            _mask_dtype(2 * g))
        moved = _transvect_char(v, moved, g)
    bad |= classify_array(moved, g) != label
    violations = int(np.count_nonzero(bad))
    return {"criterion": 3, "name": "classifier well-definedness",
            "trials": trials, "violations": violations,
            "pass": violations == 0}


def criterion_4(seed: int = 0) -> dict:
    """classify == classify_by_delta, exhaustive g=2 plus 10^5 random g=6:
    the class and delta codes read off one pass of the invariants."""
    quads2 = all_quadruples(2)
    trials = 100_000
    ks = random_quadruples(6, trials, _sub_generator(seed, 4))
    mismatches = 0
    for quads, g in ((quads2, 2), (ks, 6)):
        inv = _invariants(*_differences_arr(quads, 3), g)
        mismatches += int(np.count_nonzero(_class_code(*inv)
                                           != _delta_code(*inv)))
    return {"criterion": 4, "name": "delta-parity cross-check",
            "exhaustive_g2": len(quads2), "random_g6": trials,
            "mismatches": mismatches, "pass": mismatches == 0}


def criterion_5(seed: int = 0) -> dict:
    """g=3 census over all 58905 quadruples with BFS orbit consistency."""
    rep = census_report(3)
    want = {"A1": 945, "A2": 7560, "A3": 45360, "A4": 5040}
    ok = (rep["counts"] == want and rep["total"] == 58905
          and rep["orbit_consistent"])
    return {"criterion": 5, "name": "genus-3 orbit census",
            "counts": rep["counts"], "total": rep["total"],
            "orbit_sizes": rep["orbit_sizes"],
            "orbit_consistent": rep["orbit_consistent"], "pass": ok}


def criterion_6(seed: int = 0) -> dict:
    """Bielliptic witness quadruples hit all four orbit labels."""
    rows = verify_witnesses()
    ok = all(r["ok"] for r in rows)
    got = [r["expected"] for r in rows]
    ok = ok and got == ["A1", "A2", "A3", "A4"]
    table = [{"chars": r["chars"], "label": r["expected"]} for r in rows]
    return {"criterion": 6, "name": "bielliptic witnesses",
            "witnesses": table, "pass": ok}


def criterion_7(seed: int = 0) -> dict:
    """Hyperelliptic model at g=6: vanishing count, parity formulas, and
    over the image table of all 4096 characteristics: parity preservation,
    bijectivity and the torsor isomorphism c(k + e_j) = c(k) + image_j."""
    g = 6
    label6 = std_labeling(g)
    vanishing = len(vanishing_thetanulls(label6))
    agree6 = formula_agreement(6)  # g=6 uses the count-based q_minus form
    agree3 = formula_agreement(3)  # g=3 uses q_plus
    ks = np.arange(1 << (2 * g), dtype=np.int64)
    table = char_table(label6)
    parity_ok = bool(np.array_equal(_h0(table, g) & 1, _q0(ks, g)))
    # by a sort: np.unique imports numpy.ma, about 15 ms once per process
    srt = np.sort(table)
    bijective = bool(np.all(srt[1:] != srt[:-1]))
    torsor_ok = all(
        np.array_equal(table[ks ^ (1 << j)],
                       _canonical(table ^ img.mask, g))
        for j, img in enumerate(label6.basis_images))
    ok = (vanishing == 364 and agree6 and agree3 and parity_ok
          and bijective and torsor_ok)
    return {"criterion": 7, "name": "hyperelliptic model",
            "vanishing_g6": vanishing,
            "q_minus_matches_g6": agree6,
            "q_plus_matches_g3": agree3,
            "parity_preserving": parity_ok, "bijective": bijective,
            "torsor_isomorphism": torsor_ok, "pass": ok}


def _random_nodes(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """n distinct random nodes p/q (|p| <= 400, 1 <= q <= 39) as reduced
    int pairs, sorted by the float p/q: two distinct nodes differ by at
    least 1/39**2, far above the float spacing, so the order is exact.

    p and q equal rng.randrange(-400, 401) and rng.randrange(1, 40), and
    leave rng in the same state: CPython's randrange (3.10 to 3.13) draws
    below a width w by taking w.bit_length() bits from getrandbits until
    the value is below w, here 10 bits below 801 and 6 bits below 39.
    Calling getrandbits directly skips randrange's argument checks, which
    cost more than the draw."""
    bits = rng.getrandbits
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < n:
        p = bits(10)
        while p > 800:
            p = bits(10)
        q = bits(6)
        while q > 38:
            q = bits(6)
        p -= 400
        q += 1
        d = math.gcd(p, q)
        pairs.add((p // d, q // d))
    return sorted(pairs, key=lambda pq: pq[0] / pq[1])


def criterion_8(seed: int = 0) -> dict:
    """Transversality rank g-2 for integer and random rational node sets,
    g = 3..8, 100 rational trials per genus, each rank certified exactly
    by the Lagrange diagonal: the full transversality_report for the
    integer nodes, the _diagonal kernel alone for the random ones
    (_random_nodes), of whose report only the verdict would be read.
    Transversality holds for every set of distinct nodes, so every trial
    passes."""
    rng = _sub_rng(seed, 8)
    rows = []
    ok = True
    trials = 100
    for g in range(3, 9):
        ns = NodeSet.from_values(g, list(range(1, 2 * g + 3)))
        s = list(range(1, g - 1))
        rep = transversality_report(ns, s)
        integer_ok = rep["pass"]
        random_ok = 0
        for _ in range(trials):
            nodes = _random_nodes(rng, 2 * g + 2)
            labels = rng.sample(range(1, 2 * g + 3), g - 2)
            # rank g-2: all g-2 diagonal entries nonzero
            if all(_diagonal(nodes, labels)):
                random_ok += 1
        ok = ok and integer_ok and random_ok == trials
        rows.append({"g": g, "rank": rep["rank"], "integer_ok": integer_ok,
                     "random_ok": random_ok})
    return {"criterion": 8, "name": "transversality rank",
            "rows": rows, "trials_per_genus": trials, "pass": ok}


def criterion_9(seed: int = 0) -> dict:
    """Theta numerics: odd vanishing, block splitting, modulus
    transformation, double-radius certificates.

    theta_constant reads an odd characteristic's value as exactly 0.0 by
    the structure of its sum (the two points of each +-x pair cancel), so
    worst_odd_modulus is 0.0; the check stays, and would catch a sum that
    lost that structure."""
    rng = _sub_rng(seed, 9)
    odd = {g: list(odd_characteristics(g)) for g in (1, 2, 3)}
    worst_odd = 0.0
    for i in range(50):
        g = 1 + i % 3
        z = random_siegel(g, rng, min_im=0.3)
        for k in odd[g]:
            v, _ = theta_constant(z, k, 1e-12)
            worst_odd = max(worst_odd, abs(v))
    odd_ok = worst_odd <= 1e-12

    split_fail = 0
    worst_split = 0.0
    for _ in range(100):
        z1 = random_siegel(1, rng)
        z2 = random_siegel(1, rng)
        k1 = F2Vector(1, rng.randrange(4))
        k2 = F2Vector(1, rng.randrange(4))
        rep = block_diag_split_check([z1, z2], [k1, k2], 1e-10)
        worst_split = max(worst_split, rep["diff"])
        if not rep["pass"] or rep["diff"] > 1e-10:
            split_fail += 1
    split_ok = split_fail == 0

    mod_fail = 0
    worst_mod = 0.0
    level_two_checked = 0
    for i in range(100):
        g = 1 + i % 2
        if i < 20:
            m = random_level_two(g, rng, steps=3)
        else:
            m = random_int_symplectic(g, rng, steps=3)
        z = random_siegel(g, rng, min_im=0.8)
        k = F2Vector(g, rng.randrange(1 << (2 * g)))
        rep = transform_modulus_check(m, z, k, 1e-8)
        worst_mod = max(worst_mod, rep["diff"])
        if not rep["pass"] or rep["diff"] > 1e-8:
            mod_fail += 1
        if rep["level_two"]:
            level_two_checked += 1
            if rep["moved_k"] != rep["k"]:
                mod_fail += 1
    mod_ok = mod_fail == 0 and level_two_checked >= 20

    radius_fail = 0
    for i in range(50):
        g = 1 + i % 3
        z = random_siegel(g, rng, min_im=0.4)
        k = F2Vector(g, rng.randrange(1 << (2 * g)))
        v1, b1 = theta_constant(z, k, 1e-9)
        v2, _ = theta_constant(z, k, 1e-9, radius_scale=2.0)
        if abs(v1 - v2) >= b1:
            radius_fail += 1
    radius_ok = radius_fail == 0

    return {"criterion": 9, "name": "theta numerics",
            "worst_odd_modulus": worst_odd, "odd_ok": odd_ok,
            "worst_split_diff": worst_split, "split_ok": split_ok,
            "worst_modulus_diff": worst_mod, "modulus_ok": mod_ok,
            "level_two_checked": level_two_checked,
            "radius_failures": radius_fail, "radius_ok": radius_ok,
            "pass": odd_ok and split_ok and mod_ok and radius_ok}


CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4,
             criterion_5, criterion_6, criterion_7, criterion_8,
             criterion_9]


def run_all(seed: int = 0,
            on_report: Callable[[dict, float], None] | None = None) -> dict:
    """Run criteria 1-9 and assemble the deterministic report.

    on_report, if given, is called after each criterion with its report and
    its wall time in seconds; the time stays out of the report.

    Criterion 10 is this function itself: the CLI wraps it, exits 0 iff
    every criterion passed, and the report for a fixed seed is
    byte-identical across runs.
    """
    reports = []
    for fn in CRITERIA:
        start = time.monotonic()
        rep = fn(seed)
        if on_report is not None:
            on_report(rep, time.monotonic() - start)
        reports.append(rep)
    return {
        "version": __version__,
        "seed": seed,
        "criteria": reports,
        "all_pass": all(r["pass"] for r in reports),
    }
