"""Expected values computed independently of the program.

The output checks compare the program against these, never against the
program itself: closed-form counts, a from-scratch orbit classifier over
F_2 and a theta evaluator that truncates to a cube instead of a ball and
bounds its tail by a separable majorant.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from generators import q0

_U = 2.0 ** -53


# ---------------------------------------------------------------------------
# characteristic and partition counts


def even_count(g: int) -> int:
    return (1 << (g - 1)) * ((1 << g) + 1)


def odd_count(g: int) -> int:
    return (1 << (g - 1)) * ((1 << g) - 1)


def vanishing_count(g: int) -> int:
    """Even thetanulls vanishing on the hyperelliptic locus: all even ones
    minus the C(2g+2, g+1)/2 that do not vanish."""
    return even_count(g) - math.comb(2 * g + 2, g + 1) // 2


def formula_agrees(g: int) -> bool:
    """The closed-form parity matches h0 parity iff g = 2, 3 (mod 4)."""
    return g % 4 in (2, 3)


# ---------------------------------------------------------------------------
# F_2 orbit classes


def _pair(a: int, b: int, g: int) -> int:
    m = (1 << g) - 1
    return ((a & (b >> g) & m).bit_count()
            + ((a >> g) & b & m).bit_count()) & 1


def _rank(rows: list[int]) -> int:
    basis: list[int] = []
    for row in rows:
        for piv in basis:
            row = min(row, row ^ piv)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    return len(basis)


def quadruple_label(ks: list[int], g: int) -> str:
    """Orbit label from the differences to the last characteristic: A1 when
    they are dependent, else A2/A3/A4 by the number of noncommuting pairs."""
    a = [k ^ ks[3] for k in ks[:3]]
    if _rank(a) <= 2:
        return "A1"
    n = _pair(a[0], a[1], g) + _pair(a[0], a[2], g) + _pair(a[1], a[2], g)
    return {0: "A2", 3: "A4"}.get(n, "A3")


def census(g: int) -> dict[str, int]:
    evens = [k for k in range(1 << (2 * g)) if q0(k, g) == 0]
    counts = {"A1": 0, "A2": 0, "A3": 0, "A4": 0}
    for ks in combinations(evens, 4):
        counts[quadruple_label(list(ks), g)] += 1
    return counts


def char_act(m: np.ndarray, bits: list[int], g: int) -> list[int]:
    """Affine action of an integral symplectic matrix on a characteristic
    mod 2: k' -> D k' + C k'' + diag(C D^T), k'' -> B k' + A k'' + diag(A B^T)."""
    a, b, c, d = m[:g, :g], m[:g, g:], m[g:, :g], m[g:, g:]
    kp, kpp = np.array(bits[:g]), np.array(bits[g:])
    new_p = (d @ kp + c @ kpp + np.diag(c @ d.T)) % 2
    new_pp = (b @ kp + a @ kpp + np.diag(a @ b.T)) % 2
    return [int(v) for v in new_p] + [int(v) for v in new_pp]


# ---------------------------------------------------------------------------
# theta constants


def _shell_tail(lam: float, start: float) -> float:
    """sum_{m >= 0} exp(-pi lam (start + m)^2)."""
    total = 0.0
    m = 0
    while True:
        term = math.exp(-math.pi * lam * (start + m) ** 2)
        total += term
        # later terms shrink at least by this ratio per step
        ratio = math.exp(-math.pi * lam * (2 * (start + m) + 1))
        if term <= total * 1e-17:
            return total + term * ratio / (1.0 - ratio)
        m += 1


def theta(re: np.ndarray, im: np.ndarray, bits: list[int],
          tol: float = 1e-13) -> tuple[complex, float]:
    """theta[k](Z) summed over the cube max_i |x_i| <= n + 1/2 of shifted
    lattice points x = r + k'/2, with n grown until the tail is <= tol.

    Every term is bounded by prod_i exp(-pi lam x_i^2), lam = lambda_min(Im Z),
    so the points outside the cube contribute at most
    g * 2 S(n + 1/2) * (1 + 2 S(1/2))^(g-1), S(s) = sum_m exp(-pi lam (s+m)^2).
    The returned error adds a generous rounding allowance."""
    g = re.shape[0]
    z = re + 1j * im
    lam = float(np.linalg.eigvalsh(im)[0]) * (1.0 - 1e-9)
    one_dim = 1.0 + 2.0 * _shell_tail(lam, 0.5)
    n = 1
    while g * 2.0 * _shell_tail(lam, n + 0.5) * one_dim ** (g - 1) > tol:
        n += 1
    tail = g * 2.0 * _shell_tail(lam, n + 0.5) * one_dim ** (g - 1)
    half = np.array(bits[:g], dtype=np.float64) / 2.0
    kpp = np.array(bits[g:], dtype=np.float64)
    axis = np.arange(-n - 1, n + 2, dtype=np.float64)
    grids = np.meshgrid(*([axis] * g), indexing="ij")
    x = np.stack([gr.ravel() for gr in grids], axis=1) + half
    x = x[np.max(np.abs(x), axis=1) <= n + 0.5 + 1e-9]
    phase = np.einsum("ij,jk,ik->i", x, z, x) + x @ kpp
    terms = np.exp(1j * math.pi * phase)
    value = complex(np.sum(terms))
    mags = float(np.sum(np.abs(terms)))
    arg_max = float(np.max(np.abs(math.pi * phase.real))) + 1.0
    rounding = 64.0 * _U * (x.shape[0] + arg_max) * mags
    return value, tail + rounding
