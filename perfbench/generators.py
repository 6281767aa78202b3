"""Seeded input generators owned by the benchmark.

The program's own generators (`thetanum.random_siegel`,
`orbits.random_quadruple`, ...) are deliberately not used: a change to them
must not change what the benchmark feeds the program.  Every generator takes
a numpy `Generator`; `stream(seed, tag)` gives each consumer its own stream so
that adding draws in one place does not shift the inputs of another.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def stream(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def siegel(rng: np.random.Generator, g: int, lam_min: float,
           cond: float) -> tuple[np.ndarray, np.ndarray]:
    """(Re Z, Im Z) with Im Z = Q diag(ev) Q^T, ev[0] = lam_min and
    ev[-1] = cond * lam_min (log-uniform in between), Q Haar-orthogonal and
    Re Z uniform in [-1/2, 1/2]."""
    if g == 1:
        ev = np.array([lam_min])
    else:
        inner = np.sort(rng.random(g - 2))
        ev = lam_min * cond ** np.concatenate(([0.0], inner, [1.0]))
    q, r = np.linalg.qr(rng.standard_normal((g, g)))
    q = q * np.sign(np.diag(r))
    im = (q * ev) @ q.T
    im = (im + im.T) / 2
    re = rng.uniform(-0.5, 0.5, (g, g))
    re = (re + re.T) / 2
    return re, im


def log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def siegel_json(re: np.ndarray, im: np.ndarray) -> dict:
    return {"g": int(re.shape[0]), "re": re.tolist(), "im": im.tolist()}


def _sp_step(rng: np.random.Generator, g: int) -> np.ndarray:
    """One generator of Sp(2g, Z) as a 2g x 2g integer matrix: the
    involution J, a translation (I S; 0 I), its transpose (I 0; S I) or a
    block (U 0; 0 U^-T) with U an elementary unimodular matrix."""
    eye = np.eye(g, dtype=np.int64)
    zero = np.zeros((g, g), dtype=np.int64)
    kind = int(rng.integers(4))
    if kind == 0:
        return np.block([[zero, -eye], [eye, zero]])
    if kind in (1, 2):
        s = np.zeros((g, g), dtype=np.int64)
        i, j = (int(v) for v in rng.integers(g, size=2))
        s[i, j] = s[j, i] = int(rng.choice([-1, 1]))
        if kind == 1:
            return np.block([[eye, s], [zero, eye]])
        return np.block([[eye, zero], [s, eye]])
    u = eye.copy()
    if g > 1:
        i, j = (int(v) for v in rng.choice(g, size=2, replace=False))
        u[i, j] = int(rng.choice([-1, 1]))
    u_inv_t = np.round(np.linalg.inv(u)).astype(np.int64).T
    return np.block([[u, zero], [zero, u_inv_t]])


def int_symplectic(rng: np.random.Generator, g: int,
                   steps: int = 3) -> np.ndarray:
    m = np.eye(2 * g, dtype=np.int64)
    for _ in range(steps):
        m = m @ _sp_step(rng, g)
    return m


def act(m: np.ndarray, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """(AZ + B)(CZ + D)^-1 as a complex matrix."""
    g = re.shape[0]
    z = re + 1j * im
    a, b, c, d = m[:g, :g], m[:g, g:], m[g:, :g], m[g:, g:]
    return (a @ z + b) @ np.linalg.inv(c @ z + d)


def transform_input(rng: np.random.Generator, g: int, lam_min: float,
                    moved_lam_min: float) -> dict:
    """A transform request whose moved matrix keeps lambda_min(Im) above
    moved_lam_min, so the second theta sum stays small."""
    while True:
        re, im = siegel(rng, g, lam_min, log_uniform(rng, 1.0, 4.0))
        m = int_symplectic(rng, g)
        moved = act(m, re, im)
        if np.linalg.eigvalsh((moved.imag + moved.imag.T) / 2)[0] >= moved_lam_min:
            break
    return {"m": {"A": m[:g, :g].tolist(), "B": m[:g, g:].tolist(),
                  "C": m[g:, :g].tolist(), "D": m[g:, g:].tolist()},
            "z": siegel_json(re, im),
            "k": char_bits(int(rng.integers(1 << (2 * g))), g)}


def sampled_chars(rng: np.random.Generator, g: int, count: int) -> list[int]:
    """count distinct characteristics (bitmasks) whose top halves k' have
    Hamming weights spread evenly over 0..g.  A theta sum runs over the
    lattice points of a ball shifted by k'/2, so its cost depends on the
    weight of k' alone: fixing the weights makes the cost of a sample the
    same for every seed.  The seed picks the shifted coordinates and k''."""
    out: list[int] = []
    for i in range(count):
        weight = round(i * g / max(1, count - 1))
        while True:
            top = sum(1 << int(j) for j in rng.choice(g, size=weight,
                                                       replace=False))
            bits = top | int(rng.integers(1 << g)) << g
            if bits not in out:
                out.append(bits)
                break
    return sorted(out)


def char_bits(bits: int, g: int) -> list[int]:
    return [(bits >> i) & 1 for i in range(2 * g)]


def q0(bits: int, g: int) -> int:
    return (bits & (bits >> g) & ((1 << g) - 1)).bit_count() & 1


def even_quadruple(rng: np.random.Generator, g: int) -> list[int]:
    """Four distinct even characteristics as bitmasks."""
    out: list[int] = []
    while len(out) < 4:
        k = int(rng.integers(1 << (2 * g)))
        if q0(k, g) == 0 and k not in out:
            out.append(k)
    return out


def node_set(rng: np.random.Generator, g: int) -> list[str]:
    """2g+2 distinct rationals p/q with |p| <= 400, 1 <= q < 40."""
    vals: set[Fraction] = set()
    while len(vals) < 2 * g + 2:
        vals.add(Fraction(int(rng.integers(-400, 401)),
                          int(rng.integers(1, 40))))
    return [str(v) for v in sorted(vals)]


def labels(rng: np.random.Generator, g: int, count: int) -> list[int]:
    """count distinct branch labels from 1..2g+2."""
    return sorted(int(v) + 1 for v in rng.choice(2 * g + 2, size=count,
                                                 replace=False))
