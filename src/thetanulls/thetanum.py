"""Certified numerical theta constants on the Siegel upper half-space.

theta[k](Z) = sum over integer vectors r of
    exp(pi*i * [(r + k'/2)^T Z (r + k'/2) + (r + k'/2)^T k''])

truncated to ||r + k'/2|| <= R with a rigorous tail majorant: each dropped
term is bounded by exp(-pi * lambda_min * ||x||^2), and the lattice points
in the shell ||x|| in (R+m, R+m+1] number at most (2*ceil(R)+2m+3)^g, so

    tail <= sum_m (2*ceil(R)+2m+3)^g * exp(-pi * lambda_min * (R+m)^2).

R grows until the tail bound is <= eps; the issued certificate adds a fixed
rounding allowance of 1000 * machine_eps * #terms, so it can exceed eps for
very small eps (that allowance is dominated by double precision itself, not
by truncation).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DomainError, MalformedInputError, ResourceCapError
from .f2core import F2Vector, SymplecticMap
from .quadforms import act_on_char

_EPS_MACH = float(np.finfo(np.float64).eps)
_MAX_TERMS = 5_000_000
_COND_CAP = 1e12


def _checked_array(name: str, value, kinds: str, what: str) -> np.ndarray:
    """value as a numpy array whose dtype kind is one of kinds ("i" int,
    "f" float), with no cast: ragged nesting and entries of another type
    (booleans and strings included) are malformed input."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:
        raise MalformedInputError(f"{name} is not a rectangular array") \
            from exc
    if arr.dtype.kind not in kinds:
        raise MalformedInputError(f"{name} entries must be {what}")
    return arr


class SiegelMatrix:
    """Symmetric complex g x g matrix with positive definite imaginary
    part; symmetrized on input, lambda_min cached."""

    __slots__ = ("g", "z", "lambda_min")

    def __init__(self, z) -> None:
        arr = np.asarray(z, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise MalformedInputError("Z must be a square matrix")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise MalformedInputError("Z entries must be finite")
        skew = np.max(np.abs(arr - arr.T)) if arr.size else 0.0
        scale = max(1.0, float(np.max(np.abs(arr)))) if arr.size else 1.0
        if skew > 1e-9 * scale:
            raise DomainError("Z is not symmetric within tolerance")
        arr = (arr + arr.T) / 2
        evals = np.linalg.eigvalsh(arr.imag)
        lam = float(evals[0])
        # small safety margin keeps the tail bound valid under eigensolver
        # rounding
        lam_safe = lam - 1e-12 * max(1.0, float(evals[-1]))
        if lam_safe <= 0:
            raise DomainError("Im Z must be positive definite")
        arr.setflags(write=False)
        self.g = arr.shape[0]
        self.z = arr
        self.lambda_min = lam_safe

    def to_json_dict(self) -> dict:
        return {"g": self.g,
                "re": self.z.real.tolist(),
                "im": self.z.imag.tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SiegelMatrix":
        if not isinstance(data, dict) or set(data) != {"g", "re", "im"}:
            raise MalformedInputError(
                'SiegelMatrix JSON needs exactly "g", "re", "im"')
        g = data["g"]
        re = _checked_array("re", data["re"], "if", "numbers")
        im = _checked_array("im", data["im"], "if", "numbers")
        if type(g) is not int or re.shape != (g, g) or im.shape != (g, g):
            raise MalformedInputError("re/im must be g x g arrays")
        return cls(re + 1j * im)


class IntSymplectic:
    """Integer block matrix (A B; C D) with A^T C, B^T D symmetric and
    A^T D - C^T B = I."""

    __slots__ = ("g", "a", "b", "c", "d")

    def __init__(self, a, b, c, d) -> None:
        blocks = []
        for name, blk in (("A", a), ("B", b), ("C", c), ("D", d)):
            arr = _checked_array(f"block {name}", blk, "i",
                                 "integers").astype(np.int64, copy=False)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise MalformedInputError(f"block {name} must be square")
            blocks.append(arr)
        a, b, c, d = blocks
        g = a.shape[0]
        if any(blk.shape != (g, g) for blk in blocks):
            raise MalformedInputError("blocks must share one size")
        # exact products: int64 products of large entries would wrap
        ax, bx, cx, dx = (blk.astype(object) for blk in blocks)
        if not np.array_equal(ax.T @ cx, cx.T @ ax):
            raise DomainError("A^T C is not symmetric")
        if not np.array_equal(bx.T @ dx, dx.T @ bx):
            raise DomainError("B^T D is not symmetric")
        if not np.array_equal(ax.T @ dx - cx.T @ bx, np.eye(g, dtype=int)):
            raise DomainError("A^T D - C^T B != I")
        for blk in blocks:
            blk.setflags(write=False)
        self.g = g
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def identity(cls, g: int) -> "IntSymplectic":
        eye = np.eye(g, dtype=np.int64)
        zero = np.zeros((g, g), dtype=np.int64)
        return cls(eye, zero, zero, eye)

    def is_level_two(self) -> bool:
        """True iff M = identity mod 2."""
        eye = np.eye(self.g, dtype=np.int64)
        return bool(np.all((self.a - eye) % 2 == 0)
                    and np.all(self.b % 2 == 0)
                    and np.all(self.c % 2 == 0)
                    and np.all((self.d - eye) % 2 == 0))

    def compose(self, other: "IntSymplectic") -> "IntSymplectic":
        if self.g != other.g:
            raise DomainError("cannot compose different g")
        a = self.a @ other.a + self.b @ other.c
        b = self.a @ other.b + self.b @ other.d
        c = self.c @ other.a + self.d @ other.c
        d = self.c @ other.b + self.d @ other.d
        return IntSymplectic(a, b, c, d)

    __matmul__ = compose

    def to_json_dict(self) -> dict:
        return {"A": self.a.tolist(), "B": self.b.tolist(),
                "C": self.c.tolist(), "D": self.d.tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "IntSymplectic":
        if not isinstance(data, dict) or set(data) != {"A", "B", "C", "D"}:
            raise MalformedInputError(
                'IntSymplectic JSON needs exactly "A", "B", "C", "D"')
        return cls(data["A"], data["B"], data["C"], data["D"])


def _char_halves(k: F2Vector) -> tuple[np.ndarray, np.ndarray]:
    bits = k.to_list()
    g = k.g
    return (np.array(bits[:g], dtype=np.float64),
            np.array(bits[g:], dtype=np.float64))


def _tail_bound(r: float, lam: float, g: int) -> float:
    """Rigorous bound on the sum of exp(-pi lam ||x||^2) over ||x|| > r:
    the shell r+m < ||x|| <= r+m+1 holds at most (2 ceil(r) + 2m + 3)^g
    lattice translates, each term bounded by the shell's inner radius."""
    total = 0.0
    base = 2 * math.ceil(r) + 3
    for m in range(10_001):
        term = float(base + 2 * m) ** g * math.exp(-math.pi * lam * (r + m) ** 2)
        if term == 0.0:
            # exp underflowed; later shells underflow too
            return total
        total += term
    return math.inf


def theta_constant(z: SiegelMatrix, k: F2Vector, eps: float,
                   radius_scale: float = 1.0) -> tuple[complex, float]:
    """Truncated theta series with a certified error bound.

    Returns (value, bound) with |value - theta[k](Z)| <= bound; the
    truncation part of the bound is <= eps, the total adds the fixed
    rounding allowance 1000 * eps_mach * #terms.  radius_scale inflates the
    truncation radius past the certified one (self-consistency checks).
    """
    if eps <= 0:
        raise DomainError("eps must be positive")
    if radius_scale < 1.0:
        raise DomainError("radius_scale must be >= 1")
    if k.g != z.g:
        raise DomainError("characteristic/matrix g mismatch")
    g = z.g
    lam = z.lambda_min
    r = max(1.0, math.sqrt(max(0.0, -math.log(eps) / (math.pi * lam))))
    tail = _tail_bound(r, lam, g)
    grow = 0
    while tail > eps:
        r *= 1.25
        tail = _tail_bound(r, lam, g)
        grow += 1
        if grow > 200:
            raise ResourceCapError("truncation radius failed to converge")
    if radius_scale > 1.0:
        r *= radius_scale
        tail = _tail_bound(r, lam, g)
    if (2 * r + 2) ** g > _MAX_TERMS:
        raise ResourceCapError(
            f"lattice box of side {2 * r + 2:.0f}^{g} exceeds the term cap")

    kp, kpp = _char_halves(k)
    half = kp / 2.0
    los = [math.ceil(-r - half[i]) for i in range(g)]
    his = [math.floor(r - half[i]) for i in range(g)]
    axes = [np.arange(lo, hi + 1, dtype=np.float64)
            for lo, hi in zip(los, his)]
    mesh = np.meshgrid(*axes, indexing="ij")
    rs = np.stack([m.ravel() for m in mesh], axis=1)
    x = rs + half
    norm2 = np.einsum("ij,ij->i", x, x)
    keep = norm2 <= r * r + 1e-12
    rs, x, norm2 = rs[keep], x[keep], norm2[keep]
    # fixed summation order: by ||x||^2, then lexicographic in r
    order = np.lexsort(tuple(rs[:, j] for j in range(g - 1, -1, -1))
                       + (norm2,))
    rs, x = rs[order], x[order]
    quad = np.einsum("ij,jk,ik->i", x, z.z, x)
    lin = x @ kpp
    value = complex(np.sum(np.exp(1j * math.pi * (quad + lin))))
    nterms = int(x.shape[0])
    bound = tail + 1000.0 * _EPS_MACH * nterms
    return value, bound


def siegel_act(m: IntSymplectic, z: SiegelMatrix) -> SiegelMatrix:
    """M.Z = (AZ + B)(CZ + D)^-1."""
    if m.g != z.g:
        raise DomainError("matrix g mismatch")
    num = m.a.astype(np.complex128) @ z.z + m.b.astype(np.complex128)
    den = m.c.astype(np.complex128) @ z.z + m.d.astype(np.complex128)
    if np.linalg.cond(den) > _COND_CAP:
        raise DomainError("CZ + D too ill-conditioned")
    moved = np.linalg.solve(den.T, num.T).T
    moved = (moved + moved.T) / 2
    return SiegelMatrix(moved)


def char_act_int(m: IntSymplectic, k: F2Vector) -> F2Vector:
    """Affine action on characteristics mod 2:
    k'_new = D k' + C k'' + diag(C D^T), k''_new = B k' + A k'' + diag(A B^T).
    """
    if m.g != k.g:
        raise DomainError("characteristic g mismatch")
    g = m.g
    bits = k.to_list()
    kp = np.array(bits[:g], dtype=np.int64)
    kpp = np.array(bits[g:], dtype=np.int64)
    new_p = (m.d @ kp + m.c @ kpp + np.diag(m.c @ m.d.T)) % 2
    new_pp = (m.b @ kp + m.a @ kpp + np.diag(m.a @ m.b.T)) % 2
    return F2Vector.from_list([int(v) for v in new_p] +
                              [int(v) for v in new_pp])


def char_act_form_map(m: IntSymplectic) -> SymplecticMap:
    """F_2 reduction of the characteristic action's linear part, as a
    pairing-preserving map: (k', k'') -> (D k' + C k'', B k' + A k'')."""
    g = m.g
    rows = []
    for i in range(g):
        mask = 0
        for j in range(g):
            mask |= (int(m.d[i, j]) & 1) << j
            mask |= (int(m.c[i, j]) & 1) << (g + j)
        rows.append(mask)
    for i in range(g):
        mask = 0
        for j in range(g):
            mask |= (int(m.b[i, j]) & 1) << j
            mask |= (int(m.a[i, j]) & 1) << (g + j)
        rows.append(mask)
    return SymplecticMap(g, tuple(rows))


def char_act_matches_form_action(m: IntSymplectic, k: F2Vector) -> bool:
    """Check that the affine action equals the quadratic form transport
    along the F_2 reduction, through the characteristics/forms bijection."""
    return char_act_int(m, k) == act_on_char(char_act_form_map(m), k)


def transform_modulus_check(m: IntSymplectic, z: SiegelMatrix, k: F2Vector,
                            eps: float) -> dict:
    """Compare |theta[M.k](M.Z)| with |det(CZ+D)|^(1/2) |theta[k](Z)|."""
    moved_z = siegel_act(m, z)
    moved_k = char_act_int(m, k)
    den = m.c.astype(np.complex128) @ z.z + m.d.astype(np.complex128)
    det_root = math.sqrt(abs(complex(np.linalg.det(den))))
    cond = float(np.linalg.cond(den))
    val_l, bound_l = theta_constant(moved_z, moved_k, eps)
    val_r, bound_r = theta_constant(z, k, eps)
    r_abs = abs(val_l)
    s_abs = det_root * abs(val_r)
    diff = abs(r_abs - s_abs)
    tol = bound_l + det_root * bound_r + eps * max(1.0, cond) * max(1.0, s_abs)
    return {
        "g": z.g,
        "k": k.to_list(),
        "moved_k": moved_k.to_list(),
        "level_two": m.is_level_two(),
        "lhs_modulus": r_abs,
        "rhs_modulus": s_abs,
        "diff": diff,
        "det_root": det_root,
        "cond": cond,
        "tol": tol,
        "pass": diff <= tol,
    }


def block_diag_join(z_blocks: Sequence[SiegelMatrix]) -> SiegelMatrix:
    if not z_blocks:
        raise DomainError("need at least one block")
    size = sum(z.g for z in z_blocks)
    out = np.zeros((size, size), dtype=np.complex128)
    pos = 0
    for z in z_blocks:
        out[pos:pos + z.g, pos:pos + z.g] = z.z
        pos += z.g
    return SiegelMatrix(out)


def char_join(k_blocks: Sequence[F2Vector]) -> F2Vector:
    if not k_blocks:
        raise DomainError("need at least one block")
    firsts: list[int] = []
    seconds: list[int] = []
    for k in k_blocks:
        bits = k.to_list()
        firsts.extend(bits[:k.g])
        seconds.extend(bits[k.g:])
    return F2Vector.from_list(firsts + seconds)


def block_diag_split_check(z_blocks: Sequence[SiegelMatrix],
                           k_blocks: Sequence[F2Vector],
                           eps: float) -> dict:
    """theta over the block-diagonal matrix vs the product over blocks."""
    if len(z_blocks) != len(k_blocks):
        raise MalformedInputError("need one characteristic per block")
    big_z = block_diag_join(z_blocks)
    big_k = char_join(k_blocks)
    val, bound = theta_constant(big_z, big_k, eps)
    prod = complex(1.0)
    prod_bound = 0.0
    for z, k in zip(z_blocks, k_blocks):
        v, b = theta_constant(z, k, eps)
        # |prod*(v+-b) - prod*v| grows multiplicatively
        prod_bound = prod_bound * (abs(v) + b) + abs(prod) * b
        prod *= v
    diff = abs(val - prod)
    tol = bound + prod_bound + eps
    return {
        "g_total": big_z.g,
        "value": [val.real, val.imag],
        "product": [prod.real, prod.imag],
        "diff": diff,
        "tol": tol,
        "pass": diff <= tol,
    }


# ---------------------------------------------------------------------------
# deterministic generators for tests and verification campaigns


def random_int_symplectic(g: int, rng, steps: int = 4) -> IntSymplectic:
    """Random product of standard Sp(2g, Z) generators with small entries."""
    eye = np.eye(g, dtype=np.int64)
    zero = np.zeros((g, g), dtype=np.int64)
    m = IntSymplectic.identity(g)
    for _ in range(steps):
        kind = rng.randrange(3)
        if kind == 2:
            step = IntSymplectic(zero, -eye, eye, zero)
        else:
            s = np.zeros((g, g), dtype=np.int64)
            i, j = rng.randrange(g), rng.randrange(g)
            v = rng.choice([-2, -1, 1, 2])
            s[i, j] = v
            s[j, i] = v
            if kind == 0:
                step = IntSymplectic(eye, s, zero, eye)
            else:
                step = IntSymplectic(eye, zero, s, eye)
        m = m @ step
    return m


def random_level_two(g: int, rng, steps: int = 4) -> IntSymplectic:
    """Random element of the level-2 congruence subgroup (M = I mod 2)."""
    eye = np.eye(g, dtype=np.int64)
    zero = np.zeros((g, g), dtype=np.int64)
    m = IntSymplectic.identity(g)
    for _ in range(steps):
        kind = rng.randrange(3)
        i, j = rng.randrange(g), rng.randrange(g)
        v = 2 * rng.choice([-1, 1])
        if kind < 2:
            s = np.zeros((g, g), dtype=np.int64)
            s[i, j] = v
            s[j, i] = v
            if kind == 0:
                step = IntSymplectic(eye, s, zero, eye)
            else:
                step = IntSymplectic(eye, zero, s, eye)
        else:
            u = eye.copy()
            if g > 1:
                while j == i:
                    j = rng.randrange(g)
                u[i, j] += v
                uinv = eye.copy()
                uinv[i, j] -= v
            else:
                uinv = eye.copy()
            step = IntSymplectic(u, zero, zero, uinv.T)
        m = m @ step
    return m


def random_siegel(g: int, rng, min_im: float = 0.5) -> SiegelMatrix:
    """Random symmetric Z with Im Z positive definite, lambda_min >= about
    min_im (diagonally dominant construction)."""
    x = np.zeros((g, g))
    y = np.zeros((g, g))
    for i in range(g):
        for j in range(i, g):
            x[i, j] = x[j, i] = rng.uniform(-1.0, 1.0)
            if i != j:
                y[i, j] = y[j, i] = rng.uniform(-0.2, 0.2)
    off = np.sum(np.abs(y), axis=1) - np.abs(np.diag(y))
    for i in range(g):
        y[i, i] = min_im + off[i] + rng.uniform(0.0, 1.5)
    return SiegelMatrix(x + 1j * y)
