"""Exact symplectic linear algebra over GF(2).

Vectors live in F_2^(2g).  A vector is stored as an int bitmask with bit i
holding coordinate i; coordinates 0..g-1 form the first half v' and
coordinates g..2g-1 the second half v''.  The symplectic pairing is

    <a, b> = a'.b'' + a''.b'   (mod 2)

and q0(v) = v'.v'' is the standard quadratic form refining it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError


# ---------------------------------------------------------------------------
# int-mask kernel, shared with the sibling modules


def _pair_int(a: int, b: int, g: int) -> int:
    m = (1 << g) - 1
    return ((a & (b >> g) & m).bit_count() + ((a >> g) & b & m).bit_count()) & 1


def _q0_int(v: int, g: int) -> int:
    return (v & (v >> g) & ((1 << g) - 1)).bit_count() & 1


def _pair_arr(a: np.ndarray, b: np.ndarray, g: int) -> np.ndarray:
    """_pair_int elementwise over broadcast integer mask arrays."""
    return np.bitwise_count(((a & (b >> g)) ^ ((a >> g) & b))
                            & ((1 << g) - 1)) & 1


def _q0_arr(v: np.ndarray, g: int) -> np.ndarray:
    """_q0_int elementwise over an integer mask array."""
    return np.bitwise_count(v & (v >> g) & ((1 << g) - 1)) & 1


def _swap_halves(v: int, g: int) -> int:
    m = (1 << g) - 1
    return ((v & m) << g) | ((v >> g) & m)


def _rank_int(rows: Iterable[int]) -> int:
    rows = list(rows)
    n = max(rows, default=0).bit_length()
    return n - len(_solve_f2(rows, [0] * len(rows), n)[1])


def _solve_f2(eq_rows: Sequence[int], rhs: Sequence[int], n: int,
              k: int = 1) -> tuple[list[int], list[int]] | None:
    """Solve k systems <row_i, z> = bit s of rhs[i] (s < k) over GF(2) for
    z in F_2^n; the systems share their rows, so rhs[i] is a k-bit mask.

    Each equation reads popcount(row & z) = rhs (mod 2).  Returns one
    particular solution per system and a basis of the common nullspace,
    or None if some system is inconsistent.
    """
    # reduced echelon form: each row keeps its lowest bit as its pivot, and
    # no other row has that bit
    ech: list[tuple[int, int, int]] = []  # (pivot bit, row, rhs)
    for row, b in zip(eq_rows, rhs):
        for p, prow, pb in ech:
            if row & p:
                row ^= prow
                b ^= pb
        if not row:
            if b:
                return None
            continue
        p = row & -row
        for i, (q, qrow, qb) in enumerate(ech):
            if qrow & p:
                ech[i] = (q, qrow ^ row, qb ^ b)
        ech.append((p, row, b))
    particular = [0] * k
    free = (1 << n) - 1
    for p, _, b in ech:
        free &= ~p
        for s in range(k):
            if (b >> s) & 1:
                particular[s] |= p
    null = []
    while free:
        f = free & -free
        free ^= f
        v = f
        for p, prow, _ in ech:
            if prow & f:
                v |= p
        null.append(v)
    return particular, null


# ---------------------------------------------------------------------------
# vectors


@dataclass(frozen=True)
class F2Vector:
    """Vector in F_2^(2g), stored as a bitmask (bit i = coordinate i)."""

    g: int
    bits: int

    def __post_init__(self) -> None:
        if self.g < 1:
            raise DomainError(f"g must be >= 1, got {self.g}")
        if not 0 <= self.bits < 1 << (2 * self.g):
            raise DomainError(f"bits out of range for g={self.g}")

    @classmethod
    def zero(cls, g: int) -> "F2Vector":
        return cls(g, 0)

    @classmethod
    def from_list(cls, coords: Sequence[int]) -> "F2Vector":
        if len(coords) % 2 or not coords:
            raise DomainError(f"coordinate list must have even positive "
                              f"length, got {len(coords)}")
        if any(c not in (0, 1) for c in coords):
            raise DomainError("coordinates must be 0 or 1")
        bits = 0
        for i, c in enumerate(coords):
            bits |= c << i
        return cls(len(coords) // 2, bits)

    def to_list(self) -> list[int]:
        return [(self.bits >> i) & 1 for i in range(2 * self.g)]

    @property
    def first_half(self) -> int:
        return self.bits & ((1 << self.g) - 1)

    @property
    def second_half(self) -> int:
        return self.bits >> self.g

    def is_zero(self) -> bool:
        return self.bits == 0

    def __add__(self, other: "F2Vector") -> "F2Vector":
        if self.g != other.g:
            raise DomainError("cannot add vectors of different g")
        return F2Vector(self.g, self.bits ^ other.bits)

    __xor__ = __add__


def basis_e(g: int, i: int) -> F2Vector:
    """e_i for 0 <= i < g: the i-th first-half standard basis vector."""
    if not 0 <= i < g:
        raise DomainError(f"basis index {i} out of range for g={g}")
    return F2Vector(g, 1 << i)


def basis_f(g: int, i: int) -> F2Vector:
    """f_i for 0 <= i < g, with <e_i, f_j> = delta_ij."""
    if not 0 <= i < g:
        raise DomainError(f"basis index {i} out of range for g={g}")
    return F2Vector(g, 1 << (g + i))


def serial_key(v: F2Vector) -> tuple[int, ...]:
    """Sort key giving lexicographic order on the serialized coordinates."""
    return tuple(v.to_list())


def symplectic_pairing(a: F2Vector, b: F2Vector) -> int:
    if a.g != b.g:
        raise DomainError("pairing needs vectors of the same g")
    return _pair_int(a.bits, b.bits, a.g)


def q0(v: F2Vector) -> int:
    """Standard quadratic form q0(v) = v'.v'' (mod 2)."""
    return _q0_int(v.bits, v.g)


def span_dim(vectors: Iterable[F2Vector]) -> int:
    vs = list(vectors)
    if not vs:
        return 0
    g = vs[0].g
    if any(v.g != g for v in vs):
        raise DomainError("span_dim needs vectors of the same g")
    return _rank_int(v.bits for v in vs)


# ---------------------------------------------------------------------------
# symplectic maps


def is_symplectic(matrix: Sequence[Sequence[int]]) -> bool:
    """True iff the square 0/1 matrix preserves the symplectic pairing.

    Preserving a nondegenerate pairing forces invertibility, so no separate
    rank check is needed.
    """
    n = len(matrix)
    if n == 0 or n % 2 or any(len(row) != n for row in matrix):
        raise DomainError("matrix must be square with even dimension")
    if any(x not in (0, 1) for row in matrix for x in row):
        raise DomainError("matrix entries must be 0 or 1")
    g = n // 2
    cols = [0] * n
    for i, row in enumerate(matrix):
        for j, x in enumerate(row):
            cols[j] |= x << i
    for i in range(n):
        for j in range(i + 1, n):
            expect = 1 if abs(i - j) == g else 0
            if _pair_int(cols[i], cols[j], g) != expect:
                return False
    return True


@dataclass(frozen=True)
class SymplecticMap:
    """Pairing-preserving linear map on F_2^(2g); rows[i] is row i as a
    bitmask, so (M x)_i = popcount(rows[i] & x) mod 2."""

    g: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        n = 2 * self.g
        if len(self.rows) != n or any(not 0 <= r < 1 << n for r in self.rows):
            raise DomainError(f"need {n} row masks below 2^{n}")
        if not is_symplectic(self.to_lists()):
            raise DomainError("matrix does not preserve the pairing")

    @classmethod
    def identity(cls, g: int) -> "SymplecticMap":
        return cls(g, tuple(1 << i for i in range(2 * g)))

    @classmethod
    def from_lists(cls, matrix: Sequence[Sequence[int]]) -> "SymplecticMap":
        n = len(matrix)
        if n == 0 or n % 2 or any(len(row) != n for row in matrix):
            raise DomainError("matrix must be square with even dimension")
        rows = []
        for row in matrix:
            mask = 0
            for j, x in enumerate(row):
                if x not in (0, 1):
                    raise DomainError("matrix entries must be 0 or 1")
                mask |= x << j
            rows.append(mask)
        return cls(n // 2, tuple(rows))

    def to_lists(self) -> list[list[int]]:
        n = 2 * self.g
        return [[(r >> j) & 1 for j in range(n)] for r in self.rows]

    def apply(self, v: F2Vector) -> F2Vector:
        if v.g != self.g:
            raise DomainError("vector/map g mismatch")
        return F2Vector(self.g, self.apply_int(v.bits))

    def apply_int(self, x: int) -> int:
        bits = 0
        for i, row in enumerate(self.rows):
            bits |= ((row & x).bit_count() & 1) << i
        return bits

    def column(self, j: int) -> int:
        c = 0
        for i, row in enumerate(self.rows):
            c |= ((row >> j) & 1) << i
        return c

    def transpose(self) -> "SymplecticMap":
        n = 2 * self.g
        return SymplecticMap(self.g, tuple(self.column(j) for j in range(n)))

    def compose(self, other: "SymplecticMap") -> "SymplecticMap":
        """Matrix product self @ other (apply other first)."""
        if self.g != other.g:
            raise DomainError("cannot compose maps of different g")
        n = 2 * self.g
        ocols = [other.column(j) for j in range(n)]
        rows = []
        for r in self.rows:
            mask = 0
            for j in range(n):
                mask |= ((r & ocols[j]).bit_count() & 1) << j
            rows.append(mask)
        return SymplecticMap(self.g, tuple(rows))

    __matmul__ = compose

    def inverse(self) -> "SymplecticMap":
        # For a symplectic M the inverse is J M^T J, with J the half-swap
        # permutation (the Gram matrix of the pairing over F_2).
        g = self.g
        t = self.transpose()
        rows = tuple(_swap_halves(t.rows[(i + g) % (2 * g)], g)
                     for i in range(2 * g))
        return SymplecticMap(g, rows)


def transvection(v: F2Vector) -> SymplecticMap:
    """The map T_v(x) = x + <x, v> v; symplectic and an involution."""
    if v.is_zero():
        raise DomainError("transvection needs a nonzero vector")
    g = v.g
    w = _swap_halves(v.bits, g)  # functional mask: <x, v> = popcount(x & w)
    rows = tuple((1 << i) ^ (w if (v.bits >> i) & 1 else 0)
                 for i in range(2 * g))
    return SymplecticMap(g, rows)


# ---------------------------------------------------------------------------
# Witt extension


def witt_extend(sources: Sequence[F2Vector],
                targets: Sequence[F2Vector]) -> SymplecticMap:
    """Symplectic map fixing q0 and sending each source to its target.

    Preconditions: the tuples have equal length, matching pairwise pairings
    and matching q0 values, and each tuple is linearly independent.

    The sources are completed to a basis with standard basis vectors.  The
    targets are then extended one vector at a time: the next target must
    pair with the earlier targets as the next source pairs with the earlier
    sources, take the same q0 value and lie outside their span.  By Witt's
    theorem for quadratic forms over F_2 (Arf 1941) the partial isometry
    extends to a full one, and its value on the next source is such a
    vector, so the search among the solutions of the pairing equations
    always succeeds.  The map is the change of basis; one elimination
    solves for all of its rows at once.
    """
    if len(sources) != len(targets):
        raise DomainError("source and target tuples differ in length")
    if not sources:
        raise DomainError("need at least one vector")
    g = sources[0].g
    if any(v.g != g for v in sources) or any(v.g != g for v in targets):
        raise DomainError("all vectors must share the same g")
    src = [v.bits for v in sources]
    tgt = [v.bits for v in targets]
    m = len(src)
    if _rank_int(src) != m or _rank_int(tgt) != m:
        raise DomainError("tuples must be linearly independent")
    for i in range(m):
        if _q0_int(src[i], g) != _q0_int(tgt[i], g):
            raise DomainError(f"q0 mismatch at position {i}")
        for j in range(i):
            if _pair_int(src[i], src[j], g) != _pair_int(tgt[i], tgt[j], g):
                raise DomainError(f"pairing mismatch at positions {i},{j}")

    n = 2 * g
    for i in range(n):
        if _rank_int(src + [1 << i]) > len(src):
            src.append(1 << i)
    while len(tgt) < n:
        k = len(tgt)
        sol = _solve_f2([_swap_halves(t, g) for t in tgt],
                        [_pair_int(src[k], s, g) for s in src[:k]], n)
        assert sol is not None, "independent functionals are always solvable"
        (cand,), null = sol
        want_q0 = _q0_int(src[k], g)
        # walk the solution coset in Gray-code order, one flip per step
        for idx in range(1 << len(null)):
            if idx:
                cand ^= null[(idx & -idx).bit_length() - 1]
            if _q0_int(cand, g) == want_q0 and _rank_int(tgt + [cand]) > k:
                tgt.append(cand)
                break
        else:
            raise AssertionError("isometry extension candidate must exist")
    # row i of M solves <row_i, src[j]> = bit i of tgt[j] for every j
    rows, _ = _solve_f2(src, tgt, n, n)
    acc = SymplecticMap(g, tuple(rows))
    cur = [acc.apply_int(x) for x in src[:m]]

    for k in range(m):
        assert cur[k] == tgt[k], "postcondition: sources map to targets"
    # q0 o M and q0 share the polar form, so their difference is linear and
    # vanishing on a basis means vanishing everywhere.
    for i in range(2 * g):
        assert _q0_int(acc.apply_int(1 << i), g) == _q0_int(1 << i, g), \
            "postcondition: q0 preserved"
    return acc
