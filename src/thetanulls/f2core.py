"""Exact symplectic linear algebra over GF(2).

Vectors live in F_2^(2g).  A vector is stored as an int bitmask with bit i
holding coordinate i; coordinates 0..g-1 form the first half v' and
coordinates g..2g-1 the second half v''.  The symplectic pairing is

    <a, b> = a'.b'' + a''.b'   (mod 2)

and q0(v) = v'.v'' is the standard quadratic form refining it.

The F_2 mask rules live here once: popcount, pairing, q0, the row product
M x and the sum of masks over the set bits of k.  Each takes plain Python
ints (exact past int64) and broadcast numpy mask arrays alike, and every
other module reads them.  A mask array of width n bits takes the
narrowest signed dtype that holds it, _mask_dtype(n): int8 up to 7 bits,
int16 up to 15 (characteristics up to g = 7) and int32 up to 31.  The
pairing and q0 of arrays stay in uint8, as np.bitwise_count gives them;
popcount widens to int64, so that differences of counts do not wrap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, _int_in


# ---------------------------------------------------------------------------
# int-mask kernel, shared with the sibling modules


def _mask_dtype(bits: int) -> np.dtype:
    """The narrowest signed dtype holding every mask below 2^bits.  It
    takes the width, not g: partition masks have 2g + 2 bits."""
    return np.min_scalar_type(-(1 << bits))


def _popcount(m):
    """Set bits of masks: a plain int for a plain int, int64 elementwise for
    numpy masks (np.bitwise_count gives uint8, which would wrap)."""
    if isinstance(m, int):
        return m.bit_count()
    return np.bitwise_count(m).astype(np.int64)


def _parity(m):
    """popcount(m) mod 2: a plain int for a plain int, uint8 elementwise for
    numpy masks.  A uint8 parity may be xored, compared, summed a few
    times or multiplied into a mask array, but must be widened before it
    is shifted, summed past 255 or multiplied by a plain int past 255
    (which raises OverflowError)."""
    if isinstance(m, int):
        return m.bit_count() & 1
    return np.bitwise_count(m) & 1


def _pair(a, b, g: int):
    """The pairing <a, b> of masks in F_2^(2g)."""
    return _parity(((a & (b >> g)) ^ ((a >> g) & b)) & ((1 << g) - 1))


def _q0(v, g: int):
    """q0(v) = v'.v'' of masks in F_2^(2g)."""
    return _parity(v & (v >> g) & ((1 << g) - 1))


def _dot_rows(rows: Sequence[int], x):
    """M x for the matrix M with row masks rows: bit i is the parity of
    rows[i] & x, read through the int64 popcount, as bit i of an array
    would wrap in uint8 from i = 8 on."""
    out = 0
    for i, row in enumerate(rows):
        out |= (_popcount(row & x) & 1) << i
    return out


def _combine(k, masks: Sequence[int]):
    """The XOR of masks[i] over the set bits i of k (the row vector k times
    the matrix with row masks masks)."""
    out = 0
    for i, m in enumerate(masks):
        out ^= m * ((k >> i) & 1)
    return out


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
        g = _int_in(self.g, 1, None, "g")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "bits", _int_in(
            self.bits, 0, (1 << (2 * g)) - 1, "bits"))

    @classmethod
    def from_list(cls, coords: Sequence[int]) -> "F2Vector":
        if len(coords) % 2 or not coords:
            raise DomainError(f"coordinate list must have even positive "
                              f"length, got {len(coords)}")
        bits = 0
        for i, x in enumerate(coords):
            bits |= _int_in(x, 0, 1, "coordinate") << i
        return cls(len(coords) // 2, bits)

    def to_list(self) -> list[int]:
        return [(self.bits >> i) & 1 for i in range(2 * self.g)]

    @property
    def first_half(self) -> int:
        return self.bits & ((1 << self.g) - 1)

    @property
    def second_half(self) -> int:
        return self.bits >> self.g

    def __add__(self, other: "F2Vector") -> "F2Vector":
        if self.g != other.g:
            raise DomainError("cannot add vectors of different g")
        return F2Vector(self.g, self.bits ^ other.bits)

    __xor__ = __add__


def symplectic_pairing(a: F2Vector, b: F2Vector) -> int:
    if a.g != b.g:
        raise DomainError("pairing needs vectors of the same g")
    return _pair(a.bits, b.bits, a.g)


def q0(v: F2Vector) -> int:
    """Standard quadratic form q0(v) = v'.v'' (mod 2)."""
    return _q0(v.bits, v.g)


# ---------------------------------------------------------------------------
# symplectic maps


def _preserves_pairing(rows: Sequence[int], g: int) -> bool:
    """True iff <rows[i], rows[j]> = [j - i = g] for all i < j: M preserves
    the pairing iff M^T does (its Gram matrix J has J^-1 = J over F_2), and
    the rows of M are the columns of M^T.  Preserving a nondegenerate
    pairing forces invertibility, so no rank check is needed."""
    n = 2 * g
    return all(_pair(rows[i], rows[j], g) == (j - i == g)
               for i in range(n) for j in range(i + 1, n))


@dataclass(frozen=True)
class SymplecticMap:
    """Pairing-preserving linear map on F_2^(2g); rows[i] is row i as a
    bitmask, so (M x)_i = popcount(rows[i] & x) mod 2.  The constructor
    checks the pairing on the row masks; there is no unchecked path."""

    g: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        n = 2 * self.g
        if self.g < 1 or len(self.rows) != n or \
                any(not 0 <= r < 1 << n for r in self.rows):
            raise DomainError(f"need g >= 1 and {n} row masks below 2^{n}")
        if not _preserves_pairing(self.rows, self.g):
            raise DomainError("matrix does not preserve the pairing")

    def apply_int(self, x: int) -> int:
        return _dot_rows(self.rows, x)


def transvection(v: F2Vector) -> SymplecticMap:
    """The map T_v(x) = x + <x, v> v; symplectic and an involution."""
    if not v.bits:
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
        if _q0(src[i], g) != _q0(tgt[i], g):
            raise DomainError(f"q0 mismatch at position {i}")
        for j in range(i):
            if _pair(src[i], src[j], g) != _pair(tgt[i], tgt[j], g):
                raise DomainError(f"pairing mismatch at positions {i},{j}")

    n = 2 * g
    for i in range(n):
        if _rank_int(src + [1 << i]) > len(src):
            src.append(1 << i)
    while len(tgt) < n:
        k = len(tgt)
        sol = _solve_f2([_swap_halves(t, g) for t in tgt],
                        [_pair(src[k], s, g) for s in src[:k]], n)
        assert sol is not None, "independent functionals are always solvable"
        (cand,), null = sol
        want_q0 = _q0(src[k], g)
        # walk the solution coset in Gray-code order, one flip per step
        for idx in range(1 << len(null)):
            if idx:
                cand ^= null[(idx & -idx).bit_length() - 1]
            if _q0(cand, g) == want_q0 and _rank_int(tgt + [cand]) > k:
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
        assert _q0(acc.apply_int(1 << i), g) == _q0(1 << i, g), \
            "postcondition: q0 preserved"
    return acc
