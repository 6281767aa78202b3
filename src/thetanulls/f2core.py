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


def _transvect_int(v: int, x: int, g: int) -> int:
    # T_v(x) = x + <x, v> v
    return x ^ (v if _pair_int(x, v, g) else 0)


def _rank_int(rows: Iterable[int]) -> int:
    rank = 0
    echelon: list[int] = []
    for row in rows:
        for piv in echelon:
            if row & (piv & -piv):
                row ^= piv
        if row:
            echelon.append(row)
            echelon.sort(key=lambda r: r & -r)
            rank += 1
    return rank


def _solve_f2(eq_rows: Sequence[int], rhs_bits: Sequence[int],
              n: int) -> tuple[int, list[int]] | None:
    """Solve <row_i, z> = rhs_i over GF(2) for z in F_2^n.

    Each equation reads popcount(row & z) = rhs (mod 2).  Returns a
    particular solution and a nullspace basis, or None if inconsistent.
    """
    rows = list(eq_rows)
    rhs = list(rhs_bits)
    pivots: dict[int, int] = {}  # column -> row index after reduction
    r = 0
    for c in range(n):
        p = next((i for i in range(r, len(rows)) if (rows[i] >> c) & 1), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rhs[r], rhs[p] = rhs[p], rhs[r]
        for i in range(len(rows)):
            if i != r and (rows[i] >> c) & 1:
                rows[i] ^= rows[r]
                rhs[i] ^= rhs[r]
        pivots[c] = r
        r += 1
    if any(rhs[i] for i in range(r, len(rows))):
        return None
    particular = 0
    for c, i in pivots.items():
        if rhs[i]:
            particular |= 1 << c
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = 1 << fc
        for c, i in pivots.items():
            if (rows[i] >> fc) & 1:
                vec |= 1 << c
        basis.append(vec)
    return particular, basis


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


def _pinned_chain(s: int, t: int, pinned: Sequence[int],
                  g: int) -> list[int] | None:
    """Chain of at most two q0-nonsingular transvection vectors sending s
    to t while fixing every pinned vector.  None if no such chain exists.

    For the two-step chain through a midpoint w the quadratic conditions
    q0(s+w) = q0(w+t) = 1 reduce, given <s,w> = <w,t> = 1 and the
    polarization identity q0(x+y) = q0(x) + q0(y) + <x,y>, to the single
    condition q0(w) = q0(s) = q0(t).
    """
    if s == t:
        return []
    u = s ^ t
    if _pair_int(s, u, g) == 1 and _q0_int(u, g) == 1 \
            and all(_pair_int(u, p, g) == 0 for p in pinned):
        return [u]
    if _q0_int(s, g) != _q0_int(t, g):
        return None
    n = 2 * g
    eqs = [_swap_halves(s, g), _swap_halves(t, g)]
    rhs = [1, 1]
    for p in pinned:
        # both chain vectors s+w and w+t must pair to 0 with p, which needs
        # <w,p> = <s,p> = <t,p>
        if _pair_int(s, p, g) != _pair_int(t, p, g):
            return None
        eqs.append(_swap_halves(p, g))
        rhs.append(_pair_int(s, p, g))
    sol = _solve_f2(eqs, rhs, n)
    if sol is None:
        return None
    z0, null = sol
    want = _q0_int(s, g)
    for idx in range(1 << len(null)):
        w = z0
        for b in range(len(null)):
            if (idx >> b) & 1:
                w ^= null[b]
        if _q0_int(w, g) == want:
            return [s ^ w, w ^ t]
    return None


def _invert_columns(cols: Sequence[int], n: int) -> list[int]:
    """Rows of the inverse of the matrix whose j-th column mask is cols[j]."""
    a_rows = []
    for i in range(n):
        mask = 0
        for j in range(n):
            mask |= ((cols[j] >> i) & 1) << j
        a_rows.append(mask)
    aug = [a_rows[i] | (1 << (n + i)) for i in range(n)]
    r = 0
    for c in range(n):
        p = next((i for i in range(r, n) if (aug[i] >> c) & 1), None)
        if p is None:
            raise DomainError("matrix is singular")
        aug[r], aug[p] = aug[p], aug[r]
        for i in range(n):
            if i != r and (aug[i] >> c) & 1:
                aug[i] ^= aug[r]
        r += 1
    return [row >> n for row in aug]


def _complete_isometry(sources: list[int], targets: list[int],
                       g: int) -> SymplecticMap:
    """Extend the partial q0-isometry sources -> targets to a full map.

    Completes both tuples to bases with matching pairings and matching q0
    values; the change of basis is then symplectic and fixes q0.
    """
    n = 2 * g
    src = list(sources)
    tgt = list(targets)

    echelon: list[int] = []

    def reduce(x: int) -> int:
        for piv in echelon:
            if x & (piv & -piv):
                x ^= piv
        return x

    def echelon_add(x: int) -> None:
        x = reduce(x)
        echelon.append(x)
        echelon.sort(key=lambda r: r & -r)

    for b in src:
        echelon_add(b)
    for i in range(n):
        if reduce(1 << i):
            src.append(1 << i)
            echelon_add(1 << i)
    assert len(src) == n

    while len(tgt) < n:
        k = len(tgt)
        want_pairs = [_pair_int(src[k], src[j], g) for j in range(k)]
        want_q0 = _q0_int(src[k], g)
        sol = _solve_f2([_swap_halves(t, g) for t in tgt], want_pairs, n)
        assert sol is not None, "independent functionals are always solvable"
        z0, null = sol
        tgt_ech: list[int] = []
        for t in tgt:
            for piv in tgt_ech:
                if t & (piv & -piv):
                    t ^= piv
            tgt_ech.append(t)
            tgt_ech.sort(key=lambda r: r & -r)
        found = None
        for idx in range(1 << len(null)):
            cand = z0
            for b in range(len(null)):
                if (idx >> b) & 1:
                    cand ^= null[b]
            if _q0_int(cand, g) != want_q0:
                continue
            x = cand
            for piv in tgt_ech:
                if x & (piv & -piv):
                    x ^= piv
            if x:
                found = cand
                break
        assert found is not None, "isometry extension candidate must exist"
        tgt.append(found)

    # Solve M src[j] = tgt[j]: with S, T the matrices whose columns are the
    # two bases, M = T S^{-1}.
    inv_rows = _invert_columns(src, n)
    rows_out = []
    for i in range(n):
        mask = 0
        for j in range(n):
            acc = 0
            for k in range(n):
                acc ^= ((tgt[k] >> i) & 1) & ((inv_rows[k] >> j) & 1)
            mask |= acc << j
        rows_out.append(mask)
    return SymplecticMap(g, tuple(rows_out))


def witt_extend(sources: Sequence[F2Vector],
                targets: Sequence[F2Vector]) -> SymplecticMap:
    """Symplectic map fixing q0 and sending each source to its target.

    Preconditions: the tuples have equal length, matching pairwise pairings
    and matching q0 values, and each tuple is linearly independent.

    Moves one vector at a time with a chain of at most two q0-fixing
    transvections chosen inside the stabilizer of the already-placed
    vectors.  That greedy strategy can run out of moves (the q0-isometry
    group in dimension 4 is not generated by transvections, and pinning
    can exhaust short chains), in which case both tuples are completed to
    full bases and the change of basis is solved for directly.
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

    acc = SymplecticMap.identity(g)
    cur = list(src)
    ok = True
    for k in range(m):
        step = _pinned_chain(cur[k], tgt[k], tgt[:k], g)
        if step is None:
            ok = False
            break
        for v in step:
            t = transvection(F2Vector(g, v))
            acc = t @ acc
            cur = [t.apply_int(x) for x in cur]
    if not ok:
        acc = _complete_isometry(src, tgt, g)
        cur = [acc.apply_int(x) for x in src]

    for k in range(m):
        assert cur[k] == tgt[k], "postcondition: sources map to targets"
    # q0 o M and q0 share the polar form, so their difference is linear and
    # vanishing on a basis means vanishing everywhere.
    for i in range(2 * g):
        assert _q0_int(acc.apply_int(1 << i), g) == _q0_int(1 << i, g), \
            "postcondition: q0 preserved"
    return acc
