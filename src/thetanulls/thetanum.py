"""Certified numerical theta constants on the Siegel upper half-space.

theta[k](Z) = sum over integer vectors r of
    exp(pi*i * [(r + k'/2)^T Z (r + k'/2) + (r + k'/2)^T k''])

truncated to ||r + k'/2|| <= R with a rigorous tail majorant: each dropped
term is bounded by exp(-pi * lambda_min * ||x||^2), and the lattice points
in the shell ||x|| in (R+m, R+m+1] number at most (2*ceil(R)+2m+3)^g, so

    tail <= sum_m (2*ceil(R)+2m+3)^g * exp(-pi * lambda_min * (R+m)^2).

R grows until the tail bound is <= eps, and a ball of R that may hold more
points than the term cap is refused before its tail is computed.  The sum
only grows, so a rejected R stops summing its shells once the running
total passes eps; the accepted R sums them all.  The issued certificate
adds a fixed rounding allowance of 1000 * machine_eps * #terms, so it can
exceed eps for very small eps (that allowance is dominated by double
precision itself, not by truncation).

The real part of Z is reduced first: theta[k](Z + 2S) = i^(k'^T S k')
theta[k](Z) for every integer symmetric S, so the series is summed at
Z - 2S with S = round(Re Z / 2), whose real part is exact and lies in
[-1, 1], and the value is turned by that power of i exactly (the parts
are swapped and negated).  The bound does not change, and where every
|Re z_jk| <= 1, S = 0 and nothing is reduced.  A direct sum at a large
Re Z would lose the low bits of every x^T Z x.

The work splits into a part that does not depend on Z and one that does,
each with its own store.  The ball points of a coset x = n + k'/2 depend
only on (g, k') and the radius: the integral y = 2x are enumerated
coordinate by coordinate under an exact integer norm test and put in
summation order by one stable sort on |y|^2.  The process-wide cache
_BALLS keeps, for each (g, k'), the largest such ball asked for, and every
radius reads its coset as a prefix of it, cut by a binary search on the
distinct norms.  With the points it keeps their antipodal fold: a shell of
one norm read backwards is the shell negated, and x^T Z x is even in x, so
x^T Z x and its exponential are computed on the first half of each shell
only and read at every point through the fold index.  The cache holds g
small integers and one fold index of one, two or four bytes per point,
the g small integers of each half-ball point once more, so that a prefix
of the half ball is a slice, and one norm and one offset per distinct
norm, for the largest ball requested.  x^T Z x is summed in one complex
array, c_jk x_j x_k term by term, bit for bit the sums of its real and
imaginary parts.  The terms exp(pi*i x^T Z x) depend on Z.  Only the phase
exp(pi*i x . k'') depends on k'', and as 2x . k'' is an integer that phase
is the power i^(2x . k'') of i: a characteristic's value is the sum of the
coset's terms, each multiplied exactly by one of 1, i, -1, -i.  So
theta_constant keeps one memo entry: the radius, the tail bound and, for
each k' asked for, the coset's terms (16 bytes per point) with its 2x (a
view of the cache), all for the last (Z, eps, radius_scale) seen.  The 4^g
characteristics at one Z then share 2^g half-coset term evaluations, each
made on first use; a new Z replaces the entry.  Values and certificates
are the same bit for bit as a fresh build of every point's term in the
same order.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, MalformedInputError, ResourceCapError
from .f2core import F2Vector
from .quadforms import _act_on_char_rows

_EPS_MACH = float(np.finfo(np.float64).eps)
_MAX_TERMS = 5_000_000
_QUARTER_TURNS = np.array([1, 1j, -1, -1j])  # i^0 .. i^3
_COND_CAP = 1e12
_INT64 = range(-2 ** 63, 2 ** 63)


def _checked_array(name: str, value, kinds: str, what: str) -> np.ndarray:
    """value as a numpy array whose dtype kind is one of kinds ("i" int,
    "f" float), with no cast: ragged nesting and entries of another type
    (booleans and strings included) are malformed input, but a JSON
    integer past int64 in a rectangular list of allowed entries is a
    resource cap, whatever dtype numpy would pick (uint64 and object, or a
    float64 that rounds it)."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:
        raise MalformedInputError(f"{name} is not a rectangular array") \
            from exc
    allowed = (int, float) if "f" in kinds else (int,)
    if arr.ndim == 2 and isinstance(value, list) and all(
            isinstance(r, list) and all(type(x) in allowed for x in r)
            for r in value):
        if any(type(x) is int and x not in _INT64 for r in value for x in r):
            raise ResourceCapError(f"{name} entries leave the int64 range")
    if arr.dtype.kind not in kinds:
        raise MalformedInputError(f"{name} entries must be {what}")
    return arr


class SiegelMatrix:
    """Symmetric complex g x g matrix with positive definite imaginary
    part; symmetrized on input, lambda_min cached.

    theta[k](Z + 2S) = i^(k'^T S k') theta[k](Z) for every integer
    symmetric S, so theta is summed at reduced = Z - 2S with
    S = round(Re Z / 2): its real part is exact and lies in [-1, 1].
    shift holds S mod 4 as rows of ints, or None where S = 0 (every
    |Re z_jk| <= 1), and reduced is then z itself."""

    __slots__ = ("g", "z", "lambda_min", "reduced", "shift")

    def __init__(self, z) -> None:
        arr = np.array(z, dtype=np.complex128)  # a copy, frozen below
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise MalformedInputError("Z must be a square matrix")
        if not arr.size:
            raise MalformedInputError("Z must be at least 1 x 1")
        size = abs(arr.view(np.float64)).max(initial=0.0)
        if not math.isfinite(size):
            raise MalformedInputError("Z entries must be finite")
        # below 2^1023 no sum or difference of two entries overflows, and
        # (x + x) / 2 == x: a Z that is symmetric bit for bit is its own
        # symmetrization, so it skips the tolerance test and the average
        if size >= 2.0 ** 1023:
            raise DomainError(
                "Z entries must be below 2^1023, half the float range")
        if arr.tobytes() != arr.T.tobytes():
            # each part against its own scale: a huge real entry must not
            # hide a non-symmetric imaginary part
            for part in (arr.real, arr.imag):
                tol = 1e-9 * max(1.0, abs(part).max(initial=0.0))
                if abs(part - part.T).max(initial=0.0) > tol:
                    raise DomainError("Z is not symmetric within tolerance")
            arr = (arr + arr.T) / 2
        evals = np.linalg.eigvalsh(arr.imag)
        lam = float(evals[0])
        # small safety margin keeps the tail bound valid under eigensolver
        # rounding
        lam_safe = lam - 1e-12 * max(1.0, float(evals[-1]))
        if not lam_safe > 0:
            raise DomainError("Im Z must be positive definite")
        arr.setflags(write=False)
        self.g = arr.shape[0]
        self.z = arr
        self.lambda_min = lam_safe
        self.reduced, self.shift = arr, None
        # S = 0 where every |Re z_jk| <= 1.  Re Z - 2S is exact: it is at
        # most 1 in size, and 2S is an integer within 1 of Re Z (or Re Z
        # itself, once Re Z is an even integer)
        re_size = abs(arr.real).max(initial=0.0)
        shift = np.rint(arr.real / 2) if re_size > 1 else None
        if shift is not None and shift.any():
            self.reduced = arr - 2 * shift
            self.reduced.setflags(write=False)
            self.shift = tuple(map(tuple, (shift % 4).astype(int).tolist()))

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
        # each part set on its own: 1j * inf is nan + inf j, with a
        # RuntimeWarning
        z = np.empty((g, g), dtype=np.complex128)
        z.real, z.imag = re, im
        return cls(z)


class IntSymplectic:
    """Integer block matrix (A B; C D) with A^T C, B^T D symmetric and
    A^T D - C^T B = I."""

    __slots__ = ("g", "a", "b", "c", "d")

    def __init__(self, a, b, c, d) -> None:
        blocks = []
        for name, blk in (("A", a), ("B", b), ("C", c), ("D", d)):
            # exact products: int64 products of large entries would wrap
            arr = _checked_array(f"block {name}", blk, "i",
                                 "integers").astype(object)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise MalformedInputError(f"block {name} must be square")
            blocks.append(arr)
        g = blocks[0].shape[0]
        if any(blk.shape != (g, g) for blk in blocks):
            raise MalformedInputError("blocks must share one size")
        self._fill(*blocks)

    def _fill(self, a, b, c, d) -> None:
        """The fields of the exact g x g object blocks of M, once its
        entries lie in int64 and M is symplectic: read-only int64 copies
        of the blocks."""
        g = a.shape[0]
        if any(x not in _INT64 for blk in (a, b, c, d) for x in blk.flat):
            raise ResourceCapError("matrix entries leave the int64 range")
        if not np.array_equal(a.T @ c, c.T @ a):
            raise DomainError("A^T C is not symmetric")
        if not np.array_equal(b.T @ d, d.T @ b):
            raise DomainError("B^T D is not symmetric")
        if not np.array_equal(a.T @ d - c.T @ b, np.eye(g, dtype=int)):
            raise DomainError("A^T D - C^T B != I")
        blocks = [blk.astype(np.int64) for blk in (a, b, c, d)]
        for blk in blocks:
            blk.setflags(write=False)
        self.g = g
        self.a, self.b, self.c, self.d = blocks

    def is_level_two(self) -> bool:
        """True iff M = identity mod 2."""
        eye = np.eye(self.g, dtype=np.int64)
        return bool(np.all((self.a - eye) % 2 == 0)
                    and np.all(self.b % 2 == 0)
                    and np.all(self.c % 2 == 0)
                    and np.all((self.d - eye) % 2 == 0))

    def to_json_dict(self) -> dict:
        return {"A": self.a.tolist(), "B": self.b.tolist(),
                "C": self.c.tolist(), "D": self.d.tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "IntSymplectic":
        if not isinstance(data, dict) or set(data) != {"A", "B", "C", "D"}:
            raise MalformedInputError(
                'IntSymplectic JSON needs exactly "A", "B", "C", "D"')
        return cls(data["A"], data["B"], data["C"], data["D"])


def _tail_bound(r: float, lam: float, g: int,
                cap: float = math.inf) -> float:
    """Rigorous bound on the sum of exp(-pi lam ||x||^2) over ||x|| > r:
    the shell r+m < ||x|| <= r+m+1 holds at most (2 ceil(r) + 2m + 3)^g
    lattice translates, each term bounded by the shell's inner radius.
    A shell count past the float range gives the bound inf.

    The running total only grows, so once it passes cap the bound is
    known to be above cap, and that partial total is returned: the result
    is above cap exactly when the full bound is, and is the full bound
    bit for bit otherwise."""
    total = 0.0
    base = 2 * math.ceil(r) + 3
    for m in range(10_001):
        try:
            term = (float(base + 2 * m) ** g
                    * math.exp(-math.pi * lam * (r + m) ** 2))
        except OverflowError:
            return math.inf
        if term == 0.0:
            # exp underflowed; later shells underflow too
            return total
        total += term
        if total > cap:
            return total
    return math.inf


def _radius(z: SiegelMatrix, eps: float,
            radius_scale: float) -> tuple[float, float]:
    """Truncation radius r and its tail bound, which is <= eps.

    A radius of the x1.25 search is rejected as soon as its running tail
    passes eps (_tail_bound's cap); the radius accepted runs the full loop,
    so r and its tail are those of full tails.

    The term cap is checked on every radius tried, before that radius's
    tail, and it also ends the search: a radius under the cap is below
    2.5e6 at every genus (the bound is 2(r + 1/2) at g = 1, and it allows
    smaller radii at higher genus), so at most 66 steps of x1.25 from
    r >= 1 pass it.  A call the cap accepts is unchanged by the earlier
    checks, as the point bound grows with r and the final radius is the
    largest one tried."""
    g = z.g
    lam = z.lambda_min
    r = max(1.0, math.sqrt(max(0.0, -math.log(eps) / (math.pi * lam))))
    _check_term_cap(r, g)
    tail = _tail_bound(r, lam, g, eps)
    while tail > eps:
        r *= 1.25
        _check_term_cap(r, g)
        tail = _tail_bound(r, lam, g, eps)
    if radius_scale > 1.0:
        r *= radius_scale
        _check_term_cap(r, g)
        tail = _tail_bound(r, lam, g)
    return r, tail


def _check_term_cap(r: float, g: int) -> None:
    """Refuse a ball of radius r whose point count may pass _MAX_TERMS."""
    # the ball's points lie on a shifted integer lattice, and their disjoint
    # unit cubes fit in the ball of radius r + sqrt(g)/2: its volume bounds
    # the point count, and so the work and the memory of every coset
    reach = math.sqrt(r * r + 1e-12) + math.sqrt(g) / 2
    try:
        points = math.pi ** (g / 2) / math.gamma(g / 2 + 1) * reach ** g
    except OverflowError:
        points = math.inf
    if points > _MAX_TERMS:
        raise ResourceCapError(
            f"lattice ball of radius {r:.3g} may hold {points:.2g} points "
            f"in genus {g}, above the term cap")


class _Ball(NamedTuple):
    """The integral y = 2x (y = k' mod 2) of one coset with |y|^2 <= nmax,
    in summation order, as g rows; norms holds the distinct values of
    |y|^2 in increasing order and ends[j] counts the points of norm at most
    norms[j - 1], so a prefix is cut with no table indexed by the norm.

    fold is the ball's antipodal fold.  Negation reverses lex order and
    keeps the norm, so a shell of one norm with e points from position s
    on holds -y_p at position 2s + e - 1 - p, and only the origin is its
    own mirror.  Number the first ceil(e/2) points of each shell in order
    (the half ball); fold[p] is the number of the point y_p or -y_p, in
    the smallest unsigned dtype.  It steps up exactly at the points of the
    half ball, whose columns half holds in the dtype of twice_x.  Every
    shell but the origin's has an even count, so a prefix of n whole
    shells holds n - floor(n/2) half points, the same prefix of half.  A
    cached point costs g bytes of twice_x (int8 while |y_i| < 128), one,
    two or four bytes of fold and, for half the points, g bytes of half."""
    nmax: int
    twice_x: np.ndarray
    norms: np.ndarray
    ends: np.ndarray
    fold: np.ndarray
    half: np.ndarray


# (g, k') -> the largest ball asked for so far.  The points do not depend
# on Z, so every Z, eps and radius_scale reads its coset as a prefix.
_BALLS: dict[tuple[int, int], _Ball] = {}


def _ball(g: int, kp: int, nmax: int) -> _Ball:
    """The ball |y|^2 <= nmax of coset k', put in summation order by one
    stable sort on |y|^2 of its points in lex order, with its fold."""
    y, norm = _lex_ball(g, kp, nmax)
    # a stable sort on keys of at most 16 bits is a radix sort
    norm = norm.astype(np.min_scalar_type(nmax), copy=False)
    order = np.argsort(norm, kind="stable")
    norm = norm[order]
    y = y[order]
    # order and y go once used, so the build's peak memory stays that of
    # the gather y[order]
    del order
    twice_x = y.T.copy()
    del y
    # one norm per distinct value, not per point, keeps the cache small:
    # a shell starts where the sorted norms step up
    step = np.empty(norm.size, dtype=bool)
    step[:1] = True
    np.not_equal(norm[1:], norm[:-1], out=step[1:])
    starts = np.flatnonzero(step)
    ends, fold = _fold(np.append(starts, norm.size))
    # the half ball: the points where the fold steps up
    np.greater(fold[1:], fold[:-1], out=step[1:])
    return _Ball(nmax, twice_x, norm[starts], ends, fold,
                 twice_x.compress(step, axis=1))


def _lex_ball(g: int, kp: int,
              nmax: int) -> tuple[np.ndarray, np.ndarray]:
    """The points y (one per row) of the ball |y|^2 <= nmax of coset k' in
    lex order, with their norms, built coordinate by coordinate under the
    exact integer norm test, each |y_i| at most isqrt(nmax)."""
    root = math.isqrt(nmax)
    # the points and norms are kept in their smallest dtypes from the
    # start, and no index array is made, which keeps the build's peak
    # memory down; a norm plus a square is at most 2 nmax
    dtype = np.min_scalar_type(-root - 1)
    wide = np.min_scalar_type(-2 * nmax - 1)
    y = np.zeros((1, 0), dtype=dtype)
    norm = np.zeros(1, dtype=wide)
    for i in range(g):
        bit = (kp >> i) & 1
        top = root - ((root - bit) & 1)  # the largest y_i = k'_i mod 2
        vals = np.arange(-top, top + 1, 2, dtype=wide)
        cand = norm[:, None] + vals * vals
        inside = cand <= nmax
        # each kept point of the last level, once per kept value of y_i
        y = np.column_stack((np.repeat(y, inside.sum(axis=1), axis=0),
                             (inside * vals.astype(dtype))[inside]))
        norm = cand[inside]
    return y, norm


def _fold(ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ends and fold (_Ball) of a ball whose shells start at ends[:-1] and
    which holds ends[-1] points.

    Every shell but the origin's has an even count, so floor(s/2) points
    of the second halves precede a shell starting at s, and the point at
    p numbers min(p, 2s + e - 1 - p) - floor(s/2) in the half ball.  It is
    built in the dtype of a point index, not in int64, which keeps the
    build's peak memory down."""
    index = np.min_scalar_type(int(ends[-1]))
    ends = ends.astype(index)
    counts = np.diff(ends)
    start = np.repeat(ends[:-1], counts)
    mirror = np.repeat(ends[1:] - 1, counts)
    mirror += start
    fold = np.arange(ends[-1], dtype=index)
    mirror -= fold  # 2s + e - 1 - p
    np.minimum(fold, mirror, out=fold)
    fold -= start >> 1
    return ends, fold


def _coset(z: SiegelMatrix, r: float,
           kp: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The points x = n + k'/2 (n integral) of the ball ||x|| <= r, in the
    fixed summation order (by ||x||^2, then lexicographic in n), folded
    onto their antipodal half: (quad, fold, 2x), with 2x as g rows in the
    smallest integer dtype, quad the values x^T Z x at the first half of
    each shell of one norm, and fold the index that reads quad at every
    point.  x^T Z x is even in x, so quad[fold] is x^T Z x at every point,
    bit for bit (_quad_form gives -x the bits of x).  Z is z.reduced, the
    matrix whose real part is Re Z - 2S (SiegelMatrix).

    The points are the prefix |y|^2 <= floor(4 (r^2 + 1e-12)) of the cached
    ball of y = 2x (_BALLS): exactly the float test ||x||^2 <= r^2 + 1e-12,
    as ||x||^2 = |y|^2 / 4 is exact.  The prefix of a larger ball in
    (norm, lex) order is the smaller ball in the same order, with its fold
    and its half ball prefixes of the ball's, so a cached ball gives the
    points of a fresh build.  The points in the 1e-12 slack,
    r^2 < ||x||^2 <= r^2 + 1e-12, lie past r, where the tail bound of r
    already covers them, so summing them keeps the certificate valid.  The
    cache owns the points and quad is all that depends on Z; the 2x and
    fold returned may be views of the cache."""
    nmax = math.floor(4 * (r * r + 1e-12))
    # one read of the slot, one tuple written: a racing call may store a
    # smaller ball, but each call cuts the ball it read
    ball = _BALLS.get((z.g, kp))
    if ball is None or ball.nmax < nmax:
        ball = _BALLS[z.g, kp] = _ball(z.g, kp, nmax)
    cut = ball.ends[np.searchsorted(ball.norms, nmax, side="right")]
    half = ball.half[:, :cut - (cut >> 1)]
    twice_x = ball.twice_x[:, :cut].astype(
        np.min_scalar_type(-2 * math.ceil(r) - 1), copy=False)
    return _quad_form(half / 2, z.reduced), ball.fold[:cut], twice_x


def _quad_form(xt: np.ndarray, z: np.ndarray) -> np.ndarray:
    """x^T Z x for each column x of xt (g rows), summed over the upper
    triangle of the symmetric Z as sum_(j <= k) c_jk x_j x_k, c_jj = z_jj
    and c_jk = 2 z_jk.  Each product x_j x_k of half-integers is exact, and
    every operation is elementwise, so a point's value does not depend on
    its neighbours.  A complex times a real array is the real array cast
    to complex, so a term's parts are c_jk.real * p and c_jk.imag * p up
    to the sign of a zero, which a sum started at +0 does not keep: the
    bits are those of two real sums."""
    g, n = xt.shape
    quad = np.zeros(n, dtype=np.complex128)
    prod, term = np.empty(n), np.empty(n, dtype=np.complex128)
    for j in range(g):
        for k in range(j, g):
            np.multiply(xt[j], xt[k], out=prod)
            quad += np.multiply(z[j, k] if j == k else 2 * z[j, k], prod,
                                out=term)
    return quad


class _Lattice(NamedTuple):
    """One (Z, eps, radius_scale) with its radius, tail and, by k', the
    coset's terms exp(pi i x^T Z x) with its 2x."""
    z: SiegelMatrix
    eps: float
    radius_scale: float
    r: float
    tail: float
    cosets: dict[int, tuple[np.ndarray, np.ndarray]]


# The lattice of the last (Z, eps, radius_scale) evaluated; a new key
# replaces the whole entry, so the memo holds one Siegel matrix at most.
_LATTICE: _Lattice | None = None


def theta_constant(z: SiegelMatrix, k: F2Vector, eps: float,
                   radius_scale: float = 1.0) -> tuple[complex, float]:
    """Truncated theta series with a certified error bound.

    Returns (value, bound) with |value - theta[k](Z)| <= bound; the
    truncation part of the bound is <= eps, the total adds the fixed
    rounding allowance 1000 * eps_mach * #terms.  radius_scale inflates the
    truncation radius past the certified one (self-consistency checks).

    The series is summed at Z - 2 round(Re Z / 2) and turned by a power
    of i exactly.  The ball points of each (g, k') are cached with their
    antipodal fold, and the terms of the last (Z, eps, radius_scale) are
    memoized (module docstring); results are bit-identical to building
    both afresh.
    """
    global _LATTICE
    if not (math.isfinite(eps) and eps > 0):
        raise DomainError("eps must be finite and positive")
    if not (math.isfinite(radius_scale) and radius_scale >= 1.0):
        raise DomainError("radius_scale must be finite and >= 1")
    if k.g != z.g:
        raise DomainError("characteristic/matrix g mismatch")
    # one read of the slot, one tuple written: a lattice is never paired
    # with another Z's key
    memo = _LATTICE
    if memo is None or not (memo.z is z and memo.eps == eps
                            and memo.radius_scale == radius_scale):
        memo = _Lattice(z, eps, radius_scale,
                        *_radius(z, eps, radius_scale), {})
        _LATTICE = memo
    kp = k.first_half
    coset = memo.cosets.get(kp)
    if coset is None:
        quad, fold, twice_x = _coset(z, memo.r, kp)
        # one exp per +-x pair, read at every point through the fold; in
        # place, with the operands of exp(1j * math.pi * quad)
        np.multiply(1j * math.pi, quad, out=quad)
        coset = memo.cosets[kp] = (np.exp(quad, out=quad)[fold], twice_x)
    terms, twice_x = coset
    # exp(pi i x . k'') = i^(2x . k''), and 2x . k'' is an integer sum of
    # the rows k'' picks: each term is multiplied exactly by 1, i, -1 or -i.
    # The sum wraps modulo 2^8, 2^16 or 2^32 in the dtype of 2x, which keeps
    # its residue mod 4.
    kpp = k.second_half
    turns = np.zeros(terms.shape[0], dtype=twice_x.dtype)
    for i in range(z.g):
        if (kpp >> i) & 1:
            turns += twice_x[i]
    turns &= 3
    units = _QUARTER_TURNS[turns]
    value = complex(np.add.reduce(np.multiply(terms, units, out=units)))
    if z.shift is not None:
        bits = [i for i in range(z.g) if (kp >> i) & 1]
        value = _times_i_power(
            value, sum(z.shift[i][j] for i in bits for j in bits))
    bound = memo.tail + 1000.0 * _EPS_MACH * terms.shape[0]
    return value, bound


def _times_i_power(value: complex, power: int) -> complex:
    """value * i^power, exactly: the parts are swapped and negated."""
    re, im = value.real, value.imag
    for _ in range(power & 3):
        re, im = -im, re
    return complex(re, im)


def siegel_act(m: IntSymplectic, z: SiegelMatrix) -> SiegelMatrix:
    """M.Z = (AZ + B)(CZ + D)^-1."""
    return _act(m, z)[0]


def _act(m: IntSymplectic,
         z: SiegelMatrix) -> tuple[SiegelMatrix, np.ndarray, float]:
    """M.Z with CZ + D and its condition number, each computed once."""
    if m.g != z.g:
        raise DomainError("matrix g mismatch")
    with np.errstate(over="ignore", invalid="ignore"):
        num = m.a.astype(np.complex128) @ z.z + m.b.astype(np.complex128)
        den = m.c.astype(np.complex128) @ z.z + m.d.astype(np.complex128)
    if not (np.isfinite(num).all() and np.isfinite(den).all()):
        raise DomainError("AZ + B or CZ + D leaves the float range")
    cond = float(np.linalg.cond(den))
    if cond > _COND_CAP:
        raise DomainError("CZ + D too ill-conditioned")
    with np.errstate(over="ignore", invalid="ignore"):
        moved = np.linalg.solve(den.T, num.T).T
        moved = (moved + moved.T) / 2
    if not np.isfinite(moved).all():
        raise DomainError("M.Z leaves the float range")
    return SiegelMatrix(moved), den, cond


def char_act_int(m: IntSymplectic, k: F2Vector) -> F2Vector:
    """Affine action on characteristics mod 2:
    k'_new = D k' + C k'' + diag(C D^T), k''_new = B k' + A k'' + diag(A B^T).

    This is act_on_char's closed form on the rows of (D C; B A) mod 2 (bit
    j of the two diagonals is q0 of row j), with no map built: M is
    symplectic by construction.
    """
    return F2Vector(k.g, _act_on_char_rows(_form_rows(m), k.bits, k.g))


def _form_rows(m: IntSymplectic) -> tuple[int, ...]:
    """The rows of (D C; B A) mod 2 as masks of exact Python ints."""
    rows = ([d + c for d, c in zip(m.d.tolist(), m.c.tolist())]
            + [b + a for b, a in zip(m.b.tolist(), m.a.tolist())])
    return tuple(sum((x & 1) << j for j, x in enumerate(row)) for row in rows)


def transform_modulus_check(m: IntSymplectic, z: SiegelMatrix, k: F2Vector,
                            eps: float) -> dict:
    """Compare |theta[M.k](M.Z)| with |det(CZ+D)|^(1/2) |theta[k](Z)|."""
    moved_z, den, cond = _act(m, z)
    moved_k = char_act_int(m, k)
    det_root = math.sqrt(abs(complex(np.linalg.det(den))))
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


def _add_sym(m: np.ndarray, g: int, lower: bool, i: int, j: int,
             v: int) -> None:
    """m <- m (I S; 0 I), or m (I 0; S I) when lower, with
    S = v(E_ij + E_ji) (v E_ii when i = j): v times one half's column i
    onto the other half's column j, and column j onto column i."""
    src, dst = (g, 0) if lower else (0, g)
    m[:, dst + j] += v * m[:, src + i]
    if i != j:
        m[:, dst + i] += v * m[:, src + j]


def _blocks(m: np.ndarray, g: int) -> IntSymplectic:
    """The checked IntSymplectic of the exact 2g x 2g object matrix m, as
    IntSymplectic checks its blocks; past int64 is a ResourceCapError."""
    out = IntSymplectic.__new__(IntSymplectic)
    out._fill(m[:g, :g], m[:g, g:], m[g:, :g], m[g:, g:])
    return out


def random_int_symplectic(g: int, rng, steps: int = 4) -> IntSymplectic:
    """Random product of standard Sp(2g, Z) generators with small entries,
    each a column operation on the exact running product M = (A B; C D):
    J = (0 -I; I 0) turns M into (B -A; D -C), and (I S; 0 I) and
    (I 0; S I), S = v(E_ij + E_ji), are _add_sym's."""
    m = np.eye(2 * g, dtype=object)
    for _ in range(steps):
        kind = rng.randrange(3)
        if kind == 2:
            m = np.hstack((m[:, g:], -m[:, :g]))
        else:
            i, j = rng.randrange(g), rng.randrange(g)
            _add_sym(m, g, kind == 1, i, j, rng.choice([-2, -1, 1, 2]))
    return _blocks(m, g)


def random_level_two(g: int, rng, steps: int = 4) -> IntSymplectic:
    """Random element of the level-2 congruence subgroup (M = I mod 2):
    random_int_symplectic's column operations for (I S; 0 I) and
    (I 0; S I) with v = +-2, and for (U 0; 0 U^-T) with U = I + v E_ij,
    i != j, v col i onto col j in the left half and -v col j onto col i in
    the right half (the identity at g = 1)."""
    m = np.eye(2 * g, dtype=object)
    for _ in range(steps):
        kind = rng.randrange(3)
        i, j = rng.randrange(g), rng.randrange(g)
        v = 2 * rng.choice([-1, 1])
        if kind < 2:
            _add_sym(m, g, kind == 1, i, j, v)
        elif g > 1:
            while j == i:
                j = rng.randrange(g)
            m[:, j] += v * m[:, i]
            m[:, g + i] -= v * m[:, g + j]
    return _blocks(m, g)


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
