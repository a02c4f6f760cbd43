"""Points, directions, lines and hyperplanes of AG(n,q) and its projective closure.

Conventions fixed here and relied on everywhere else:

* points are tuples of element codes; tuple comparison (left to right) is the
  lexicographic order used for canonical choices;
* a direction is a nonzero vector normalized so its first nonzero coordinate
  is 1 (the canonical projective representative);
* the canonical form of an affine line is (direction, base) where base is the
  lexicographically smallest point on the line, so line equality is plain
  value equality;
* every enumeration (directions, covectors, hyperplane points, fibers, coset
  representatives) has a fixed deterministic order.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .gf import Field

Point = tuple[int, ...]
Vector = tuple[int, ...]


class DegenerateWindowError(ValueError):
    """A vertex pair that does not determine an affine line."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class Direction(NamedTuple):
    """Point at infinity of a parallel class; vector is normalized."""

    vector: Vector


class ProjVertex(NamedTuple):
    """Vertex of the projective closure: affine point or point at infinity."""

    at_infinity: bool
    coords: Vector


def affine(coords: Iterable[int]) -> ProjVertex:
    return ProjVertex(False, tuple(coords))


def infinity(d: Direction | Iterable[int]) -> ProjVertex:
    vec = d.vector if isinstance(d, Direction) else tuple(d)
    return ProjVertex(True, vec)


class AffineLine(NamedTuple):
    dir: Direction
    base: Point


class Hyperplane(NamedTuple):
    """Kernel of a normalized nonzero covector."""

    functional: Vector


class Subspace(NamedTuple):
    """Linear subspace given by its reduced-row-echelon basis."""

    basis: tuple[Vector, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contained_in_last_hyperplane(self) -> bool:
        return all(row[-1] == 0 for row in self.basis)


# -- vector helpers ----------------------------------------------------------

def vadd(a: Vector, b: Vector, F: Field) -> Vector:
    return tuple(F.add(x, y) for x, y in zip(a, b))


def vsub(a: Vector, b: Vector, F: Field) -> Vector:
    return tuple(F.sub(x, y) for x, y in zip(a, b))


def vscale(t: int, a: Vector, F: Field) -> Vector:
    return tuple(F.mul(t, x) for x in a)


def vdot(f: Vector, v: Vector, F: Field) -> int:
    s = 0
    for x, y in zip(f, v):
        s = F.add(s, F.mul(x, y))
    return s


def all_points(n: int, F: Field) -> Iterable[Point]:
    """All q^n points in ascending lexicographic order."""
    return itertools.product(range(F.q), repeat=n)


def normalize_direction(vec: Vector, F: Field) -> Direction:
    for c in vec:
        if c != 0:
            s = F.inv(c)
            return Direction(vscale(s, vec, F))
    raise ValueError("zero vector has no direction")


# -- row reduction -----------------------------------------------------------

def rref(rows: Iterable[Vector], F: Field) -> tuple[Vector, ...]:
    """Reduced row echelon form over GF(q); zero rows dropped."""
    mat = [list(r) for r in rows]
    if not mat:
        return ()
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        pr = None
        for r in range(pivot_row, len(mat)):
            if mat[r][col] != 0:
                pr = r
                break
        if pr is None:
            continue
        mat[pivot_row], mat[pr] = mat[pr], mat[pivot_row]
        s = F.inv(mat[pivot_row][col])
        mat[pivot_row] = [F.mul(s, x) for x in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col] != 0:
                c = mat[r][col]
                mat[r] = [F.sub(x, F.mul(c, y)) for x, y in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return tuple(tuple(r) for r in mat[:pivot_row] if any(r))


def rank(rows: Iterable[Vector], F: Field) -> int:
    return len(rref(rows, F))


def solve2(u: Vector, v: Vector, target: Vector, F: Field) -> tuple[int, int]:
    """Solve a*u + b*v = target for independent u, v.

    u, v are independent and target lies in their span exactly when the RREF
    of the columns [u v target] is (1, 0, a), (0, 1, b).
    """
    R = rref(zip(u, v, target), F)
    if len(R) < 2 or R[0][:2] != (1, 0) or R[1][:2] != (0, 1):
        raise ValueError("u and v are not independent")
    if len(R) > 2:
        raise ValueError("target is outside span{u, v}")
    return R[0][2], R[1][2]


# -- enumeration and canonical lines -----------------------------------------

def direction_scan(n: int, q: int):
    """Normalized vectors in ascending lexicographic order, lazily.

    A normalized vector is zeros, then a 1 at its pivot position, then an
    arbitrary tail; vectors with a later pivot start with more zeros and
    therefore sort first, and within one pivot the tails run in product
    order, so this emits the same order as sorting.
    """
    for piv in range(n - 1, -1, -1):
        head = (0,) * piv + (1,)
        for tail in itertools.product(range(q), repeat=n - 1 - piv):
            yield Direction(head + tail)


def enumerate_directions(n: int, F: Field) -> list[Direction]:
    """All (q^n - 1)/(q - 1) directions, lexicographic on the code vector."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return list(direction_scan(n, F.q))


def line_through(a: Point, b: Point, F: Field) -> AffineLine:
    """Canonical line through two distinct points."""
    if a == b:
        raise DegenerateWindowError(f"equal points {a} determine no line")
    d = normalize_direction(vsub(b, a, F), F)
    return line_from(a, d, F)


def line_from(w: Point, d: Direction, F: Field) -> AffineLine:
    """Canonical form of the line w + <d>.

    The coordinates of w + t*d before the pivot of d are fixed and the pivot
    coordinate, whose entry in d is 1, runs through every field element, so
    the lexicographically smallest point is the one whose pivot coordinate
    is 0: w - w[piv]*d.
    """
    piv = next(i for i, x in enumerate(d.vector) if x != 0)
    return AffineLine(d, vadd(w, vscale(F.neg(w[piv]), d.vector, F), F))


def line_points(L: AffineLine, F: Field) -> list[Point]:
    return sorted(vadd(L.base, vscale(t, L.dir.vector, F), F) for t in range(F.q))


def decode_window(v1: ProjVertex, v2: ProjVertex, F: Field) -> AffineLine:
    """The affine line represented by a window of two projective vertices."""
    if v1.at_infinity and v2.at_infinity:
        raise DegenerateWindowError("window of two points at infinity")
    if v1.at_infinity:
        return line_from(v2.coords, Direction(v1.coords), F)
    if v2.at_infinity:
        return line_from(v1.coords, Direction(v2.coords), F)
    return line_through(v1.coords, v2.coords, F)


def dots(f: np.ndarray, v: np.ndarray, F: Field) -> np.ndarray:
    """Dot products f . v over the field tables, broadcast over the leading axes."""
    add, mul = F.arrays[:2]
    s = 0
    for j in range(f.shape[-1]):
        s = add[s, mul[f[..., j], v[..., j]]]
    return s


def complementary_functionals(u1: np.ndarray, u2: np.ndarray, F: Field) -> np.ndarray:
    """For every row pair of the (P, n) direction arrays u1 and u2, the first
    covector in direction scan order nonzero on both; the scan is tested in
    chunks of doubling size against the pairs still open."""
    if (u1 == u2).all(axis=1).any():
        raise ValueError("directions must be distinct")
    out, pairs = np.empty(u1.shape, dtype=np.int64), np.stack([u1, u2], axis=1)
    todo, scan, size = np.arange(len(u1)), direction_scan(u1.shape[1], F.q), 8
    while len(todo):
        cand = np.array([d.vector for d in itertools.islice(scan, size)])
        ok = (dots(cand, pairs[todo, :, None], F) != 0).all(axis=1)
        hit = ok.any(axis=1)
        out[todo[hit]] = cand[ok[hit].argmax(axis=1)]
        todo, size = todo[~hit], 2 * size
    return out


def complementary_hyperplane(d1: Direction, d2: Direction, F: Field) -> Hyperplane:
    """First normalized covector (in direction scan order) nonzero on both."""
    f = complementary_functionals(np.array([d1.vector]), np.array([d2.vector]), F)
    return Hyperplane(tuple(f[0].tolist()))


def hyperplane_point_array(W: Hyperplane, F: Field) -> np.ndarray:
    """All q^(n-1) kernel points as one (q^(n-1), n) array in the field's
    dtype, ascending lexicographic (0 first).

    The free coordinates run through every assignment; the pivot coordinate
    is then -f(free part)/f[piv], one ``dots`` over the nonzero coefficients
    after the pivot (f vanishes before it), and the rows are sorted once.
    """
    f = W.functional
    n = len(f)
    _, mul, neg, inv = F.arrays
    piv = next(i for i, x in enumerate(f) if x != 0)
    free = [j for j in range(n) if j != piv]
    pts = np.zeros((F.q ** (n - 1), n), dtype=mul.dtype)
    if free:
        pts[:, free] = np.indices((F.q,) * (n - 1)).reshape(n - 1, -1).T
    tail = np.flatnonzero(f)[1:]
    pts[:, piv] = mul[neg[dots(np.array(f)[tail], pts[:, tail], F)], inv[f[piv]]]
    return pts[np.lexsort(pts.T[::-1])]


def hyperplane_points(W: Hyperplane, F: Field) -> list[Point]:
    """``hyperplane_point_array`` as a list of point tuples."""
    return list(map(tuple, hyperplane_point_array(W, F).tolist()))


def fiber(d: Direction, n: int, F: Field) -> list[AffineLine]:
    """The q^(n-1) lines parallel to d, ordered by base point.

    The canonical bases (``line_from``) are exactly the points whose
    coordinate at d's pivot is 0; inserting that 0 into every point of
    F_q^(n-1) keeps the ascending order.
    """
    piv = next(i for i, x in enumerate(d.vector) if x != 0)
    return [AffineLine(d, pt[:piv] + (0,) + pt[piv:]) for pt in all_points(n - 1, F)]


def find_coplanar_triplet(
    dirs: Sequence[Direction], F: Field
) -> tuple[Direction, Direction, Direction]:
    """First three directions (in the given order) inside the span of the first two."""
    basis = rref([dirs[0].vector, dirs[1].vector], F)
    coplanar = (d for d in dirs if rank(basis + (d.vector,), F) == 2)
    picked = tuple(itertools.islice(coplanar, 3))
    if len(picked) < 3:
        raise ValueError("no coplanar triplet available (need q + 1 >= 3)")
    return picked


def pgl_normalizer(
    d1: Direction, d2: Direction, d3: Direction, F: Field
) -> tuple[Vector, Vector]:
    """The columns (w1, w2) of the inverse chart of the plane span{d1,d2,d3}
    of F_q^n: (x, y) in F_q^2 maps to x*w1 + y*w2, so that the directions of
    (0,1), (1,0), (1,1) map to d1, d2, d3.

    Basis construction: take v1 from d2 and v2 from d1 (so they map to (1,0)
    and (0,1)), write d3 = a*v1 + b*v2 and rescale the basis to (a*v1, b*v2).
    Both coefficients are necessarily nonzero for three distinct coplanar
    directions; this is asserted rather than assumed.
    """
    if len({d1, d2, d3}) != 3:
        raise ValueError("directions must be distinct")
    v1, v2 = d2.vector, d1.vector
    a, b = solve2(v1, v2, d3.vector, F)
    if a == 0 or b == 0:
        raise AssertionError("coplanar triple produced a zero coefficient")
    return vscale(a, v1, F), vscale(b, v2, F)
