"""Constructive core: fiber-pair cycles, recursive lifting, triple-fiber
cycles, and the full universal cycle over all affine lines of AG(n,q).

Every construction returns a valid double-window cycle that contains the
affine origin, covers exactly its declared fiber union, and is byte-for-byte
deterministic for fixed (n, q).

The parts are built on code arrays: a fiber pair interleaves its
hyperplane's point array with the two direction rows, a lift translates
the base cycle by one table gather per coset and splices the translates,
and the plane chart maps the triple base cycle in one pass per coordinate.
Only the small base cycles of the triple construction (3q vertices) are
written vertex by vertex.  Nothing is searched: for odd q the triple base
cycle starts from one of three written 9-window kernels (q = 3, q = 3^k >= 9,
p >= 5), each checked against its target lines when it is built.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional

import numpy as np

from .gf import Field
from .geometry import (
    Direction,
    Subspace,
    affine,
    complementary_hyperplane,
    enumerate_directions,
    find_coplanar_triplet,
    hyperplane_point_array,
    infinity,
    line_from,
    pgl_normalizer,
    rref,
    vadd,
    vdot,
    vscale,
)
from .cycles import Cycle, glue_cycles, map_linear, translate


class FiberPlan(NamedTuple):
    """Partition of all directions into one optional coplanar triplet plus pairs."""

    triplet: Optional[tuple[Direction, Direction, Direction]]
    pairs: tuple[tuple[Direction, Direction], ...]


def two_fiber_cycle(d1: Direction, d2: Direction, n: int, F: Field) -> Cycle:
    """Universal cycle on the union of two direction fibers.

    The affine vertices are exactly the points of a hyperplane W transversal
    to both directions, so the cycle contains 0.  For even q the points of W
    alternate with the two infinity vertices; for odd q the lone point w*
    spanning W with the plane of the two directions is excised from the
    alternation and reinserted through the detour 0 -> a*u1 -> w* -> [d1],
    whose three windows restore the two otherwise-missing lines.
    """
    if d1 == d2:
        raise ValueError("directions must be distinct")
    if len(d1.vector) != n or len(d2.vector) != n:
        raise ValueError("direction dimension does not match n")
    W = complementary_hyperplane(d1, d2, F)
    pts = hyperplane_point_array(W, F)
    u1, u2 = d1.vector, d2.vector
    detour = np.empty((0, n), dtype=np.int64)
    if F.q % 2:
        f = W.functional
        # W meets span{u1, u2} in the single direction of f(u2)*u1 - f(u1)*u2;
        # s normalizes it to w* = a*u1 + b*u2
        fu1, fu2 = vdot(f, u1, F), vdot(f, u2, F)
        raw = vadd(vscale(fu2, u1, F), vscale(F.neg(fu1), u2, F), F)
        s = F.inv(next(x for x in raw if x))
        a, b = F.mul(s, fu2), F.mul(s, F.neg(fu1))
        wstar = vscale(s, raw, F)
        if a == 0 or b == 0:
            raise AssertionError("w* decomposition produced a zero coefficient")
        pts = pts[(pts != wstar).any(axis=1)]
        detour = np.array([vscale(a, u1, F), wstar])
    # the points alternate with [d1] and [d2]: one infinity vertex after each
    rows = np.empty((len(pts), 2, n), dtype=np.int64)
    rows[:, 0] = pts
    rows[:, 1] = np.array([u1, u2])[np.arange(len(pts)) % 2]
    rows = rows.reshape(-1, n)
    flags = np.tile([False, True], len(pts))
    # the detour follows the origin, the first point
    codes = np.concatenate([rows[:1], detour, rows[1:]])
    at_infinity = np.concatenate([flags[:1], np.zeros(len(detour), dtype=bool), flags[1:]])
    return Cycle._from_arrays(F, codes, at_infinity)


def lift_cycle(cU: Cycle, U: Subspace, n: int) -> Cycle:
    """Extend a universal cycle on a proper subspace U to the full space.

    All directions of cU are shared by every coset of U, so translating cU to
    each coset and splicing the translates at a common point at infinity
    covers the same fibers in F_q^n.  Coset representatives are the vectors
    supported on the non-pivot coordinates of U's RREF basis, in ascending
    integer order (the zero representative first, keeping 0 in the result).
    """
    F = cU.field
    if U.dim >= n:
        raise ValueError(f"dim U = {U.dim} must be smaller than n = {n}")
    if cU.n != n:
        raise ValueError("cycle vertices must already use ambient coordinates")
    add, mul, neg, _ = F.arrays
    # reduce every vertex against the RREF basis: what is left is zero iff it lies in U
    rest = cU.codes
    pivots = []
    for row in U.basis:
        piv = next(i for i, x in enumerate(row) if x != 0)
        pivots.append(piv)
        rest = add[rest, mul[neg[rest[:, piv : piv + 1]], np.array(row)]]
    outside = rest.any(axis=1)
    if outside.any():
        i = int(np.argmax(outside))
        kind = "direction" if cU.at_infinity[i] else "affine vertex"
        raise ValueError(f"{kind} {tuple(cU.codes[i].tolist())} at position {i} lies outside U")
    if not (~cU.at_infinity & ~cU.codes.any(axis=1)).any():
        raise ValueError("base cycle must contain the origin")
    if not cU.at_infinity.any():
        raise ValueError("base cycle has no point at infinity to splice at")
    i = int(np.argmax(cU.at_infinity))
    anchor = infinity(cU.codes[i].tolist())

    free = [j for j in range(n) if j not in pivots]
    parts = []
    for assign in itertools.product(range(F.q), repeat=len(free)):
        rep = [0] * n
        for j, val in zip(free, assign):
            rep[j] = val
        parts.append(translate(cU, tuple(rep)) if any(rep) else cU)
    # Translates live in disjoint cosets, hence are transversal by construction.
    return glue_cycles(parts, anchor, check=False)


# Reference directions of the standard plane: (0,1), (1,0) and (1,1).
_D1 = Direction((0, 1))
_D2 = Direction((1, 0))
_D3 = Direction((1, 1))


def _kernel_targets(F: Field) -> set:
    """The 9 lines indexed by {0,1,2}: verticals x=c, horizontals y=c, and
    slope-one lines with x-intercept c."""
    targets = set()
    for c in (0, 1, 2):
        targets.add(line_from((c, 0), _D1, F))
        targets.add(line_from((0, c), _D2, F))
        targets.add(line_from((c, 0), _D3, F))
    return targets


def kernel_cycle(F: Field) -> Cycle:
    """9-window cycle through (0,0) covering the index-{0,1,2} lines (odd q).

    Every vertex has codes 0, 1, 2, which are elements of the prime field,
    so which of its windows decode to which target line depends only on
    arithmetic mod p on those codes.  Every power of 3 shares GF(3); for
    p >= 5 no difference of two such codes wraps, so all of them behave
    like the integers.  Hence one sequence serves every p >= 5 and one
    every q = 3^k >= 9.  The q = 3 sequence relies on slope-one intercepts
    wrapping mod 3 and is kept for q = 3 alone.  The result is checked
    against the 9 target lines before being returned.
    """
    if F.q % 2 == 0 or F.q < 3:
        raise ValueError("kernel cycle requires odd q >= 3")
    a = lambda x, y: affine((x, y))
    i1, i2, i3 = infinity(_D1), infinity(_D2), infinity(_D3)
    if F.q == 3:
        verts = [a(0, 1), a(0, 2), i3, a(2, 0), a(0, 0), a(1, 1), i1, a(2, 2), i2]
    elif F.p == 3:
        verts = [a(0, 0), a(0, 1), a(1, 1), a(1, 0), a(0, 2), a(1, 2), i3, a(2, 2), a(2, 0)]
    else:
        verts = [a(0, 0), a(0, 1), a(1, 1), a(1, 0), a(2, 1), a(2, 0), i3, a(2, 2), i2]
    cyc = Cycle(verts, F)
    w = cyc.windows()
    if set(w) != _kernel_targets(F) or any(c != 1 for c in w.values()):
        raise AssertionError("kernel cycle failed its coverage check")
    return cyc


def triple_base_cycle(F: Field) -> Cycle:
    """Universal cycle on the three standard fibers of F_q^2 (3q windows).

    Even q: the field splits into q/2 pairs {u, u+1}; each pair yields a
    6-window block covering the lines indexed by u and u+1 in all three
    families.  Odd q: a 9-window kernel covers indices {0,1,2} and the
    remaining q-3 elements are paired consecutively into 6-window blocks.
    All parts share the direction vertices and are spliced there.
    """
    q = F.q
    i1, i2, i3 = infinity(_D1), infinity(_D2), infinity(_D3)
    parts: list[Cycle] = []
    if q % 2 == 0:
        seen: set[int] = set()
        for u in range(q):
            if u in seen:
                continue
            v = F.add(u, 1)
            seen.update((u, v))
            parts.append(
                Cycle([affine((u, v)), i1, affine((v, 0)), i3, affine((0, u)), i2], F)
            )
    else:
        parts.append(kernel_cycle(F))
        rest = [c for c in range(q) if c not in (0, 1, 2)]
        for i in range(0, len(rest), 2):
            u, v = rest[i], rest[i + 1]
            parts.append(
                Cycle(
                    [affine((u, u)), i1, affine((v, 0)), i3, affine((F.add(u, v), v)), i2],
                    F,
                )
            )
    if len(parts) == 1:
        return parts[0]
    anchor = next(a for a in (i1, i2, i3) if all(a in p.vertices for p in parts))
    return glue_cycles(parts, anchor)


def triple_fiber_cycle(
    d1: Direction, d2: Direction, d3: Direction, n: int, F: Field
) -> Cycle:
    """Universal cycle on three coplanar fibers in F_q^n (3*q^(n-1) windows).

    The plane spanned by the directions is charted onto F_q^2 so they become
    the three standard directions, the base cycle is carried back through the
    inverse chart, and the result is lifted from the plane to F_q^n.
    """
    iso = pgl_normalizer(d1, d2, d3, F)
    base = triple_base_cycle(F)
    mapped = map_linear(base, iso.matrix)
    if n == 2:
        return mapped
    U = Subspace(rref([iso.w1, iso.w2], F))
    return lift_cycle(mapped, U, n)


def plan_fibers(n: int, F: Field) -> FiberPlan:
    """Partition all directions: pairs only when their number is even,
    otherwise one coplanar triplet plus pairs of the rest, consecutively in
    enumeration order."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    dirs = enumerate_directions(n, F)
    if len(dirs) % 2 == 0:
        triplet = None
        rest = dirs
    else:
        triplet = find_coplanar_triplet(dirs, F)
        chosen = set(triplet)
        rest = [d for d in dirs if d not in chosen]
    pairs = tuple((rest[i], rest[i + 1]) for i in range(0, len(rest), 2))
    return FiberPlan(triplet, pairs)


def universal_cycle(n: int, F: Field) -> Cycle:
    """Universal cycle covering every affine line of AG(n,q) exactly once.

    Builds one cycle per planned fiber pair (and one for the triplet when the
    direction count is odd) and splices them all at the shared origin.
    """
    plan = plan_fibers(n, F)
    parts: list[Cycle] = []
    if plan.triplet is not None:
        parts.append(triple_fiber_cycle(*plan.triplet, n, F))
    for d1, d2 in plan.pairs:
        parts.append(two_fiber_cycle(d1, d2, n, F))
    if len(parts) == 1:
        return parts[0]
    # Fibers of distinct directions are disjoint, so the parts are transversal.
    return glue_cycles(parts, affine((0,) * n), check=False)
