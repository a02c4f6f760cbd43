"""Constructive core: fiber-pair cycles, recursive lifting, triple-fiber
cycles, and the full universal cycle over all affine lines of AG(n,q).

Every construction returns a valid double-window cycle that contains the
affine origin, covers exactly its declared fiber union, and is byte-for-byte
deterministic for fixed (n, q).

The parts are built on code arrays, each cycle one array of homogeneous
rows: (x, 1) for an affine point x, (d, 0) for a direction d.  One builder
writes all fiber pairs, their last column included, into one preallocated
block, building each distinct hyperplane's points once; as every pair
starts at the origin, the full cycle is the triplet part rotated there
followed by that block, checked once.  A lift translates its rotated base
to every coset t in one table gather, (x, h) -> (x + h·t, h).  The triple
base cycle is its 6-window blocks in one array, spliced with the kernel for
odd q and checked once, by rank, for exact cover of its three fibers.
Nothing is searched: the odd-q kernel is one of three written 9-window
cycles (q = 3, q = 3^k >= 9, p >= 5).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .gf import Field
from .geometry import (
    Direction,
    Hyperplane,
    Subspace,
    complementary_functionals,
    dots,
    enumerate_directions,
    find_coplanar_triplet,
    hyperplane_point_array,
    pgl_normalizer,
    rref,
)
from .cycles import Cycle, _row_hits, _row_keys, map_linear, splice
from .verify import window_ranks


class FiberPlan(NamedTuple):
    """Partition of all directions into one optional coplanar triplet plus pairs."""

    triplet: Optional[tuple[Direction, Direction, Direction]]
    pairs: tuple[tuple[Direction, Direction], ...]


def _fiber_pairs(
    u1: np.ndarray, u2: np.ndarray, F: Field, lead: int = 0
) -> np.ndarray:
    """The homogeneous rows of the fiber-pair cycles of the rows of the
    (P, n) direction arrays u1 and u2, in row order, after ``lead`` rows left
    for the caller.  A pair's affine vertices are the points of a hyperplane
    W transversal to both directions, origin first, alternating with [d1]
    and [d2]; for odd q the lone point w* of W in the plane of the two
    directions moves up through the detour 0 -> a*u1 -> w* -> [d1], whose
    three windows restore the two otherwise-missing lines.  Each distinct
    W's point array is built once and written to all its pairs.
    """
    P, n = u1.shape
    m = F.q ** (n - 1)
    add, mul, neg, inv = F.arrays
    f = complementary_functionals(u1, u2, F)
    codes = np.empty((lead + P * 2 * m, n + 1), dtype=add.dtype)
    parts = codes[lead:].reshape(P, 2 * m, n + 1)
    odd = F.q % 2
    # every other point is followed by [d1]; for odd q the detour shifts them by one
    parts[:, 1::4, :n], parts[:, 3::4, :n] = (u1, u2)[odd][:, None], (u2, u1)[odd][:, None]
    parts[:, 0::2, n], parts[:, 1::2, n] = 1, 0
    if odd:
        # W meets span{u1, u2} in the single direction of f(u2)*u1 - f(u1)*u2;
        # s normalizes it to w* = a*u1 + b*u2
        fu1, fu2 = dots(f[:, None], np.stack([u1, u2], axis=1), F).T
        raw = add[mul[fu2[:, None], u1], mul[neg[fu1][:, None], u2]]
        s = inv[raw[np.arange(P), (raw != 0).argmax(axis=1)]]
        a, b = mul[s, fu2], mul[s, neg[fu1]]
        if not (a.all() and b.all()):
            raise AssertionError("w* decomposition produced a zero coefficient")
        wstar = mul[s[:, None], raw]
        parts[:, 1, :n], parts[:, 1, n] = mul[a[:, None], u1], 1
    # the pairs grouped by W, keyed by f's digits (int64, below q^n, as the block fits in memory)
    _, first, group = np.unique(f @ F.q ** np.arange(n), return_index=True, return_inverse=True)
    k = np.arange(m)
    for g, W in enumerate(f[first]):
        sel = group == g
        pts = hyperplane_point_array(Hyperplane(tuple(W.tolist())), F)
        if odd:
            # the sorted points with each pair's w*, at index r, moved to second place
            r = (_row_keys(pts) == _row_keys(wstar[sel])[:, None]).argmax(axis=1)
            order = np.where(k > r[:, None], k, k - 1)
            order[:, 0], order[:, 1] = 0, r
            pts = pts[order]
        parts[sel, 0::2, :n] = pts
    return codes


def two_fiber_cycle(d1: Direction, d2: Direction, n: int, F: Field) -> Cycle:
    """Universal cycle on the union of two direction fibers: ``_fiber_pairs`` of one pair."""
    if len(d1.vector) != n or len(d2.vector) != n:
        raise ValueError("direction dimension does not match n")
    return Cycle._from_arrays(F, _fiber_pairs(np.array([d1.vector]), np.array([d2.vector]), F))


def lift_cycle(cU: Cycle, U: Subspace, n: int) -> Cycle:
    """Extend a universal cycle on a proper subspace U to the full space.

    All directions of cU are shared by every coset of U, so translating cU to
    each coset and splicing the translates at a common point at infinity
    covers the same fibers in F_q^n.  Coset representatives are the vectors
    supported on the non-pivot coordinates of U's RREF basis, in ascending
    integer order (the zero representative first, keeping 0 in the result).
    The base, rotated to its first point at infinity, the splice vertex,
    is translated to every representative t in one gather: (x, h) -> (x + h·t, h).
    """
    F = cU.field
    if U.dim >= n:
        raise ValueError(f"dim U = {U.dim} must be smaller than n = {n}")
    if cU.n != n:
        raise ValueError("cycle vertices must already use ambient coordinates")
    add, mul, neg, _ = F.arrays
    # reduce every vertex against the RREF basis: what is left is zero iff it lies in U
    rest, inf = cU.codes[:, :n], cU.codes[:, n] == 0
    pivots = [next(i for i, x in enumerate(row) if x != 0) for row in U.basis]
    for piv, row in zip(pivots, U.basis):
        rest = add[rest, mul[neg[rest[:, piv : piv + 1]], np.array(row)]]
    outside = ~_row_hits(rest, (0,) * n)
    if outside.any():
        i = int(np.argmax(outside))
        kind = "direction" if inf[i] else "affine vertex"
        raise ValueError(f"{kind} {tuple(cU.codes[i, :n].tolist())} at position {i} lies outside U")
    if not _row_hits(cU.codes, (0,) * n + (1,)).any():
        raise ValueError("base cycle must contain the origin")
    if not inf.any():
        raise ValueError("base cycle has no point at infinity to splice at")
    base = np.roll(cU.codes, -int(np.argmax(inf)), axis=0)
    free = [j for j in range(n) if j not in pivots]
    reps = np.zeros((F.q ** len(free), n + 1), dtype=add.dtype)
    reps[:, free] = np.indices((F.q,) * len(free)).reshape(len(free), -1).T
    # translates live in disjoint cosets, hence are transversal by construction
    return Cycle._from_arrays(F, add[base, base[:, n:] * reps[:, None]].reshape(-1, n + 1))


# The standard plane's points at infinity [d1], [d2], [d3], of (0,1), (1,0)
# and (1,1), as homogeneous rows.
_I1, _I2, _I3 = (0, 1, 0), (1, 0, 0), (1, 1, 0)


def kernel_cycle(F: Field) -> Cycle:
    """9-window cycle through (0,0) covering the index-{0,1,2} lines (odd q).

    Every vertex has codes 0, 1, 2, which are elements of the prime field,
    so which of its windows decode to which target line depends only on
    arithmetic mod p on those codes.  Every power of 3 shares GF(3); for
    p >= 5 no difference of two such codes wraps, so all of them behave
    like the integers.  Hence one sequence serves every p >= 5 and one
    every q = 3^k >= 9.  The q = 3 sequence relies on slope-one intercepts
    wrapping mod 3 and is kept for q = 3 alone.
    """
    if F.q % 2 == 0 or F.q < 3:
        raise ValueError("kernel cycle requires odd q >= 3")
    a = lambda x, y: (x, y, 1)
    if F.q == 3:
        rows = [a(0, 1), a(0, 2), _I3, a(2, 0), a(0, 0), a(1, 1), _I1, a(2, 2), _I2]
    elif F.p == 3:
        rows = [a(0, 0), a(0, 1), a(1, 1), a(1, 0), a(0, 2), a(1, 2), _I3, a(2, 2), a(2, 0)]
    else:
        rows = [a(0, 0), a(0, 1), a(1, 1), a(1, 0), a(2, 1), a(2, 0), _I3, a(2, 2), _I2]
    return Cycle._from_arrays(F, np.array(rows))


def triple_base_cycle(F: Field) -> Cycle:
    """Universal cycle on the three standard fibers of F_q^2 (3q windows).

    Even q: a GF(2^k) code is a bit vector, so u+1 = u^1 and the field
    splits into the q/2 pairs {u, u+1} with u even; each pair yields a
    6-window block covering the lines indexed by u and u+1 in all three
    families.  Odd q: a 9-window kernel covers indices {0,1,2} and the
    remaining q-3 elements are paired consecutively into 6-window blocks.
    The blocks are written into one array.  All parts share the direction
    vertices and are spliced at the first of [d1], [d2], [d3] in part 0; a
    lone part (q = 2, 3) is returned as built.  The base is checked once:
    its windows must rank to exactly 0..3q-1, the lines of its fibers.
    """
    q, add = F.q, F.arrays[0]
    u = np.arange(3 * (q % 2), q, 2)
    if q % 2 == 0:
        parts, points = [], [(u, u + 1), (u + 1, 0 * u), (0 * u, u)]
    else:
        kernel = kernel_cycle(F)
        parts = [kernel.codes]
        points = [(u, u), (u + 1, 0 * u), (add[u, u + 1], u + 1)]
    # a block's points alternate with [d1], [d3], [d2]
    blocks = np.empty((len(u), 6, 3), dtype=add.dtype)
    blocks[:, 0::2, :2], blocks[:, 0::2, 2] = np.transpose(points, (2, 0, 1)), 1
    blocks[:, 1::2] = _I1, _I3, _I2
    parts += list(blocks)
    if len(parts) > 1:
        at = next(row for row in (_I1, _I2, _I3) if _row_hits(parts[0], row).any())
        parts = [splice(parts, [_row_hits(c, at) for c in parts], at)]
    base = Cycle._from_arrays(F, parts[0])
    ranks, _ = window_ranks(base)  # [d1], [d2], [d3] rank first in AG(2,q)
    if not np.array_equal(np.sort(ranks), np.arange(3 * q)):
        raise AssertionError("triple base cycle does not cover its three fibers exactly")
    return base


def triple_fiber_cycle(
    d1: Direction, d2: Direction, d3: Direction, n: int, F: Field
) -> Cycle:
    """Universal cycle on three coplanar fibers in F_q^n (3*q^(n-1) windows).

    The plane spanned by the directions is charted onto F_q^2 so they become
    the three standard directions, the base cycle is carried back through the
    inverse chart, and the result is lifted from the plane to F_q^n.
    """
    w1, w2 = pgl_normalizer(d1, d2, d3, F)
    mapped = map_linear(triple_base_cycle(F), tuple(zip(w1, w2)))
    return mapped if n == 2 else lift_cycle(mapped, Subspace(rref([w1, w2], F)), n)


def plan_fibers(n: int, F: Field) -> FiberPlan:
    """Partition all directions: pairs only when their number is even,
    otherwise one coplanar triplet plus pairs of the rest, consecutively in
    enumeration order."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    dirs = enumerate_directions(n, F)
    triplet = None if len(dirs) % 2 == 0 else find_coplanar_triplet(dirs, F)
    rest = [d for d in dirs if d not in (triplet or ())]
    pairs = tuple((rest[i], rest[i + 1]) for i in range(0, len(rest), 2))
    return FiberPlan(triplet, pairs)


def universal_cycle(n: int, F: Field) -> Cycle:
    """Universal cycle covering every affine line of AG(n,q) exactly once.

    The parts cover disjoint fibers and all pass through the origin, where
    every pair part starts: the triplet part (for an odd direction count),
    rotated to the origin, and the pairs in plan order are written into one
    array and checked once.  A lone triplet part is returned as built.
    """
    plan = plan_fibers(n, F)
    triple = None if plan.triplet is None else triple_fiber_cycle(*plan.triplet, n, F)
    if not plan.pairs:
        return triple
    u1, u2 = (np.array([p[k].vector for p in plan.pairs], dtype=np.int64) for k in (0, 1))
    codes = _fiber_pairs(u1, u2, F, 0 if triple is None else len(triple))
    if triple is not None:
        r = int(np.argmax(_row_hits(triple.codes, (0,) * n + (1,))))
        codes[: len(triple)] = np.roll(triple.codes, -r, axis=0)
    return Cycle._from_arrays(F, codes)
