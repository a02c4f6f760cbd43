"""Geometry layer: directions, canonical lines, hyperplanes, plane charts."""

import itertools
import random

import pytest

from ucycle.gf import field_from_order, field_make
from ucycle.geometry import (
    AffineLine,
    DegenerateWindowError,
    Direction,
    Hyperplane,
    affine,
    all_points,
    complementary_hyperplane,
    decode_window,
    enumerate_directions,
    fiber,
    find_coplanar_triplet,
    hyperplane_points,
    infinity,
    line_from,
    line_points,
    line_through,
    normalize_direction,
    pgl_normalizer,
    rank,
    rref,
    solve2,
    vadd,
    vdot,
    vscale,
)

SMALL = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (1, 5), (3, 4)]


def test_directions_ag22():
    F = field_make(2)
    dirs = enumerate_directions(2, F)
    assert {d.vector for d in dirs} == {(1, 0), (1, 1), (0, 1)}


def test_direction_count_13_in_ag33():
    F = field_make(3)
    # brute count of normalized nonzero vectors
    norm = {normalize_direction(v, F) for v in itertools.product(range(3), repeat=3) if any(v)}
    dirs = enumerate_directions(3, F)
    assert len(dirs) == len(norm) == 13


def test_single_direction_in_dimension_one():
    assert enumerate_directions(1, field_make(5)) == [Direction((1,))]


@pytest.mark.parametrize("n,q", SMALL)
def test_direction_count_formula_and_order(n, q):
    F = field_from_order(q)
    dirs = enumerate_directions(n, F)
    assert len(dirs) == (q**n - 1) // (q - 1)
    assert dirs == sorted(dirs)
    assert len(set(dirs)) == len(dirs)
    for d in dirs:
        lead = next(c for c in d.vector if c != 0)
        assert lead == 1


def test_line_through_examples_gf3():
    F = field_make(3)
    L = line_through((0, 0), (1, 1), F)
    assert L == AffineLine(Direction((1, 1)), (0, 0))
    L = line_through((0, 1), (0, 2), F)
    assert L == AffineLine(Direction((0, 1)), (0, 0))
    L = line_through((2, 0), (0, 0), F)
    assert L == AffineLine(Direction((1, 0)), (0, 0))


def test_line_through_symmetric_and_degenerate():
    F = field_make(3)
    a, b = (1, 2), (2, 0)
    assert line_through(a, b, F) == line_through(b, a, F)
    with pytest.raises(DegenerateWindowError):
        line_through(a, a, F)


def test_line_from_examples():
    F2 = field_make(2)
    L = line_from((0, 0), Direction((1, 1)), F2)
    assert set(line_points(L, F2)) == {(0, 0), (1, 1)}
    F3 = field_make(3)
    L = line_from((1, 2), Direction((1, 0)), F3)
    assert L == AffineLine(Direction((1, 0)), (0, 2))
    assert set(line_points(L, F3)) == {(1, 2), (2, 2), (0, 2)}


@pytest.mark.parametrize("n,q", [(2, 3), (2, 4), (3, 2)])
def test_line_from_base_point_independence(n, q):
    F = field_from_order(q)
    rng = random.Random(90)
    dirs = enumerate_directions(n, F)
    for _ in range(25):
        d = rng.choice(dirs)
        w = tuple(rng.randrange(q) for _ in range(n))
        L = line_from(w, d, F)
        for pt in line_points(L, F):
            assert line_from(pt, d, F) == L


def test_decode_window_examples():
    F = field_make(2)
    l1, l2, l3 = Direction((1, 0)), Direction((0, 1)), Direction((1, 1))
    L = decode_window(affine((0, 0)), infinity(l2), F)
    assert set(line_points(L, F)) == {(0, 0), (0, 1)}
    L = decode_window(affine((1, 1)), infinity(l3), F)
    assert set(line_points(L, F)) == {(0, 0), (1, 1)}
    # order does not matter for a mixed window
    assert decode_window(infinity(l1), affine((1, 1)), F) == decode_window(
        affine((1, 1)), infinity(l1), F
    )
    with pytest.raises(DegenerateWindowError):
        decode_window(infinity(l1), infinity(l2), F)
    with pytest.raises(DegenerateWindowError):
        decode_window(affine((1, 1)), affine((1, 1)), F)


def test_complementary_hyperplane_scan_gf3():
    F = field_make(3)
    W = complementary_hyperplane(Direction((1, 0)), Direction((0, 1)), F)
    assert W == Hyperplane((1, 1))
    assert set(hyperplane_points(W, F)) == {(0, 0), (1, 2), (2, 1)}


def test_complementary_hyperplane_3d():
    F = field_make(2)
    d1, d2 = Direction((1, 0, 0)), Direction((0, 1, 0))
    W = complementary_hyperplane(d1, d2, F)
    assert W == Hyperplane((1, 1, 0))
    assert vdot(W.functional, d1.vector, F) != 0
    assert vdot(W.functional, d2.vector, F) != 0


@pytest.mark.parametrize("n,q", [(2, 3), (2, 5), (3, 2), (3, 3), (4, 2)])
def test_complementary_hyperplane_meets_directions_only_at_zero(n, q):
    F = field_from_order(q)
    dirs = enumerate_directions(n, F)
    rng = random.Random(17)
    for _ in range(20):
        d1, d2 = rng.sample(dirs, 2)
        W = complementary_hyperplane(d1, d2, F)
        pts = set(hyperplane_points(W, F))
        assert len(pts) == q ** (n - 1)
        for d in (d1, d2):
            hits = [t for t in range(1, q) if vscale(t, d.vector, F) in pts]
            assert hits == []


def test_complementary_hyperplane_rejects_equal():
    F = field_make(3)
    with pytest.raises(ValueError):
        complementary_hyperplane(Direction((1, 0)), Direction((1, 0)), F)


def test_hyperplane_points_order():
    F = field_make(2)
    pts = hyperplane_points(Hyperplane((0, 1)), F)
    assert pts == [(0, 0), (1, 0)]
    F3 = field_make(3)
    pts = hyperplane_points(Hyperplane((1, 1)), F3)
    assert pts[0] == (0, 0)
    assert pts == sorted(pts)


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3)])
def test_fiber_partitions_space(n, q):
    F = field_from_order(q)
    for d in enumerate_directions(n, F):
        lines = fiber(d, n, F)
        assert len(lines) == q ** (n - 1)
        covered = [pt for L in lines for pt in line_points(L, F)]
        assert len(covered) == q**n
        assert len(set(covered)) == q**n
        assert all(L.dir == d for L in lines)
        # canonical lines, in ascending base order
        assert all(line_from(L.base, d, F) == L for L in lines)
        assert [L.base for L in lines] == sorted(L.base for L in lines)


def test_find_coplanar_triplet_2d_takes_first_three():
    F = field_make(5)
    dirs = enumerate_directions(2, F)
    assert find_coplanar_triplet(dirs, F) == tuple(dirs[:3])


@pytest.mark.parametrize("n,q", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_find_coplanar_triplet_rank_two(n, q):
    F = field_from_order(q)
    t = find_coplanar_triplet(enumerate_directions(n, F), F)
    assert len(set(t)) == 3
    assert len(rref([d.vector for d in t], F)) == 2


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_find_coplanar_triplet_matches_full_scan(n, q):
    # the scan stops at its third hit; the full scan keeps the first three
    F = field_from_order(q)
    dirs = enumerate_directions(n, F)
    full = [d for d in dirs if rank([dirs[0].vector, dirs[1].vector, d.vector], F) == 2]
    assert find_coplanar_triplet(dirs, F) == tuple(full[:3])


def test_pgl_normalizer_gf3_example():
    F = field_make(3)
    d1, d2, d3 = Direction((0, 1)), Direction((1, 0)), Direction((1, 2))
    w1, w2 = pgl_normalizer(d1, d2, d3, F)
    assert normalize_direction(solve2(w1, w2, d1.vector, F), F) == Direction((0, 1))
    assert normalize_direction(solve2(w1, w2, d2.vector, F), F) == Direction((1, 0))
    assert solve2(w1, w2, d3.vector, F) == (1, 1)


@pytest.mark.parametrize("n,q", [(3, 2), (3, 3), (4, 3), (3, 5)])
def test_pgl_normalizer_random_coplanar_triples(n, q):
    F = field_from_order(q)
    rng = random.Random(4)
    dirs = enumerate_directions(n, F)
    for _ in range(15):
        d1, d2 = rng.sample(dirs, 2)
        plane_dirs = [d for d in dirs if rank([d1.vector, d2.vector, d.vector], F) == 2]
        d3 = rng.choice([d for d in plane_dirs if d not in (d1, d2)])
        w1, w2 = pgl_normalizer(d1, d2, d3, F)
        assert normalize_direction(solve2(w1, w2, d1.vector, F), F) == Direction((0, 1))
        assert normalize_direction(solve2(w1, w2, d2.vector, F), F) == Direction((1, 0))
        assert normalize_direction(solve2(w1, w2, d3.vector, F), F) == Direction((1, 1))
        # chart and inverse chart compose to the identity on the plane
        for x, y in [(1, 0), (0, 1), (1, 1), (1, q - 1)]:
            v = vadd(vscale(x, w1, F), vscale(y, w2, F), F)
            assert solve2(w1, w2, v, F) == (x, y)


def test_pgl_normalizer_rejects_bad_input():
    F = field_make(2)
    d1, d2 = Direction((0, 1, 0)), Direction((1, 0, 0))
    with pytest.raises(ValueError):
        pgl_normalizer(d1, d2, d2, F)
    with pytest.raises(ValueError):
        pgl_normalizer(d1, d2, Direction((0, 0, 1)), F)  # not coplanar


def test_solve2_and_in_span():
    F = field_make(3)
    a, b = solve2((1, 0), (0, 1), (1, 2), F)
    assert (a, b) == (1, 2)
    basis = [(1, 0, 1), (0, 1, 1)]
    assert rank(basis + [(1, 1, 2)], F) == 2
    assert rank(basis + [(0, 0, 1)], F) == 3


def test_all_points_lexicographic():
    F = field_make(3)
    pts = list(all_points(2, F))
    assert pts[:4] == [(0, 0), (0, 1), (0, 2), (1, 0)]
    assert len(pts) == 9
