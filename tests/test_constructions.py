"""Fiber-pair cycles, lifting, triple cycles, and the full assembly."""

import hashlib
import itertools
import json
import random
import time

import numpy as np
import pytest

from ucycle.gf import field_from_order, field_make, is_prime
from ucycle.geometry import (
    Direction,
    Hyperplane,
    Subspace,
    affine,
    complementary_functionals,
    complementary_hyperplane,
    decode_window,
    direction_scan,
    enumerate_directions,
    fiber,
    find_coplanar_triplet,
    hyperplane_point_array,
    infinity,
    line_from,
    line_through,
    pgl_normalizer,
    rref,
    vadd,
    vdot,
    vscale,
)
from ucycle.cycles import (
    Cycle,
    VertexSequence,
    cycle_to_json_obj,
    glue_cycles,
    map_linear,
    translate,
)
from ucycle.constructions import (
    _fiber_pairs,
    kernel_cycle,
    lift_cycle,
    plan_fibers,
    triple_base_cycle,
    triple_fiber_cycle,
    two_fiber_cycle,
    universal_cycle,
)
from ucycle import constructions
from ucycle.cli import SIZE_BUDGET_BITS
from ucycle.verify import _Lines, affine_line_count, verify_affine, verify_subset

GRID_Q = [2, 3, 4, 5, 7, 8, 9]


def fiber_union(dirs, n, F):
    out = set()
    for d in dirs:
        out |= set(fiber(d, n, F))
    return out


# -- two fibers ---------------------------------------------------------------

def test_two_fiber_q2_exact_sequence():
    F = field_make(2)
    d1, d2 = Direction((0, 1)), Direction((1, 1))
    c = two_fiber_cycle(d1, d2, 2, F)
    assert list(c.vertices) == [
        affine((0, 0)),
        infinity((0, 1)),
        affine((1, 0)),
        infinity((1, 1)),
    ]
    assert verify_subset(c, fiber_union([d1, d2], 2, F)).passed


def test_two_fiber_q3_fixup():
    F = field_make(3)
    d1, d2 = Direction((1, 0)), Direction((0, 1))
    c = two_fiber_cycle(d1, d2, 2, F)
    assert len(c.vertices) == 6
    assert affine((0, 0)) in c.vertices
    assert verify_subset(c, fiber_union([d1, d2], 2, F)).passed


def test_two_fiber_rejects_equal_directions():
    F = field_make(3)
    with pytest.raises(ValueError):
        two_fiber_cycle(Direction((1, 0)), Direction((1, 0)), 2, F)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("q", GRID_Q)
def test_two_fiber_counts_and_origin(n, q):
    F = field_from_order(q)
    dirs = enumerate_directions(n, F)
    rng = random.Random(q * 100 + n)
    for _ in range(5):
        d1, d2 = rng.sample(dirs, 2)
        c = two_fiber_cycle(d1, d2, n, F)
        assert len(c.vertices) == 2 * q ** (n - 1)
        assert affine((0,) * n) in c.vertices
        assert infinity(d1) in c.vertices and infinity(d2) in c.vertices
        assert verify_subset(c, fiber_union([d1, d2], n, F)).passed


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_two_fiber_odd_fixup_windows(q):
    # the detour's three windows: the base line through 0, then the two
    # otherwise-missing lines of the excised point w*
    F = field_from_order(q)
    d1, d2 = Direction((0, 1)), Direction((1, 2 % q))
    c = two_fiber_cycle(d1, d2, 2, F)
    v = c.vertices
    assert v[0] == affine((0, 0)) and not v[1].at_infinity and not v[2].at_infinity
    wstar = v[2].coords
    assert decode_window(v[0], v[1], F) == line_from((0, 0), d1, F)
    assert decode_window(v[1], v[2], F) == line_from(wstar, d2, F)
    assert decode_window(v[2], v[3], F) == line_from(wstar, d1, F)


# -- lifting ------------------------------------------------------------------

def plane_cycle_22_in_3d():
    F = field_make(2)
    verts = [
        affine((0, 0)),
        infinity((1, 0)),
        affine((1, 1)),
        infinity((1, 1)),
        affine((1, 0)),
        infinity((0, 1)),
    ]
    base = Cycle(verts, F)
    inclusion = ((1, 0), (0, 1), (0, 0))  # embed the plane as x3 = 0
    return map_linear(base, inclusion), F


def test_lift_plane_cycle_to_3d():
    c3, F = plane_cycle_22_in_3d()
    U = Subspace(rref([(1, 0, 0), (0, 1, 0)], F))
    lifted = lift_cycle(c3, U, 3)
    assert len(lifted.vertices) == 12
    dirs = [Direction((1, 0, 0)), Direction((1, 1, 0)), Direction((0, 1, 0))]
    assert verify_subset(lifted, fiber_union(dirs, 3, F)).passed
    assert affine((0, 0, 0)) in lifted.vertices


@pytest.mark.parametrize("q,n", [(2, 3), (2, 4), (3, 3), (4, 3)])
def test_lift_multiplies_window_count(q, n):
    F = field_from_order(q)
    base = triple_base_cycle(F)
    inclusion = tuple(
        tuple(1 if i == j else 0 for j in range(2)) for i in range(n)
    )
    cn = map_linear(base, inclusion)
    U = Subspace(rref([(1,) + (0,) * (n - 1), (0, 1) + (0,) * (n - 2)], F))
    lifted = lift_cycle(cn, U, n)
    assert len(lifted.vertices) == len(base.vertices) * q ** (n - 2)
    dirs = [Direction(v.coords) for v in cn.vertices if v.at_infinity]
    assert verify_subset(lifted, fiber_union(set(dirs), n, F)).passed


def test_lift_preconditions():
    c3, F = plane_cycle_22_in_3d()
    U_full = Subspace(rref([(1, 0, 0), (0, 1, 0), (0, 0, 1)], F))
    with pytest.raises(ValueError):
        lift_cycle(c3, U_full, 3)  # improper subspace
    U_wrong = Subspace(rref([(1, 0, 0), (0, 0, 1)], F))
    with pytest.raises(ValueError, match="outside U"):
        lift_cycle(c3, U_wrong, 3)
    # cycle without the origin (translating by (0,1,0) moves every affine
    # vertex off 0 but stays inside the plane)
    from ucycle.cycles import translate

    moved = translate(c3, (0, 1, 0))
    U = Subspace(rref([(1, 0, 0), (0, 1, 0)], F))
    with pytest.raises(ValueError, match="origin"):
        lift_cycle(moved, U, 3)


# -- triple construction -------------------------------------------------------

STD_DIRS = [Direction((0, 1)), Direction((1, 0)), Direction((1, 1))]


def test_triple_base_q2_single_block():
    F = field_make(2)
    c = triple_base_cycle(F)
    assert list(c.vertices) == [
        affine((0, 1)),
        infinity((0, 1)),
        affine((1, 0)),
        infinity((1, 1)),
        affine((0, 0)),
        infinity((1, 0)),
    ]
    assert verify_subset(c, fiber_union(STD_DIRS, 2, F)).passed


def test_triple_base_q3_is_the_explicit_kernel():
    F = field_make(3)
    c = triple_base_cycle(F)
    assert list(c.vertices) == [
        affine((0, 1)),
        affine((0, 2)),
        infinity((1, 1)),
        affine((2, 0)),
        affine((0, 0)),
        affine((1, 1)),
        infinity((0, 1)),
        affine((2, 2)),
        infinity((1, 0)),
    ]
    assert verify_subset(c, fiber_union(STD_DIRS, 2, F)).passed


def test_triple_base_q5_kernel_plus_one_block():
    F = field_make(5)
    c = triple_base_cycle(F)
    assert len(c.vertices) == 15  # 9-window kernel + one 6-window block
    assert verify_subset(c, fiber_union(STD_DIRS, 2, F)).passed


@pytest.mark.parametrize("q", GRID_Q)
def test_triple_base_counts_and_origin(q):
    F = field_from_order(q)
    c = triple_base_cycle(F)
    assert len(c.vertices) == 3 * q
    assert affine((0, 0)) in c.vertices
    assert verify_subset(c, fiber_union(STD_DIRS, 2, F)).passed


# every order the default bound admits, q <= 512: the first 16 hex digits of
# the sha256 of each triple base cycle's code bytes followed by its
# at-infinity bytes, taken while the base was glued from one Cycle per block
TRIPLE_BASE_DIGESTS = {
    2: "668efbd392109d3b", 3: "a50ebebebe7c5c52", 4: "038782afc2f2b4c8", 5: "5353c3630514c6b9",
    7: "ec121bf885c8404b", 8: "c76ecc11d3a959f2", 9: "4c823142ed83f13a", 11: "31115e25908c812b",
    13: "e83a4681c4bdaa1e", 16: "b185033e83d09b52", 17: "911e7950f211bed1", 19: "7ead8fa96a6ed062",
    23: "8d7d8d861ceb1564", 25: "016b6353f8cb9615", 27: "9d3da2c9c4eb4689", 29: "9be488359a2f8ebf",
    31: "baf35b5d85b10503", 32: "d0592742df02cc7d", 37: "76930de1842b87bf", 41: "363f4ee2ec39bae0",
    43: "5ab7fab8914694bc", 47: "9df84391dc484457", 49: "b93dcd9fa3bcca1b", 53: "b8c03e5e171c843a",
    59: "0a0d29e62f4fe720", 61: "b6d29d1b7221197d", 64: "6630c9ae47d6c3e4", 67: "8b8227701ac5f91b",
    71: "2c82b2a140a6a40a", 73: "b3f2718e48997358", 79: "fd0a143c02ae1717", 81: "9f449f0732ed8cf8",
    83: "2bcfcf24b0d081a7", 89: "fbd2d7600ec72021", 97: "cd6297998d8d9f69", 101: "1124db73b2e61f4e",
    103: "3169d93e30e4447b", 107: "ea522e7f6fb737d2", 109: "f410ebc31226f211", 113: "724007dcfa14867f",
    121: "195e8151abf16f90", 125: "9b87269ab8d373a3", 127: "0575dfb7300a7759", 128: "9d37d08a03b0ffdd",
    131: "ea37bed37cfa42e9", 137: "073284c55f9d3696", 139: "444cf48b51686c8c", 149: "ebde5d87ec1c65d9",
    151: "25c2ad7cf3c69fab", 157: "593168f87fd68c1d", 163: "944921dd7fd32815", 167: "70436145cd6c6282",
    169: "e6663ff47cd91f93", 173: "03522b62d706e6ec", 179: "097a1454b3f5fe42", 181: "776b7523fbe37a30",
    191: "6baf28d2d52dde18", 193: "92d573f693b468d7", 197: "b7b4fb0cb160bb86", 199: "88504c30d241402e",
    211: "8a9d4719dc163529", 223: "c97f741aa3e97b30", 227: "dfaccb745d081b59", 229: "533ea8b3ebe5dc7c",
    233: "5a2554b8ca4715a7", 239: "cf07303281f5b231", 241: "16aa99ea883cd179", 243: "84e4cf86164edab1",
    251: "05162cbee1e56ca9", 256: "40175cfba6d3be0c", 257: "4c5a8690f24218de", 263: "ade76709535855b7",
    269: "97cd60cac8d3c956", 271: "9d9f9532ccf4f937", 277: "d64f44857a1bd4f5", 281: "131cefff322d1549",
    283: "d5a0d8f140f26210", 289: "204e9ddf70e66236", 293: "d82a8c09e539b454", 307: "6a3cb85479a82f18",
    311: "caa096bc34833aaf", 313: "07be26b8d6bff2f9", 317: "e3c82ec59cc81cf2", 331: "023c555c396f09b0",
    337: "9f304084cd408ce3", 343: "82ffc13269fd8f12", 347: "e4364915e1990499", 349: "9152b9b2d943c66e",
    353: "b51a8e0429e48f20", 359: "bb1a970115622e56", 361: "df9efef7ff548ec1", 367: "50e3abc0147a3099",
    373: "e4be7c96582402ad", 379: "44cc9885c4b21775", 383: "49a907a2990c0de1", 389: "3a91bc6d24a709ff",
    397: "cfe2b7446a26a73c", 401: "cda1553991400020", 409: "763561ad97f9175e", 419: "bb34cea0658b292d",
    421: "b707d5f0bae989fd", 431: "46d1c3ff72630c4f", 433: "9994a049fac31c64", 439: "b2440690d6d607b0",
    443: "12621bd52531a234", 449: "7c80e5e43a15b1b9", 457: "f765e98d0a9cb6f4", 461: "9399baf1a9596d59",
    463: "9d63d29e19ce0966", 467: "9da7b44bc9590c80", 479: "d0a429ccf50c0aed", 487: "cc11965d7141d50a",
    491: "a45ab5e72c176217", 499: "bd937c8be2cd4880", 503: "5b5bb1d991d18265", 509: "3655802bcf4dd072",
    512: "bd6634384ec1dfd8",
}


def test_triple_base_bytes_pinned_and_exact_for_every_q():
    assert len(TRIPLE_BASE_DIGESTS) == 117
    for q, digest in TRIPLE_BASE_DIGESTS.items():
        F = field_from_order(q)
        c = triple_base_cycle(F)
        # the digests pinned the codes, then the at-infinity mask: the rows' last code is 0 there
        data = c.codes[:, :-1].tobytes() + (c.codes[:, -1] == 0).tobytes()
        assert hashlib.sha256(data).hexdigest()[:16] == digest, q
        rep = verify_subset(c, fiber_union(STD_DIRS, 2, F))
        assert (len(c), rep.found_count, rep.passed) == (3 * q, 3 * q, True), q


def test_kernel_rejects_even_q():
    with pytest.raises(ValueError):
        kernel_cycle(field_make(2))


# every odd prime power up to the default order bound: the three written
# kernels (q = 3, q = 3^k >= 9, p >= 5) over each field they serve
ODD_Q = sorted(
    p**k for p in range(3, 513, 2) if is_prime(p) for k in range(1, 9) if p**k <= 512
)


@pytest.mark.parametrize("q", ODD_Q)
def test_searched_kernel_covers_targets(q):
    F = field_from_order(q)
    c = kernel_cycle(F)
    assert len(c.vertices) == 9
    assert affine((0, 0)) in c.vertices
    w = c.windows()
    assert all(cnt == 1 for cnt in w.values())
    expect = set()
    for i in (0, 1, 2):
        expect.add(line_from((i, 0), Direction((0, 1)), F))
        expect.add(line_from((0, i), Direction((1, 0)), F))
        expect.add(line_from((i, 0), Direction((1, 1)), F))
    assert set(w) == expect


def test_q3_kernel_sequence_misses_targets_for_q5():
    # the fixed q=3 sequence relies on intercepts wrapping mod 3; over GF(5)
    # it covers the slope-one line with intercept q-2 instead of intercept 1
    F = field_make(5)
    seq = [
        affine((0, 1)),
        affine((0, 2)),
        infinity((1, 1)),
        affine((2, 0)),
        affine((0, 0)),
        affine((1, 1)),
        infinity((0, 1)),
        affine((2, 2)),
        infinity((1, 0)),
    ]
    got = set(Cycle(seq, F).windows())
    expect = set(kernel_cycle(F).windows())
    assert got != expect
    assert line_from((3, 0), Direction((1, 1)), F) in got  # intercept q-2 = 3
    assert line_from((1, 0), Direction((1, 1)), F) not in got


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9, 256, 257, 512])
def test_the_three_standard_fibers_are_the_first_3q_line_ranks(q):
    # triple_base_cycle checks its windows' ranks against 0..3q-1
    F = field_from_order(q)
    lines = _Lines(2, F).items(np.arange(3 * q))
    assert len(lines) == 3 * q
    assert set(lines) == fiber_union(STD_DIRS, 2, F)


def test_triple_base_refuses_a_kernel_off_its_fibers(monkeypatch):
    # the p >= 5 kernel with (0,2) for (0,1): 9 distinct lines, but (0,2)
    # -> (1,1) has direction (1,4), off the three fibers, and y = 1 is missing
    F = field_make(5)
    a, i = affine, infinity
    kernel = Cycle(
        [a((0, 0)), a((0, 2)), a((1, 1)), a((1, 0)), a((2, 1)), a((2, 0)),
         i((1, 1)), a((2, 2)), i((1, 0))], F)
    assert len(set(kernel.windows())) == 9
    monkeypatch.setattr(constructions, "kernel_cycle", lambda F: kernel)
    with pytest.raises(AssertionError, match="three fibers"):
        triple_base_cycle(F)


def test_triple_fiber_2d_is_base_mapped():
    F = field_make(3)
    d1, d2, d3 = Direction((0, 1)), Direction((1, 0)), Direction((1, 2))
    c = triple_fiber_cycle(d1, d2, d3, 2, F)
    assert len(c.vertices) == 9
    assert verify_subset(c, fiber_union([d1, d2, d3], 2, F)).passed


def test_triple_fiber_3d_q2():
    F = field_make(2)
    d1, d2, d3 = Direction((1, 0, 0)), Direction((0, 1, 0)), Direction((1, 1, 0))
    c = triple_fiber_cycle(d1, d2, d3, 3, F)
    assert len(c.vertices) == 12
    assert affine((0, 0, 0)) in c.vertices
    assert verify_subset(c, fiber_union([d1, d2, d3], 3, F)).passed


@pytest.mark.parametrize("q,n", [(2, 3), (3, 3), (2, 4), (4, 3)])
def test_triple_fiber_counts(q, n):
    F = field_from_order(q)
    dirs = enumerate_directions(n, F)
    t = find_coplanar_triplet(dirs, F)
    c = triple_fiber_cycle(*t, n, F)
    assert len(c.vertices) == 3 * q ** (n - 1)
    assert verify_subset(c, fiber_union(t, n, F)).passed


def test_triple_fiber_rejects_non_coplanar():
    F = field_make(2)
    with pytest.raises(ValueError):
        triple_fiber_cycle(
            Direction((1, 0, 0)), Direction((0, 1, 0)), Direction((0, 0, 1)), 3, F
        )


# -- planning and assembly ------------------------------------------------------

def test_plan_examples():
    F3 = field_make(3)
    plan = plan_fibers(2, F3)
    assert plan.triplet is None and len(plan.pairs) == 2
    F2 = field_make(2)
    plan = plan_fibers(2, F2)
    assert plan.triplet is not None and len(plan.pairs) == 0
    plan = plan_fibers(3, F3)
    assert plan.triplet is not None and len(plan.pairs) == 5


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (4, 3)])
def test_plan_covers_each_direction_once(n, q):
    F = field_from_order(q)
    plan = plan_fibers(n, F)
    used = list(plan.triplet or ()) + [d for p in plan.pairs for d in p]
    dirs = enumerate_directions(n, F)
    assert sorted(used) == sorted(dirs)
    assert len(set(used)) == len(used)


def test_universal_counts_small():
    for (n, q), want in {(2, 2): 6, (2, 3): 12, (3, 2): 28}.items():
        F = field_from_order(q)
        c = universal_cycle(n, F)
        assert len(c.vertices) == want
        assert verify_affine(c, n, F).passed


def test_universal_rejects_dimension_one():
    with pytest.raises(ValueError):
        universal_cycle(1, field_make(2))


@pytest.mark.parametrize("n,q", [(2, 4), (3, 3), (2, 5)])
def test_universal_contains_origin_and_all_directions(n, q):
    F = field_from_order(q)
    c = universal_cycle(n, F)
    assert affine((0,) * n) in c.vertices
    present = {v.coords for v in c.vertices if v.at_infinity}
    assert present == {d.vector for d in enumerate_directions(n, F)}


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2), (2, 4)])
def test_universal_deterministic(n, q):
    a = universal_cycle(n, field_from_order(q))
    b = universal_cycle(n, field_from_order(q))
    assert a.vertices == b.vertices
    assert json.dumps(cycle_to_json_obj(a), sort_keys=True) == json.dumps(
        cycle_to_json_obj(b), sort_keys=True
    )


# -- the batched builders against per-part references ---------------------------
#
# The references are the per-pair and per-coset constructions the batched
# builders replaced: a covector scan with one dot product per candidate, one
# fiber-pair cycle per pair, and one translate per coset glued at the anchor.


def ref_complementary_hyperplane(d1, d2, F):
    for f in direction_scan(len(d1.vector), F.q):
        if vdot(f.vector, d1.vector, F) != 0 and vdot(f.vector, d2.vector, F) != 0:
            return Hyperplane(f.vector)
    raise RuntimeError("no transversal hyperplane found")


def ref_two_fiber_cycle(d1, d2, n, F):
    W = ref_complementary_hyperplane(d1, d2, F)
    pts = hyperplane_point_array(W, F)
    u1, u2 = d1.vector, d2.vector
    detour = np.empty((0, n), dtype=np.int64)
    if F.q % 2:
        f = W.functional
        fu1, fu2 = vdot(f, u1, F), vdot(f, u2, F)
        raw = vadd(vscale(fu2, u1, F), vscale(F.neg(fu1), u2, F), F)
        s = F.inv(next(x for x in raw if x))
        a = F.mul(s, fu2)
        wstar = vscale(s, raw, F)
        pts = pts[(pts != wstar).any(axis=1)]
        detour = np.array([vscale(a, u1, F), wstar])
    rows = np.empty((len(pts), 2, n), dtype=np.int64)
    rows[:, 0] = pts
    rows[:, 1] = np.array([u1, u2])[np.arange(len(pts)) % 2]
    rows = rows.reshape(-1, n)
    flags = np.tile([False, True], len(pts))
    codes = np.concatenate([rows[:1], detour, rows[1:]])
    at_infinity = np.concatenate([flags[:1], np.zeros(len(detour), dtype=bool), flags[1:]])
    return Cycle._from_arrays(F, np.column_stack([codes, ~at_infinity]))


def ref_lift_cycle(cU, U, n):
    F = cU.field
    pivots = [next(i for i, x in enumerate(row) if x) for row in U.basis]
    anchor = infinity(cU.codes[int(np.argmax(cU.codes[:, -1] == 0)), :-1].tolist())
    free = [j for j in range(n) if j not in pivots]
    parts = []
    for assign in itertools.product(range(F.q), repeat=len(free)):
        rep = [0] * n
        for j, val in zip(free, assign):
            rep[j] = val
        parts.append(translate(cU, tuple(rep)) if any(rep) else cU)
    return glue_cycles(parts, anchor)


def assert_same_arrays(got, want):
    assert np.array_equal(got.codes, want.codes)


def pair_parts(pairs, n, F):
    """The batched builder's parts, one (2q^(n-1), n + 1) block of rows each."""
    u1, u2 = (np.array([p[k].vector for p in pairs]) for k in (0, 1))
    return _fiber_pairs(u1, u2, F).reshape(len(pairs), 2 * F.q ** (n - 1), n + 1)


# AG(n,q) for n <= 5 and these q, within the CLI's line budget: it refuses
# AG(5,8), AG(5,9), AG(4,25) and AG(5,25), and every other case has at most
# 597,780 lines
PLANNED = [
    (n, q)
    for q in (2, 3, 4, 5, 8, 9, 25)
    for n in range(2, 6)
    if affine_line_count(n, q) <= 2**SIZE_BUDGET_BITS
]


@pytest.mark.parametrize("n,q", PLANNED)
def test_planned_pairs_match_reference(n, q):
    F = field_from_order(q)
    plan = plan_fibers(n, F)
    parts = [triple_fiber_cycle(*plan.triplet, n, F)] if plan.triplet else []
    if not plan.pairs:  # AG(2,2): a lone triplet part, returned unrotated
        assert_same_arrays(universal_cycle(n, F), parts[0])
        return
    codes = pair_parts(plan.pairs, n, F)
    refs = [ref_two_fiber_cycle(d1, d2, n, F) for d1, d2 in plan.pairs]
    for i, ref in enumerate(refs):
        assert np.array_equal(codes[i], ref.codes), plan.pairs[i]
    # gluing by concatenation gives what splicing every part at 0 gives
    want = glue_cycles(parts + refs, affine((0,) * n))
    assert_same_arrays(universal_cycle(n, F), want)


def test_checked_gluing_sorts_the_parts_keys_once():
    # AG(3,23)'s 275 pair parts, 290,950 windows: checking each part against
    # the growing keys of the parts before it took 15-18 s on a 2-vCPU
    # machine, and one sort of every part's keys takes about 0.1 s there
    F = field_from_order(23)
    plan = plan_fibers(3, F)
    parts = [Cycle._from_arrays(F, codes) for codes in pair_parts(plan.pairs, 3, F)]
    t0 = time.perf_counter()
    glued = glue_cycles(parts, affine((0, 0, 0)))
    assert time.perf_counter() - t0 < 5.0
    assert_same_arrays(glued, glue_cycles(parts, affine((0, 0, 0)), check=False))
    assert len(glued) == 275 * 2 * 23**2


@pytest.mark.parametrize("n,q", [(n, q) for n in (2, 3) for q in (2, 3, 4, 5)])
def test_every_ordered_pair_matches_reference(n, q):
    F = field_from_order(q)
    pairs = list(itertools.permutations(enumerate_directions(n, F), 2))
    codes = pair_parts(pairs, n, F)
    u1, u2 = (np.array([p[k].vector for p in pairs]) for k in (0, 1))
    functionals = complementary_functionals(u1, u2, F)
    for i, (d1, d2) in enumerate(pairs):
        W = ref_complementary_hyperplane(d1, d2, F)
        assert tuple(functionals[i].tolist()) == W.functional
        assert complementary_hyperplane(d1, d2, F) == W
        ref = ref_two_fiber_cycle(d1, d2, n, F)
        assert np.array_equal(codes[i], ref.codes)
        assert_same_arrays(two_fiber_cycle(d1, d2, n, F), ref)


@pytest.mark.parametrize("n,q", [(3, 2), (4, 2), (5, 2), (6, 2), (3, 3), (4, 3)])
def test_lift_matches_per_coset_reference(n, q):
    F = field_from_order(q)
    # AG(4,3) has an even direction count, so its plan has no triplet
    w1, w2 = pgl_normalizer(*find_coplanar_triplet(enumerate_directions(n, F), F), F)
    mapped = map_linear(triple_base_cycle(F), tuple(zip(w1, w2)))
    U = Subspace(rref([w1, w2], F))
    assert_same_arrays(lift_cycle(mapped, U, n), ref_lift_cycle(mapped, U, n))


def test_universal_cycle_validates_once(monkeypatch):
    # the pair parts and the coset translates are written into arrays and
    # checked as one cycle, so the number of checks does not grow with the
    # number of pairs or cosets
    calls = []
    check = VertexSequence._set_arrays

    def counted(self, codes, field):
        calls.append(len(codes))
        return check(self, codes, field)

    monkeypatch.setattr(VertexSequence, "_set_arrays", counted)
    counts = {}
    for n, q in [(6, 2), (9, 2), (3, 3), (5, 3)]:
        calls.clear()
        c = universal_cycle(n, field_from_order(q))
        assert calls[-1] == len(c)  # the finished cycle is checked last
        counts[n, q] = len(calls)
    assert counts[6, 2] == counts[9, 2]
    assert counts[3, 3] == counts[5, 3]
