"""Plane-Grassmannian layer: homogenization, base cycle, nested chain."""

import time

import pytest

from ucycle.gf import field_from_order, field_make, multiplicative_order, primitive_element
from ucycle.geometry import DegenerateWindowError, Direction, affine, infinity, line_from
from ucycle.cycles import Cycle
from ucycle.constructions import universal_cycle
from ucycle.grassmann import (
    GrassCycle,
    Subspace2,
    embed_cycle,
    grass_to_json_obj,
    lift_affine_cycle,
    nested_cycles,
    singer_cycle,
    span2,
    tau,
)
from ucycle.verify import (
    all_2subspaces,
    all_affine_lines,
    gaussian_binomial_2,
    verify_grassmann,
    verify_nesting,
)


def plane_cycle_22():
    F = field_make(2)
    verts = [
        affine((0, 0)),
        infinity((1, 0)),
        affine((1, 1)),
        infinity((1, 1)),
        affine((1, 0)),
        infinity((0, 1)),
    ]
    return Cycle(verts, F), F


def test_tau_line_through_origin():
    F = field_make(3)
    L = line_from((0, 0), Direction((1, 2)), F)
    assert tau(L, F) == span2((0, 0, 1), (1, 2, 0), F)


def test_tau_example_ag22():
    F = field_make(2)
    L = line_from((0, 0), Direction((1, 1)), F)  # the line {(0,0),(1,1)}
    s = tau(L, F)
    assert s == Subspace2(((1, 1, 0), (0, 0, 1)))
    assert not s.contained_in_last_hyperplane()


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
def test_tau_injective_onto_outer_shell(n, q):
    F = field_from_order(q)
    lines = all_affine_lines(n, F)
    image = {tau(L, F) for L in lines}
    assert len(image) == len(lines)
    assert all(not s.contained_in_last_hyperplane() for s in image)
    shell = {s for s in all_2subspaces(n + 1, F) if not s.contained_in_last_hyperplane()}
    assert image == shell


def test_lift_affine_cycle_covers_shell():
    c, F = plane_cycle_22()
    gc = lift_affine_cycle(c)
    assert gc.m == 3
    assert gc.vertices[0] == (0, 0, 1)  # the origin homogenizes to (0,...,0,1)
    w = gc.windows()
    assert sum(w.values()) == 6
    shell = {s for s in all_2subspaces(3, F) if not s.contained_in_last_hyperplane()}
    assert set(w) == shell


def test_lift_commutes_with_tau_windowwise():
    F = field_from_order(3)
    c = universal_cycle(2, F)
    gc = lift_affine_cycle(c)
    from ucycle.geometry import decode_window

    vs, gvs = c.vertices, gc.vertices
    for i in range(len(vs)):
        L = decode_window(vs[i], vs[(i + 1) % len(vs)], F)
        assert span2(gvs[i], gvs[(i + 1) % len(gvs)], F) == tau(L, F)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_singer_cycle_counts_and_coverage(q):
    F = field_from_order(q)
    gc = singer_cycle(F)
    assert len(gc.vertices) == q * q + q + 1
    assert gc.vertices[0] == (1, 0, 0)
    rep = verify_grassmann(gc, 3, F)
    assert rep.passed, rep.summary()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_singer_generator_is_the_primitive_element_of_gf_p3(p):
    # over a prime field the Singer extension is GF(p^3) itself: same modulus
    # rule, same code order, so the same first generator; its order is checked
    # with the naive loop
    F3 = field_make(p, 3)
    g = primitive_element(F3)
    assert singer_cycle(field_make(p)).vertices[1] == g.coeffs
    assert multiplicative_order(F3, g.code) == p**3 - 1


def test_singer_cycle_q127_builds_fast():
    F = field_make(127)
    t0 = time.perf_counter()
    gc = singer_cycle(F)
    assert time.perf_counter() - t0 < 2.0
    assert len(gc) == 127 * 127 + 127 + 1


def test_singer_q2_covers_all_seven():
    F = field_make(2)
    gc = singer_cycle(F)
    assert set(gc.windows()) == all_2subspaces(3, F)
    assert len(all_2subspaces(3, F)) == 7


def test_nested_chain_q2():
    F = field_make(2)
    levels = nested_cycles(5, F)
    assert [len(u.vertices) for u in levels] == [7, 35, 155]
    for i, u in enumerate(levels):
        m = i + 3
        assert verify_grassmann(u, m, F).passed
        assert len(u.vertices) == gaussian_binomial_2(m, 2)
        assert u.vertices[0] == (1,) + (0,) * (m - 1)
        if i:
            assert verify_nesting(embed_cycle(levels[i - 1], m), u)


def test_nested_chain_q3():
    F = field_make(3)
    levels = nested_cycles(4, F)
    assert len(levels[-1].vertices) == 130
    assert verify_grassmann(levels[-1], 4, F).passed
    assert verify_nesting(embed_cycle(levels[0], 4), levels[-1])


@pytest.mark.parametrize("q", [3, 4])
def test_nested_chain_to_m5(q):
    # exact coverage holds all the way to m = 5 for q up to 4
    F = field_from_order(q)
    levels = nested_cycles(5, F)
    for i, u in enumerate(levels):
        m = i + 3
        assert len(u.vertices) == gaussian_binomial_2(m, q)
        assert verify_grassmann(u, m, F).passed, (q, m)
        if i:
            assert verify_nesting(embed_cycle(levels[i - 1], m), u)


def test_nested_shell_split():
    # windows of the embedded inner cycle stay inside the hyperplane, windows
    # of the lifted affine cycle stay outside
    F = field_make(2)
    levels = nested_cycles(4, F)
    u3, u4 = levels
    inner = embed_cycle(u3, 4)
    k = len(inner.vertices)
    inner_windows = set(inner.windows())
    assert all(s.contained_in_last_hyperplane() for s in inner_windows)
    outer_only = set(u4.windows()) - inner_windows
    assert all(not s.contained_in_last_hyperplane() for s in outer_only)
    # and the inner block sits verbatim at the start of u4
    assert u4.vertices[:k] == inner.vertices


def test_nested_rejects_small_n():
    with pytest.raises(ValueError):
        nested_cycles(2, field_make(2))


def test_embed_cycle_guards():
    F = field_make(2)
    gc = singer_cycle(F)
    assert embed_cycle(gc, 3) is gc
    with pytest.raises(ValueError):
        embed_cycle(gc, 2)


def test_grass_cycle_guards():
    F = field_make(2)
    with pytest.raises(ValueError):
        GrassCycle([(1, 0, 0), (0, 0, 0)], F)
    gc = GrassCycle([(1, 0, 0), (0, 1, 0), (0, 0, 1)], F)
    assert len(gc.windows()) == 3  # three distinct coordinate planes
    bad = GrassCycle([(1, 0, 0), (1, 0, 0)], F)
    with pytest.raises(DegenerateWindowError):
        bad.windows()


def test_grass_json_shape():
    F = field_make(2)
    gc = singer_cycle(F)
    obj = grass_to_json_obj(gc)
    assert obj["m"] == 3 and obj["q"] == 2
    assert len(obj["vertices"]) == 7
