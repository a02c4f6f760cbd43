"""The constructions run on code arrays: no vertex view on the gen and
grassmann paths, and the array builders agree with per-vertex references.
A cycle's array is its homogeneous coordinates in PG(n,q): every builder
and reader writes 0 or 1 in its last column, and the vertex maps agree
with their per-vertex references on the rows."""

import itertools
import json
import random

import numpy as np
import pytest

from ucycle.cli import _dumps, main
from ucycle.constructions import (
    kernel_cycle, plan_fibers, triple_base_cycle, triple_fiber_cycle, two_fiber_cycle,
    universal_cycle,
)
from ucycle.cycles import (
    Cycle, Segment, VertexSequence, _ProjectiveSequence, cycle_from_json, cycle_from_json_obj,
    cycle_from_text, cycle_to_json, cycle_to_text, glue_cycles, glue_segments, map_linear,
    occurs_cyclically, rotate, translate,
)
from ucycle.geometry import (
    Hyperplane,
    ProjVertex,
    affine,
    all_points,
    enumerate_directions,
    hyperplane_point_array,
    hyperplane_points,
    normalize_direction,
    rank,
    vadd,
    vdot,
)
from ucycle.gf import field_from_order, field_make
from ucycle.grassmann import grass_to_json, grass_to_json_obj, lift_affine_cycle, nested_cycles


class ViewBuilt(Exception):
    pass


def test_gen_and_grassmann_build_no_vertex_view(monkeypatch, capsys):
    def refuse(self, start, stop):
        raise ViewBuilt(f"{type(self).__name__} built a vertex view")

    monkeypatch.setattr(VertexSequence, "_view", refuse)
    monkeypatch.setattr(_ProjectiveSequence, "_view", refuse)
    assert len(universal_cycle(4, field_make(3, 2))) == 597_780
    assert len(universal_cycle(5, field_make(2))) == 496  # a triplet lifted over 8 cosets
    # glued triple bases: even q, the p >= 5 kernel, the characteristic-3
    # kernel, and 64 blocks
    for n, q, windows in ((2, 4, 20), (3, 5, 775), (3, 9, 7371), (2, 128, 16512)):
        assert len(universal_cycle(n, field_from_order(q))) == windows
    assert [len(u) for u in nested_cycles(6, field_make(2))] == [7, 35, 155, 651]
    assert main(["grassmann", "--m", "6", "--p", "2", "--nested"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_hyperplane_points_match_brute_force(n, q):
    F = field_from_order(q)
    points = sorted(all_points(n, F))
    for f in enumerate_directions(n, F):
        W = Hyperplane(f.vector)
        want = [x for x in points if vdot(f.vector, x, F) == 0]
        a = hyperplane_point_array(W, F)
        assert a.dtype == np.min_scalar_type(q - 1) and a.shape == (q ** (n - 1), n)
        assert a.tolist() == [list(x) for x in want]
        assert hyperplane_points(W, F) == want


def reference_translate(c, t):
    F = c.field
    return [v if v.at_infinity else ProjVertex(False, vadd(v.coords, t, F)) for v in c.vertices]


@pytest.mark.parametrize("n,q", [(2, 3), (2, 4), (3, 2), (3, 5)])
def test_translate_matches_per_vertex_reference(n, q):
    F = field_from_order(q)
    c = universal_cycle(n, F)
    rng = random.Random(n * 100 + q)
    shifts = [(0,) * n, (q - 1,) * n] + [tuple(rng.randrange(q) for _ in range(n)) for _ in range(4)]
    for t in shifts:
        moved = translate(c, t)
        assert isinstance(moved, Cycle)
        assert list(moved.vertices) == reference_translate(c, t)
    assert c.vertices == universal_cycle(n, F).vertices  # the input is left as it was


@pytest.mark.parametrize("m,q", [(5, 2), (4, 3), (4, 4)])
def test_grass_to_json_matches_the_object_encoding(m, q):
    for u in nested_cycles(m, field_from_order(q)):
        want = {"m": u.m, "q": q, "vertices": [list(v) for v in u.vertices]}
        assert grass_to_json_obj(u) == want
        assert grass_to_json(u) == _dumps(want)


def test_occurs_cyclically_rows_wrap_and_shape():
    cycle = np.array(list(itertools.product(range(2), repeat=3)))
    assert occurs_cyclically(cycle[[6, 7, 0, 1]], cycle)  # across the wrap
    assert not occurs_cyclically(cycle[[7, 6]], cycle)  # no reversal
    assert not occurs_cyclically(cycle[:, :2], cycle)  # other row length
    assert not occurs_cyclically(np.concatenate([cycle, cycle[:1]]), cycle)  # longer


# -- one array per vertex sequence ----------------------------------------------

def test_lift_shares_the_affine_rows():
    c = universal_cycle(3, field_make(3))
    shell = lift_affine_cycle(c)
    assert np.shares_memory(shell.codes, c.codes) and shell.codes.shape == (117, 4)


def homogeneous_outputs(n, F):
    """Every builder's and reader's cycle or segment over AG(n,q)."""
    c = universal_cycle(n, F)
    plan = plan_fibers(n, F)
    yield c
    yield from (two_fiber_cycle(d1, d2, n, F) for d1, d2 in plan.pairs[:3])
    yield triple_base_cycle(F)
    if F.q % 2:
        yield kernel_cycle(F)
    if plan.triplet is not None:
        yield triple_fiber_cycle(*plan.triplet, n, F)
    yield rotate(c, 5)
    yield translate(c, (1,) * n)
    yield map_linear(c, [[int(i == j) for j in range(n)] for i in range(n)][::-1])
    yield glue_cycles([c], affine((0,) * n))
    vs = c.vertices
    k = next(i for i in range(len(vs) // 2, len(vs)) if vs[i] != vs[0])
    s = Segment(vs[: k + 1], F)
    yield s
    yield s.reversed()
    yield glue_segments([s, Segment(vs[k:] + vs[:1], F)])
    text, data = cycle_to_text(c), cycle_to_json(c)
    yield cycle_from_text(text, F)  # gen's bytes, streamed
    yield cycle_from_text("# a comment\n" + text, F)  # read line by line
    yield cycle_from_json(data)
    yield cycle_from_json_obj(json.loads(data))
    yield Cycle(c.vertices, F)


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 4), (2, 5), (3, 3)])
def test_every_builder_and_reader_writes_0_or_1_last(n, q):
    F = field_from_order(q)
    for c in homogeneous_outputs(n, F):
        h = c.codes[:, -1]
        assert c.n == c.codes.shape[1] - 1 and set(np.unique(h).tolist()) == {0, 1}, c
        assert h.tolist() == [int(not v.at_infinity) for v in c.vertices]
    # a code in the field but neither 0 nor 1 is refused from the arrays too
    with pytest.raises(ValueError, match="^vertex 1 has homogenizing code 2, not 0 or 1$"):
        Cycle._from_arrays(field_from_order(5), np.array([[0] * n + [1], [0] * n + [2]]))


def reference_map_linear(c, M):
    """Each affine point mapped by M, each direction mapped and normalized."""
    F = c.field
    image = lambda x: tuple(vdot(row, x, F) for row in M)
    return [ProjVertex(True, normalize_direction(image(v.coords), F).vector) if v.at_infinity
            else ProjVertex(False, image(v.coords)) for v in c.vertices]


def test_vertex_maps_match_their_references_on_drawn_cycles():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        F = field_from_order(draw(st.sampled_from([2, 3, 4, 5, 9, 256, 257])))
        n = draw(st.integers(1, 3))
        code = st.integers(0, F.q - 1)
        rows = []
        for _ in range(draw(st.integers(2, 30))):
            if draw(st.booleans()):
                rows.append(draw(st.lists(code, min_size=n, max_size=n)) + [1])
            else:
                piv = draw(st.integers(0, n - 1))
                tail = draw(st.lists(code, min_size=n - 1 - piv, max_size=n - 1 - piv))
                rows.append([0] * piv + [1] + tail + [0])
        M = draw(st.lists(st.lists(code, min_size=n, max_size=n), min_size=n, max_size=n + 1))
        t = draw(st.lists(code, min_size=n, max_size=n))
        return F, np.array(rows), M, tuple(t), draw(st.integers(-40, 40))

    @hypothesis.settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @hypothesis.given(cases())
    def check(case):
        F, rows, M, t, k = case
        c = Cycle._from_arrays(F, rows)
        vs = list(c.vertices)
        back = Cycle(vs, F)
        assert back.codes.dtype == c.codes.dtype and np.array_equal(back.codes, c.codes)
        assert list(rotate(c, k).vertices) == vs[k % len(vs):] + vs[: k % len(vs)]
        assert list(translate(c, t).vertices) == reference_translate(c, t)
        if len(set(vs[::len(vs) - 1])) == 2:  # distinct endpoints
            assert list(Segment._from_arrays(F, rows).reversed().vertices) == vs[::-1]
        if rank(M, F) == c.n:
            assert list(map_linear(c, M).vertices) == reference_map_linear(c, M)

    check()
