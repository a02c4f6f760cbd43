"""The constructions run on code arrays: no vertex view on the gen and
grassmann paths, and the array builders agree with per-vertex references."""

import itertools
import random

import numpy as np
import pytest

from ucycle.cli import _dumps, main
from ucycle.constructions import universal_cycle
from ucycle.cycles import Cycle, VertexSequence, _ProjectiveSequence, occurs_cyclically, translate
from ucycle.geometry import (
    Hyperplane,
    ProjVertex,
    all_points,
    enumerate_directions,
    hyperplane_point_array,
    hyperplane_points,
    vadd,
    vdot,
)
from ucycle.gf import field_from_order, field_make
from ucycle.grassmann import grass_to_json, grass_to_json_obj, nested_cycles


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
        assert grass_to_json(u) == _dumps(grass_to_json_obj(u))


def test_occurs_cyclically_rows_wrap_and_shape():
    cycle = np.array(list(itertools.product(range(2), repeat=3)))
    assert occurs_cyclically(cycle[[6, 7, 0, 1]], cycle)  # across the wrap
    assert not occurs_cyclically(cycle[[7, 6]], cycle)  # no reversal
    assert not occurs_cyclically(cycle[:, :2], cycle)  # other row length
    assert not occurs_cyclically(np.concatenate([cycle, cycle[:1]]), cycle)  # longer
