"""Cycle/segment structures, window extraction, gluing, and vertex maps."""

import json
import random
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from ucycle import cycles
from ucycle.cli import _dumps
from ucycle.gf import field_from_order, field_make
from ucycle.geometry import (
    DegenerateWindowError, Direction, ProjVertex, affine, decode_window, infinity,
)
from ucycle.cycles import (
    Cycle,
    GluingError,
    Segment,
    VertexSequence,
    _ProjectiveSequence,
    _canonical_cycle,
    cycle_from_json,
    cycle_from_json_obj,
    cycle_from_text,
    cycle_to_json,
    cycle_to_json_obj,
    cycle_to_text,
    file_text,
    glue_cycles,
    glue_segments,
    map_linear,
    occurs_cyclically,
    rotate,
    translate,
)
from ucycle.constructions import plan_fibers, triple_fiber_cycle, two_fiber_cycle, universal_cycle
from ucycle.grassmann import GrassCycle, nested_cycles, span2
from ucycle.verify import all_affine_lines
from reference import decoded_windows


def is_valid(c):
    """Every window decodes, to pairwise distinct lines."""
    return set(c.windows().values()) == {1}


def is_rotation(a, b):
    """a's vertices are b's, read from some other start."""
    rows_a, rows_b = (np.column_stack([c.codes, c.at_infinity]) for c in (a, b))
    return len(a) == len(b) and occurs_cyclically(rows_a, rows_b)


def plane_cycle_22():
    # 0 -> [l1] -> u1+u2 -> [l3] -> u1 -> [l2] -> wrap, with u1=(1,0), u2=(0,1)
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


def test_plane_cycle_covers_all_six_lines():
    c, F = plane_cycle_22()
    w = c.windows()
    assert sum(w.values()) == 6
    assert all(cnt == 1 for cnt in w.values())
    assert set(w) == all_affine_lines(2, F)
    assert is_valid(c)


def test_two_vertex_cycle_duplicates_its_line():
    F = field_make(3)
    c = Cycle([affine((1, 1)), infinity((0, 1))], F)
    w = c.windows()
    assert list(w.values()) == [2]  # both windows decode to the same line
    assert not is_valid(c)


def test_degenerate_segment_rejected():
    # from a vertex list and from the arrays alike
    F = field_make(3)
    codes, at_infinity = np.array([[0, 0], [1, 0], [0, 0]]), np.array([False, True, False])
    for build in (lambda: Segment([affine((0, 0)), affine((0, 0))], F),
                  lambda: Segment._from_arrays(F, codes, at_infinity)):
        with pytest.raises(ValueError, match="^segment endpoints must be distinct$"):
            build()
    assert len(Segment._from_arrays(F, codes[:2], at_infinity[:2])) == 2


def test_windows_match_the_per_window_decode():
    # a cycle, the segments cut from it (no wrap-around window), and a
    # Grassmannian level, against each window decoded on its own
    F = field_make(3)
    c = universal_cycle(2, F)
    line = lambda a, b: decode_window(a, b, F)
    for seq in (c, Segment(c.vertices[:2], F), Segment(c.vertices[3:], F)):
        lines, degenerate = decoded_windows(seq.vertices, line, seq.wrap)
        assert not degenerate and seq.windows() == Counter(lines)
        assert sum(seq.windows().values()) == len(seq) - (not seq.wrap)
    u = nested_cycles(4, F)[-1]
    planes, degenerate = decoded_windows(u.vertices, lambda a, b: span2(a, b, F))
    assert not degenerate and u.windows() == Counter(planes)


def test_windows_reports_failing_index():
    F = field_make(3)
    c = Cycle([affine((0, 0)), affine((0, 1)), infinity((1, 0)), infinity((0, 1))], F)
    with pytest.raises(DegenerateWindowError) as err:
        c.windows()
    assert err.value.index == 2


def test_cycle_shape_validation():
    F = field_make(3)
    with pytest.raises(ValueError):
        Cycle([affine((0, 0))], F)
    with pytest.raises(ValueError):
        Cycle([affine((0, 0)), affine((0, 1, 2))], F)
    with pytest.raises(ValueError):
        Cycle([affine((0, 0)), infinity((2, 1))], F)  # not normalized


@pytest.mark.parametrize("bad", [-1, 2])
@pytest.mark.parametrize("kind", [Cycle, Segment, GrassCycle])
def test_vertex_codes_outside_the_field_rejected(kind, bad):
    # over GF(2) a code -1 used to pass as 1 (a false PASS), a code 2 used to
    # raise an IndexError from the field tables
    F = field_make(2)
    if kind is GrassCycle:
        verts = [(1, 0, 0), (0, 1, 0), (0, bad, 1)]
    else:
        good = plane_cycle_22()[0].vertices
        verts = good[:4] + (affine((bad, 0)),) + good[5:]
    with pytest.raises(ValueError, match=r"vertex \d has codes outside \[0, 2\)"):
        kind(verts, F)


GOOD_VERTICES = {
    Cycle: [affine((0, 0)), affine((1, 1)), infinity((1, 0)), infinity((0, 1))],
    GrassCycle: [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)],
}
GOOD_VERTICES[Segment] = GOOD_VERTICES[Cycle]


def refusal_cases(kind):
    """(fault, vertices, whether arrays can hold them, exception type, message)
    over GF(3): one fault each, at vertex 1 when it is a vertex's."""
    projective = kind is not GrassCycle
    good = GOOD_VERTICES[kind]
    n = len(good[0].coords) if projective else len(good[0])

    def at(coords, at_infinity=False):
        return ProjVertex(at_infinity, coords) if projective else coords

    def one(v):
        return good[:1] + [v] + good[2:]

    zero = (0,) * n
    codes = "vertex 1 has codes outside [0, 3)"
    yield "code -1", one(at((-1,) + zero[1:])), True, ValueError, codes
    yield "code 257", one(at((257,) + zero[1:])), True, ValueError, codes
    yield "code 2^70", one(at((2**70,) + zero[1:])), False, ValueError, codes
    if projective:
        yield ("unnormalized", one(at((2, 1), True)), True, ValueError,
               "vertex 1: infinity vector (2, 1) not normalized")
        yield ("zero vector", one(at(zero, True)), True, ValueError,
               "vertex 1: infinity vector (0, 0) not normalized")
        yield ("not a ProjVertex", one((1, 1)), False, TypeError, "vertex 1 is not a ProjVertex")
    else:
        yield "zero vector", one(at(zero)), True, ValueError, "vertex 1 is the zero vector"
    yield ("wrong length", one(at((1,) * (n + 1))), False, ValueError,
           f"vertex 1 has dimension {n + 1}, expected {n}")
    yield "one vertex", good[:1], True, ValueError, "need at least 2 vertices"
    yield "dimension 0", [at(()), at(())], True, ValueError, "vertices need dimension >= 1"


def as_arrays(kind, vertices):
    if kind is GrassCycle:
        return (np.array(vertices, dtype=np.int64).reshape(len(vertices), -1),)
    codes = np.array([v.coords for v in vertices], dtype=np.int64).reshape(len(vertices), -1)
    return codes, np.array([v.at_infinity for v in vertices], dtype=bool)


@pytest.mark.parametrize("kind", [Cycle, Segment, GrassCycle])
def test_vertex_lists_and_arrays_are_refused_alike(kind):
    # the same exception and message, naming the same vertex, from a vertex
    # list as from the arrays wherever the arrays can hold the fault
    F = field_make(3)
    kind(GOOD_VERTICES[kind], F)
    for fault, vertices, holds, error, message in refusal_cases(kind):
        routes = [lambda: kind(vertices, F)]
        if holds:
            routes.append(lambda: kind._from_arrays(F, *as_arrays(kind, vertices)))
        for build in routes:
            with pytest.raises(Exception) as err:
                build()
            assert (type(err.value), str(err.value)) == (error, message), fault


def test_vertex_list_refusals_name_the_first_failing_vertex():
    F = field_make(3)
    cases = [
        # a code out of range before a vertex that is no ProjVertex
        ([affine((0, 0)), affine((5, 0)), (0, 1)], "vertex 1 has codes outside [0, 3)"),
        # an unnormalized vector before a row of the wrong length
        ([affine((0, 0)), infinity((2, 1)), affine((0, 0, 0))],
         "vertex 1: infinity vector (2, 1) not normalized"),
        # an unnormalized vector with a code out of range, before a code no int64 holds
        ([affine((0, 0)), infinity((2, 5)), affine((2**70, 0))],
         "vertex 1: infinity vector (2, 5) not normalized"),
        # a vertex that breaks its rule and is no row is named for the row
        ([affine((0, 0)), infinity((2, 1, 0))], "vertex 1 has dimension 3, expected 2"),
        ([affine((0, 0)), infinity((2, 2**70))], "vertex 1 has codes outside [0, 3)"),
    ]
    for vertices, message in cases:
        with pytest.raises(ValueError) as err:
            Cycle(vertices, F)
        assert str(err.value) == message


def test_windows_rotation_invariant():
    c, _ = plane_cycle_22()
    for k in range(len(c.vertices)):
        assert rotate(c, k).windows() == c.windows()
    assert is_rotation(c, rotate(c, 3))


def test_transversality():
    F = field_make(3)
    c1 = two_fiber_cycle(Direction((0, 1)), Direction((1, 0)), 2, F)
    c2 = two_fiber_cycle(Direction((1, 1)), Direction((1, 2)), 2, F)
    assert not set(c1.windows()) & set(c2.windows())
    assert set(c1.windows()) & set(c1.windows())


def test_glue_single_cycle_is_rotation():
    c, _ = plane_cycle_22()
    g = glue_cycles([c], affine((1, 0)))
    assert g.vertices[0] == affine((1, 0))
    assert is_rotation(g, c)
    assert g.windows() == c.windows()


def test_glue_two_triple_blocks_at_shared_infinity():
    # two 6-window blocks of the standard-plane triple construction over GF(4)
    F = field_make(2, 2)
    i1, i2, i3 = infinity((0, 1)), infinity((1, 0)), infinity((1, 1))
    blocks = []
    for u, v in ((0, 1), (2, 3)):
        blocks.append(
            Cycle([affine((u, v)), i1, affine((v, 0)), i3, affine((0, u)), i2], F)
        )
    g = glue_cycles(blocks, i1)
    assert len(g.vertices) == 12
    assert g.windows() == blocks[0].windows() + blocks[1].windows()


def test_glue_three_cycles_through_origin():
    F = field_make(5)
    dirs = [Direction((0, 1)), Direction((1, 0)), Direction((1, 1)),
            Direction((1, 2)), Direction((1, 3)), Direction((1, 4))]
    parts = [two_fiber_cycle(dirs[i], dirs[i + 1], 2, F) for i in (0, 2, 4)]
    g = glue_cycles(parts, affine((0, 0)))
    assert sum(g.windows().values()) == sum(len(p.vertices) for p in parts)
    assert g.windows() == parts[0].windows() + parts[1].windows() + parts[2].windows()


def test_glue_missing_anchor_and_overlap_rejected():
    c, F = plane_cycle_22()
    with pytest.raises(GluingError):
        glue_cycles([c], affine((0, 1)))  # vertex not on the cycle
    with pytest.raises(GluingError):
        glue_cycles([c, c], affine((0, 0)))  # self-overlap violates transversality


def cut_cycle(c, positions):
    """Split a cycle at the given sorted vertex positions into segments."""
    vs = list(c.vertices)
    segs = []
    for a, b in zip(positions, positions[1:]):
        segs.append(Segment(vs[a : b + 1], c.field))
    segs.append(Segment(vs[positions[-1] :] + vs[: positions[0] + 1], c.field))
    return segs


def test_glue_two_segments_identical_endpoints():
    F = field_make(3)
    c = two_fiber_cycle(Direction((0, 1)), Direction((1, 0)), 2, F)
    s1, s2 = cut_cycle(c, [0, 3])
    assert {s1.vertices[0], s1.vertices[-1]} == {s2.vertices[0], s2.vertices[-1]}
    g = glue_segments([s1, s2])
    assert g.windows() == c.windows()


def test_glue_four_segments_cycle_on_endpoints():
    F = field_make(5)
    c = two_fiber_cycle(Direction((0, 1)), Direction((1, 0)), 2, F)
    segs = cut_cycle(c, [0, 2, 5, 7])
    assert len(segs) == 4
    g = glue_segments(segs)
    assert g.windows() == c.windows()


def test_glue_segments_reversal_needed():
    F = field_make(3)
    c = two_fiber_cycle(Direction((0, 1)), Direction((1, 0)), 2, F)
    s1, s2 = cut_cycle(c, [0, 3])
    g = glue_segments([s1, s2.reversed()])
    assert g.windows() == c.windows()


def test_glue_segments_odd_multiplicity_rejected():
    F = field_make(3)
    c = two_fiber_cycle(Direction((0, 1)), Direction((1, 0)), 2, F)
    s1, s2 = cut_cycle(c, [0, 3])
    with pytest.raises(GluingError, match="odd"):
        glue_segments([s1])
    with pytest.raises(GluingError, match="odd"):
        glue_segments([s1, s2, Segment(s2.vertices[:2], F)])


def test_glue_segments_disconnected_rejected():
    F = field_make(3)
    c1 = two_fiber_cycle(Direction((0, 1)), Direction((1, 0)), 2, F)
    c2 = two_fiber_cycle(Direction((1, 1)), Direction((1, 2)), 2, F)
    # cut both cycles away from their shared vertex 0 so the endpoint graphs
    # cannot touch
    segs1 = cut_cycle(c1, [1, 3])
    segs2 = cut_cycle(c2, [1, 3])
    assert not set(s.vertices[0] for s in segs1) & set(s.vertices[0] for s in segs2)
    with pytest.raises(GluingError, match="disconnected"):
        glue_segments(segs1 + segs2)


def refuse_view(self, start, stop):
    raise AssertionError(f"{type(self).__name__} built a vertex view")


def test_array_operations_build_no_vertex_view(monkeypatch):
    # rotate, Segment.reversed and glue_segments work on the arrays, and
    # return what rebuilding the vertex tuples returns
    cases = []
    for p, positions in ((3, [0, 3]), (5, [0, 2, 5, 7])):
        F = field_make(p)
        c = two_fiber_cycle(Direction((0, 1)), Direction((1, 0)), 2, F)
        vs, segs = c.vertices, cut_cycle(c, positions)
        shifts = {k: Cycle(vs[k % len(vs):] + vs[: k % len(vs)], F) for k in (-1, 0, 1, 3, 12)}
        backwards = [Segment(s.vertices[::-1], F) for s in segs]
        # copies whose vertex views are not built yet
        c, *segs = [type(x)._from_arrays(F, x.codes, x.at_infinity) for x in [c, *segs]]
        cases.append((c, segs, shifts, backwards))
    monkeypatch.setattr(VertexSequence, "_view", refuse_view)
    monkeypatch.setattr(_ProjectiveSequence, "_view", refuse_view)
    for c, segs, shifts, backwards in cases:
        for k, want in shifts.items():
            assert_same_arrays(rotate(c, k), want)
        for s, want in zip(segs, backwards):
            assert_same_arrays(s.reversed(), want)
        assert_same_arrays(glue_segments(segs), c)
    c, (s1, s2), _, _ = cases[0]
    assert_same_arrays(glue_segments([s1, s2.reversed()]), c)


def gluing_refusals():
    """One fault each, named by the case."""
    F3, F5 = field_make(3), field_make(5)
    origin = affine((0, 0))
    c1 = two_fiber_cycle(Direction((0, 1)), Direction((1, 0)), 2, F3)
    c2 = two_fiber_cycle(Direction((1, 0)), Direction((1, 1)), 2, F3)
    repeats = Cycle([origin, infinity((1, 1))], F3)
    c5 = two_fiber_cycle(Direction((0, 1)), Direction((1, 0)), 2, F5)
    degenerate = Cycle([infinity((1, 1)), infinity((1, 2)), affine((1, 3)), origin], F5)
    s1, s2 = cut_cycle(c1, [0, 3])
    c3 = two_fiber_cycle(Direction((1, 1)), Direction((1, 2)), 2, F3)
    apart = cut_cycle(c1, [1, 3]) + cut_cycle(c3, [1, 3])
    # c2 rotated, so the splice reads it from another start than its own
    yield "cycles-share", lambda: glue_cycles([c1, rotate(c2, 3)], origin)
    yield "cycle-repeats", lambda: glue_cycles([c1, repeats], origin)
    # the degenerate window is the part's window 0 and the glued cycle's 11
    yield "cycle-degenerate", lambda: glue_cycles([c5, degenerate], origin)
    yield "segments-odd", lambda: glue_segments([s1])
    yield "segments-disconnected", lambda: glue_segments(apart)
    yield "segments-share", lambda: glue_segments([s1, s2, s1.reversed(), s2.reversed()])


# each refusal's type and message as checking the parts one by one raises them
GLUING_REFUSALS = {
    "cycles-share": (GluingError, "part 1 shares line AffineLine(dir=Direction(vector=(1, 0)),"
                     " base=(0, 2)) with an earlier part"),
    "cycle-repeats": (GluingError, "part 1 repeats a line and is not a valid structure"),
    "cycle-degenerate": (DegenerateWindowError, "window 0 does not determine a line"),
    "segments-odd": (GluingError, "odd endpoint multiplicity at"
                     " ProjVertex(at_infinity=False, coords=(0, 0))"),
    "segments-disconnected": (GluingError, "endpoint-incidence graph is disconnected"),
    "segments-share": (GluingError, "part 2 shares line AffineLine(dir=Direction(vector=(0, 1)),"
                       " base=(1, 0)) with an earlier part"),
}


@pytest.mark.parametrize("case", list(GLUING_REFUSALS))
def test_gluing_refusals_keep_their_messages(case):
    glue = dict(gluing_refusals())[case]
    kind, message = GLUING_REFUSALS[case]
    with pytest.raises(Exception) as err:
        glue()
    assert (type(err.value), str(err.value)) == (kind, message)
    if kind is DegenerateWindowError:
        assert err.value.index == 0


def test_translate_identity_and_conservation():
    c, F = plane_cycle_22()
    assert translate(c, (0, 0)).vertices == c.vertices
    t = (1, 0)
    moved = translate(c, t)
    assert is_valid(moved)
    # translation permutes the full line set of the plane
    assert set(moved.windows()) == set(c.windows())
    with pytest.raises(ValueError):
        translate(c, (1, 0, 0))


def test_translate_window_property():
    F = field_make(3)
    c = two_fiber_cycle(Direction((0, 1)), Direction((1, 1)), 2, F)
    from ucycle.geometry import line_from, vadd

    t = (1, 2)
    moved = translate(c, t)
    expect = {line_from(vadd(L.base, t, F), L.dir, F) for L in c.windows()}
    assert set(moved.windows()) == expect


def test_map_linear_identity_and_scalar():
    c, F = plane_cycle_22()
    ident = ((1, 0), (0, 1))
    assert map_linear(c, ident).vertices == c.vertices
    F3 = field_make(3)
    c3 = two_fiber_cycle(Direction((0, 1)), Direction((1, 0)), 2, F3)
    doubled = map_linear(c3, ((2, 0), (0, 2)))
    # scalar maps act trivially on points at infinity
    for v, w in zip(c3.vertices, doubled.vertices):
        if v.at_infinity:
            assert v == w
    assert is_valid(doubled)


def test_map_linear_rejects_singular():
    c, F = plane_cycle_22()
    with pytest.raises(ValueError):
        map_linear(c, ((1, 1), (1, 1)))


@pytest.mark.parametrize("p,k", [(2, 2), (3, 1)])
def test_translate_and_map_linear_refuse_codes_outside_the_field(p, k):
    # over GF(4), -1 = 1 in characteristic 2, yet a gather would read -1 as
    # code q - 1; and q itself would index past the tables
    F = field_make(p, k)
    c = universal_cycle(2, F)
    for bad in (-1, F.q, 2**70):
        with pytest.raises(ValueError, match=rf"^translation vector entry {bad} is outside \[0, {F.q}\)$"):
            translate(c, (bad, 0))
        for M in (((1, bad), (0, 1)), ((bad, 0), (0, 1))):
            with pytest.raises(ValueError, match=rf"^matrix entry {bad} is outside \[0, {F.q}\)$"):
                map_linear(c, M)
    # the largest code is still a translation and an entry
    assert is_valid(translate(c, (F.q - 1, 0)))
    assert is_valid(map_linear(c, ((1, F.q - 1), (0, 1))))


def test_map_linear_random_invertible_preserves_validity():
    F = field_make(3)
    from ucycle.geometry import rank

    c = two_fiber_cycle(Direction((0, 1)), Direction((1, 2)), 2, F)
    rng = random.Random(7)
    done = 0
    while done < 10:
        M = tuple(tuple(rng.randrange(3) for _ in range(2)) for _ in range(2))
        if rank(M, F) != 2:
            continue
        img = map_linear(c, M)
        assert is_valid(img)
        assert sum(img.windows().values()) == sum(c.windows().values())
        done += 1


def test_json_round_trip():
    c, _ = plane_cycle_22()
    obj = cycle_to_json_obj(c)
    back = cycle_from_json_obj(json.loads(json.dumps(obj)))
    assert back.vertices == c.vertices
    assert back.field == c.field


def test_text_round_trip():
    c, F = plane_cycle_22()
    back = cycle_from_text(cycle_to_text(c), F)
    assert back.vertices == c.vertices


def test_malformed_json_rejected():
    with pytest.raises(ValueError):
        cycle_from_json_obj({"n": 2, "vertices": []})
    with pytest.raises(ValueError):
        cycle_from_json_obj(
            {"n": 2, "q": 2, "vertices": [{"type": "affine", "coords": [0]}]}
        )
    with pytest.raises(ValueError):
        cycle_from_json_obj(
            {"n": 1, "q": 2, "vertices": [{"type": "affine", "coords": [5]}] * 2}
        )


# -- the array-backed core and the canonical codec ----------------------------

# every acceptance-grid case with q^n <= 500, as (n, p, k)
SMALL_GRID = [(2, p, k) for p, k in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))]
SMALL_GRID += [(3, p, k) for p, k in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1))]
SMALL_GRID += [(4, p, k) for p, k in ((2, 1), (3, 1), (2, 2))]


def reference_text(c):
    return "".join(
        ("I " if v.at_infinity else "A ") + " ".join(str(x) for x in v.coords) + "\n"
        for v in c.vertices
    )


def assert_codec_matches_reference(c):
    assert cycle_to_json(c) == _dumps(cycle_to_json_obj(c))
    assert cycle_to_text(c) == reference_text(c)


@pytest.mark.parametrize("n,p,k", SMALL_GRID)
def test_encoders_match_reference_on_grid_cycles_and_parts(n, p, k):
    F = field_make(p, k)
    assert_codec_matches_reference(universal_cycle(n, F))
    plan = plan_fibers(n, F)
    if plan.triplet is not None:
        assert_codec_matches_reference(triple_fiber_cycle(*plan.triplet, n, F))
    for d1, d2 in plan.pairs:
        assert_codec_matches_reference(two_fiber_cycle(d1, d2, n, F))


def test_encoders_match_reference_on_drawn_cycles():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cycles(draw):
        p, k = draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]))
        F = field_make(p, k)
        n = draw(st.integers(1, 4))
        code = st.integers(0, F.q - 1)

        def vertex():
            if not draw(st.booleans()):
                return affine(draw(st.lists(code, min_size=n, max_size=n)))
            piv = draw(st.integers(0, n - 1))
            tail = draw(st.lists(code, min_size=n - 1 - piv, max_size=n - 1 - piv))
            return infinity((0,) * piv + (1,) + tuple(tail))

        verts = [vertex() for _ in range(draw(st.integers(2, 40)))]
        verts[draw(st.integers(0, len(verts) - 1))] = infinity((1,) + (0,) * (n - 1))
        return Cycle(verts, F)

    @hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @hypothesis.given(cycles())
    def check(c):
        assert c.at_infinity.any()
        assert_codec_matches_reference(c)
        text = cycle_to_json(c)
        back = cycle_from_json_obj(json.loads(text))
        assert back.vertices == c.vertices and back.field == c.field
        # the one-pass decoder takes the text and agrees with json.loads
        for decoded in (_canonical_cycle(text), cycle_from_json(text)):
            assert_same_arrays(decoded, c)
            assert_same_arrays(decoded, back)

    check()


def assert_same_arrays(a, b):
    assert a.field == b.field
    assert a.codes.dtype == b.codes.dtype == np.min_scalar_type(a.field.q - 1)
    assert np.array_equal(a.codes, b.codes)
    assert np.array_equal(a.at_infinity, b.at_infinity)


def test_canonical_decode_is_linear_in_memory():
    # json.loads plus cycle_from_json_obj peak at ~418 B per line on this
    # text.  Measured, block by block into uint8 codes: 66 B per line from
    # the text, which is encoded to bytes first, and 28 from the file's
    # bytes, as the CLI reads them; 28 also from the bytes of the text
    # format (111, 73 and 73 when the whole file was parsed at once).
    F = field_make(3, 2)
    c = universal_cycle(4, F)
    text = cycle_to_json(c)
    cases = [(cycle_from_json, text, 80), (cycle_from_json, text.encode(), 35),
             (lambda data: cycle_from_text(data, F), cycle_to_text(c).encode(), 35)]
    for decode, source, bound in cases:
        tracemalloc.start()
        try:
            c = decode(source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(c) == 597_780
        assert peak / len(c) <= bound


def test_cycle_checks_are_linear_in_memory():
    # 3.4 B per row measured at AG(10,2): the rule check's mask, and one
    # block's temporaries; 26 when the lead search ran over the whole cycle
    F = field_make(2)
    c = universal_cycle(10, F)
    codes, at_infinity = c.codes.copy(), c.at_infinity.copy()
    tracemalloc.start()
    try:
        Cycle._from_arrays(F, codes, at_infinity)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(c) == 523_776
    assert peak / len(c) <= 5


def test_canonical_decode_refuses_bytes_past_the_encoding():
    # the translate drops these bytes, so only the length check refuses them
    F = field_make(3)
    c = universal_cycle(2, F)
    for data, field in ((cycle_to_json(c) + "x]}\n", None), (cycle_to_text(c) + "x", F)):
        with pytest.raises(ValueError, match="^not the canonical byte form$"):
            _canonical_cycle(data.encode(), field)


HEAD = b'{"n":%b,"q":5,"schema_version":1,"vertices":['


@pytest.mark.parametrize("data,p", [
    (HEAD % b"0" + b'{"coords":[],"type":"affine"},{"coords":[],"type":"affine"}]}\n', None),
    (HEAD % b"10000000000" + b'{"coords":[0],"type":"affine"},{"coords":[1],"type":"affine"}]}\n', None),
    (b"A\nA\n", 5),
    (HEAD % b"02" + b'{"coords":[0,0],"type":"affine"},{"coords":[1,0],"type":"affine"}]}\n', None),
    (cycle_to_json(universal_cycle(2, field_make(5))).replace('"q":5', '"q":05', 1).encode(), None),
], ids=["n=0", "huge-n", "text-n=0", "n=02", "q=05"])
def test_canonical_decode_refuses_heads_before_the_rows(data, p):
    # no code per row, more codes than bytes, or a head that json.loads refuses:
    # refused before the arrays are allocated or any row is read
    with pytest.raises(ValueError, match="^not the canonical byte form$"):
        _canonical_cycle(data, None if p is None else field_make(p))


def test_a_parse_warning_takes_the_fallback(monkeypatch):
    # numpy < 2.3 warns, instead of raising, when it stops before the end
    text = cycle_to_json(universal_cycle(2, field_make(3)))
    expected = cycle_from_json_obj(json.loads(text))
    fromstring, loads = np.fromstring, json.loads
    calls = []

    def partial(s, dtype, sep, count=-1):
        warnings.warn("string or file could not be read to its end", DeprecationWarning)
        return fromstring(s, dtype=dtype, sep=sep, count=count)[:-1]

    def counted(s):
        calls.append(len(s))
        return loads(s)

    monkeypatch.setattr(np, "fromstring", partial)
    monkeypatch.setattr(json, "loads", counted)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        c = cycle_from_json(text)
    assert caught == [] and calls == [len(text)]
    assert_same_arrays(c, expected)


def test_vertex_view_is_the_input_or_built_from_the_arrays():
    c, F = plane_cycle_22()
    verts = list(c.vertices)
    kept = Cycle(verts, F)
    decoded = cycle_from_json(cycle_to_json(kept))
    assert decoded._vertices is None  # built on first use
    assert decoded.vertices == c.vertices
    assert decoded.codes.tolist() == [list(v.coords) for v in verts]
    assert decoded.at_infinity.tolist() == [v.at_infinity for v in verts]


def test_decoder_accepts_the_odd_values_int_accepts():
    # float, string, zero-padded string and bool codes, extra keys: each is
    # read as int(x), the values the decoder gave before its array path
    c = universal_cycle(2, field_make(3))
    obj = json.loads(cycle_to_json(c))
    obj["comment"] = "extra"
    vs = obj["vertices"]
    vs[0]["coords"] = [float(x) for x in vs[0]["coords"]]
    vs[1]["coords"] = [str(x) for x in vs[1]["coords"]]
    vs[2]["coords"] = ["0" + str(x) for x in vs[2]["coords"]]
    vs[3]["coords"] = [bool(x) for x in vs[3]["coords"]]  # infinity (0, 1)
    vs[4]["label"] = 4
    back = cycle_from_json_obj(json.loads(json.dumps(obj)))
    assert back.vertices == c.vertices
    assert back.vertices[:5] == (
        affine((0, 0)), affine((0, 2)), affine((1, 2)), infinity((0, 1)), affine((2, 1))
    )


GOOD_22 = [
    {"type": "affine", "coords": [0, 0]},
    {"type": "infinity", "coords": [1, 0]},
    {"type": "affine", "coords": [1, 1]},
    {"type": "infinity", "coords": [1, 1]},
    {"type": "affine", "coords": [1, 0]},
    {"type": "infinity", "coords": [0, 1]},
]


# the messages are the decoder's from before its array path
@pytest.mark.parametrize("index,vertex,message", [
    (2, {"type": "affine", "coords": [-1, 0]}, "vertex 2 has codes outside [0, 2)"),
    (2, {"type": "affine", "coords": [2**70, 0]}, "vertex 2 has codes outside [0, 2)"),
    (2, {"type": "affine", "coords": [-(2**70), 0]}, "vertex 2 has codes outside [0, 2)"),
    (2, {"type": "affine", "coords": [2**63, 0]}, "vertex 2 has codes outside [0, 2)"),
    # 1 once narrowed to the uint8 codes, or to uint16: checked before
    (2, {"type": "affine", "coords": [257, 0]}, "vertex 2 has codes outside [0, 2)"),
    (2, {"type": "affine", "coords": [0, 65537]}, "vertex 2 has codes outside [0, 2)"),
    (2, {"type": "affine", "coords": [0]},
     "malformed vertex 2: {'type': 'affine', 'coords': [0]}"),
    (2, {"type": "affine", "coords": [0, 0, 0]},
     "malformed vertex 2: {'type': 'affine', 'coords': [0, 0, 0]}"),
    (3, {"type": "affine", "coords": [2, 0]}, "vertex 3 has codes outside [0, 2)"),
    (3, {"type": "infinity", "coords": [0, 0]}, "vertex 3: infinity vector (0, 0) not normalized"),
    (1, {"type": "inf", "coords": [1, 0]},
     "malformed vertex 1: {'type': 'inf', 'coords': [1, 0]}"),
], ids=["negative", "2^70", "-2^70", "2^63", "wraps-uint8", "wraps-uint16", "short", "long",
        "out-of-range", "unnormalized", "bad-type"])
def test_decoder_refusals_keep_their_messages(index, vertex, message):
    vertices = [dict(v) for v in GOOD_22]
    vertices[index] = vertex
    with pytest.raises(ValueError) as err:
        cycle_from_json_obj({"n": 2, "q": 2, "vertices": vertices})
    assert str(err.value) == message


def test_decoder_words_the_first_failing_vertex():
    F3 = {"n": 2, "q": 3}
    cases = [
        # an unnormalized vector before an out-of-range code, and after one
        ([{"type": "affine", "coords": [0, 0]}, {"type": "infinity", "coords": [2, 1]},
          {"type": "affine", "coords": [5, 0]}], "vertex 1: infinity vector (2, 1) not normalized"),
        ([{"type": "affine", "coords": [0, 5]}, {"type": "infinity", "coords": [2, 1]}],
         "vertex 0 has codes outside [0, 3)"),
        # a malformed vertex is named before any range fault
        ([{"type": "affine", "coords": [0, 5]}, {"type": "infinity", "coords": [1]}],
         "malformed vertex 1: {'type': 'infinity', 'coords': [1]}"),
        ([{"type": "affine", "coords": [0, 0]}], "need at least 2 vertices"),
    ]
    for vertices, message in cases:
        with pytest.raises(ValueError) as err:
            cycle_from_json_obj(dict(F3, vertices=vertices))
        assert str(err.value) == message


# -- text decoding: one pass over gen's bytes, the line loop otherwise --------


def reference_from_text(text, F):
    """The line-by-line decoder the one-pass path must agree with."""
    verts = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] not in ("A", "I"):
            raise ValueError(f"line {lineno}: expected A or I, got {parts[0]!r}")
        coords = tuple(int(x) for x in parts[1:])
        if any(not 0 <= x < F.q for x in coords):
            raise ValueError(f"line {lineno}: codes outside [0, {F.q})")
        verts.append(ProjVertex(parts[0] == "I", coords))
    return Cycle(verts, F)


def decode_outcome(decode, text, F):
    try:
        c = decode(text, F)
    except (ValueError, TypeError) as e:
        return type(e), str(e)
    return c.vertices, c.codes.tolist(), c.at_infinity.tolist()


PLAIN_22 = "A 0 0\nI 1 0\nA 1 1\nI 1 1\nA 1 0\nI 0 1\n"
TEXT_CASES = [
    PLAIN_22,
    PLAIN_22.rstrip("\n"),
    "# a comment\n" + PLAIN_22 + "  # another\n",
    "\n\n" + PLAIN_22.replace("\n", "\n\n"),  # blank lines
    PLAIN_22.replace("\n", "\r\n"),
    PLAIN_22.replace("\n", "\x1c"),  # a line break that splitlines knows
    PLAIN_22.replace(" ", "\t  "),
    PLAIN_22.replace(" 1 1\n", " 01 1\n"),  # zero-padded
    PLAIN_22.replace(" 1 1\n", " +1 1\n"),  # signed
    PLAIN_22.replace("A 1 0\n", "A 1_0 0\n"),  # underscore: 10, outside [0, 2)
    PLAIN_22.replace(" 1 1\n", " ١ 1\n"),  # ARABIC-INDIC DIGIT ONE
    PLAIN_22.replace(" 1 1\n", " １ 1\n"),  # FULLWIDTH DIGIT ONE
    PLAIN_22.replace(" 1 1\n", " ² 1\n"),  # superscript two: isdigit, not int
    PLAIN_22.replace("A 1 0\n", "A 2 0\n"),  # outside [0, 2)
    PLAIN_22.replace("A 1 0\n", "A " + "9" * 30 + " 0\n"),
    PLAIN_22.replace("A 1 0\n", "A -1 0\n"),
    PLAIN_22.replace("A 1 0\n", "B 1 0\n"),
    PLAIN_22.replace("A 1 0\n", "A 1 0 #x\n"),
    PLAIN_22.replace("A 1 0\n", "A 1 0 \xb6 A 1 0\n"),  # the one-pass line mark
    PLAIN_22.replace("A 1 0\n", "A 1 0 I 0 1\n"),
    PLAIN_22.replace("A 1 0\n", "A 1\n0\n"),
    PLAIN_22.replace("A 1 0\n", "A 1 0 0\n"),  # one vertex of another dimension
    PLAIN_22.replace("I 1 1\n", "I 0 0\n"),  # infinity vector not normalized
    PLAIN_22 + "x",  # a byte past gen's text that the one-pass translate drops
    "A\nI\n",
    "A 0 0\n",
    "",
    "# only a comment\n",
]


@pytest.mark.parametrize("text", TEXT_CASES, ids=repr)
def test_text_decoder_matches_the_line_loop(text):
    F = field_make(2)
    assert decode_outcome(cycle_from_text, text, F) == decode_outcome(reference_from_text, text, F)
    # and from a file's bytes, read as a text file reads them
    data = text.encode()
    want = decode_outcome(reference_from_text, file_text(data), F)
    assert decode_outcome(cycle_from_text, data, F) == want


def test_text_decoder_reads_odd_codes_as_int_does():
    F = field_make(2)
    want = cycle_from_text(PLAIN_22, F).vertices
    for code in ("+1", "01", "١", "１"):
        assert cycle_from_text(PLAIN_22.replace(" 1 1\n", f" {code} 1\n"), F).vertices == want
    with pytest.raises(ValueError, match=r"^line 5: codes outside \[0, 2\)$"):
        cycle_from_text(PLAIN_22.replace("A 1 0\n", "A 1_0 0\n"), F)


@pytest.mark.parametrize("n,p,k", SMALL_GRID)
def test_text_decoder_matches_the_line_loop_on_grid_cycles(n, p, k):
    F = field_make(p, k)
    text = cycle_to_text(universal_cycle(n, F))
    assert decode_outcome(cycle_from_text, text, F) == decode_outcome(reference_from_text, text, F)


def refuse_lines(text, field):
    raise AssertionError("the per-line loop reached")


def test_gen_text_files_decode_in_one_pass(monkeypatch):
    # every acceptance-grid case: gen's bytes, and a CRLF copy of them, never
    # reach the per-line loop
    monkeypatch.setattr(cycles, "_cycle_from_lines", refuse_lines)
    for n in (2, 3, 4):
        for q in (2, 3, 4, 5, 7, 8, 9):
            F = field_from_order(q)
            c = universal_cycle(n, F)
            data = cycle_to_text(c).encode()
            for source in (data, data.replace(b"\n", b"\r\n")):
                assert_same_arrays(cycle_from_text(source, F), c)
    with pytest.raises(AssertionError, match="per-line loop"):
        cycle_from_text(b"# a comment\n" + data, F)
