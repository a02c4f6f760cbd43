"""Oracle layer: line enumeration, coverage reports, nesting scan."""

import ast
import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ucycle import cli, cycles, geometry, grassmann, verify
from ucycle.gf import field_from_order, field_make
from ucycle.geometry import (
    AffineLine,
    Direction,
    ProjVertex,
    affine,
    decode_window,
    fiber,
    infinity,
    normalize_direction,
    vadd,
    vscale,
    vsub,
)
from ucycle.cycles import Cycle, Segment
from ucycle.constructions import triple_base_cycle, two_fiber_cycle, universal_cycle
from ucycle.grassmann import GrassCycle, embed_cycle, nested_cycles, singer_cycle, span2
from ucycle.verify import (
    MAX_REPORT_ITEMS,
    all_2subspaces,
    all_affine_lines,
    _Lines,
    _Planes,
    affine_line_count,
    gaussian_binomial_2,
    key_radix,
    verify_affine,
    verify_grassmann,
    verify_nesting,
    verify_subset,
)
from reference import (
    all_line_keys, all_plane_keys, build_report, decoded_windows, key_rows, line_of_key,
    line_report, plane_of_key, rref_plane_pairs, walk_keys,
)


def pair_oracle(n, F):
    """Every line of AG(n,q) through each pair of points, in its defining
    canonical form: normalized direction and lexicographically smallest
    point.  The brute-force reference for the closed-form enumeration."""
    pts = list(itertools.product(range(F.q), repeat=n))
    lines = set()
    for a, b in itertools.combinations(pts, 2):
        d = normalize_direction(vsub(b, a, F), F)
        points = (vadd(a, vscale(t, d.vector, F), F) for t in range(F.q))
        lines.add(AffineLine(d, min(points)))
    return lines


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


def test_line_counts():
    assert len(all_affine_lines(2, field_make(2))) == 6
    assert len(all_affine_lines(2, field_make(3))) == 12
    assert len(all_affine_lines(3, field_make(2))) == 28


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4)])
def test_line_count_formula(n, q):
    F = field_from_order(q)
    assert len(all_affine_lines(n, F)) == affine_line_count(n, q)


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 5), (2, 4)])
def test_vectorized_keys_match_pure_pairs(n, q):
    F = field_from_order(q)
    pure = pair_oracle(n, F)
    keys = all_line_keys(n, F)
    assert len(keys) == len(np.unique(keys)) == len(pure)
    assert list(keys) == sorted(keys)
    assert {line_of_key(int(k), n, F) for k in keys} == pure
    assert all_affine_lines(n, F) == pure
    c = universal_cycle(n, F)
    wkeys, degenerate = walk_keys(c)
    vs = c.vertices
    decoded = [decode_window(vs[i], vs[(i + 1) % len(vs)], F) for i in range(len(vs))]
    assert degenerate == []
    assert [line_of_key(int(k), n, F) for k in wkeys] == decoded
    assert set(decoded) == pure


def _small_grid_variants():
    """Valid small-grid cycles and broken copies: a vertex deleted, a window
    duplicated, a degenerate window (the same affine point twice), every line
    three times, and the first half only (at AG(3,3), 117 lines duplicated
    or more than MAX_REPORT_ITEMS missing, so the lists are truncated)."""
    for n, q in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)]:
        F = field_from_order(q)
        vs = universal_cycle(n, F).vertices
        affine_at = next(i for i, v in enumerate(vs) if not v.at_infinity)
        yield "valid", n, F, vs
        yield "deleted", n, F, vs[:3] + vs[4:]
        yield "duplicated", n, F, vs + vs[:2]
        yield "degenerate", n, F, vs[: affine_at + 1] + vs[affine_at:]
        yield "tripled", n, F, vs * 3
        yield "half", n, F, vs[: len(vs) // 2]


def test_vectorized_report_matches_pure_report():
    for kind, n, F, vs in _small_grid_variants():
        c = Cycle(vs, F)
        fast = verify_affine(c, n, F)
        pure = line_report(c, pair_oracle(n, F))
        assert fast.to_json_obj() == pure.to_json_obj(), (kind, n, F.q)
        assert fast.passed == (kind == "valid"), (kind, n, F.q)
        assert (fast.duplicated_total > 0) >= (kind == "duplicated")
        assert (fast.degenerate_total > 0) >= (kind == "degenerate")
        if kind == "tripled":
            assert fast.duplicated_total == affine_line_count(n, F.q)
            assert {c for _, c in fast.duplicated} == {3}


def test_plane_cycle_passes():
    c, F = plane_cycle_22()
    rep = verify_affine(c, 2, F)
    assert rep.passed
    assert rep.expected_count == rep.found_count == 6


def test_vertex_deleted_cycle_fails_with_missing():
    c, F = plane_cycle_22()
    broken = Cycle(c.vertices[:-1], F)
    rep = verify_affine(broken, 2, F)
    assert not rep.passed
    assert rep.missing_total > 0
    assert rep.found_count == 5


def test_universal_33_117_lines():
    F = field_make(3)
    rep = verify_affine(universal_cycle(3, F), 3, F)
    assert rep.passed
    assert rep.expected_count == 117


def test_verify_affine_rejects_wrong_frame():
    c, F = plane_cycle_22()
    with pytest.raises(ValueError):
        verify_affine(c, 3, F)
    with pytest.raises(ValueError):
        verify_affine(c, 2, field_make(3))


def test_verify_subset_two_fiber():
    F = field_from_order(4)
    d1, d2 = Direction((0, 1)), Direction((1, 3))
    c = two_fiber_cycle(d1, d2, 2, F)
    expected = set(fiber(d1, 2, F)) | set(fiber(d2, 2, F))
    assert verify_subset(c, expected).passed
    # a wrong target set fails with unexpected lines
    rep = verify_subset(c, set(fiber(d1, 2, F)))
    assert not rep.passed
    assert rep.unexpected_total == 4


def test_verify_subset_leaves_numpy_ma_unimported():
    # a plain np.unique imports numpy.ma on its first call, 15 ms of a fresh process
    script = (
        "import sys\n"
        "from ucycle.constructions import triple_base_cycle\n"
        "from ucycle.gf import field_make\n"
        "from ucycle.verify import verify_subset\n"
        "c = triple_base_cycle(field_make(5))\n"
        "before = 'numpy.ma' in sys.modules\n"
        "assert verify_subset(c, c.windows()).passed\n"
        "print(before, 'numpy.ma' in sys.modules)\n"
    )
    src = str(Path(geometry.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run([sys.executable, "-c", script], env=env,
                           capture_output=True, text=True, timeout=120)
    assert (child.returncode, child.stdout, child.stderr) == (0, "False False\n", "")


def test_verify_subset_triple_q5():
    F = field_make(5)
    c = triple_base_cycle(F)
    expected = set()
    for d in (Direction((0, 1)), Direction((1, 0)), Direction((1, 1))):
        expected |= set(fiber(d, 2, F))
    rep = verify_subset(c, expected)
    assert rep.passed and rep.expected_count == 15


def test_verify_subset_reports_degenerate_windows():
    F = field_make(3)
    vs = [affine((0, 0)), infinity((0, 1)), infinity((1, 0)), affine((1, 0))]
    rep = verify_subset(Cycle(vs, F), [])
    assert not rep.passed
    assert rep.degenerate_windows == [1]


def test_verify_subset_without_targets_reports_every_window():
    # the searchsorted against no target keys used to raise IndexError
    c, F = plane_cycle_22()
    for targets in ([], set(), iter(())):
        rep = verify_subset(c, targets)
        assert rep.to_json_obj() == line_report(c, []).to_json_obj()
        assert rep.unexpected_total == rep.found_count == 6 and not rep.passed


def test_verify_subset_refuses_targets_outside_the_space():
    c, F = plane_cycle_22()
    good = all_affine_lines(2, F)
    for bad in (
        AffineLine(Direction((0, 0, 1)), (0, 0, 0)),  # a line of AG(3,2)
        AffineLine(Direction((0, 1)), (0, 0, 0)),  # a base of the wrong length
        AffineLine(Direction((1, 0)), (0, 2)),  # a code equal to q
        AffineLine(Direction((2, 1)), (0, 0)),
        AffineLine(Direction((1, 0)), (0, -1)),
    ):
        with pytest.raises(ValueError) as err:
            verify_subset(c, [*good, bad])
        assert str(err.value) == f"target {bad} is not a line of AG(2,2)"


@pytest.mark.parametrize("bad", [
    AffineLine(Direction((1, 0)), (1, 1)),
    AffineLine(Direction((0, 0)), (0, 1)),
    AffineLine(Direction((2, 0)), (0, 1)),
], ids=["base-nonzero-at-pivot", "zero-direction", "unnormalized-direction"])
def test_verify_subset_refuses_targets_not_in_canonical_form(bad):
    # each was once packed as it stood: missing, while its window was unexpected
    F = field_make(3)
    c = two_fiber_cycle(Direction((0, 1)), Direction((1, 0)), 2, F)
    with pytest.raises(ValueError) as err:
        verify_subset(c, [bad])
    assert str(err.value) == f"target {bad} is not a line of AG(2,3)"
    # the canonical form of the line y = 1 is found among the windows
    rep = verify_subset(c, [AffineLine(Direction((1, 0)), (0, 1))])
    assert (rep.missing_total, rep.unexpected_total, rep.found_count) == (0, 5, 6)


def test_verify_imports_only_the_layers_below_it():
    tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
    relative = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level}
    assert relative <= {"gf", "geometry", "cycles"}
    assert grassmann.Subspace2 is geometry.Subspace
    assert grassmann.GrassCycle is cycles.GrassCycle


def test_verify_subset_of_a_segment_has_no_wrap_around_window():
    F = field_make(3)
    c = two_fiber_cycle(Direction((0, 1)), Direction((1, 0)), 2, F)
    lines = list(c.windows())
    for stop in (2, 4, len(c)):
        s = Segment(c.vertices[:stop], F)
        for targets in (lines, lines[: stop - 1], lines[1:stop]):
            rep = verify_subset(s, targets)
            assert rep.to_json_obj() == line_report(s, targets).to_json_obj()
            assert rep.found_count == stop - 1
    assert verify_subset(Segment(c.vertices[:5], F), lines[:4]).passed


def test_verify_subset_counts_a_repeated_target_once():
    F = field_make(5)
    c = triple_base_cycle(F)
    targets = sorted(c.windows())
    twice = verify_subset(c, targets + targets[::-1])
    assert twice.passed and twice.expected_count == 15
    assert twice.to_json_obj() == verify_subset(c, set(targets)).to_json_obj()
    short = verify_subset(c, targets[:5] * 3)
    assert short.to_json_obj() == line_report(c, targets[:5]).to_json_obj()


def test_all_2subspaces_counts():
    assert len(all_2subspaces(3, field_make(2))) == 7
    assert len(all_2subspaces(4, field_make(2))) == 35
    assert len(all_2subspaces(4, field_make(3))) == 130
    assert gaussian_binomial_2(4, 2) == 35
    assert gaussian_binomial_2(4, 3) == 130


def test_verify_grassmann_singer_q3():
    F = field_make(3)
    rep = verify_grassmann(singer_cycle(F), 3, F)
    assert rep.passed
    assert rep.expected_count == 13


def random_vector_cycle(m, F, rng, length=120):
    """Random nonzero vectors, each followed now and then by a repeat or a
    scalar multiple of itself, so some windows span no plane."""
    verts = []
    while len(verts) < length:
        r = rng.random()
        if verts and r < 0.15:
            verts.append(verts[-1])
        elif verts and r < 0.3:
            s = rng.randrange(1, F.q)
            verts.append(tuple(F.mul(s, x) for x in verts[-1]))
        else:
            v = tuple(rng.randrange(F.q) for _ in range(m))
            if any(v):
                verts.append(v)
    return GrassCycle(verts, F)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
@pytest.mark.parametrize("m", [3, 4, 5])
def test_plane_keys_match_span2(m, q):
    F = field_from_order(q)
    gc = random_vector_cycle(m, F, random.Random(q * 10 + m))
    spans, degenerate = decoded_windows(gc.vertices, lambda a, b: span2(a, b, F))
    keys, deg = walk_keys(gc)
    assert deg == degenerate and degenerate
    assert [plane_of_key(int(k), m, F) for k in keys] == spans


@pytest.mark.parametrize("m,q", [(m, q) for m in (2, 3, 4, 5) for q in (2, 3, 4, 5, 7, 8, 9)
                                 if gaussian_binomial_2(m, q) <= 20000])
def test_all_plane_keys_unpack_to_all_2subspaces(m, q):
    F = field_from_order(q)
    keys = all_plane_keys(m, F).tolist()
    assert keys == sorted(set(keys))
    planes = [plane_of_key(k, m, F) for k in keys]
    assert planes == sorted(rref_plane_pairs(m, F))
    assert all_2subspaces(m, F) == rref_plane_pairs(m, F)
    assert len(planes) == gaussian_binomial_2(m, q)


# the acceptance grid's cases with q^n <= 500, as (n, q)
SMALL_GRID = [(n, q) for n in (2, 3, 4) for q in (2, 3, 4, 5, 7, 8, 9) if q**n <= 500]


@pytest.mark.parametrize("n,q", [(1, 2), (1, 5)] + SMALL_GRID)
def test_line_ranks_keep_the_key_order(n, q):
    # the oracle's keys, ascending, rank to 0, 1, ..., L-1, and unrank to themselves
    F = field_from_order(q)
    keys = all_line_keys(n, F)
    d, base = key_rows(keys, n, q)
    lines = _Lines(n, F)
    ranks = lines.rank(d, base, np.argmax(d != 0, axis=1))
    assert len(keys) == lines.count == affine_line_count(n, q)
    assert ranks.tolist() == list(range(lines.count))
    assert lines.keys(ranks).tolist() == keys.tolist()


@pytest.mark.parametrize("m,q", [(m, q) for m in range(2, 7) for q in (2, 3, 4)])
def test_plane_ranks_are_a_bijection_in_key_order_within_each_cell(m, q):
    F = field_from_order(q)
    keys = all_plane_keys(m, F)
    r1, r2 = key_rows(keys, m, q)
    p1, p2 = np.argmax(r1 != 0, axis=1), np.argmax(r2 != 0, axis=1)
    planes = _Planes(m, F)
    ranks = planes.rank(r1, r2, p1, p2)
    assert sorted(ranks.tolist()) == list(range(planes.count))
    assert planes.keys(ranks).tolist() == keys.tolist()
    # the runs are the Schubert cells (i, j) in lexicographic order, and in
    # each the ranks of the ascending keys ascend
    cell = np.searchsorted(planes.runs, ranks, side="right") - 1
    assert (planes.cells[0][cell] == p1).all() and (planes.cells[1][cell] == p2).all()
    for c in range(len(planes.runs)):
        assert (np.diff(ranks[cell == c]) > 0).all()


def _grassmann_variants():
    """Chain levels that are valid, truncated, with a duplicated window,
    degenerate (a vertex followed by a scalar multiple of itself), with every
    plane three times, and cut to their first half."""
    for q, top in [(2, 5), (3, 4), (4, 4)]:
        F = field_from_order(q)
        for m, u in enumerate(nested_cycles(top, F), 3):
            vs = u.vertices
            scaled = tuple(F.mul(F.q - 1, x) for x in vs[2])
            yield "valid", m, F, vs
            yield "truncated", m, F, vs[:3] + vs[4:]
            yield "duplicated", m, F, vs + vs[:2]
            yield "degenerate", m, F, vs[:3] + (scaled,) + vs[3:]
            yield "tripled", m, F, vs * 3
            yield "half", m, F, vs[: len(vs) // 2]


def test_grassmann_report_matches_reference():
    for kind, m, F, vs in _grassmann_variants():
        gc = GrassCycle(vs, F)
        planes, degenerate = decoded_windows(vs, lambda a, b: span2(a, b, F))
        reference = build_report(all_2subspaces(m, F), planes, degenerate)
        rep = verify_grassmann(gc, m, F)
        assert rep.to_json_obj() == reference.to_json_obj(), (kind, m, F.q)
        assert rep.passed == (kind == "valid"), (kind, m, F.q)
        assert (rep.degenerate_total > 0) >= (kind == "degenerate")
        if kind == "tripled":
            assert rep.duplicated_total == gaussian_binomial_2(m, F.q)
            assert {c for _, c in rep.duplicated} == {3}


def test_verify_grassmann_does_not_row_reduce(monkeypatch):
    def refuse(*args):
        raise AssertionError("verify_grassmann called the general rref")

    F = field_make(3)
    levels = nested_cycles(5, F)
    monkeypatch.setattr(geometry, "rref", refuse)
    monkeypatch.setattr(grassmann, "rref", refuse)
    for m, u in enumerate(levels, 3):
        assert verify_grassmann(u, m, F).passed
    truncated = GrassCycle(levels[-1].vertices[1:], F)
    assert not verify_grassmann(truncated, 5, F).passed


def test_verify_does_not_build_projvertex(tmp_path, capsys, monkeypatch):
    # the passing verify path decodes the file into arrays and reads the
    # window keys from them, without one ProjVertex
    def refuse(*args):
        raise AssertionError("verify built a ProjVertex")

    f = tmp_path / "c.json"
    assert cli.main(["gen", "--n", "3", "--p", "5", "--out", str(f)]) == 0
    capsys.readouterr()
    assert cli.main(["verify", "--in", str(f)]) == 0
    report = capsys.readouterr()
    monkeypatch.setattr(ProjVertex, "__new__", refuse)
    with pytest.raises(AssertionError):
        affine((0, 0, 0))
    assert cli.main(["verify", "--in", str(f)]) == 0
    assert capsys.readouterr() == report


def test_key_radix_int64_bound(monkeypatch):
    assert key_radix("plane", 3, 1448) == 1448**3  # 1448^6 < 2^63 - 1 < 1449^6
    with pytest.raises(ValueError, match=r"F_1449\^3 .*q\^\(2m\) <= 2\^63-1"):
        key_radix("plane", 3, 1449)
    with pytest.raises(ValueError, match=r"2\^63"):
        key_radix("line", 10**9, 2)  # refused on bit length, 2^(2·10^9) never formed
    # the smallest field whose plane keys overflow at m = 3; refused before
    # any array is built
    monkeypatch.setenv("UCYCLE_MAX_Q", "1451")
    F = field_make(1451)
    gc = GrassCycle([(1, 0, 0), (0, 1, 0), (0, 0, 1)], F)
    with pytest.raises(ValueError, match=r"2\^63"):
        verify_grassmann(gc, 3, F)


def test_verify_nesting_basic():
    F = field_make(2)
    u3, u4 = nested_cycles(4, F)
    assert verify_nesting(embed_cycle(u3, 4), u4)
    assert verify_nesting(u4, u4)  # a rotated copy of outer within itself
    rot = GrassCycle(u4.vertices[5:] + u4.vertices[:5], F)
    assert verify_nesting(rot, u4)
    unrelated = GrassCycle([(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0)], F)
    assert not verify_nesting(unrelated, u4)
    with pytest.raises(ValueError):
        verify_nesting(u3, u4)  # dimension mismatch


def test_verify_nesting_refuses_cycles_over_different_fields():
    # the GF(2) rows occur verbatim in the GF(3) cycle: once reported nested
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    inner, outer = GrassCycle(e, field_make(2)), GrassCycle(e + [(1, 1, 1)], field_make(3))
    with pytest.raises(ValueError, match=r"^fields differ: GF\(2\) vs GF\(3\)$"):
        verify_nesting(inner, outer)


def test_report_truncation_at_32():
    F = field_make(3)
    c = two_fiber_cycle(Direction((0, 0, 1)), Direction((0, 1, 0)), 3, F)
    rep = verify_subset(c, all_affine_lines(3, F))
    assert rep.missing_total == 117 - 18
    assert len(rep.missing) == MAX_REPORT_ITEMS
    assert not rep.passed


def test_report_json_serializable():
    c, F = plane_cycle_22()
    rep = verify_affine(Cycle(c.vertices[:-1], F), 2, F)
    text = json.dumps(rep.to_json_obj(), sort_keys=True)
    back = json.loads(text)
    assert back["passed"] is False
    assert back["missing_total"] == rep.missing_total

    F2 = field_make(2)
    grep = verify_grassmann(singer_cycle(F2), 3, F2)
    json.dumps(grep.to_json_obj())


# -- memory guards: bytes per window that the check allocates (tracemalloc) ----


def traced_peak(f):
    tracemalloc.start()
    try:
        result = f()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_affine_memory_per_window():
    # 6.1 B/window measured at AG(10,2) (523,776 windows and lines): one
    # int32 count a line, and one block's temporaries; 12.1 with int32 ranks
    # and intp counts, 50 with int64 keys, np.unique and the sorted target
    # keys, and 426 when the one-pass decode held (N, n) int64 temporaries
    F = field_make(2)
    c = universal_cycle(10, F)
    rep, peak = traced_peak(lambda: verify_affine(c, 10, F))
    assert rep.passed
    assert peak / len(c) <= 9


def test_verify_grassmann_memory_per_window():
    # 11.6 B/window measured at the m = 10, q = 2 top level (174,251 planes):
    # counts as for lines, and one block's temporaries, here the most of it;
    # 12.4 with ranks, 50 with packed keys, 442 when the one-pass decode held
    # int64 temporaries
    F = field_make(2)
    top = nested_cycles(10, F)[-1]
    rep, peak = traced_peak(lambda: verify_grassmann(top, 10, F))
    assert rep.passed
    assert peak / len(top) <= 16


def test_degenerate_windows_memory_per_window():
    # 12.0 B/window measured for 2^18 copies of one affine point over GF(2),
    # every window degenerate: one block's temporaries; 14.2 with the int32
    # ranks, 49.1 when the walk listed their indices in Python.  11.3 for one
    # repeated vector (14.0).
    F = field_make(2)
    same = np.tile(np.array([0, 0, 1], dtype=np.uint8), (2**18, 1))
    for s, check in ((Cycle._from_arrays(F, same), lambda s: verify_affine(s, 2, F)),
                     (GrassCycle._from_arrays(F, same), lambda s: verify_grassmann(s, 3, F))):
        rep, peak = traced_peak(lambda: check(s))
        assert rep.found_count == rep.degenerate_total == 2**18
        assert rep.degenerate_windows == list(range(MAX_REPORT_ITEMS))
        assert peak / len(s) <= 16


def test_degenerate_windows_are_listed_without_a_mask_of_every_window():
    # 1.5 B/window measured for 2^21 copies of one affine point, or of one
    # vector, over GF(2): one block's temporaries; 5.3 with the int32 ranks,
    # 13.0 when one bool mask of every window and the index of every
    # degenerate one were made to list the first 32
    F = field_make(2)
    same = np.tile(np.array([0, 0, 1], dtype=np.uint8), (2**21, 1))
    for s, check in ((Cycle._from_arrays(F, same), lambda s: verify_affine(s, 2, F)),
                     (GrassCycle._from_arrays(F, same), lambda s: verify_grassmann(s, 3, F))):
        rep, peak = traced_peak(lambda: check(s))
        assert rep.found_count == rep.degenerate_total == 2**21
        assert rep.degenerate_windows == list(range(MAX_REPORT_ITEMS))
        assert peak / len(s) <= 3


@pytest.mark.parametrize("block_rows,rows", [(64, 3000), (cycles.BLOCK_ROWS, 3 * cycles.BLOCK_ROWS)])
@pytest.mark.parametrize("planted", [5, 40])
def test_degenerate_windows_past_the_first_block_are_listed_in_window_order(
    monkeypatch, block_rows, rows, planted
):
    # consecutive points of AG(3,7) all differ but where a point is
    # repeated, at random windows of one parity after the first block of
    # the scan: the report lists the first 32 of them (or all) in window order
    F = field_make(7)
    digits = np.arange(rows)[:, None] % 343 // 7 ** np.arange(3) % 7
    codes = np.column_stack([digits, np.ones(rows, dtype=np.int64)]).astype(np.uint8)
    at = np.random.default_rng(planted).choice(np.arange(block_rows + 1, rows, 2), planted, replace=False)
    codes[at] = codes[at - 1]
    degenerate = np.flatnonzero((codes == np.roll(codes, -1, axis=0)).all(axis=1))
    assert len(degenerate) == planted and degenerate.min() >= block_rows
    monkeypatch.setattr(cycles, "BLOCK_ROWS", block_rows)
    rep = verify_affine(Cycle._from_arrays(F, codes), 3, F)
    assert rep.degenerate_total == planted
    assert rep.degenerate_windows == degenerate[:MAX_REPORT_ITEMS].tolist()


def test_universal_cycle_memory_per_window():
    # 38 B/window measured at AG(10,2): the uint8 codes (10 B/window) and the
    # checks' temporaries; 109 with int64 codes
    F = field_make(2)
    c, peak = traced_peak(lambda: universal_cycle(10, F))
    assert len(c) == 523_776 and c.codes.dtype == np.uint8
    assert peak / len(c) <= 47
