"""Block boundaries: with the block size patched down to a few rows, the
encoders, the canonical decoder, the rank walks and the reports give
exactly the result of one block, wrap-around window and degenerate windows
on block edges included."""

import numpy as np
import pytest

from ucycle import cycles
from ucycle.cycles import (
    Cycle, cycle_blocks, cycle_from_json, cycle_from_text, cycle_to_json, cycle_to_text,
)
from ucycle.constructions import universal_cycle
from ucycle.gf import field_from_order
from ucycle.geometry import decode_window
from ucycle.grassmann import GrassCycle, grass_to_json, nested_cycles, span2
from ucycle.verify import (
    all_2subspaces,
    all_affine_lines,
    verify_affine,
    verify_grassmann,
)
from reference import build_report, decoded_windows, line_of_key, plane_of_key, walk_keys
from test_cycles import decode_outcome, reference_from_text

SIZES = [1, 3, 7]

# the acceptance grid's cases with q^n <= 500, as (n, q)
GRID = [(n, q) for n in (2, 3, 4) for q in (2, 3, 4, 5, 7, 8, 9) if q**n <= 500]


def affine_outputs(c, n, F):
    keys, degenerate = walk_keys(c)
    report = verify_affine(c, n, F).to_json_obj()
    return cycle_to_json(c), cycle_to_text(c), keys.tolist(), degenerate, report


@pytest.mark.parametrize("n,q", GRID)
def test_affine_blocks_match_one_block(monkeypatch, n, q):
    F = field_from_order(q)
    c = universal_cycle(n, F)
    assert len(c) <= cycles.BLOCK_ROWS
    whole = affine_outputs(c, n, F)
    data, text = whole[0].encode(), whole[1].encode()
    for size in SIZES:
        monkeypatch.setattr(cycles, "BLOCK_ROWS", size)
        assert len(list(cycle_blocks(c))) == 1 + -(-len(c) // size)
        assert affine_outputs(c, n, F) == whole
        for decoded in (cycle_from_json(data), cycle_from_text(text, F)):
            assert np.array_equal(decoded.codes, c.codes)
        # the last byte of the first row block is its "\n", the first byte of
        # the next the kind of its first row: with either changed, the text
        # decodes as the line loop reads it
        edge = len("".join(list(cycle_blocks(c, "text"))[:2]))
        for at in (edge - 1, edge):
            for byte in {b" ", b"#", b"A", b"I"} - {text[at : at + 1]}:
                changed = text[:at] + byte + text[at + 1 :]
                want = decode_outcome(reference_from_text, changed.decode(), F)
                assert decode_outcome(cycle_from_text, changed, F) == want


def grassmann_outputs(u, m, F):
    keys, degenerate = walk_keys(u)
    return grass_to_json(u), keys.tolist(), degenerate, verify_grassmann(u, m, F).to_json_obj()


@pytest.mark.parametrize("m,q", [(5, 2), (4, 3), (3, 4), (3, 5)])
def test_grassmann_blocks_match_one_block(monkeypatch, m, q):
    F = field_from_order(q)
    levels = list(enumerate(nested_cycles(m, F), 3))
    whole = [grassmann_outputs(u, mi, F) for mi, u in levels]
    for size in SIZES:
        monkeypatch.setattr(cycles, "BLOCK_ROWS", size)
        assert [grassmann_outputs(u, mi, F) for mi, u in levels] == whole


def with_degenerate_edges(vs, size):
    """vs with windows size-1 and size (the last of the first block and the
    first of the second) and the wrap-around window made degenerate: the
    second vertex of each repeats the first."""
    vs = list(vs)
    vs[0] = vs[-1]
    for i in (size - 1, size):
        vs[i + 1] = vs[i]
    return vs


@pytest.mark.parametrize("size", SIZES)
def test_degenerate_line_windows_on_block_edges(monkeypatch, size):
    n, F = 3, field_from_order(3)
    vs = with_degenerate_edges(universal_cycle(n, F).vertices, size)
    c = Cycle(vs, F)
    lines, degenerate = decoded_windows(vs, lambda a, b: decode_window(a, b, F))
    assert {size - 1, size, len(vs) - 1} <= set(degenerate)
    reference = build_report(all_affine_lines(n, F), lines, degenerate).to_json_obj()
    monkeypatch.setattr(cycles, "BLOCK_ROWS", size)
    keys, found = walk_keys(c)
    assert found == degenerate
    assert [line_of_key(k, n, F) for k in keys.tolist()] == lines
    assert verify_affine(c, n, F).to_json_obj() == reference


@pytest.mark.parametrize("size", SIZES)
def test_degenerate_plane_windows_on_block_edges(monkeypatch, size):
    m, F = 4, field_from_order(3)
    vs = with_degenerate_edges(nested_cycles(m, F)[-1].vertices, size)
    gc = GrassCycle(vs, F)
    planes, degenerate = decoded_windows(vs, lambda a, b: span2(a, b, F))
    assert {size - 1, size, len(vs) - 1} <= set(degenerate)
    reference = build_report(all_2subspaces(m, F), planes, degenerate).to_json_obj()
    monkeypatch.setattr(cycles, "BLOCK_ROWS", size)
    keys, found = walk_keys(gc)
    assert found == degenerate
    assert [plane_of_key(k, m, F) for k in keys.tolist()] == planes
    assert verify_grassmann(gc, m, F).to_json_obj() == reference
