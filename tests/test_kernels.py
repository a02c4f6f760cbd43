"""The flat-table rank walk and the grouped-token block encoder against the
kernels they replaced (``reference.line_keys_2d``, ``plane_keys_2d`` and
``encode_by_code``): the same keys and degenerate windows at every block
size, with the wrap window alone in its block among them, and the same
blocks of bytes in every format, with each row one token, cut into groups,
evenly or not, or one code a token.  The plane decode from per-vertex
normal forms against the one that reduced each window's two raw rows
(``reference.plane_decode_rref``), at the edges of its index dtypes.  The
walk's one rank per window against each window decoded alone
(``decode_window``, ``span2``), its degenerate ones marked."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ucycle import cycles, grassmann
from ucycle.constructions import universal_cycle
from ucycle.cycles import Cycle, Segment, _array_blocks, row_blocks, _token_width
from ucycle.gf import field_from_order
from ucycle.geometry import decode_window
from ucycle.grassmann import GrassCycle, grass_blocks, nested_cycles, span2
from ucycle.verify import _Planes, key_radix, window_ranks
from reference import (
    decoded_windows, encode_by_code, line_keys_2d, plane_keys_2d, plane_decode_rref, walk_keys,
)


def projective_arrays(rng, count, n, F):
    """Random homogeneous rows over F, each vector at infinity (last code 0)
    led by 1, with an affine point repeated and two vectors at infinity in a
    row: both windows degenerate."""
    codes = rng.integers(0, F.q, (count, n))
    inf = rng.random(count) < 0.5
    codes[3], inf[2:4] = codes[2], False
    inf[5:7] = True
    codes[~codes.any(axis=1), 0] = 1
    rows = np.flatnonzero(inf)
    codes[rows, np.argmax(codes[rows] != 0, axis=1)] = 1
    return np.column_stack([codes, ~inf]).astype(F.arrays[0].dtype)


def vector_codes(rng, count, n, F):
    """Random nonzero vectors over F, the fourth a multiple of the third and
    the last equal to the first: windows 2 and the wrap window span no
    plane."""
    codes = rng.integers(0, F.q, (count, n))
    codes[~codes.any(axis=1), -1] = 1
    codes[3] = F.arrays[1][F.q - 1][codes[2]]
    codes[-1] = codes[0]
    return codes.astype(F.arrays[0].dtype)


def walk_sizes(count, dim):
    """BLOCK_ROWS values for a walk of ``count`` windows of ``dim`` codes,
    the last making the wrap window the only one of its block."""
    rows = next(r for r in range(2, count) if count % r == 1)
    return [1, 2, 3, dim, dim + 1, 2**16, rows * dim]


def assert_walks_agree(monkeypatch, s, keys, reference):
    count = len(s) if s.wrap else len(s) - 1
    for size in walk_sizes(count, s.n):
        monkeypatch.setattr(cycles, "BLOCK_ROWS", size)
        found, degenerate = keys(s)
        want, want_degenerate = reference(s)
        assert found.tolist() == want.tolist() and degenerate == want_degenerate
    # at the last size, the last block holds the wrap window alone
    assert list(row_blocks(count, s.n))[-1] == (count - 1, count)
    return degenerate


@pytest.mark.parametrize("n,q", [(1, 3), (2, 2), (2, 5), (3, 4), (3, 9), (2, 256), (2, 257), (2, 512)])
def test_line_walk_matches_the_2d_gathers(monkeypatch, n, q):
    F = field_from_order(q)
    rng = np.random.default_rng(q * 10 + n)
    codes = projective_arrays(rng, 61, n, F)
    c, inf = Cycle._from_arrays(F, codes), codes[:, -1] == 0
    two = ~(inf | np.roll(inf, -1))
    assert two.sum() > 2 and (inf & np.roll(inf, -1)).any()
    degenerate = assert_walks_agree(monkeypatch, c, walk_keys, line_keys_2d)
    assert {2, 5} <= set(degenerate)
    # the open sequence: no wrap window
    s = Segment._from_arrays(F, codes[:-1])
    assert_walks_agree(monkeypatch, s, walk_keys, line_keys_2d)


@pytest.mark.parametrize("n,q", [(3, 5), (4, 3), (2, 9)])
def test_line_walk_matches_the_2d_gathers_on_universal_cycles(monkeypatch, n, q):
    c = universal_cycle(n, field_from_order(q))
    assert (c.codes[:, -1] & np.roll(c.codes[:, -1], -1)).any()  # two-affine windows
    assert assert_walks_agree(monkeypatch, c, walk_keys, line_keys_2d) == []


@pytest.mark.parametrize("m,q", [(3, 2), (4, 3), (3, 4), (5, 2), (3, 257), (3, 512)])
def test_plane_walk_matches_the_2d_gathers(monkeypatch, m, q):
    F = field_from_order(q)
    gc = GrassCycle._from_arrays(F, vector_codes(np.random.default_rng(q * 10 + m), 53, m, F))
    degenerate = assert_walks_agree(monkeypatch, gc, walk_keys, plane_keys_2d)
    assert {2, 52} <= set(degenerate)


@pytest.mark.parametrize("m,q", [(5, 2), (4, 3)])
def test_plane_walk_matches_the_2d_gathers_on_nested_cycles(monkeypatch, m, q):
    for u in nested_cycles(m, field_from_order(q)):
        assert assert_walks_agree(monkeypatch, u, walk_keys, plane_keys_2d) == []


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from([Cycle, Segment, GrassCycle]), q=st.sampled_from([2, 3, 4, 5, 9]),
       n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), count=st.integers(2, 12),
       copies=st.lists(st.tuples(st.integers(0, 99), st.integers(1, 8)), max_size=5))
def test_window_ranks_mark_exactly_the_windows_that_do_not_decode(kind, q, n, seed, count, copies):
    # random rows with copies inserted after their originals: a repeated
    # point or direction, or for vectors a nonzero multiple
    F, rng = field_from_order(q), np.random.default_rng(seed)
    n += kind is GrassCycle  # planes need m >= 2
    if kind is GrassCycle:
        rows = rng.integers(0, q, (count, n))
        rows[~rows.any(axis=1), -1] = 1
    else:
        # past the degenerate windows that projective_arrays fixes in rows 2 to 6
        rows = projective_arrays(rng, count + 7, n, F)[7:].astype(np.int64)
    rows = list(rows)
    for at, scale in copies:
        at %= len(rows)
        copy = F.arrays[1][scale % (q - 1) + 1][rows[at]] if kind is GrassCycle else rows[at]
        rows.insert(at + 1, copy)
    codes = np.array(rows).astype(F.arrays[0].dtype)
    assume(kind is not Segment or (codes[0] != codes[-1]).any())
    s = kind._from_arrays(F, codes)
    ranks, space = window_ranks(s)
    decode = span2 if kind is GrassCycle else decode_window
    windows, degenerate = decoded_windows(s.vertices, lambda a, b: decode(a, b, F), s.wrap)
    assert len(ranks) == (len(s) if s.wrap else len(s) - 1)
    assert np.flatnonzero(ranks == space.count).tolist() == degenerate
    assert space.items(ranks[ranks != space.count]) == windows


def tied_vectors(rng, count, m, F):
    """Random nonzero vectors over F, each drawn afresh, as a multiple of
    the one before it (a degenerate window), or with the pivot of the one
    before it (a tie), with or without its tail: every kind among the
    first four."""
    mul, q = F.arrays[1], F.q
    rows = np.zeros((count, m), dtype=np.int64)
    for k, kind in enumerate([0, 1, 2, 3] + rng.integers(0, 4, count).tolist()[: count - 4]):
        prev = rows[k - 1]
        piv = int(np.argmax(prev != 0))
        if k == 0 or kind == 0:
            rows[k] = rng.integers(0, q, m)
            rows[k, rng.integers(0, m)] = rng.integers(1, q)
        elif kind == 1:  # proportional
            rows[k] = mul[rng.integers(1, q)][prev]
        else:  # the same pivot, with a random tail, or the previous tail changed at one place
            rows[k, piv] = rng.integers(1, q)
            rows[k, piv + 1 :] = rng.integers(0, q, m - piv - 1) if kind == 2 else prev[piv + 1 :]
            if kind == 3 and piv + 1 < m:
                rows[k, rng.integers(piv + 1, m)] = rng.integers(0, q)
    return rows.astype(F.arrays[0].dtype)


def largest_dim(q):
    """The largest m whose plane keys fit an int64."""
    return max(m for m in range(2, 64) if 2 * m * (q.bit_length() - 1) < 63 and q ** (2 * m) < 2**63)


# q at the edges of the index dtype: uint8 up to q = 16, uint16 up to 256, uint32 above
INDEX_DTYPES = {2: np.uint8, 3: np.uint8, 4: np.uint8, 5: np.uint8, 9: np.uint8, 16: np.uint8,
                17: np.uint16, 256: np.uint16, 257: np.uint32}


@pytest.mark.parametrize("q", sorted(INDEX_DTYPES))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(2, 60), data=st.data())
def test_plane_decode_from_normal_forms_matches_the_rref_of_each_window(q, seed, count, data):
    F = field_from_order(q)
    m = data.draw(st.integers(2, min(6, largest_dim(q))), label="m")
    key_radix("plane", m, q)
    rng = np.random.default_rng(seed)
    gc = GrassCycle._from_arrays(F, tied_vectors(rng, max(count, 4), m, F))
    space = _Planes(m, F)
    assert all(t.dtype == INDEX_DTYPES[q] for t in space.tables[2:])
    rows = np.concatenate([gc.codes, gc.codes[:1]])  # the wrap window last
    ranks, bad = space.decode(rows)
    want, want_bad = plane_decode_rref(space, rows)
    assert bad.tolist() == want_bad.tolist() and bad[0]  # rows 0 and 1 span no plane
    assert ranks[~bad].tolist() == want[~bad].tolist()
    assert ((0 <= ranks[~bad]) & (ranks[~bad] < space.count)).all()


# (n, q, rows, g): g codes a token, whole rows when g = n
ENCODED = [
    (5, 2, 40, 2),  # groups of 2, 2 and 1 codes
    (5, 2, 200, 4),  # 4 and 1
    (5, 2, 300, 5),
    (4, 3, 100, 2),  # 2 and 2
    (4, 3, 300, 3),  # 3 and 1
    (4, 3, 700, 4),
    (3, 4, 200, 2),  # 2 and 1
    (3, 4, 600, 3),
    (3, 9, 700, 2),  # 2 and 1
    (3, 9, 6000, 3),
    (1, 9, 100, 1),
    (2, 256, 1000, 1),
    (2, 257, 1000, 1),  # 257^2 > 2^16 at any size
    (2, 509, 1000, 1),
    (2, 512, 1000, 1),
]


def encoded(monkeypatch, codes, F, kernel):
    monkeypatch.setattr(cycles, "encode_blocks", kernel)
    monkeypatch.setattr(grassmann, "encode_blocks", kernel)
    vectors = codes[:, :-1]
    gc = GrassCycle._from_arrays(F, np.where(vectors.any(axis=1, keepdims=True), vectors, 1))
    blocks = [list(_array_blocks(codes, F.q, fmt)) for fmt in ("json", "text")]
    return blocks + [list(grass_blocks(gc))]


@pytest.mark.parametrize("n,q,count,g", ENCODED)
def test_encoder_matches_one_code_per_token(monkeypatch, n, q, count, g):
    F = field_from_order(q)
    codes = projective_arrays(np.random.default_rng(count + q), count, n, F)
    assert _token_width(count, n, q) == g
    new = cycles.encode_blocks
    # at count - 1 rows a block, the last block is one row, which takes the tail
    for size in (2**16, 7, count - 1):
        monkeypatch.setattr(cycles, "BLOCK_ROWS", size)
        blocks = encoded(monkeypatch, codes, F, new)
        assert blocks == encoded(monkeypatch, codes, F, encode_by_code)
        assert all(len(b) == 1 + -(-count // size) for b in blocks)


def test_encoder_matches_one_code_per_token_at_the_table_bound(monkeypatch):
    # q^2 = 2^16 strings a kind, the largest table: whole rows at q = 256
    F = field_from_order(256)
    count = 8 * 2**16
    codes = projective_arrays(np.random.default_rng(256), count, 2, F)
    assert _token_width(count, 2, 256) == 2 and _token_width(count - 1, 2, 256) == 1
    new = list(_array_blocks(codes, 256, "json"))
    monkeypatch.setattr(cycles, "encode_blocks", encode_by_code)
    assert new == list(_array_blocks(codes, 256, "json"))
