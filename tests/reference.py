"""References for the rank walk, its report, its ranking and the block
encoder.

Each window is decoded on its own, by ``geometry.decode_window`` or
``grassmann.span2``, and the report is built from a Counter of the decoded
windows and a set of targets.  None of it shares code with the rank walk
or with ``verify._rank_report``, which the tests compare against it.  The
packed keys of every line and plane, ascending, are enumerated pivot by
pivot (``all_line_keys``, ``all_plane_keys``): the oracle that the ranking
is a bijection that keeps key order.

The kernels that the flat-table walk and the grouped-token encoder replaced
stay here too, unchanged: the packed-key walk that decodes BLOCK_ROWS windows a
block with 2-D table gathers on intp copies of the rows (``line_keys_2d``,
``plane_keys_2d``), and the encoder that writes one token per code
(``encode_by_code``), and the plane decode that reduced every window from
its two raw rows (``plane_decode_rref``).
"""

import itertools
from collections import Counter

import numpy as np

from ucycle.cycles import _block_rows, row_blocks
from ucycle.geometry import AffineLine, DegenerateWindowError, Direction, decode_window
from ucycle.grassmann import Subspace2
from ucycle.verify import MAX_REPORT_ITEMS, CoverageReport, _pick, key_radix, window_ranks


def rref_plane_pairs(m, F):
    """All rank-2 RREF row pairs of F_q^m, built row by row: pivots i < j,
    free entries enumerated; independent of the packed plane keys."""
    q, out = F.q, set()
    for i in range(m):
        for j in range(i + 1, m):
            free1 = [c for c in range(i + 1, m) if c != j]
            free2 = list(range(j + 1, m))
            for vals1 in itertools.product(range(q), repeat=len(free1)):
                row1 = [0] * m
                row1[i] = 1
                for col, v in zip(free1, vals1):
                    row1[col] = v
                for vals2 in itertools.product(range(q), repeat=len(free2)):
                    row2 = [0] * m
                    row2[j] = 1
                    for col, v in zip(free2, vals2):
                        row2[col] = v
                    out.add(Subspace2((tuple(row1), tuple(row2))))
    return out


def all_line_keys(n, F):
    """Packed keys of every line of AG(n,q), ascending.

    Directions with pivot i have codes in [q^(n-1-i), 2·q^(n-1-i)), and
    their canonical bases are the points whose coordinate i is 0.  Later
    pivots have smaller direction codes, so emitting pivots from last to
    first keeps the keys sorted.
    """
    q = F.q
    radix = key_radix("line", n, q)
    parts = []
    for i in range(n - 1, -1, -1):
        low = q ** (n - 1 - i)
        dirs = np.arange(low, 2 * low, dtype=np.int64)
        heads = np.arange(q**i, dtype=np.int64)[:, None] * (q * low)
        bases = (heads + np.arange(low, dtype=np.int64)).ravel()
        parts.append((dirs[:, None] * radix + bases).ravel())
    return np.concatenate(parts)


def all_plane_keys(m, F):
    """Packed keys of every 2-subspace of F_q^m, ascending.

    For pivots i < j, row 1 is e_i plus any entries right of i except at j,
    and row 2 is e_j plus any entries right of j.
    """
    q = F.q
    radix = key_radix("plane", m, q)
    parts = []
    for i in range(m):
        for j in range(i + 1, m):
            # columns i+1..j-1 are the high free digits of row 1, column j is 0
            high = np.arange(q ** (j - i - 1), dtype=np.int64) * q ** (m - j)
            tail = np.arange(q ** (m - 1 - j), dtype=np.int64)
            row1 = q ** (m - 1 - i) + (high[:, None] + tail).ravel()
            row2 = q ** (m - 1 - j) + tail
            parts.append((row1[:, None] * radix + row2).ravel())
    return np.sort(np.concatenate(parts))


def key_rows(keys, dim, q):
    """The two vectors of each packed key, as (count, dim) int64 arrays."""
    weights = q ** np.arange(2 * dim - 1, -1, -1, dtype=np.int64)
    digits = np.asarray(keys, dtype=np.int64)[:, None] // weights % q
    return digits[:, :dim], digits[:, dim:]


def line_of_key(key, n, F):
    """The AffineLine whose packed key is ``key``."""
    d, base = key_rows([key], n, F.q)
    return AffineLine(Direction(tuple(d[0].tolist())), tuple(base[0].tolist()))


def plane_of_key(key, m, F):
    """The plane whose packed key is ``key``."""
    r1, r2 = key_rows([key], m, F.q)
    return Subspace2((tuple(r1[0].tolist()), tuple(r2[0].tolist())))


def walk_keys(s):
    """The packed keys of the rank walk's decodable windows, and the indices
    of the degenerate ones, which the walk ranks ``space.count``."""
    ranks, space = window_ranks(s)
    bad = ranks == space.count
    return space.keys(ranks[~bad]), np.flatnonzero(bad).tolist()


def decoded_windows(vs, decode, wrap=True):
    """Each window's decoding in order, and the indices that do not decode;
    the last vertex pairs with the first only if ``wrap``."""
    out, degenerate = [], []
    for i in range(len(vs) if wrap else len(vs) - 1):
        try:
            out.append(decode(vs[i], vs[(i + 1) % len(vs)]))
        except DegenerateWindowError:
            degenerate.append(i)
    return out, degenerate


def build_report(expected, windows, degenerate) -> CoverageReport:
    """The coverage report of the decoded ``windows`` and the ``degenerate``
    window indices against the ``expected`` targets, compared as a Counter
    and a set."""
    expected, found = set(expected), Counter(windows)
    missing = sorted(k for k in expected if k not in found)
    duplicated = sorted((k, c) for k, c in found.items() if c > 1)
    unexpected = sorted(k for k in found if k not in expected)
    window_count = sum(found.values()) + len(degenerate)
    passed = (
        not missing
        and not duplicated
        and not unexpected
        and not degenerate
        and window_count == len(expected)
    )
    return CoverageReport(
        expected_count=len(expected),
        found_count=window_count,
        missing=missing[:MAX_REPORT_ITEMS],
        duplicated=duplicated[:MAX_REPORT_ITEMS],
        unexpected=unexpected[:MAX_REPORT_ITEMS],
        degenerate_windows=degenerate[:MAX_REPORT_ITEMS],
        missing_total=len(missing),
        duplicated_total=len(duplicated),
        unexpected_total=len(unexpected),
        degenerate_total=len(degenerate),
        passed=passed,
    )


def line_report(c, expected) -> CoverageReport:
    """``build_report`` of a cycle's or a segment's windows, each decoded by
    ``decode_window``, against the target lines."""
    lines, degenerate = decoded_windows(
        c.vertices, lambda a, b: decode_window(a, b, c.field), c.wrap
    )
    return build_report(expected, lines, degenerate)


# -- the replaced kernels ---------------------------------------------------------


def walk_keys_2d(kind, s, arrays, decode):
    """Packed keys of the decodable windows of ``s`` and the indices of the
    degenerate ones, BLOCK_ROWS windows a block: a block's rows and its next
    rows (gathered, ``% N`` for the wrap window) widened to intp copies that
    ``decode`` may write."""
    N, dim = arrays[0].shape
    count = N if s.wrap else N - 1
    radix = key_radix(kind, dim, s.field.q)
    weights = s.field.q ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    keys = np.empty(count, dtype=np.int64)
    degenerate, filled = [], 0
    rows = lambda at: (arrays[0][at].astype(np.intp), *(x[at] for x in arrays[1:]))
    for start, stop in row_blocks(count):
        nxt = np.arange(start + 1, stop + 1) % N
        u, v, bad = decode(*rows(slice(start, stop)), *rows(nxt))
        good = ((u @ weights) * radix + v @ weights)[~bad]
        keys[filled : filled + len(good)] = good
        filled += len(good)
        degenerate += (np.flatnonzero(bad) + start).tolist()
    return keys[:filled], degenerate


def line_keys_2d(c):
    """``walk_keys(c)`` of a cycle or segment, each window decoded with 2-D gathers."""
    ADD, MUL, NEG, INV = (t.astype(np.intp) for t in c.field.arrays)

    def decode(d, a_inf, pt, b_inf):
        d[~a_inf], pt[~a_inf] = pt[~a_inf], d[~a_inf]
        two = ~(a_inf | b_inf)
        diff = ADD[d[two], NEG[pt[two]]]
        lead = diff[np.arange(len(diff)), np.argmax(diff != 0, axis=1)]
        d[two] = MUL[diff, INV[lead][:, None]]
        bad = a_inf & b_inf
        bad[two] = lead == 0
        piv = np.argmax(d != 0, axis=1)
        pt[:] = ADD[pt, MUL[d, NEG[pt[np.arange(len(pt)), piv]][:, None]]]
        return d, pt, bad

    return walk_keys_2d("line", c, (c.codes[:, :-1], c.codes[:, -1] == 0), decode)


def plane_keys_2d(gc):
    """``walk_keys(gc)`` of a vector cycle, each window decoded with 2-D gathers."""
    ADD, MUL, NEG, INV = (t.astype(np.intp) for t in gc.field.arrays)

    def decode(r1, r2):
        rows = np.arange(len(r1))
        p1 = np.argmax((r1 != 0) | (r2 != 0), axis=1)
        swap = r1[rows, p1] == 0
        r1[swap], r2[swap] = r2[swap], r1[swap]
        r1[:] = MUL[r1, INV[r1[rows, p1]][:, None]]
        r2[:] = ADD[r2, MUL[r1, NEG[r2[rows, p1]][:, None]]]
        p2 = np.argmax(r2 != 0, axis=1)
        lead = r2[rows, p2]
        r2[:] = MUL[r2, INV[lead][:, None]]
        r1[:] = ADD[r1, MUL[r2, NEG[r1[rows, p2]][:, None]]]
        return r1, r2, lead == 0

    return walk_keys_2d("plane", gc, (gc.codes,), decode)


def plane_decode_rref(space, rows):
    """``verify._Planes.decode`` of a block by the closed-form RREF of each
    window's two raw rows: pivot on the first column where either vector
    is nonzero, with a row nonzero there first; normalize that row and
    clear the column from the other, which is then zero iff the window is
    degenerate.  Otherwise normalize the second row at its own pivot and
    clear that column from the first."""
    ADD, MUL, MULQ, NEGQ, INVQ = space.tables
    i = np.arange(len(rows) - 1)
    p1 = np.argmax((rows[:-1] | rows[1:]) != 0, axis=1)
    # order each window's rows so that the first is nonzero at p1
    swap = _pick(rows, p1) == 0
    r1, r2 = rows.take(i + swap, axis=0), rows.take(i + ~swap, axis=0)
    r1 = MUL.take(INVQ.take(_pick(r1, p1))[:, None] + r1)
    r2 = ADD.take(MULQ.take(NEGQ.take(_pick(r2, p1))[:, None] + r1) + r2)
    p2 = np.argmax(r2 != 0, axis=1)
    lead = _pick(r2, p2)
    r2 = MUL.take(INVQ.take(lead)[:, None] + r2)
    r1 = ADD.take(MULQ.take(NEGQ.take(_pick(r1, p2))[:, None] + r2) + r1)
    return space.rank(r1, r2, p1, p2), lead == 0


def encode_by_code(codes, q, head, first, sep, last, tail):
    """``cycles.encode_blocks`` with one precomputed token per code: the
    code with the row's prefix before it, or the separator or the row's
    suffix after it; with two kinds, the row's last code is its kind."""
    n = codes.shape[1] - (len(first) > 1)
    ends = [(first[k] if j == 0 else "", last[k] if j == n - 1 else sep)
            for k in range(len(first)) for j in range(n)]
    table = np.array([f"{a}{x}{b}" for a, b in ends for x in range(q)], dtype=object)
    size = _block_rows(n, q, first, sep, last)  # the codec's blocks
    yield head
    for start in range(0, len(codes), size):
        stop = min(start + size, len(codes))
        kind = codes[start:stop, n:].astype(np.intp) * (n * q) if len(first) > 1 else 0
        tokens = table[codes[start:stop, :n] + (np.arange(n) * q + kind)].ravel().tolist()
        if stop == len(codes):
            tokens[-1] = tokens[-1][:-1] + tail
        yield "".join(tokens)
