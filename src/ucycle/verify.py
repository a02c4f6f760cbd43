"""Exact-cover checks for affine-line and Grassmannian cycles.

Every check returns a CoverageReport rather than raising, so invalid cycles
produce failing reports.  The targets are ranked in closed form, and no
construction module is imported (only gf, geometry and cycles): an affine
line of AG(n,q) is a normalized direction together with the one point of
the line whose coordinate at the direction's pivot is 0, and a plane of
F_q^m is a rank-2 RREF row pair.  One block walk (``_rank_blocks``) decodes
the windows of blocks of narrow codes, each with the row before it carried
over, into one rank per window, a degenerate window ranked one past the last
target: lines from a cycle's homogeneous rows (a last code of 0 marks a
point at infinity) by the closed form of ``geometry.line_from``, planes by
the closed-form RREF of two rows from each vertex's normal form (pivot and
lead 1), found once; each field operation is one 1-D gather from a
flattened table, its indices in the narrowest dtype that holds q^2 - 1.
The blocks come from a sequence's code array, about ``cycles.BLOCK_ROWS``
codes at a time, or for ``verify_file`` straight from the reader of gen's
bytes, so that the file's cycle is never held.  One report builder
(``_rank_report``) adds each block's ranks into one int32 count per target
as they come, in linear time, holding no rank array; ``window_ranks`` keeps
the ranks for ``windows()`` and the gluing check.  The brute-force
point-pair oracle, the packed keys of every target and a set-based report
stay in the tests.
"""

from __future__ import annotations

import functools
from collections import deque
from itertools import chain
from dataclasses import dataclass, field as dc_field
from typing import BinaryIO, Callable, Iterable, Iterator

import numpy as np

from .gf import Field
from .geometry import AffineLine, Direction, Subspace
from .cycles import Cycle, GrassCycle, Segment, VertexSequence, occurs_cyclically
from .cycles import _pick, decode_rows, row_blocks

MAX_REPORT_ITEMS = 32


def gaussian_binomial_2(m: int, q: int) -> int:
    """Number of 2-subspaces of F_q^m."""
    return (q**m - 1) * (q ** (m - 1) - 1) // ((q * q - 1) * (q - 1))


def affine_line_count(n: int, q: int) -> int:
    return q ** (n - 1) * (q**n - 1) // (q - 1)


@dataclass
class CoverageReport:
    """Outcome of an exact-coverage check.

    ``missing``, ``duplicated`` and ``unexpected`` are truncated to
    MAX_REPORT_ITEMS entries each; the *_total fields carry the full counts.
    """

    expected_count: int
    found_count: int
    missing: list = dc_field(default_factory=list)
    duplicated: list = dc_field(default_factory=list)
    unexpected: list = dc_field(default_factory=list)
    degenerate_windows: list = dc_field(default_factory=list)
    missing_total: int = 0
    duplicated_total: int = 0
    unexpected_total: int = 0
    degenerate_total: int = 0
    passed: bool = False

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.found_count}/{self.expected_count} windows"
            f" (missing={self.missing_total} duplicated={self.duplicated_total}"
            f" unexpected={self.unexpected_total} degenerate={self.degenerate_total})"
        )

    def to_json_obj(self) -> dict:
        def item(x):
            if isinstance(x, AffineLine):
                return {"dir": list(x.dir.vector), "base": list(x.base)}
            if isinstance(x, Subspace):
                return {"basis": [list(row) for row in x.basis]}
            return x

        return dict(vars(self), missing=[item(x) for x in self.missing],
                    duplicated=[{"item": item(x), "count": c} for x, c in self.duplicated],
                    unexpected=[item(x) for x in self.unexpected])


def _rank_report(space: _Ranking, ranked: Iterable[np.ndarray], windows: int,
                 expected: np.ndarray | None = None) -> CoverageReport:
    """The coverage report of ``windows`` windows, whose ranks ``ranked``
    gives a block at a time (``_rank_blocks``), against the targets whose
    ranks the bool mask ``expected`` holds, or all.  Each block's ranks are
    added into one count per target, int32 below 2^31 windows, by
    ``np.add.at`` with an increment of the counts' dtype (numpy's fast
    path), the last slot the degenerate windows', whose first indices are
    kept as they come: a count of 0 is a missing target, above 1 a
    duplicate.  Only the entries kept become packed keys, then report
    entries, in key order."""
    counts = np.zeros(space.count + 1, dtype=np.int32 if windows < 2**31 else np.int64)
    one, marked, found_count = counts.dtype.type(1), [], 0
    for ranks in ranked:
        np.add.at(counts, ranks, one)
        if len(marked) < min(counts[-1], MAX_REPORT_ITEMS):  # degenerate windows still to list
            hits = np.flatnonzero(ranks == space.count)[: MAX_REPORT_ITEMS - len(marked)]
            marked += (hits + found_count).tolist()
        found_count += len(ranks)
    counts, degenerate = counts[:-1], int(counts[-1])
    if expected is None:  # every target: no mask beside the counts
        missing, expected_count = np.flatnonzero(counts == 0), space.count
        unexpected = missing[:0]
    else:
        missing = np.flatnonzero(expected & (counts == 0))
        unexpected = np.flatnonzero(~expected & (counts > 0))
        expected_count = int(np.count_nonzero(expected))
    duplicated = np.flatnonzero(counts > 1)

    def head(ranks: np.ndarray) -> np.ndarray:
        # rank order is key order within each run, so the candidates for the
        # smallest keys are the first MAX_REPORT_ITEMS ranks of each run
        if len(ranks) > MAX_REPORT_ITEMS:
            at = np.searchsorted(ranks, space.runs)[:, None] + np.arange(MAX_REPORT_ITEMS)
            first = np.zeros(len(ranks), dtype=bool)
            first[at[at < len(ranks)]] = True
            ranks = ranks[first]
        return ranks[np.argsort(space.keys(ranks))][:MAX_REPORT_ITEMS] if len(ranks) else ranks

    twice = head(duplicated)
    return CoverageReport(
        expected_count=expected_count,
        found_count=found_count,
        missing=space.items(head(missing)),
        duplicated=list(zip(space.items(twice), counts[twice].tolist())),
        unexpected=space.items(head(unexpected)),
        degenerate_windows=marked,
        missing_total=len(missing),
        duplicated_total=len(duplicated),
        unexpected_total=len(unexpected),
        degenerate_total=degenerate,
        # with none of these, the windows are the targets, each once
        passed=not (len(missing) or len(duplicated) or len(unexpected) or degenerate),
    )


def _sequence_report(s: VertexSequence, expected: np.ndarray | None = None) -> CoverageReport:
    """``_rank_report`` of a sequence's windows, ranked from its code array."""
    space = _space(s)
    return _rank_report(space, _rank_blocks(space, [s.codes], s.wrap), len(s), expected)


# -- packed integer keys and ranks -----------------------------------------------
#
# A key packs two vectors of length dim as code(u)·q^dim + code(v), where
# code is the base-q value with the first coordinate most significant, so
# the numeric order of keys is the (u, v) tuple order.  A line of AG(n,q)
# packs its direction and base point, a plane of F_q^m its two RREF rows.
# A rank numbers the same targets 0, 1, ..., count - 1 in closed form (Kreher
# and Stinson, *Combinatorial Algorithms*, 1999, ch. 2-3).

_INT64_MAX = 2**63 - 1

_REFUSALS = {
    "line": "AG({dim},{q}) is too large to verify: line keys need q^(2n) <= 2^63-1",
    "plane": "F_{q}^{dim} is too large to verify: plane keys need q^(2m) <= 2^63-1",
}


def key_radix(kind: str, dim: int, q: int) -> int:
    """q^dim, the radix of packed ``kind`` keys ("line" or "plane"), after
    checking that every key fits in an int64: q^(2·dim) <= 2^63-1.  Runs
    before any array is built.  When the bit length of q alone shows that
    q^(2·dim) >= 2^63, the power is never formed, so a huge dim costs
    nothing."""
    if 2 * dim * (q.bit_length() - 1) >= 63 or q ** (2 * dim) > _INT64_MAX:
        raise ValueError(_REFUSALS[kind].format(dim=dim, q=q))
    return q**dim


class _Ranking:
    """The targets of one kind over F, once key_radix passes, ranked, and
    the decoder of their windows.  ``w`` holds the digit weights q^(dim-1-i),
    ``runs`` the first ranks of the runs in which rank order is key order.
    ``tables``: add and mul flat (``ADD.take(x * q + y)`` is x + y), and mul,
    neg and inv scaled by q, ready to index the next gather, in the dtype of
    q^2 - 1 (uint8 up to q = 16), so that no index sum widens to intp."""

    def __init__(self, kind: str, dim: int, F: Field, count: int):
        key_radix(kind, dim, F.q)
        q, (add, mul, neg, inv) = F.q, F.arrays
        self.dim, self.field, self.count = dim, F, count
        self.w = q ** np.arange(dim - 1, -1, -1, dtype=np.int64)
        index = np.min_scalar_type(q * q - 1)  # holds every index sum of the gathers
        scaled = np.multiply(np.concatenate([mul.ravel(), neg, inv]), q, dtype=index)
        self.tables = add.ravel(), mul.ravel(), scaled[: q * q], scaled[q * q : -q], scaled[-q:]

    def items(self, ranks: np.ndarray) -> list:
        """The AffineLines or Subspaces of these ranks, from the base-q digits of their keys."""
        q, dim = self.field.q, self.dim
        if not len(ranks):
            return []
        digits = self.keys(ranks)[:, None] // q ** np.arange(2 * dim - 1, -1, -1) % q
        return [self.unpack(tuple(row[:dim]), tuple(row[dim:])) for row in digits.tolist()]


class _Lines(_Ranking):
    """The lines of AG(n,q), each a normalized direction d and the base
    point whose coordinate at d's pivot is 0.  A direction of pivot i ranks
    after those of the later pivots, (q^(n-1-i) - 1)/(q - 1) of them, by its
    code; a line ranks by its direction, then by its base's digits without
    the pivot's.  Rank order is then key order: one run."""

    unpack = staticmethod(lambda d, base: AffineLine(Direction(d), base))

    def __init__(self, n: int, F: Field):
        super().__init__("line", n, F, affine_line_count(n, F.q))
        self.later = (self.w - 1) // (F.q - 1)  # by pivot: the directions of later pivots,
        self.shift = (self.later - self.w) * self.w[0]  # and (rank - code)·q^(n-1) of a direction
        self.runs = np.zeros(1, dtype=np.int64)

    def rank(self, d: np.ndarray, base: np.ndarray, piv: np.ndarray) -> np.ndarray:
        w, q = self.w, self.field.q
        code, wp = base @ w, w[piv]  # the digits before the pivot lose a factor q
        return d @ (w * w[0]) + self.shift[piv] + code - code // (q * wp) * (q - 1) * wp

    def keys(self, ranks: np.ndarray) -> np.ndarray:
        w, q = self.w, self.field.q
        r, low = np.divmod(ranks.astype(np.int64), w[0])
        piv = self.dim - np.searchsorted(self.later[::-1], r, side="right")
        high, low = np.divmod(low, w[piv])
        return (r - self.later[piv] + w[piv]) * (w[0] * q) + high * q * w[piv] + low

    def decode(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ranks of a block's windows and the mask of the degenerate ones
        (two points at infinity, or one affine point twice), from their
        homogeneous rows, by the closed form of ``geometry.line_from``: the
        direction is the window's vertex at infinity (last code 0),
        normalized since ``Cycle`` checks it, or else b - a, normalized;
        then base[piv]·d is subtracted from the base.  The block's
        coordinates are copied out once, contiguous for the row gathers."""
        ADD, MUL, MULQ, NEGQ, INVQ = self.tables
        inf, rows = rows[:, -1] == 0, np.ascontiguousarray(rows[:, :-1])
        i, a_inf, b_inf = np.arange(len(rows) - 1), inf[:-1], inf[1:]
        # a window at an affine a reads its direction from b, and its point from a
        d, pt = rows.take(i + ~a_inf, axis=0), rows.take(i + a_inf, axis=0)
        bad = a_inf & b_inf
        two = np.flatnonzero(~(a_inf | b_inf))
        if len(two):  # rare: most windows pair a point with a direction
            diff = ADD.take(NEGQ.take(pt[two]) + d[two])
            lead = _pick(diff, np.argmax(diff != 0, axis=1))
            d[two] = MUL.take(INVQ.take(lead)[:, None] + diff)
            bad[two] = lead == 0
        piv = np.argmax(d != 0, axis=1)
        base = ADD.take(MULQ.take(NEGQ.take(_pick(pt, piv))[:, None] + d) + pt)
        return self.rank(d, base, piv), bad


class _Planes(_Ranking):
    """The planes of F_q^m, each an RREF row pair with pivots i < j.  The
    cells (i, j), of q^(m-2-i)·q^(m-1-j) planes, come in lexicographic
    order, each a run; in its cell a plane ranks by row 1's free digits (all
    after i but j's, which is 0), then row 2's (all after j).  The decode
    normalizes each vertex once, to its pivot and a lead 1, and reduces
    further only the windows whose two pivots are equal."""

    unpack = staticmethod(lambda r1, r2: Subspace((r1, r2)))

    def __init__(self, m: int, F: Field):
        super().__init__("plane", m, F, gaussian_binomial_2(m, F.q))
        cells = [(i, j) for i in range(m) for j in range(i + 1, m)]
        self.cells = np.array(cells, dtype=np.intp).reshape(-1, 2).T
        self.runs = np.cumsum([0] + [F.q ** (2 * m - 3 - i - j) for i, j in cells][:-1])
        (i, j), w = self.cells, self.w  # at i·m + j: cell (i, j)'s first rank, less the pivots
        self.offset = np.zeros(m * m, dtype=np.int64)
        self.offset[i * m + j] = self.runs - w[j] - w[j] * (w[i] // F.q)

    def rank(self, r1: np.ndarray, r2: np.ndarray, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
        w, q, wj = self.w, self.field.q, self.w.take(p2)
        c1 = r1 @ w  # x drops digit j, which is 0: the digits before it lose a factor q,
        x = c1 - c1 // (q * wj) * ((q - 1) * wj)  # the pivot's too, as offset counts it
        return self.offset.take(p1 * self.dim + p2) + x * wj + r2 @ w

    def keys(self, ranks: np.ndarray) -> np.ndarray:
        w, q = self.w, self.field.q
        cell = np.searchsorted(self.runs, ranks, side="right") - 1
        wi, wj = w[self.cells[0][cell]], w[self.cells[1][cell]]
        x, low2 = np.divmod(ranks - self.runs[cell], wj)
        high, low = np.divmod(x, wj)
        return (wi + high * q * wj + low) * (w[0] * q) + wj + low2

    def decode(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ranks of a block's windows and the mask of the degenerate ones
        (two proportional vectors).  Row 2 of a window whose pivots differ is
        the normal form of its vertex of the later pivot; for equal pivots,
        that of the difference of the two, zero iff the window is degenerate.
        Row 2's pivot column is then cleared from row 1."""
        ADD, MUL, MULQ, NEGQ, INVQ = self.tables
        piv = np.argmax(rows != 0, axis=1)
        rows = MUL.take(INVQ.take(_pick(rows, piv))[:, None] + rows)
        i = np.arange(len(rows) - 1)
        later = piv[1:] < piv[:-1]  # the window's first vertex has the later pivot
        r1, r2 = rows.take(i + later, axis=0), rows.take(i + ~later, axis=0)
        p1, p2 = piv.take(i + later), piv.take(i + ~later)
        bad = np.zeros(len(i), dtype=bool)
        tie = np.flatnonzero(p1 == p2)
        diff = ADD.take(NEGQ.take(r1[tie]) + r2[tie])
        p2[tie] = np.argmax(diff != 0, axis=1)
        lead = _pick(diff, p2[tie])
        r2[tie], bad[tie] = MUL.take(INVQ.take(lead)[:, None] + diff), lead == 0
        r1 = ADD.take(MULQ.take(NEGQ.take(_pick(r1, p2))[:, None] + r2) + r1)
        return self.rank(r1, r2, p1, p2), bad


# ``kind(dim, F)``, built once while it is among the last few in use
_ranking = functools.lru_cache(maxsize=8)(lambda kind, dim, F: kind(dim, F))


def _space(s: VertexSequence) -> _Ranking:
    """The ranking of the windows of ``s``: lines of AG(n,q), or for a
    GrassCycle planes of F_q^m."""
    return _ranking(_Planes if isinstance(s, GrassCycle) else _Lines, s.n, s.field)


def _rank_blocks(space: _Ranking, blocks: Iterable[np.ndarray],
                 wrap: bool) -> Iterator[np.ndarray]:
    """The rank of each window of the rows that ``blocks`` gives in order, a
    degenerate window's ``space.count``, one past the last target, in arrays
    of at most BLOCK_ROWS codes' windows (``row_blocks``).  Each block is
    ranked together with the row after it, once that row is read: the next
    block's first, or for the last block row 0 if ``wrap``."""
    blocks = iter(blocks)
    rows = next(blocks)
    for after in chain(blocks, [rows[:1].copy()] if wrap else [None]):
        for start, stop in row_blocks(len(rows) - (after is None), space.dim):
            # a slice of the block, but for the row after it
            if stop < len(rows):
                yield _ranked(space, rows[start : stop + 1])
            else:
                yield _ranked(space, np.concatenate([rows[start:], after[:1]]))
        rows = after


def _ranked(space: _Ranking, rows: np.ndarray) -> np.ndarray:
    ranks, bad = space.decode(rows)
    ranks[bad] = space.count
    return ranks


def window_ranks(s: VertexSequence) -> tuple[np.ndarray, _Ranking]:
    """The rank of each window of ``s`` (cyclic if ``s.wrap``), in window
    order, int32 below 2^31 targets, a degenerate one's ``space.count``; and
    ``space``, its ranking (``_space``)."""
    space = _space(s)
    ranks = np.empty(len(s) if s.wrap else len(s) - 1,
                     dtype=np.int32 if space.count < 2**31 else np.int64)
    at = 0
    for block in _rank_blocks(space, [s.codes], s.wrap):
        ranks[at : at + len(block)] = block
        at += len(block)
    return ranks, space


# -- affine oracle ------------------------------------------------------------

def all_affine_lines(n: int, F: Field) -> set[AffineLine]:
    """Every affine line of AG(n,q), unranked in closed form."""
    if n < 1:
        raise ValueError("need n >= 1")
    return set(_Lines(n, F).items(np.arange(affine_line_count(n, F.q))))


def verify_affine(c: Cycle, n: int, F: Field) -> CoverageReport:
    """Exact-coverage report of a cycle against all affine lines of AG(n,q)."""
    if c.n != n or c.field != F:
        raise ValueError("cycle does not live in AG(n,q) for the given n, q")
    return _sequence_report(c)


def verify_file(source: bytes | str | BinaryIO, field: Field | None,
                admit: Callable[[int, int], None]) -> CoverageReport:
    """Exact-coverage report of the cycle in a cycle file against all affine
    lines of its AG(n,q), read as ``cycles.decode_rows`` reads it.
    ``admit(n, q)`` checks the file's n and q before any count is made; gen's
    bytes are ranked and counted a block at a time as they are read, so that
    neither the cycle nor its ranks are held.  A refusal of ``admit`` is
    raised once the file has been read to its end, after the reader's own."""

    def consume(n: int, F: Field, count: int, blocks: Iterator[np.ndarray]) -> CoverageReport:
        try:
            admit(n, F.q)
        except ValueError:
            deque(blocks, maxlen=0)  # the reader's refusals come first
            raise
        space = _ranking(_Lines, n, F)
        return _rank_report(space, _rank_blocks(space, blocks, True), count)

    return decode_rows(source, field, consume)


def verify_subset(c: Cycle | Segment, expected: Iterable[AffineLine]) -> CoverageReport:
    """Exact-coverage report of a cycle's or a segment's windows against any
    target line set, a target given twice counting once.  Raises ValueError
    naming a target that is not a line of AG(n,q) in the canonical form."""
    n, q, lines = c.n, c.field.q, _Lines(c.n, c.field)  # refuses keys that overflow first
    rows = []
    for L in expected:
        row = tuple(L.dir.vector) + tuple(L.base)
        fits = len(L.dir.vector) == n and len(row) == 2 * n and all(0 <= x < q for x in row)
        piv = next((i for i, x in enumerate(row[:n]) if x), n)  # n for a zero direction
        if not (fits and piv < n and row[piv] == 1 and row[n + piv] == 0):
            raise ValueError(f"target {L} is not a line of AG({n},{q})")
        rows.append(row)
    d, base = np.array(rows, dtype=np.int64).reshape(-1, 2, n).transpose(1, 0, 2)
    targets = np.zeros(lines.count, dtype=bool)
    targets[lines.rank(d, base, np.argmax(d != 0, axis=1))] = True
    return _sequence_report(c, targets)


# -- Grassmannian oracle -------------------------------------------------------

def all_2subspaces(m: int, F: Field) -> set[Subspace]:
    """Every 2-subspace of F_q^m, unranked in closed form."""
    if m < 2:
        raise ValueError("need m >= 2")
    return set(_Planes(m, F).items(np.arange(gaussian_binomial_2(m, F.q))))


def verify_grassmann(gc: GrassCycle, m: int, F: Field) -> CoverageReport:
    """Exact-coverage report of a vector cycle against all 2-subspaces of F_q^m."""
    if gc.m != m or gc.field != F:
        raise ValueError("cycle does not live in F_q^m for the given m, q")
    return _sequence_report(gc)


def verify_nesting(inner: GrassCycle, outer: GrassCycle) -> bool:
    """True iff inner's vertex sequence occurs contiguously in outer, up to
    rotation of the outer cycle only (no reversal)."""
    if inner.m != outer.m:
        raise ValueError(f"ambient dimensions differ: {inner.m} vs {outer.m}")
    if inner.field != outer.field:
        raise ValueError(f"fields differ: {inner.field} vs {outer.field}")
    return occurs_cyclically(inner.codes, outer.codes)
