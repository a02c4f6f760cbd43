"""Exact-cover checks for affine-line and Grassmannian cycles.

Every check returns a CoverageReport rather than raising, so invalid cycles
produce failing reports.  The targets are enumerated in closed form, and no
construction module is imported (only gf, geometry and cycles): an affine
line of AG(n,q) is a normalized direction together with the one point of
the line whose coordinate at the direction's pivot is 0, and a plane of
F_q^m is a rank-2 RREF row pair.  One block walk decodes the windows, about
``cycles.BLOCK_ROWS`` codes at a time, from the narrow code array into one
int64 array of keys, with no per-vertex object: lines with the closed form
of ``geometry.line_from``, planes with the closed-form RREF of two rows,
each field operation one 1-D gather from a flattened table.  One packer,
``_pack``, keys the walk's windows and the canonical lines that
``verify_subset`` takes as targets.  Every check decides exact cover on
sorted int64 arrays (``_key_report``): the distinct window keys with their
counts against the ascending target keys.  The walk (``window_keys``) also
serves ``windows()`` and the gluing check.  The brute-force point-pair
oracle and a set-based report stay in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Iterable

import numpy as np

from .gf import Field
from .geometry import AffineLine, Direction, Subspace
from .cycles import Cycle, GrassCycle, Segment, VertexSequence, occurs_cyclically, row_blocks

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

        return {
            "expected_count": self.expected_count,
            "found_count": self.found_count,
            "missing": [item(x) for x in self.missing],
            "duplicated": [{"item": item(x), "count": c} for x, c in self.duplicated],
            "unexpected": [item(x) for x in self.unexpected],
            "degenerate_windows": list(self.degenerate_windows),
            "missing_total": self.missing_total,
            "duplicated_total": self.duplicated_total,
            "unexpected_total": self.unexpected_total,
            "degenerate_total": self.degenerate_total,
            "passed": self.passed,
        }


def _key_report(s: VertexSequence, expected: np.ndarray) -> CoverageReport:
    """The coverage report of a sequence's windows (``window_keys``) against
    the target keys, held in ascending order.

    ``np.unique`` gives the distinct found keys in ascending order with their
    counts, and one ``searchsorted`` marks the found keys that are targets
    and the targets that are found.  Only the entries kept after truncation
    leave numpy, as plain ints, and become report entries.
    """
    keys, degenerate, item = window_keys(s)
    found_count = len(keys) + len(degenerate)
    found, counts = np.unique(keys, return_counts=True)
    del keys  # the distinct keys stand for them from here on
    at = np.searchsorted(expected, found)
    known = at < len(expected)  # none when there are no targets
    known[known] = expected[at[known]] == found[known]
    present = np.zeros(len(expected), dtype=bool)
    present[at[known]] = True
    missing, unexpected = expected[~present], found[~known]
    twice = counts > 1
    duplicated_total = int(np.count_nonzero(twice))
    head = lambda a: a[:MAX_REPORT_ITEMS].tolist()
    return CoverageReport(
        expected_count=len(expected),
        found_count=found_count,
        missing=[item(k) for k in head(missing)],
        duplicated=[(item(k), c) for k, c in zip(head(found[twice]), head(counts[twice]))],
        unexpected=[item(k) for k in head(unexpected)],
        degenerate_windows=degenerate[:MAX_REPORT_ITEMS],
        missing_total=len(missing),
        duplicated_total=duplicated_total,
        unexpected_total=len(unexpected),
        degenerate_total=len(degenerate),
        # with none of these, the distinct keys are the targets, each once
        passed=not (len(missing) or duplicated_total or len(unexpected) or degenerate),
    )


# -- packed integer keys ---------------------------------------------------------
#
# A key packs two vectors of length dim as code(u)·q^dim + code(v), where
# code is the base-q value with the first coordinate most significant, so
# the numeric order of keys is the (u, v) tuple order.  A line of AG(n,q)
# packs its direction and base point, a plane of F_q^m its two RREF rows.

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


def _pack(u: np.ndarray, v: np.ndarray, q: int) -> np.ndarray:
    """The int64 keys code(u)·q^dim + code(v) of row pairs ``key_radix`` passed."""
    weights = q ** np.arange(u.shape[1] - 1, -1, -1, dtype=np.int64)
    return u @ (weights * q ** u.shape[1]) + v @ weights


def _digits(x: int, n: int, q: int) -> tuple[int, ...]:
    """The n base-q digits of x, most significant first."""
    out = []
    for _ in range(n):
        x, r = divmod(x, q)
        out.append(r)
    return tuple(reversed(out))


def _all_line_keys(n: int, F: Field) -> np.ndarray:
    """Packed keys of every line of AG(n,q), ascending.

    Directions with pivot i have codes in [q^(n-1-i), 2·q^(n-1-i)), and
    their canonical bases are the points whose coordinate i is 0.  Later
    pivots have smaller direction codes, so emitting pivots from last to
    first keeps the keys sorted.
    """
    if n < 1:
        raise ValueError("need n >= 1")
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


def _flat_tables(F: Field) -> tuple:
    """The field tables for 1-D gathers: add and mul flattened, in the
    field's dtype, so ``ADD.take(x * q + y)`` is x + y; and mul, neg and inv
    as intp with every entry pre-scaled by q, so that what they return is
    ready to be the first operand of the next gather."""
    add, mul, neg, inv = F.arrays
    q = F.q
    scaled = np.multiply(np.concatenate([mul.ravel(), neg, inv]), q, dtype=np.intp)
    return add.ravel(), mul.ravel(), scaled[: q * q], scaled[q * q : -q], scaled[-q:]


def _walk_keys(kind: str, s: VertexSequence, arrays: tuple, decode: Callable) -> tuple:
    """Packed ``kind`` keys of the decodable windows of ``s``, cyclic if
    ``s.wrap``, in window order, and the indices of the degenerate ones.

    The windows are walked in blocks of ``row_blocks(count, dim)``, about
    BLOCK_ROWS codes each, so the temporaries stay cache-sized.  ``decode``
    takes a block's rows of ``arrays``, in their own dtypes, and the row
    after its last window (row 0 for the wrap window); it returns the two
    vectors of each window's key and the degenerate mask."""
    N, dim = arrays[0].shape
    count = N if s.wrap else N - 1
    key_radix(kind, dim, s.field.q)
    keys = np.empty(count, dtype=np.int64)
    degenerate, filled = [], 0
    for start, stop in row_blocks(count, dim):
        # the next rows are a slice; only the wrap window's is row 0
        rows = [x[start : stop + 1] if stop < N else np.concatenate([x[start:], x[:1]])
                for x in arrays]
        u, v, bad = decode(*rows)
        packed = _pack(u, v, s.field.q)
        if bad.any():
            degenerate += (np.flatnonzero(bad) + start).tolist()
            packed = packed[~bad]
        keys[filled : filled + len(packed)] = packed
        filled += len(packed)
    return keys[:filled], degenerate


def _pick(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """rows[k, cols[k]] for every row k of cols, as one gather from the flat rows."""
    return rows.ravel().take(np.arange(0, len(cols) * rows.shape[1], rows.shape[1]) + cols)


def _window_keys(c: Cycle | Segment) -> tuple[np.ndarray, list[int]]:
    """Packed line keys of a cycle's or a segment's decodable windows, and
    the indices of the degenerate ones (two points at infinity, or one
    affine point twice).

    The same closed form as ``geometry.line_from``: the direction is the
    window's vertex at infinity, normalized since ``Cycle`` checks it, or
    else b - a, normalized; then base[piv]·d is subtracted from the base.
    """
    ADD, MUL, MULQ, NEGQ, INVQ = _flat_tables(c.field)

    def decode(rows, inf):
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
        at = _pick(pt, np.argmax(d != 0, axis=1))
        return d, ADD.take(MULQ.take(NEGQ.take(at)[:, None] + d) + pt), bad

    return _walk_keys("line", c, (c.codes, c.at_infinity), decode)


def _unpack_line_key(key: int, n: int, F: Field) -> AffineLine:
    dkey, bkey = divmod(key, F.q**n)
    return AffineLine(Direction(_digits(dkey, n, F.q)), _digits(bkey, n, F.q))


# -- affine oracle ------------------------------------------------------------

def all_affine_lines(n: int, F: Field) -> set[AffineLine]:
    """Every affine line of AG(n,q), enumerated in closed form."""
    return {_unpack_line_key(k, n, F) for k in _all_line_keys(n, F).tolist()}


def verify_affine(c: Cycle, n: int, F: Field) -> CoverageReport:
    """Exact-coverage report of a cycle against all affine lines of AG(n,q)."""
    if c.n != n or c.field != F:
        raise ValueError("cycle does not live in AG(n,q) for the given n, q")
    return _key_report(c, _all_line_keys(n, F))


def verify_subset(c: Cycle | Segment, expected: Iterable[AffineLine]) -> CoverageReport:
    """Exact-coverage report of a cycle's or a segment's windows against any
    target line set, a target given twice counting once.  Raises ValueError
    naming a target that is not a line of AG(n,q) in the canonical form."""
    n, q = c.n, c.field.q
    key_radix("line", n, q)  # before any target key is packed
    rows = []
    for L in expected:
        row = tuple(L.dir.vector) + tuple(L.base)
        fits = len(L.dir.vector) == n and len(row) == 2 * n and all(0 <= x < q for x in row)
        piv = next((i for i, x in enumerate(row[:n]) if x), n)  # n for a zero direction
        if not (fits and piv < n and row[piv] == 1 and row[n + piv] == 0):
            raise ValueError(f"target {L} is not a line of AG({n},{q})")
        rows.append(row)
    rows = np.array(rows, dtype=np.int64).reshape(-1, 2 * n)
    keys = _pack(rows[:, :n], rows[:, n:], q)
    return _key_report(c, np.unique(keys, return_counts=True)[0])  # a plain one imports numpy.ma


# -- Grassmannian oracle -------------------------------------------------------

def all_2subspaces(m: int, F: Field) -> set[Subspace]:
    """Every 2-subspace of F_q^m, enumerated in closed form."""
    return {_unpack_plane_key(k, m, F) for k in _all_plane_keys(m, F).tolist()}


def _all_plane_keys(m: int, F: Field) -> np.ndarray:
    """Packed keys of every 2-subspace of F_q^m, ascending.

    For pivots i < j, row 1 is e_i plus any entries right of i except at j,
    and row 2 is e_j plus any entries right of j.
    """
    if m < 2:
        raise ValueError("need m >= 2")
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


def _plane_keys(gc: GrassCycle) -> tuple[np.ndarray, list[int]]:
    """Packed plane keys of a vector cycle's windows, and the indices of the
    degenerate ones (two proportional vectors, which span no plane).

    The closed-form RREF of two rows: pivot on the first column where
    either vector is nonzero, with a row nonzero there first; normalize that
    row and clear the column from the other, which is then zero iff the
    window is degenerate.  Otherwise normalize the second row at its own
    pivot and clear that column from the first.
    """
    ADD, MUL, MULQ, NEGQ, INVQ = _flat_tables(gc.field)

    def decode(rows):
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
        return r1, r2, lead == 0

    return _walk_keys("plane", gc, (gc.codes,), decode)


def _unpack_plane_key(key: int, m: int, F: Field) -> Subspace:
    row1, row2 = divmod(key, F.q**m)
    return Subspace((_digits(row1, m, F.q), _digits(row2, m, F.q)))


def window_keys(s: VertexSequence) -> tuple[np.ndarray, list[int], Callable]:
    """``_window_keys(s)`` or, for a GrassCycle, ``_plane_keys(s)``, and the
    unpacking of a key into its AffineLine or Subspace."""
    if isinstance(s, GrassCycle):
        return (*_plane_keys(s), lambda k: _unpack_plane_key(k, s.m, s.field))
    return (*_window_keys(s), lambda k: _unpack_line_key(k, s.n, s.field))


def verify_grassmann(gc: GrassCycle, m: int, F: Field) -> CoverageReport:
    """Exact-coverage report of a vector cycle against all 2-subspaces of F_q^m."""
    if gc.m != m or gc.field != F:
        raise ValueError("cycle does not live in F_q^m for the given m, q")
    return _key_report(gc, _all_plane_keys(m, F))


def verify_nesting(inner: GrassCycle, outer: GrassCycle) -> bool:
    """True iff inner's vertex sequence occurs contiguously in outer, up to
    rotation of the outer cycle only (no reversal)."""
    if inner.m != outer.m:
        raise ValueError(f"ambient dimensions differ: {inner.m} vs {outer.m}")
    return occurs_cyclically(inner.codes, outer.codes)
