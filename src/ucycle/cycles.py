"""Double-window cycles and segments, window extraction, gluing, and the
canonical codec.

A cycle is a cyclic vertex sequence over the projective closure whose
consecutive windows (including the wrap-around) decode to pairwise distinct
affine lines; a segment is the open variant with two distinct endpoints.
Both, and grassmann.GrassCycle, are immutable VertexSequences: one code
array in the field's dtype (plus, for cycles and segments, an at-infinity
mask), the only representation, each rule checked once over the arrays; a
vertex list is only converted to them, and the vertex tuple is built from
them on first use.  Their windows are decoded by the verifier's key walk
(``verify.window_keys``).  Rotation, reversal, gluing, translation and
linear maps work on the arrays.  One generator, ``encode_blocks``, writes
every text form from the arrays in blocks of BLOCK_ROWS rows, a token of
precomputed text for each row or group of codes.  ``decode_cycle`` reads
gen's bytes block by block, each parsed by numpy and checked by encoding it
back; any other input is read as a UTF-8 text file, by ``json.loads`` and
``cycle_from_json_obj`` or by lines.
"""

from __future__ import annotations

import io
import json
import re
import warnings
from collections import Counter, defaultdict
from itertools import product, repeat
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from .gf import Field, field_from_order
from .geometry import DegenerateWindowError, ProjVertex, dots, rank


class GluingError(ValueError):
    """A gluing precondition (shared vertex, parity, connectivity, transversality) failed."""


def occurs_cyclically(seq: np.ndarray, cycle: np.ndarray) -> bool:
    """True iff the rows of seq occur contiguously in some rotation of the
    rows of cycle (no reversal); rows of different lengths never match."""
    seq, cycle = np.asarray(seq), np.asarray(cycle)
    if len(seq) > len(cycle) or seq.shape[1:] != cycle.shape[1:]:
        return False
    if len(seq) == 0:
        return True
    window = np.arange(len(seq))
    return any(
        np.array_equal(cycle.take(window + i, axis=0, mode="wrap"), seq)
        for i in np.flatnonzero(_row_hits(cycle, seq[0]))
    )


def _row_hits(rows: np.ndarray, row: Sequence[int]) -> np.ndarray:
    """Bool mask of the rows equal to ``row``; all False when the lengths differ."""
    if len(row) != rows.shape[1]:
        return np.zeros(len(rows), dtype=bool)
    return (rows == np.asarray(row)).all(axis=1)


def _int_rows(rows: Sequence, q: int) -> tuple[np.ndarray, ValueError | None]:
    """``rows`` as one int64 (N, n) array and None, by one ``np.array`` when
    they are plain integers; else scanned up to the first row that is not n
    long (n the first row's) or has a code neither an int64 nor equal to an
    integer in [0, q): the rows before it and the ValueError naming it."""
    try:
        a = np.array(rows)
        if a.dtype == np.int64 and a.ndim == 2:
            return a, None
    except (ValueError, TypeError, OverflowError):
        pass
    n, in_field, fault = len(rows[0]) if rows else 0, frozenset(range(q)), None
    for i, r in enumerate(rows):
        if len(r) != n:
            fault = ValueError(f"vertex {i} has dimension {len(r)}, expected {n}")
        elif not in_field.issuperset(r) and not all(
            type(x) is int and -(2**63) <= x < 2**63 for x in r
        ):
            fault = ValueError(f"vertex {i} has codes outside [0, {q})")
        if fault is not None:
            rows = rows[:i]
            break
    return np.array([list(map(int, r)) for r in rows], dtype=np.int64).reshape(len(rows), n), fault


class VertexSequence:
    """Vertex sequence over a field: at least 2 vertices, all of one
    dimension n >= 1, every coordinate a code in [0, q).

    The vertices are stored as arrays, ``codes`` first: one row of
    coordinates per vertex, in the field's dtype once checked.  The arrays
    are the only representation: ``vertices`` is the tuple view, built from
    them on first use, and the checks run once, vectorized over them.

    Vertices are coordinate tuples unless a subclass adds arrays
    (``_array_names``) and states how vertices convert to them (``_arrays``)
    and back (``_view``).  Every subclass states its rule over the arrays
    (``_rule_fails``, the mask of the vertices that break it) and its wording
    for vertex i (``_rule``) and, in ``wrap``, whether the last vertex pairs
    with the first.
    """

    __slots__ = ("field", "n", "codes", "_vertices")
    wrap = True
    _array_names: tuple[str, ...] = ("codes",)

    def __init__(self, vertices: Iterable, field: Field):
        vertices = tuple(vertices)
        if len(vertices) < 2:
            raise ValueError("need at least 2 vertices")
        arrays, fault = self._arrays(vertices, field.q)
        if fault is not None:
            if len(arrays[0]):  # the vertices before it are checked first, by the vertex rules
                VertexSequence._set_arrays(self, arrays, field)
            raise fault
        self._set_arrays(arrays, field)

    @classmethod
    def _from_arrays(cls, field: Field, *arrays: np.ndarray):
        """A sequence over ``field`` whose vertex view is built on first use."""
        self = cls.__new__(cls)
        if len(arrays[0]) < 2:
            raise ValueError("need at least 2 vertices")
        self._set_arrays(arrays, field)
        return self

    def _set_arrays(self, arrays: Sequence[np.ndarray], field: Field) -> None:
        """Check the arrays and keep them, or raise for the first vertex that
        breaks the rule or has a code outside [0, q), the rule named first."""
        for name, a in zip(self._array_names, arrays):
            setattr(self, name, a)
        self.field, self.n, self._vertices = field, self.codes.shape[1], None
        if self.n < 1:
            raise ValueError("vertices need dimension >= 1")
        q, codes, bad = field.q, self.codes, self._rule_fails()
        if codes.min() < 0 or codes.max() >= q:  # only then are the rows looked for
            i = int(np.argmax(bad | ((codes < 0) | (codes >= q)).any(axis=1)))
            if not bad[i]:
                raise ValueError(f"vertex {i} has codes outside [0, {q})")
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(self._rule.format(i=i, v=tuple(codes[i].tolist())))
        self.codes = codes.astype(field.arrays[0].dtype, copy=False)

    @staticmethod
    def _arrays(vertices: tuple, q: int) -> tuple[tuple[np.ndarray], Exception | None]:
        """The vertices' arrays and None; or, when a vertex is no row, the
        arrays of the vertices before it and the error that names it."""
        codes, fault = _int_rows(vertices, q)
        return (codes,), fault

    def _view(self, start: int, stop: int) -> tuple:
        return tuple(map(tuple, self.codes[start:stop].tolist()))

    @property
    def vertices(self) -> tuple:
        if self._vertices is None:
            self._vertices = self._view(0, len(self))
        return self._vertices

    def __len__(self):
        return len(self.codes)

    def windows(self) -> Counter:
        """Multiset of decoded windows; raises DegenerateWindowError with the
        index of the first window that does not decode, and ValueError when
        the packed keys would overflow an int64 (``verify.key_radix``)."""
        from .verify import window_keys  # verify imports this module

        keys, degenerate, unpack = window_keys(self)
        if degenerate:
            i = degenerate[0]
            raise DegenerateWindowError(f"window {i} does not determine a line", index=i)
        return Counter(map(unpack, keys.tolist()))

    def __repr__(self):
        return f"{type(self).__name__}({len(self)} vertices over {self.field!r}, n={self.n})"


class _ProjectiveSequence(VertexSequence):
    """Vertices of the projective closure (ProjVertex); ``at_infinity`` is
    the bool mask of the vertices at infinity."""

    __slots__ = ("at_infinity",)
    _array_names = ("codes", "at_infinity")
    _rule = "vertex {i}: infinity vector {v} not normalized"

    @staticmethod
    def _arrays(vertices: tuple, q: int) -> tuple[tuple[np.ndarray, np.ndarray], Exception | None]:
        projective = list(map(isinstance, vertices, repeat(ProjVertex)))
        k = projective.index(False) if False in projective else len(vertices)
        codes, fault = _int_rows(list(map(itemgetter(1), vertices[:k])), q)
        if fault is None and k < len(vertices):
            fault = TypeError(f"vertex {k} is not a ProjVertex")
        flags = map(bool, map(itemgetter(0), vertices[: len(codes)]))
        return (codes, np.fromiter(flags, dtype=bool, count=len(codes))), fault

    def _view(self, start: int, stop: int) -> tuple:
        flags, rows = self.at_infinity[start:stop].tolist(), self.codes[start:stop].tolist()
        return tuple(map(ProjVertex, flags, map(tuple, rows)))

    def _rule_fails(self) -> np.ndarray:
        # a vector at infinity must have 1 as its first nonzero code, checked a block at a time
        bad = np.empty(len(self), dtype=bool)
        for start, stop in row_blocks(len(self)):
            rows = self.codes[start:stop]
            lead = np.take_along_axis(rows, np.argmax(rows != 0, axis=1)[:, None], axis=1)
            bad[start:stop] = self.at_infinity[start:stop] & (lead[:, 0] != 1)
        return bad


class Cycle(_ProjectiveSequence):
    """Cyclic double-window vertex sequence."""

    __slots__ = ()


class Segment(_ProjectiveSequence):
    """Open double-window vertex sequence with distinct endpoints."""

    __slots__ = ()
    wrap = False

    def _set_arrays(self, arrays: Sequence[np.ndarray], field: Field) -> None:
        super()._set_arrays(arrays, field)
        if self.at_infinity[0] == self.at_infinity[-1] and (self.codes[0] == self.codes[-1]).all():
            raise ValueError("segment endpoints must be distinct")

    def reversed(self) -> "Segment":
        return Segment._from_arrays(self.field, self.codes[::-1], self.at_infinity[::-1])


def rotate(c: Cycle, k: int) -> Cycle:
    return Cycle._from_arrays(c.field, *(np.roll(a, -k, axis=0) for a in (c.codes, c.at_infinity)))


def _check_parts(glued: Cycle, part: np.ndarray, index: np.ndarray) -> None:
    """Raise what checking the parts one by one, in input order, would: at the
    first part with a fault, DegenerateWindowError at its window's index in
    it, or GluingError for its first line an earlier part has, or for a line
    it repeats.  ``part`` and ``index`` give each vertex of ``glued`` its
    part's input index and its index there, that of the window it starts: a
    spliced cycle's windows are its parts', so one key walk decides them."""
    from .verify import window_keys  # verify imports this module

    keys, degenerate, unpack = window_keys(glued)
    good = np.ones(len(glued), dtype=bool)
    good[degenerate] = False
    order = np.lexsort((index[good], part[good], keys))
    k, p, i = keys[order], part[good][order], index[good][order]
    # a key met before in (key, part, index) order: an earlier part's line, or a repeat
    again = np.flatnonzero(k[1:] == k[:-1]) + 1
    bad = np.array(degenerate, dtype=np.int64)
    faults = np.concatenate([
        np.column_stack([part[bad], 0 * bad, index[bad], 0 * bad]),
        np.column_stack([p[again], np.where(p[again] == p[again - 1], 2, 1), i[again], k[again]]),
    ])
    if len(faults) == 0:
        return
    at, fault, j, key = faults[np.lexsort(faults.T[::-1])[0]].tolist()
    if fault == 0:
        raise DegenerateWindowError(f"window {j} does not determine a line", index=j)
    if fault == 1:
        raise GluingError(f"part {at} shares line {unpack(key)} with an earlier part")
    raise GluingError(f"part {at} repeats a line and is not a valid structure")


def splice(
    parts: Sequence[Sequence[np.ndarray]], hits: Sequence[np.ndarray], at
) -> list[np.ndarray]:
    """Concatenate the parts in input order, the arrays of each rotated to
    start at its first hit, the first occurrence of the vertex ``at``."""
    starts = []
    for idx, h in enumerate(hits):
        if not h.any():
            raise GluingError(f"cycle {idx} does not contain the splice vertex {at}")
        starts.append(int(np.argmax(h)))
    return [
        np.concatenate([a for p, i in zip(parts, starts) for a in (p[k][i:], p[k][:i])])
        for k in range(len(parts[0]))
    ]


def glue_cycles(cs: Sequence[Cycle], at: ProjVertex, check: bool = True) -> Cycle:
    """Splice transversal cycles sharing the vertex ``at`` into one cycle.

    The window multiset of the result is exactly the disjoint union of the
    inputs'.  ``check`` verifies that the inputs are valid and transversal
    (``_check_parts``); callers whose parts are so by construction pass False.
    """
    if not cs:
        raise GluingError("nothing to glue")
    hits = [_row_hits(c.codes, at.coords) & (c.at_infinity == at.at_infinity) for c in cs]
    arrays = splice([(c.codes, c.at_infinity) for c in cs], hits, at)
    glued = Cycle._from_arrays(cs[0].field, *arrays)
    if check:
        labels = [(np.full(len(c), i), np.arange(len(c))) for i, c in enumerate(cs)]
        _check_parts(glued, *splice(labels, hits, at))
    return glued


def glue_segments(ss: Sequence[Segment]) -> Cycle:
    """Concatenate transversal segments with even endpoint multiplicities.

    Treats each segment as an edge of a multigraph on its two endpoints and
    walks an Eulerian circuit (Hierholzer, deterministic edge order given by
    the input order); traversing a segment tail-to-head reverses it.  Raises
    GluingError if some endpoint multiplicity is odd, the endpoint graph is
    disconnected (with even degrees, iff the walk leaves a segment unused),
    or the segments are not valid and transversal, in that order.
    """
    if not ss:
        raise GluingError("nothing to glue")

    ends = [[ProjVertex(bool(s.at_infinity[j]), tuple(s.codes[j].tolist())) for j in (0, -1)]
            for s in ss]
    adj: dict[ProjVertex, list[tuple[int, ProjVertex]]] = defaultdict(list)
    for i, (a, b) in enumerate(ends):
        adj[a].append((i, b))
        adj[b].append((i, a))
    odd = [v for v, edges in adj.items() if len(edges) % 2]
    if odd:
        raise GluingError(f"odd endpoint multiplicity at {min(odd)}")

    # Hierholzer with per-vertex cursors; deterministic for a fixed input order.
    start = ends[0][0]
    used = [False] * len(ss)
    cursor: dict[ProjVertex, int] = defaultdict(int)
    stack: list[tuple[ProjVertex, int]] = [(start, -1)]
    trail: list[tuple[ProjVertex, int]] = []
    while stack:
        v, _ = stack[-1]
        lst = adj[v]
        advanced = False
        while cursor[v] < len(lst):
            eid, w = lst[cursor[v]]
            cursor[v] += 1
            if not used[eid]:
                used[eid] = True
                stack.append((w, eid))
                advanced = True
                break
        if not advanced:
            trail.append(stack.pop())
    if not all(used):
        raise GluingError("endpoint-incidence graph is disconnected")
    trail.reverse()

    rows, labels = [], []
    prev = start
    for v, eid in trail[1:]:
        s, step = ss[eid], 1 if ends[eid][0] == prev else -1
        rows.append((s.codes[::step][:-1], s.at_infinity[::step][:-1]))
        # read from its tail, a segment's window j is its window len - 2 - j
        labels.append((np.full(len(s) - 1, eid), np.arange(len(s) - 1)[::step]))
        prev = v
    glued = Cycle._from_arrays(ss[0].field, *map(np.concatenate, zip(*rows)))
    _check_parts(glued, *map(np.concatenate, zip(*labels)))
    return glued


def translate(c: Cycle, t: Sequence[int]) -> Cycle:
    """Shift every affine vertex by t; points at infinity are unchanged."""
    t = tuple(t)
    if len(t) != c.n:
        raise ValueError(f"translation vector has dimension {len(t)}, cycle has {c.n}")
    bad = [x for x in t if not 0 <= x < c.field.q]
    if bad:
        raise ValueError(f"translation vector entry {bad[0]} is outside [0, {c.field.q})")
    add = c.field.arrays[0]
    codes = add[c.codes, ~c.at_infinity[:, None] * np.array(t)]
    return Cycle._from_arrays(c.field, codes, c.at_infinity)


def map_linear(c: Cycle, M: Sequence[Sequence[int]]) -> Cycle:
    """Apply an injective linear map, given as a tuple of rows.

    Affine vertices map through M; infinity vertices map through the induced
    projective action (normalize M * vector).  M must have full column rank,
    so square singular maps are rejected.
    """
    F = c.field
    M = tuple(tuple(row) for row in M)
    if any(len(row) != c.n for row in M):
        raise ValueError("matrix column count must match the cycle dimension")
    bad = [x for row in M for x in row if not 0 <= x < F.q]
    if bad:
        raise ValueError(f"matrix entry {bad[0]} is outside [0, {F.q})")
    if rank(M, F) != c.n:
        raise ValueError("matrix is singular (not injective)")
    _, mul, _, inv = F.arrays
    img = dots(np.array(M), c.codes[:, None], F)
    # an injective image of a nonzero vector is nonzero: scale by its lead inverse
    inf = c.at_infinity
    lead = img[np.arange(len(img)), np.argmax(img != 0, axis=1)]
    img[inf] = mul[inv[lead[inf]][:, None], img[inf]]
    return Cycle._from_arrays(F, img, inf)


# -- serialization -----------------------------------------------------------

SCHEMA_VERSION = 1
BLOCK_ROWS = 2**16  # rows per block of the codec, codes per block of verify's window walks


def row_blocks(count: int, width: int = 1) -> Iterator[tuple[int, int]]:
    """(start, stop) of each block out of ``count`` rows of ``width`` codes:
    BLOCK_ROWS codes a block, or one row when a row is wider."""
    size = max(1, BLOCK_ROWS // width)
    return ((s, min(s + size, count)) for s in range(0, count, size))


def _token_width(count: int, n: int, q: int) -> int:
    """The codes in a token of ``encode_blocks`` for ``count`` rows of n codes
    in [0, q): the largest g <= n with q^g <= count/8 and q^g <= 2^16, or 1."""
    g = 1
    while g < n and 8 * q ** (g + 1) <= count and q ** (g + 1) <= 2**16:
        g += 1
    return g


def encode_blocks(codes: np.ndarray, kinds: np.ndarray | None, q: int, head: str,
                  first: Sequence[str], sep: str, last: Sequence[str], tail: str) -> Iterator[str]:
    """``head``, then the rows of the code array, each block of BLOCK_ROWS
    rows read when it is asked for.  A row is its codes joined by ``sep``
    between ``first[k]`` and ``last[k]``, for k the row's entry of the mask
    ``kinds`` when two kinds are given, else 0; ``tail`` replaces the last
    character of the last row, the separator between rows.

    A row is written as tokens of g codes each (``_token_width``), the last
    group of a row taking what is left, whole rows when g reaches n.  Each
    token is a precomputed string that holds its codes and whatever of the
    row's ends and separators lies beside them, one table of q^g strings or
    fewer for each kind and group: at most N/8 and 2^16, so the table costs
    a fraction of the encode."""
    N, n = codes.shape
    g = _token_width(N, n, q)
    groups = [(a, min(a + g, n)) for a in range(0, n, g)]
    # each kind's and group's strings in the order of the group's base-q
    # value, the first code most significant, made one at a time (no list of
    # partial strings lives beside them, so their memory is freed whole)
    digits = list(map(str, range(q)))
    table = np.array([(pre if a == 0 else "") + sep.join(v) + (post if b == n else sep)
                      for pre, post in zip(first, last) for a, b in groups
                      for v in product(digits, repeat=b - a)], dtype=object)
    # a token's number in the table: its kind's and group's offset plus codes @ value
    value = np.zeros((n, len(groups)), dtype=np.uint32)
    for k, (a, b) in enumerate(groups):
        value[a:b, k] = q ** np.arange(b - a - 1, -1, -1)
    sizes = [q ** (b - a) for a, b in groups]
    offset, per_kind = np.cumsum([0] + sizes[:-1]), sum(sizes)
    yield head
    for start, stop in row_blocks(N):
        kind = kinds[start:stop, None] * per_kind if len(first) > 1 else 0
        tokens = table.take(codes[start:stop] @ value + (offset + kind)).ravel().tolist()
        if stop == N:
            tokens[-1] = tokens[-1][:-1] + tail
        yield "".join(tokens)


def cycle_to_json_obj(c: Cycle) -> dict:
    """The JSON object of a cycle; ``cycle_to_json`` writes its bytes."""
    return {
        "schema_version": SCHEMA_VERSION,
        "n": c.n,
        "q": c.field.q,
        "vertices": [
            {"type": "infinity" if v.at_infinity else "affine", "coords": list(v.coords)}
            for v in c.vertices
        ],
    }


def cycle_blocks(c: Cycle, fmt: str = "json") -> Iterator[str]:
    """``cycle_to_json(c)``, or ``cycle_to_text(c)`` for fmt "text", in blocks."""
    return _array_blocks(c.codes, c.at_infinity, c.field.q, fmt)


def _array_blocks(codes: np.ndarray, at_infinity: np.ndarray, q: int, fmt: str) -> Iterator[str]:
    """``cycle_blocks`` of the cycle over GF(q) with these arrays."""
    if fmt == "text":
        return encode_blocks(codes, at_infinity, q, "", ("A ", "I "), " ", ("\n", "\n"), "\n")
    head = f'{{"n":{codes.shape[1]},"q":{q},"schema_version":{SCHEMA_VERSION},"vertices":['
    kinds = ('],"type":"affine"},', '],"type":"infinity"},')
    return encode_blocks(codes, at_infinity, q, head, ('{"coords":[',) * 2, ",", kinds, "]}\n")


def cycle_to_json(c: Cycle) -> str:
    """``cycle_to_json_obj(c)`` as compact JSON with sorted keys and a final
    newline, written from the arrays."""
    return "".join(cycle_blocks(c))


def cycle_from_json_obj(obj: dict) -> Cycle:
    try:
        n = int(obj["n"])
        q = int(obj["q"])
        raw = obj["vertices"]
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ValueError(f"malformed cycle object: {e}") from None
    if not isinstance(raw, list):
        raise ValueError("malformed cycle object: 'vertices' is not a list")
    F = field_from_order(q)
    verts = []
    for i, item in enumerate(raw):
        try:
            kind = item["type"]
            coords = tuple(int(x) for x in item["coords"])
        except (KeyError, TypeError, ValueError, OverflowError):
            raise ValueError(f"malformed vertex {i}: {item!r}") from None
        if kind not in ("affine", "infinity") or len(coords) != n:
            raise ValueError(f"malformed vertex {i}: {item!r}")
        verts.append(ProjVertex(kind == "infinity", coords))
    return Cycle(verts, F)


_JSON_HEAD = re.compile(
    rb'\{"n":([0-9]+),"q":([0-9]+),"schema_version":%d,"vertices":\[' % SCHEMA_VERSION
)
_TO_NUMBERS = {fmt: (bytes.maketrans(old, new), bytes(set(range(256)) - set(b"0123456789" + old)))
               for fmt, old, new in (("json", b",ya", b",10"), ("text", b"AI \n", b"01,,"))}


def _canonical(ok: bool) -> None:
    if not ok:
        raise ValueError("not the canonical byte form")


def _canonical_cycle(data: bytes | str, field: Field | None = None) -> Cycle:
    """The cycle that ``cycle_to_json``, or given its field ``cycle_to_text``,
    writes as ``data``.  The rows are counted (the ``{`` past the head, or
    the lines) and read into preallocated arrays a block at a time: a
    translate keeps the digits and turns separators into commas, and numpy
    parses the rows.  A JSON row reads its codes, then 10 (affine: the y of
    "type", the a of "affine") or 11; a text row reads 0 (A) or 1 (I), then
    its codes, n being the spaces on its first line.  Raises ValueError, or
    the parse's warning, at the first block that encodes differently."""
    data = data.encode("ascii") if isinstance(data, str) else data
    fmt, kind, inf = ("json", -1, 11) if field is None else ("text", 0, 1)
    if field is None:
        nq = _JSON_HEAD.match(data)
        _canonical(nq is not None)
        n, field, count = int(nq[1]), field_from_order(int(nq[2])), data.count(b"{") - 1
    else:
        n, count = data.count(b" ", 0, data.find(b"\n")), data.count(b"\n")
    q = field.q
    _canonical(n >= 1 and 2 * n * count <= len(data))  # a code takes a digit and a separator
    width = n * (len(str(q)) + 1) + 33  # bytes of the longest row, JSON's last
    cols = slice(1 + kind, n + 1 + kind)  # the codes, beside the kind column
    codes, at_infinity = np.empty((count, n), field.arrays[0].dtype), np.empty(count, bool)
    blocks = map(str.encode, _array_blocks(codes, at_infinity, q, fmt))
    # a head the regex matched but with leading zeros is longer: the rows' compare fails
    at = len(next(blocks))
    for start, stop in row_blocks(count):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chunk = data[at : at + (stop - start) * width].translate(*_TO_NUMBERS[fmt])
            rows = np.fromstring(chunk, dtype=np.int64, sep=",", count=(stop - start) * (n + 1))
        rows = rows.reshape(-1, n + 1)
        _canonical(rows[:, cols].min() >= 0 and rows[:, cols].max() < q)  # before narrowing
        codes[start:stop], at_infinity[start:stop] = rows[:, cols], rows[:, kind] == inf
        del chunk, rows  # each block's temporaries go before the next block's come
        block = next(blocks)
        _canonical(data.startswith(block, at))
        at += len(block)
        del block
    _canonical(at == len(data))
    return Cycle._from_arrays(field, codes, at_infinity)


def file_text(data: bytes) -> str:
    """``data`` as a UTF-8 text file reads, newlines and errors alike."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()


def decode_cycle(data: bytes | str, field: Field | None) -> Cycle:
    """The cycle in JSON (no ``field``) or text, or in a file's bytes read as
    ``file_text`` reads them: gen's bytes by ``_canonical_cycle``, anything
    else by the format's general route, which words every refusal:
    ``json.loads`` and ``cycle_from_json_obj``, or ``_cycle_from_lines``."""
    try:
        return _canonical_cycle(data, field)
    except (ValueError, Warning):
        pass
    if isinstance(data, bytes):
        crlf, data = b"\r" in data, file_text(data)
        if crlf:  # its line ends may be all that differed from gen's bytes
            return decode_cycle(data, field)
    if field is not None:
        return _cycle_from_lines(data, field)
    try:
        obj = json.loads(data)
    except RecursionError:
        raise ValueError("cycle JSON is nested too deeply") from None
    return cycle_from_json_obj(obj)


def cycle_from_json(text: str | bytes) -> Cycle:
    """The inverse of ``cycle_to_json``, for JSON text or a file's bytes."""
    return decode_cycle(text, None)


def cycle_to_text(c: Cycle) -> str:
    """One vertex per line: ``A c1 c2 ...`` or ``I c1 c2 ...`` integer codes."""
    return "".join(cycle_blocks(c, "text"))


def cycle_from_text(text: str | bytes, field: Field) -> Cycle:
    """The inverse of ``cycle_to_text`` over ``field``, for text or a file's bytes."""
    return decode_cycle(text, field)


def _cycle_from_lines(text: str, field: Field) -> Cycle:
    """One vertex per line; blank lines and ``#`` comments are skipped."""
    verts = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] not in ("A", "I"):
            raise ValueError(f"line {lineno}: expected A or I, got {parts[0]!r}")
        coords = tuple(int(x) for x in parts[1:])
        if any(not 0 <= x < field.q for x in coords):
            raise ValueError(f"line {lineno}: codes outside [0, {field.q})")
        verts.append(ProjVertex(parts[0] == "I", coords))
    return Cycle(verts, field)
