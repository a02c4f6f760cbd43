"""Double-window cycles and segments, Grassmannian cycles, window
extraction, gluing, and the canonical codec.

A cycle is a cyclic vertex sequence over the projective closure whose
consecutive windows (including the wrap-around) decode to pairwise distinct
affine lines; a segment is the open variant with two distinct endpoints; a
GrassCycle is a cyclic sequence of nonzero vectors whose windows span
distinct planes.  All are immutable VertexSequences: one code array in the
field's dtype, the only representation, each rule checked once over it.  A
cycle or segment over AG(n,q) is its homogeneous coordinates in PG(n,q),
(x, 1) for an affine point x and (d, 0) for a direction d, so its rows are
n + 1 codes wide.  A vertex list is only converted to the array, and the
vertex tuple is built from it on first use.  The verifier's rank walk
(``verify.window_ranks``) decodes their windows to one rank each, a
degenerate one's ``space.count``.  Rotation, reversal, gluing, translation
and linear maps work on the array.  One generator, ``encode_blocks``, writes
every text form from the array in blocks of at most BLOCK_ROWS rows and
about BLOCK_BYTES of text, a token of precomputed text for each row or group
of codes.  One reader alone knows cycle files: JSON if led by ``{`` after any
whitespace, else text over the given field.  It streams gen's bytes, checking
each block by encoding it back and by the rule of ``Cycle``, refuses a
grassmann chain file from its first chunk, and reads any other file whole,
by ``json.loads`` and ``cycle_from_json_obj`` or by lines.
``decode_cycle`` returns the cycle; ``decode_rows`` gives its rows a block at
a time, so that ``verify`` ranks and counts gen's bytes as they are read,
holding no code array, and starts again from the other routes when the bytes
prove not to be gen's.
"""

from __future__ import annotations

import io
import json
import re
from collections import Counter, defaultdict, deque
from contextlib import suppress
from itertools import accumulate, product, repeat
from operator import itemgetter
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .gf import Field, field_from_order
from .geometry import DegenerateWindowError, ProjVertex, dots, rank


T = TypeVar("T")


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


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of ``rows`` (one or more) as one key: a void view of the contiguous rows."""
    rows = np.ascontiguousarray(rows)
    return rows.view(f"V{rows.itemsize * rows.shape[-1]}").ravel()


def _row_hits(rows: np.ndarray, row: Sequence[int]) -> np.ndarray:
    """Bool mask of the rows equal to ``row``, each row compared as one key;
    all False when the lengths differ or a code of ``row`` does not fit the dtype."""
    try:  # a code past the dtype raises, or wraps to another value
        key = np.array(row, dtype=rows.dtype)
        fits = key.shape == rows.shape[1:] and key.tolist() == list(row)
    except OverflowError:
        fits = False
    return _row_keys(rows) == _row_keys(key) if fits else np.zeros(len(rows), dtype=bool)


def _pick(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """rows[k, cols[k]] for every row k of cols, as one gather from the flat rows."""
    return rows.ravel().take(np.arange(0, len(cols) * rows.shape[1], rows.shape[1]) + cols)


def _unnormalized(rows: np.ndarray, last: np.ndarray) -> np.ndarray:
    """The indices of the rows at infinity (``last``, their last codes, 0)
    whose lead code is not 1: only those rows are gathered, and their leads
    by one flat gather."""
    at = np.flatnonzero(last == 0)
    inf = rows.take(at, axis=0)
    return at[_pick(inf, np.argmax(inf != 0, axis=1)) != 1]


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

    The vertices are stored as one code array ``codes``, one row per vertex,
    in the field's dtype once checked.  It is the only representation:
    ``vertices`` is the tuple view, built from it on first use, and the
    checks run once, vectorized over it.

    Vertices are coordinate tuples unless a subclass states how vertices
    convert to rows (``_arrays``) and back (``_view``), and whether a last
    column homogenizes them (``_h``, then n is the row width less one).
    Every subclass states its rule over the rows (``_rule_fails``, the mask
    of the vertices that break it, and any fault to raise once the rule and
    the codes' range hold) and its wording for vertex i (``_rule``) and, in
    ``wrap``, whether the last vertex pairs with the first.
    """

    __slots__ = ("field", "n", "codes", "_vertices")
    wrap = True
    _h = 0

    def __init__(self, vertices: Iterable, field: Field):
        vertices = tuple(vertices)
        if len(vertices) < 2:
            raise ValueError("need at least 2 vertices")
        codes, fault = self._arrays(vertices, field.q)
        if fault is not None:
            if len(codes):  # the vertices before it are checked first, by the vertex rules
                VertexSequence._set_arrays(self, codes, field)
            raise fault
        self._set_arrays(codes, field)

    @classmethod
    def _from_arrays(cls, field: Field, codes: np.ndarray):
        """A sequence over ``field`` whose vertex view is built on first use."""
        self = cls.__new__(cls)
        if len(codes) < 2:
            raise ValueError("need at least 2 vertices")
        self._set_arrays(codes, field)
        return self

    def _set_arrays(self, codes: np.ndarray, field: Field) -> None:
        """Check the rows and keep them, or raise for the first vertex that
        breaks the rule or has a code outside [0, q), the rule named first."""
        self.codes, self.field, self._vertices = codes, field, None
        self.n = codes.shape[1] - self._h
        if self.n < 1:
            raise ValueError("vertices need dimension >= 1")
        q, (bad, late) = field.q, self._rule_fails()
        if codes.min() < 0 or codes.max() >= q:  # only then are the rows looked for
            i = int(np.argmax(bad | ((codes < 0) | (codes >= q)).any(axis=1)))
            if not bad[i]:
                raise ValueError(f"vertex {i} has codes outside [0, {q})")
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(self._rule.format(i=i, v=tuple(codes[i, : self.n].tolist())))
        if late is not None:
            raise late
        self.codes = codes.astype(field.arrays[0].dtype, copy=False)

    _arrays = staticmethod(_int_rows)

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
        from .verify import window_ranks  # verify imports this module

        ranks, space = window_ranks(self)
        if ranks[i := int(ranks.argmax())] == space.count:  # the first degenerate window
            raise DegenerateWindowError(f"window {i} does not determine a line", index=i)
        return Counter(space.items(ranks))

    def __repr__(self):
        return f"{type(self).__name__}({len(self)} vertices over {self.field!r}, n={self.n})"


class GrassCycle(VertexSequence):
    """Cyclic sequence of nonzero vectors whose windows span distinct planes."""

    __slots__ = ()
    _rule = "vertex {i} is the zero vector"

    @property
    def m(self) -> int:
        return self.n

    def _rule_fails(self) -> tuple[np.ndarray, None]:
        return _row_hits(self.codes, (0,) * self.n), None


class _ProjectiveSequence(VertexSequence):
    """Vertices of the projective closure of AG(n,q) (ProjVertex), each row
    its homogeneous coordinates in PG(n,q): an affine point x is (x, 1), a
    point at infinity [d] is (d, 0)."""

    __slots__ = ()
    _h = 1
    _rule = "vertex {i}: infinity vector {v} not normalized"

    @staticmethod
    def _arrays(vertices: tuple, q: int) -> tuple[np.ndarray, Exception | None]:
        projective = list(map(isinstance, vertices, repeat(ProjVertex)))
        k = projective.index(False) if False in projective else len(vertices)
        codes, fault = _int_rows(list(map(itemgetter(1), vertices[:k])), q)
        if fault is None and k < len(vertices):
            fault = TypeError(f"vertex {k} is not a ProjVertex")
        return np.column_stack([codes, [not v[0] for v in vertices[: len(codes)]]]), fault

    def _view(self, start: int, stop: int) -> tuple:
        return tuple(map(_vertex, self.codes[start:stop].tolist()))

    def _set_arrays(self, codes: np.ndarray, field: Field) -> None:
        super()._set_arrays(codes, field)
        if not self.wrap and (self.codes[0] == self.codes[-1]).all():
            raise ValueError("segment endpoints must be distinct")

    def _rule_fails(self) -> tuple[np.ndarray, ValueError | None]:
        # a vector at infinity (last code 0) must lead with 1, and every last
        # code be 0 or 1: the last column is read once, a block at a time
        bad, high = np.zeros(len(self), dtype=bool), None
        for start, stop in row_blocks(len(self)):
            rows = self.codes[start:stop]
            last = rows[:, -1]
            bad[start + _unnormalized(rows, last)] = True
            if high is None and last.max() > 1:
                i = int(np.argmax(last > 1))
                high = ValueError(f"vertex {start + i} has homogenizing code {last[i]}, not 0 or 1")
        return bad, high


def _vertex(row: list) -> ProjVertex:
    """The ProjVertex of a homogeneous row."""
    return ProjVertex(not row[-1], tuple(row[:-1]))


class Cycle(_ProjectiveSequence):
    """Cyclic double-window vertex sequence."""

    __slots__ = ()


class Segment(_ProjectiveSequence):
    """Open double-window vertex sequence with distinct endpoints."""

    __slots__ = ()
    wrap = False

    def reversed(self) -> "Segment":
        return Segment._from_arrays(self.field, self.codes[::-1])


def rotate(c: Cycle, k: int) -> Cycle:
    return Cycle._from_arrays(c.field, np.roll(c.codes, -k, axis=0))


def _check_parts(parts: Sequence[VertexSequence]) -> None:
    """Check the parts by one rank walk each and one stable sort of all their
    ranks: at the first part with a fault, raise DegenerateWindowError at its
    first degenerate window, or GluingError for the line at its first window
    whose first copy lies in an earlier part, or for a line it repeats."""
    from .verify import window_ranks  # verify imports this module

    walks = [window_ranks(part) for part in parts]
    every = np.concatenate([ranks for ranks, _ in walks])
    _, first, inverse = np.unique(every, return_index=True, return_inverse=True)
    first, stop = first[inverse], 0  # the position of each window's first copy
    for k, (ranks, space) in enumerate(walks):
        if ranks[i := int(ranks.argmax())] == space.count:  # the first degenerate window
            raise DegenerateWindowError(f"window {i} does not determine a line", index=i)
        start, stop = stop, stop + len(ranks)
        shared = np.flatnonzero(first[start:stop] < start)
        if len(shared):
            line = space.items(ranks[shared[:1]])[0]
            raise GluingError(f"part {k} shares line {line} with an earlier part")
        if (first[start:stop] != np.arange(start, stop)).any():
            raise GluingError(f"part {k} repeats a line and is not a valid structure")


def _same_space(parts: Sequence[VertexSequence]) -> None:
    """Refuse no parts, or the first part whose field or dimension is not part 0's."""
    if not parts:
        raise GluingError("nothing to glue")
    for i, p in enumerate(parts):
        if p.field != parts[0].field or p.n != parts[0].n:
            raise GluingError(f"part {i} has dimension {p.n} over {p.field!r}, unlike part 0")


def splice(parts: Sequence[np.ndarray], hits: Sequence[np.ndarray], at, out=None) -> np.ndarray:
    """Concatenate the parts' rows in input order, into ``out`` if given, each
    part rotated to start at its first hit, the first occurrence of ``at``."""
    starts = []
    for idx, h in enumerate(hits):
        if not h.any():
            raise GluingError(f"cycle {idx} does not contain the splice vertex {at}")
        starts.append(int(np.argmax(h)))
    return np.concatenate([a for p, i in zip(parts, starts) for a in (p[i:], p[:i])], out=out)


def glue_cycles(cs: Sequence[Cycle], at: ProjVertex, check: bool = True) -> Cycle:
    """Splice transversal cycles sharing the vertex ``at`` into one cycle.

    The window multiset of the result is exactly the disjoint union of the
    inputs', which must share one field and dimension.  ``check`` verifies
    that the inputs are valid and transversal, by one rank walk per part and
    one sort of all their ranks (``_check_parts``), in time near linear in the
    windows; callers whose parts are so by construction pass False.
    """
    _same_space(cs)
    row = tuple(at.coords) + (int(not at.at_infinity),)
    codes = splice([c.codes for c in cs], [_row_hits(c.codes, row) for c in cs], at)
    if check:
        _check_parts(cs)
    return Cycle._from_arrays(cs[0].field, codes)


def glue_segments(ss: Sequence[Segment]) -> Cycle:
    """Concatenate transversal segments with even endpoint multiplicities.

    Treats each segment as an edge of a multigraph on its two endpoints and
    walks an Eulerian circuit (Hierholzer, deterministic edge order given by
    the input order); traversing a segment tail-to-head reverses it.  Raises
    GluingError if the segments differ in field or dimension, some endpoint
    multiplicity is odd, the endpoint graph is disconnected (with even
    degrees, iff the walk leaves a segment unused), or the segments are not
    valid and transversal (``_check_parts``), in that order.
    """
    _same_space(ss)

    # each endpoint's edges in input order: the segment, its other end, and
    # its rows as read from this end, without the other end
    adj: dict[ProjVertex, deque] = defaultdict(deque)
    for i, s in enumerate(ss):
        a, b = map(_vertex, s.codes[[0, -1]].tolist())
        adj[a].append((i, b, s.codes[:-1]))
        adj[b].append((i, a, s.codes[:0:-1]))
    odd = [v for v, edges in adj.items() if len(edges) % 2]
    if odd:
        raise GluingError(f"odd endpoint multiplicity at {min(odd)}")

    # Hierholzer from segment 0's head, adj's first key: deterministic
    used, stack, trail = [False] * len(ss), [(next(iter(adj)), None)], []
    while stack:
        edges = adj[stack[-1][0]]
        while edges and used[edges[0][0]]:
            edges.popleft()
        if edges:
            eid, w, rows = edges.popleft()
            used[eid] = True
            stack.append((w, rows))
        else:
            trail.append(stack.pop())
    if not all(used):
        raise GluingError("endpoint-incidence graph is disconnected")
    _check_parts(ss)
    # the circuit is the trail reversed, from the start's first edge on
    rows = [r for _, r in trail[-2::-1]]
    return Cycle._from_arrays(ss[0].field, np.concatenate(rows))


def translate(c: Cycle, t: Sequence[int]) -> Cycle:
    """Shift every affine vertex by t: (x, h) -> (x + h·t, h), so points at
    infinity are unchanged."""
    t = tuple(t)
    if len(t) != c.n:
        raise ValueError(f"translation vector has dimension {len(t)}, cycle has {c.n}")
    bad = [x for x in t if not 0 <= x < c.field.q]
    if bad:
        raise ValueError(f"translation vector entry {bad[0]} is outside [0, {c.field.q})")
    add = c.field.arrays[0]
    return Cycle._from_arrays(c.field, add[c.codes, c.codes[:, -1:] * np.array(t + (0,))])


def map_linear(c: Cycle, M: Sequence[Sequence[int]]) -> Cycle:
    """Apply an injective linear map, given as a tuple of rows.

    M acts on the first n columns and the homogenizing one is carried:
    affine vertices map through M; infinity vertices map through the induced
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
    img = np.column_stack([dots(np.array(M), c.codes[:, None, :-1], F), c.codes[:, -1]])
    # an injective image of a nonzero vector is nonzero: scale by its lead inverse
    inf = img[:, -1] == 0
    lead = img[np.arange(len(img)), np.argmax(img != 0, axis=1)]
    img[inf] = mul[inv[lead[inf]][:, None], img[inf]]
    return Cycle._from_arrays(F, img)


# -- serialization -----------------------------------------------------------

SCHEMA_VERSION = 1
BLOCK_ROWS = 2**16  # codes per block of the window walks, and the most rows per block of the codec
BLOCK_BYTES = 2**19  # the most text per block of the codec, unless one row is longer


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


def _block_rows(n: int, q: int, first: Sequence[str], sep: str, last: Sequence[str]) -> int:
    """The rows in a block of the codec, for rows of n codes in [0, q) written
    as ``encode_blocks`` writes them: BLOCK_ROWS, or as many of the longest
    row as BLOCK_BYTES holds, at least one."""
    longest = max(map(len, first)) + n * len(str(q - 1)) + (n - 1) * len(sep) + max(map(len, last))
    return max(1, min(BLOCK_ROWS, BLOCK_BYTES // longest))


def _encoder(count: int, width: int, q: int, first: Sequence[str], sep: str,
             last: Sequence[str], tail: str):
    """The rows in a block (``_block_rows``) and the block encoder of
    ``encode_blocks`` for ``count`` rows of ``width`` codes in [0, q):
    ``encode(rows, final)`` is the text of a block's rows, ``tail`` ending
    the last block's (``final``).

    A row is written as tokens of g codes each (``_token_width``), the last
    group of a row taking what is left, whole rows when g reaches n.  Each
    token is a precomputed string that holds its codes and whatever of the
    row's ends and separators lies beside them, one table of q^g strings or
    fewer for each kind and group: at most N/8 and 2^16, so the table costs
    a fraction of the encode.  A token's number is one product of the whole
    row, the kind's offset included."""
    n = width - (len(first) > 1)  # the codes written, less the kind
    g = _token_width(count, n, q)
    groups = [(a, min(a + g, n)) for a in range(0, n, g)]
    # each kind's and group's strings in the order of the group's base-q
    # value, the first code most significant, made one at a time (no list of
    # partial strings lives beside them, so their memory is freed whole)
    digits = list(map(str, range(q)))
    table = np.array([(pre if a == 0 else "") + sep.join(v) + (post if b == n else sep)
                      for pre, post in zip(first, last) for a, b in groups
                      for v in product(digits, repeat=b - a)], dtype=object)
    # a token's number: its group's offset plus row @ value, whose kind row adds the kind's
    sizes = [q ** (b - a) for a, b in groups]
    offset = np.array([0, *accumulate(sizes[:-1])])
    value = np.zeros((width, len(groups)), dtype=np.uint32)
    for k, (a, b) in enumerate(groups):
        value[a:b, k] = q ** np.arange(b - a - 1, -1, -1)
    value[n:] = sum(sizes)

    def encode(rows: np.ndarray, final: bool) -> str:  # its temporaries go before it is read
        tokens = table.take(rows @ value + offset).ravel().tolist()
        if final:
            tokens[-1] = tokens[-1][:-1] + tail
        return "".join(tokens)

    return _block_rows(n, q, first, sep, last), encode


def encode_blocks(codes: np.ndarray, q: int, head: str, first: Sequence[str], sep: str,
                  last: Sequence[str], tail: str) -> Iterator[str]:
    """``head``, then the rows of the code array, each block of rows
    (``_block_rows``) read when it is asked for.  A row is its codes joined
    by ``sep`` between ``first[k]`` and ``last[k]``: when two kinds are
    given, k is the row's last code, which is not written, else 0; ``tail``
    replaces the last character of the last row, the separator between
    rows.  ``_encoder`` writes each block."""
    N = len(codes)
    size, encode = _encoder(N, codes.shape[1], q, first, sep, last, tail)
    yield head
    for start in range(0, N, size):
        yield encode(codes[start : start + size], start + size >= N)


def cycle_to_json_obj(c: Cycle) -> dict:
    """The JSON object of a cycle, read back from ``cycle_to_json``."""
    return json.loads(cycle_to_json(c))


def cycle_blocks(c: Cycle, fmt: str = "json") -> Iterator[str]:
    """``cycle_to_json(c)``, or ``cycle_to_text(c)`` for fmt "text", in blocks."""
    return _array_blocks(c.codes, c.field.q, fmt)


# a cycle's rows as encode_blocks writes them, in text and in JSON: the row's
# last code, 0 at infinity and 1 at an affine point, picks its kind
_TEXT = (("I ", "A "), " ", ("\n", "\n"), "\n")
_JSON = (('{"coords":[',) * 2, ",", ('],"type":"infinity"},', '],"type":"affine"},'), "]}\n")


def _json_head(n: int, q: int) -> str:
    return f'{{"n":{n},"q":{q},"schema_version":{SCHEMA_VERSION},"vertices":['


def _array_blocks(codes: np.ndarray, q: int, fmt: str) -> Iterator[str]:
    """``cycle_blocks`` of the cycle over GF(q) with these rows."""
    if fmt == "text":
        return encode_blocks(codes, q, "", *_TEXT)
    return encode_blocks(codes, q, _json_head(codes.shape[1] - 1, q), *_JSON)


def cycle_to_json(c: Cycle) -> str:
    """The cycle as compact JSON with sorted keys and a final newline, written
    from the rows: ``n``, ``q``, ``schema_version`` and ``vertices``, each
    vertex its ``coords`` and its ``type``, "affine" or "infinity"."""
    return "".join(cycle_blocks(c))


def _integers(xs: Sequence, name: str = "a code") -> tuple[int, ...]:
    """``int`` of each of ``xs``, refusing a number that ``int`` would change
    (5.5); integral numbers (1.0, true) and integer strings ("02") pass."""
    ints = tuple(map(int, xs))
    if ints != tuple(xs):  # only then are the items looked at
        bad = [x for i, x in zip(ints, xs) if i != x and not isinstance(x, str)]
        if bad:
            raise ValueError(f"{name} is {bad[0]!r}, not an integer")
    return ints


def cycle_from_json_obj(obj: dict) -> Cycle:
    try:
        n, q = (_integers([obj[key]], repr(key))[0] for key in ("n", "q"))
        raw = obj["vertices"]
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ValueError(f"malformed cycle object: {e}") from None
    try:  # read as n and q are; a missing one reads as 1
        if _integers([obj.get("schema_version", SCHEMA_VERSION)]) != (SCHEMA_VERSION,):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"malformed cycle object: 'schema_version' is not {SCHEMA_VERSION}")
    if not isinstance(raw, list):
        raise ValueError("malformed cycle object: 'vertices' is not a list")
    F = field_from_order(q)
    verts = []
    for i, item in enumerate(raw):
        try:
            kind, coords = item["type"], item["coords"]
            coords = _integers(coords) if isinstance(coords, list) else None  # "01" is no row
        except (KeyError, TypeError, ValueError, OverflowError):
            raise ValueError(f"malformed vertex {i}: {item!r}") from None
        if kind not in ("affine", "infinity") or coords is None or len(coords) != n:
            raise ValueError(f"malformed vertex {i}: {item!r}")
        verts.append(ProjVertex(kind == "infinity", coords))
    return Cycle(verts, F)


_JSON_HEAD = re.compile(
    rb'\{"n":([0-9]+),"q":([0-9]+),"schema_version":%d,"vertices":\[' % SCHEMA_VERSION
)
_CHUNK = 2**16  # bytes per read of the row count or the chain check; the first holds the head
_CHAIN = rb'[ \t\n\r]*\{[ \t\n\r]*"levels"[ \t\n\r]*:[ \t\n\r]*\['  # a grassmann file's head


class _NotCanonical(ValueError):
    """The bytes are not the codec's: the other routes read the file from its start."""


def _canonical(ok: bool) -> None:
    if not ok:
        raise _NotCanonical("not the canonical byte form")


def _same_field(q: int, field: Field | None) -> None:
    if field is not None and q != field.q:
        raise ValueError(f"file has q={q}, expected q={field.p}^{field.k}")


def _canonical_rows(source: bytes | str | BinaryIO, field: Field | None = None) -> Iterator:
    """The cycle that ``cycle_to_json``, or given a field and no ``{`` lead
    ``cycle_to_text``, writes as the bytes of ``source`` (see ``_binary_file``),
    streamed: first (n, its field, its row count), from one pass that counts
    the rows, then the rows of each block of the codec, in the field's dtype.
    One buffer takes a block's bytes at a time, each row found by its lead
    byte, its code j after code j-1's separator with 1 to len(str(q-1))
    digits.  The gather is loose, every index clipped: the proof is each
    block's encoding, compared with it.  Each block is checked by the rule of
    ``Cycle`` too (``_unnormalized``), and from the first that breaks it on,
    no block is given.  Raises _NotCanonical as soon as the bytes are not
    gen's; once they have all proved gen's, ValueError for the first vertex
    that breaks the rule, then for a q other than ``field``'s."""
    fh = _binary_file(source)
    fh.seek(0)
    first = fh.read(_CHUNK)
    given, text = field, field is not None and first[:1] != b"{"
    if text:  # n is the spaces of the first line, and "A " or "I " leads the codes
        _canonical(first[:1] in (b"A", b"I"))
        n, lead, skip, head, fmt = first.count(b" ", 0, first.find(b"\n")), b"\n", 2, "", _TEXT
    else:
        nq = _JSON_HEAD.match(first)
        _canonical(nq is not None)
        try:  # the other routes word a q that names no field
            field = field_from_order(int(nq[2]))
        except ValueError:
            _canonical(False)
        n, lead, skip, fmt = int(nq[1]), b"{", 11, _JSON  # '{"coords":['
        head = _json_head(n, field.q)
    count = first.count(lead) + sum(b.count(lead) for b in iter(lambda: fh.read(_CHUNK), b""))
    count, size = count - (not text), fh.tell()  # less the head's "{"; the count read it all
    q, digits = field.q, len(str(field.q - 1))
    # a code takes a digit and a separator
    _canonical(n >= 1 and count >= 2 and 2 * n * count <= size)
    yield n, field, count
    per, encode = _encoder(count, n + 1, q, *fmt)
    # a head the regex matched but with leading zeros is longer: the rows' compare fails
    at = len(head)
    width = n * (digits + 1) + (2 if text else 33)  # bytes of the longest row
    buf = bytearray(max(0, min(size - at, min(count, per) * width)))
    view, data, held, fault = memoryview(buf), np.frombuffer(buf, np.uint8), 0, None
    fh.seek(at)
    for start in range(0, count, per):
        stop = min(start + per, count)
        held += fh.readinto(view[held:])
        block = data[:held]
        marks = np.flatnonzero(block == lead[0])
        lines = (np.concatenate([[0], marks + 1]) if text else marks)[: stop - start]
        _canonical(held > 0 and len(lines) == stop - start)
        codes, end = np.empty((stop - start, n + 1), field.arrays[0].dtype), lines + skip
        for j in range(n):  # a byte that is no digit reads as 10 or more
            code, more, past = (block.take(end, mode="clip") - 48).astype(np.uint16), True, end + 2
            for k in range(1, digits):  # past: the byte after the code's separator
                digit = block.take(end + k, mode="clip") - 48
                more = more & (digit < 10)
                code, past = np.where(more, code * 10 + digit, code), past + more
            _canonical(code.max() < q)  # before narrowing
            codes[:, j], end = code, past
        kind = block.take(lines if text else end + 9, mode="clip")  # line start, or past "type":"
        codes[:, n] = kind != (b"I" if text else b"i")[0]
        del marks, lines, end, code, kind  # before the block's text is encoded
        encoded = encode(codes, stop == count).encode()
        _canonical(buf.startswith(encoded, 0, held))
        view[: held - len(encoded)] = view[len(encoded) : held]
        held, at = held - len(encoded), at + len(encoded)
        del encoded  # while the block is ranked, and the next one gathered
        wrong = _unnormalized(codes, codes[:, n])
        if fault is None and len(wrong):  # the blocks from here on are only checked
            i = int(wrong[0])
            fault = ValueError(Cycle._rule.format(i=start + i, v=tuple(codes[i, :n].tolist())))
        if fault is None:
            yield codes
    _canonical(at == size)
    if fault is not None:
        raise fault
    _same_field(q, given)


def _canonical_cycle(source: bytes | str | BinaryIO, field: Field | None = None) -> Cycle:
    """The cycle of ``_canonical_rows``, its blocks written into one code array."""
    rows = _canonical_rows(source, field)
    n, field, count = next(rows)
    codes, at = np.empty((count, n + 1), field.arrays[0].dtype), 0
    for block in rows:
        codes[at : at + len(block)] = block
        at += len(block)
    return Cycle._from_arrays(field, codes)


def _binary_file(source: bytes | str | BinaryIO) -> BinaryIO:
    """``source`` as a binary file: a file as it is, bytes or a str's UTF-8 in memory."""
    return source if hasattr(source, "readinto") else io.BytesIO(
        source.encode() if isinstance(source, str) else source)


def file_text(data: bytes) -> str:
    """``data`` as a UTF-8 text file reads, newlines and errors alike."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()


def decode_cycle(source: bytes | str | BinaryIO, field: Field | None) -> Cycle:
    """The cycle of a cycle file (see ``_binary_file``): JSON if its first
    non-whitespace character, read as ``file_text`` reads it, is ``{`` (its q
    then ``field``'s, if given), else text over ``field``, refused if None.
    Routes, in order: gen's bytes streamed (``_canonical_rows``); then the
    other routes (``_other_routes``)."""
    fh = _binary_file(source)
    with suppress(_NotCanonical):
        return _canonical_cycle(fh, field)
    return _other_routes(fh, field, fh is not source)


def decode_rows(source: bytes | str | BinaryIO, field: Field | None,
                consume: Callable[[int, Field, int, Iterator[np.ndarray]], T]) -> T:
    """``consume(n, field, count, blocks)`` for the cycle that ``decode_cycle``
    reads from ``source``, ``blocks`` giving its rows in order, a block at a
    time.  gen's bytes are streamed, each block checked as it is read
    (``_canonical_rows``), so that no code array is held; if they prove not
    to be gen's, ``consume`` is called again, from the start, with the blocks
    of the cycle that the other routes read."""
    fh = _binary_file(source)
    try:
        rows = _canonical_rows(fh, field)
        return consume(*next(rows), rows)
    except _NotCanonical:
        pass
    c = _other_routes(fh, field, fh is not source)
    return consume(c.n, c.field, len(c), iter([c.codes]))


def _other_routes(fh: BinaryIO, field: Field | None, release: bool) -> Cycle:
    """The routes of ``decode_cycle`` after gen's bytes: a chain file refused on
    its first 64 KiB; the file read whole (released once read if ``release``,
    an in-memory file made by the decode), its bytes dropped once decoded to
    text; text whose line ends were translated streamed again; then
    ``json.loads`` and ``cycle_from_json_obj``, or the line loop."""
    fh.seek(0)
    if re.match(_CHAIN, fh.read(_CHUNK)):
        raise ValueError('a grassmann chain file ({"levels":[...]}) is not a cycle file')
    fh.seek(0)
    data = fh.read()
    if release:
        fh.close()
    crlf, text = b"\r" in data, file_text(data)
    del data  # the text stands for the bytes from here on
    json_file = re.match(r"\s*\{", text) is not None
    if not json_file and field is None:
        raise ValueError("text cycle files need --p (and --k for extensions)")
    if crlf:  # its line ends may be all that differed from gen's bytes
        with suppress(_NotCanonical):
            return _canonical_cycle(text, field)
    if json_file:
        try:
            obj = json.loads(text)
        except RecursionError:
            raise ValueError("cycle JSON is nested too deeply") from None
        del text  # the objects stand for it from here on
        c = cycle_from_json_obj(obj)
    else:
        c = _cycle_from_lines(text, field)
    _same_field(c.field.q, field)
    return c


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
