"""Double-window cycles and segments, window extraction, and gluing.

A cycle is a cyclic vertex sequence over the projective closure whose
consecutive windows (including the wrap-around) decode to pairwise distinct
affine lines; a segment is the open variant with two distinct endpoints.
Both, and grassmann.GrassCycle, are immutable VertexSequences whose window
multiset is computed lazily and cached once.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Callable, Iterable, Sequence, Union

from .gf import Field, field_from_order
from .geometry import (
    AffineLine,
    DegenerateWindowError,
    ProjVertex,
    decode_window,
    mat_apply,
    normalize_direction,
    rank,
    vadd,
)


class GluingError(ValueError):
    """A gluing precondition (shared vertex, parity, connectivity, transversality) failed."""


def walk_windows(
    vertices: Sequence, decode: Callable, wrap: bool
) -> tuple[Counter, list[int]]:
    """Decode every window of a vertex sequence, cyclically if ``wrap``.

    Returns the multiset of decoded keys and the indices of the windows whose
    decoding raised DegenerateWindowError, in window order.
    """
    found: Counter = Counter()
    degenerate: list[int] = []
    count = len(vertices) if wrap else max(len(vertices) - 1, 0)
    for i in range(count):
        try:
            found[decode(vertices[i], vertices[(i + 1) % len(vertices)])] += 1
        except DegenerateWindowError:
            degenerate.append(i)
    return found, degenerate


def occurs_cyclically(seq: tuple, cycle: tuple) -> bool:
    """True iff seq occurs contiguously in some rotation of cycle (no reversal)."""
    if len(seq) > len(cycle):
        return False
    doubled = cycle + cycle
    k = len(seq)
    return any(doubled[i : i + k] == seq for i in range(len(cycle)))


class VertexSequence:
    """Vertex sequence over a field: at least 2 vertices, all of one
    dimension n >= 1, every coordinate a code in [0, q).  A subclass states
    its per-vertex rule ``_coords(i, v)`` (validate vertex i, return its
    coordinates), its window decoder ``_decode(a, b)`` and, in ``wrap``,
    whether the last vertex pairs with the first.
    """

    __slots__ = ("field", "n", "vertices", "_windows")
    wrap = True

    def __init__(self, vertices: Iterable, field: Field):
        vertices = tuple(vertices)
        if len(vertices) < 2:
            raise ValueError("need at least 2 vertices")
        coords = self._coords
        n = len(coords(0, vertices[0]))
        if n < 1:
            raise ValueError("vertices need dimension >= 1")
        q = field.q
        in_field = frozenset(range(q)).issuperset
        for i, v in enumerate(vertices):
            c = coords(i, v)
            if len(c) != n:
                raise ValueError(f"vertex {i} has dimension {len(c)}, expected {n}")
            if not in_field(c):
                raise ValueError(f"vertex {i} has codes outside [0, {q})")
        self.field = field
        self.n = n
        self.vertices = vertices
        self._windows = None

    def __len__(self):
        return len(self.vertices)

    def walk(self) -> tuple[Counter, list[int]]:
        """Decoded window multiset and the indices of degenerate windows."""
        return walk_windows(self.vertices, self._decode, self.wrap)

    def windows(self) -> Counter:
        """Multiset of decoded windows; raises DegenerateWindowError with the
        index of the first window that does not decode."""
        if self._windows is None:
            found, degenerate = self.walk()
            if degenerate:
                i = degenerate[0]
                raise DegenerateWindowError(f"window {i} does not determine a line", index=i)
            self._windows = found
        return self._windows

    def __repr__(self):
        return f"{type(self).__name__}({len(self)} vertices over {self.field!r}, n={self.n})"


class Cycle(VertexSequence):
    """Cyclic double-window vertex sequence."""

    __slots__ = ()

    def _coords(self, i: int, v) -> tuple:
        if not isinstance(v, ProjVertex):
            raise TypeError(f"vertex {i} is not a ProjVertex")
        if v.at_infinity and next((c for c in v.coords if c != 0), None) != 1:
            raise ValueError(f"vertex {i}: infinity vector {v.coords} not normalized")
        return v.coords

    def _decode(self, a: ProjVertex, b: ProjVertex) -> AffineLine:
        return decode_window(a, b, self.field)


class Segment(VertexSequence):
    """Open double-window vertex sequence with distinct endpoints."""

    __slots__ = ()
    wrap = False
    _coords = Cycle._coords
    _decode = Cycle._decode

    def __init__(self, vertices: Iterable[ProjVertex], field: Field):
        super().__init__(vertices, field)
        if self.vertices[0] == self.vertices[-1]:
            raise ValueError("segment endpoints must be distinct")

    def reversed(self) -> "Segment":
        return Segment(tuple(reversed(self.vertices)), self.field)


Structure = Union[Cycle, Segment]


def is_valid(obj: Structure) -> bool:
    """True iff all windows decode and the decoded lines are pairwise distinct."""
    try:
        w = obj.windows()
    except DegenerateWindowError:
        return False
    return all(c == 1 for c in w.values())


def is_transversal(a: Structure, b: Structure) -> bool:
    """True iff the two structures represent disjoint line sets."""
    wa, wb = a.windows(), b.windows()
    small, big = (wa, wb) if len(wa) <= len(wb) else (wb, wa)
    return not any(k in big for k in small)


def rotate(c: Cycle, k: int) -> Cycle:
    k %= len(c.vertices)
    return Cycle(c.vertices[k:] + c.vertices[:k], c.field)


def same_windows(a: Structure, b: Structure) -> bool:
    return a.windows() == b.windows()


def equal_up_to_rotation(a: Cycle, b: Cycle) -> bool:
    return len(a.vertices) == len(b.vertices) and occurs_cyclically(b.vertices, a.vertices)


def _check_pairwise_transversal(parts: Sequence[Structure]) -> None:
    # Disjointness of all supports at once: the union count equals the sum
    # of part sizes iff the parts are pairwise transversal.
    seen: set[AffineLine] = set()
    for idx, part in enumerate(parts):
        w = part.windows()
        for line in w:
            if line in seen:
                raise GluingError(f"part {idx} shares line {line} with an earlier part")
        if any(cnt != 1 for cnt in w.values()):
            raise GluingError(f"part {idx} repeats a line and is not a valid structure")
        seen.update(w)


def splice(parts: Sequence[Sequence], at) -> list:
    """Concatenate the vertex sequences in input order, each rotated to start
    at its first occurrence of the vertex ``at``."""
    out: list = []
    for idx, vs in enumerate(parts):
        try:
            i = vs.index(at)
        except ValueError:
            raise GluingError(f"cycle {idx} does not contain the splice vertex {at}") from None
        out.extend(vs[i:])
        out.extend(vs[:i])
    return out


def glue_cycles(cs: Sequence[Cycle], at: ProjVertex, check: bool = True) -> Cycle:
    """Splice transversal cycles sharing the vertex ``at`` into one cycle.

    The window multiset of the result is exactly the disjoint union of the
    inputs'.  ``check`` verifies that the inputs are pairwise transversal;
    callers whose parts are disjoint by construction pass False.
    """
    if not cs:
        raise GluingError("nothing to glue")
    out = splice([c.vertices for c in cs], at)
    if check:
        _check_pairwise_transversal(cs)
    return Cycle(out, cs[0].field)


def glue_segments(ss: Sequence[Segment]) -> Cycle:
    """Concatenate transversal segments with even endpoint multiplicities.

    Treats each segment as an edge of a multigraph on its two endpoints and
    walks an Eulerian circuit (Hierholzer, deterministic edge order given by
    the input order); traversing a segment tail-to-head reverses it.  Raises
    GluingError if some endpoint multiplicity is odd, the endpoint graph is
    disconnected (with even degrees, iff the walk leaves a segment unused),
    or two segments share a line, in that order.
    """
    if not ss:
        raise GluingError("nothing to glue")

    adj: dict[ProjVertex, list[tuple[int, ProjVertex]]] = defaultdict(list)
    for i, s in enumerate(ss):
        a, b = s.vertices[0], s.vertices[-1]
        adj[a].append((i, b))
        adj[b].append((i, a))
    odd = [v for v, edges in adj.items() if len(edges) % 2]
    if odd:
        raise GluingError(f"odd endpoint multiplicity at {min(odd)}")

    # Hierholzer with per-vertex cursors; deterministic for a fixed input order.
    start = ss[0].vertices[0]
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
    _check_pairwise_transversal(ss)
    trail.reverse()

    out: list[ProjVertex] = []
    prev = start
    for v, eid in trail[1:]:
        seg = ss[eid]
        vs = seg.vertices if seg.vertices[0] == prev else tuple(reversed(seg.vertices))
        out.extend(vs[:-1])
        prev = v
    return Cycle(out, ss[0].field)


def translate(c: Cycle, t: Sequence[int]) -> Cycle:
    """Shift every affine vertex by t; points at infinity are unchanged."""
    t = tuple(t)
    if len(t) != c.n:
        raise ValueError(f"translation vector has dimension {len(t)}, cycle has {c.n}")
    F = c.field
    verts = tuple(
        v if v.at_infinity else ProjVertex(False, vadd(v.coords, t, F)) for v in c.vertices
    )
    return Cycle(verts, F)


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
    if rank(M, F) != c.n:
        raise ValueError("matrix is singular (not injective)")
    verts = []
    for v in c.vertices:
        img = mat_apply(M, v.coords, F)
        if v.at_infinity:
            verts.append(ProjVertex(True, normalize_direction(img, F).vector))
        else:
            verts.append(ProjVertex(False, img))
    return Cycle(verts, F)


# -- serialization -----------------------------------------------------------

SCHEMA_VERSION = 1


def cycle_to_json_obj(c: Cycle) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "n": c.n,
        "q": c.field.q,
        "vertices": [
            {"type": "infinity" if v.at_infinity else "affine", "coords": list(v.coords)}
            for v in c.vertices
        ],
    }


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


def cycle_to_text(c: Cycle) -> str:
    """One vertex per line: ``A c1 c2 ...`` or ``I c1 c2 ...`` integer codes."""
    lines = []
    for v in c.vertices:
        tag = "I" if v.at_infinity else "A"
        lines.append(tag + " " + " ".join(str(x) for x in v.coords))
    return "\n".join(lines) + "\n"


def cycle_from_text(text: str, field: Field) -> Cycle:
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
