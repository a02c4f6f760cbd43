"""Double-window cycles and segments, window extraction, and gluing.

A cycle is a cyclic vertex sequence over the projective closure whose
consecutive windows (including the wrap-around) decode to pairwise distinct
affine lines; a segment is the open variant with two distinct endpoints.
Structures are immutable; the window multiset is computed lazily and cached
once.
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


def _check_vertices(vertices: Sequence[ProjVertex]) -> int:
    if len(vertices) < 2:
        raise ValueError("need at least 2 vertices")
    n = len(vertices[0].coords)
    for i, v in enumerate(vertices):
        if not isinstance(v, ProjVertex):
            raise TypeError(f"vertex {i} is not a ProjVertex")
        if len(v.coords) != n:
            raise ValueError(f"vertex {i} has dimension {len(v.coords)}, expected {n}")
        if v.at_infinity:
            lead = next((c for c in v.coords if c != 0), None)
            if lead != 1:
                raise ValueError(f"vertex {i}: infinity vector {v.coords} not normalized")
    return n


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


def decoded_windows(vertices: Sequence, decode: Callable, wrap: bool) -> Counter:
    """Window multiset of a structure; raises DegenerateWindowError with the
    index of the first window that does not decode."""
    found, degenerate = walk_windows(vertices, decode, wrap)
    if degenerate:
        i = degenerate[0]
        raise DegenerateWindowError(f"window {i} does not determine a line", index=i)
    return found


def occurs_cyclically(seq: tuple, cycle: tuple) -> bool:
    """True iff seq occurs contiguously in some rotation of cycle (no reversal)."""
    if len(seq) > len(cycle):
        return False
    doubled = cycle + cycle
    k = len(seq)
    return any(doubled[i : i + k] == seq for i in range(len(cycle)))


class Cycle:
    """Cyclic double-window vertex sequence."""

    __slots__ = ("field", "n", "vertices", "_windows")

    def __init__(self, vertices: Iterable[ProjVertex], field: Field):
        vertices = tuple(vertices)
        self.n = _check_vertices(vertices)
        self.field = field
        self.vertices = vertices
        self._windows = None

    def __len__(self):
        return len(self.vertices)

    def windows(self) -> Counter:
        """Multiset of decoded lines; raises DegenerateWindowError with the
        failing index if some window does not determine a line."""
        if self._windows is None:
            F = self.field
            self._windows = decoded_windows(
                self.vertices, lambda a, b: decode_window(a, b, F), wrap=True
            )
        return self._windows

    def __repr__(self):
        return f"Cycle({len(self.vertices)} vertices over {self.field!r}, n={self.n})"


class Segment:
    """Open double-window vertex sequence with distinct endpoints."""

    __slots__ = ("field", "n", "vertices", "_windows")

    def __init__(self, vertices: Iterable[ProjVertex], field: Field):
        vertices = tuple(vertices)
        n = _check_vertices(vertices)
        if vertices[0] == vertices[-1]:
            raise ValueError("segment endpoints must be distinct")
        self.n = n
        self.field = field
        self.vertices = vertices
        self._windows = None

    def __len__(self):
        return len(self.vertices)

    def windows(self) -> Counter:
        if self._windows is None:
            F = self.field
            self._windows = decoded_windows(
                self.vertices, lambda a, b: decode_window(a, b, F), wrap=False
            )
        return self._windows

    def reversed(self) -> "Segment":
        return Segment(tuple(reversed(self.vertices)), self.field)

    def __repr__(self):
        return f"Segment({len(self.vertices)} vertices over {self.field!r}, n={self.n})"


Structure = Union[Cycle, Segment]


def windows(obj: Structure) -> Counter:
    return obj.windows()


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


def glue_cycles(cs: Sequence[Cycle], at: ProjVertex, check: bool = True) -> Cycle:
    """Splice transversal cycles sharing the vertex ``at`` into one cycle.

    Each cycle is rotated to start at its first occurrence of ``at`` and the
    rotated sequences are concatenated in input order, so the window multiset
    of the result is exactly the disjoint union of the inputs'.
    """
    if not cs:
        raise GluingError("nothing to glue")
    field = cs[0].field
    out: list[ProjVertex] = []
    for idx, c in enumerate(cs):
        try:
            i = c.vertices.index(at)
        except ValueError:
            raise GluingError(f"cycle {idx} does not contain the splice vertex {at}") from None
        out.extend(c.vertices[i:])
        out.extend(c.vertices[:i])
    if check:
        _check_pairwise_transversal(cs)
    return Cycle(out, field)


def glue_segments(ss: Sequence[Segment], check: bool = True) -> Cycle:
    """Concatenate transversal segments with even endpoint multiplicities.

    Treats each segment as an edge of a multigraph on its two endpoints and
    walks an Eulerian circuit (Hierholzer, deterministic edge order given by
    the input order); traversing a segment tail-to-head reverses it.  Raises
    GluingError if some endpoint multiplicity is odd or the endpoint graph is
    disconnected.
    """
    if not ss:
        raise GluingError("nothing to glue")
    field = ss[0].field

    mu = Counter()
    adj: dict[ProjVertex, list[tuple[int, ProjVertex]]] = defaultdict(list)
    for i, s in enumerate(ss):
        a, b = s.vertices[0], s.vertices[-1]
        mu[a] += 1
        mu[b] += 1
        adj[a].append((i, b))
        adj[b].append((i, a))
    odd = sorted((v for v, c in mu.items() if c % 2), key=lambda v: (v.at_infinity, v.coords))
    if odd:
        raise GluingError(f"odd endpoint multiplicity at {odd[0]}")

    start = ss[0].vertices[0]
    reached = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for _, w in adj[v]:
            if w not in reached:
                reached.add(w)
                frontier.append(w)
    if len(reached) < len(adj):
        raise GluingError("endpoint-incidence graph is disconnected")

    if check:
        _check_pairwise_transversal(ss)

    # Hierholzer with per-vertex cursors; deterministic for a fixed input order.
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
    trail.reverse()

    out: list[ProjVertex] = []
    prev = start
    for v, eid in trail[1:]:
        seg = ss[eid]
        vs = seg.vertices if seg.vertices[0] == prev else tuple(reversed(seg.vertices))
        out.extend(vs[:-1])
        prev = v
    return Cycle(out, field)


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


def map_linear(c: Cycle, M: Sequence[Sequence[int]], field: Field | None = None) -> Cycle:
    """Apply an injective linear map, given as a tuple of rows.

    Affine vertices map through M; infinity vertices map through the induced
    projective action (normalize M * vector).  M must have full column rank,
    so square singular maps are rejected.
    """
    F = field or c.field
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


def cycle_from_json_obj(obj: dict, max_q: int | None = None) -> Cycle:
    try:
        n = int(obj["n"])
        q = int(obj["q"])
        raw = obj["vertices"]
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"malformed cycle object: {e}") from None
    if not isinstance(raw, list):
        raise ValueError("malformed cycle object: 'vertices' is not a list")
    F = field_from_order(q, max_q=max_q)
    verts = []
    for i, item in enumerate(raw):
        try:
            kind = item["type"]
            coords = tuple(int(x) for x in item["coords"])
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"malformed vertex {i}: {item}") from None
        if kind not in ("affine", "infinity") or len(coords) != n:
            raise ValueError(f"malformed vertex {i}: {item}")
        if any(not 0 <= x < q for x in coords):
            raise ValueError(f"vertex {i} has codes outside [0, {q})")
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
