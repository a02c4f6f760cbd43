"""Nested universal cycles on the Grassmannians of 2-subspaces.

An affine line of AG(m-1,q) lifts to the 2-subspace of F_q^m spanned by the
homogenized base point (w,1) and direction vector (v,0); this identifies the
affine lines with the "outer shell" of subspaces not contained in the
coordinate hyperplane x_m = 0.  Starting from the classical multiplicative
cycle on G_q(2,3) and splicing in one lifted affine cycle per dimension
yields a chain U_3, U_4, ... in which each cycle is a verbatim contiguous
subcycle of the next, attached at the shared vertex e_1.  The multiplicative
(Singer) cycle takes its finite-field arithmetic, cubic modulus and generator
from gf.

The chain is built on code arrays, one level at a time: a level is the
zero-padded previous level and the homogenized affine cycle (one column
stack), both rotated to start at e_1 and concatenated, and ``grass_blocks``
writes a level's payload straight from its array.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple

import numpy as np

from .gf import Field, generator_powers, mulmod, smallest_irreducible
from .geometry import AffineLine, DegenerateWindowError, Vector, rref
from .cycles import Cycle, VertexSequence, _row_hits, encode_blocks, splice
from .constructions import universal_cycle


class Subspace2(NamedTuple):
    """2-dimensional subspace in reduced-row-echelon canonical form."""

    basis: tuple[Vector, Vector]

    def contained_in_last_hyperplane(self) -> bool:
        return all(row[-1] == 0 for row in self.basis)


def span2(v1: Vector, v2: Vector, F: Field) -> Subspace2:
    rows = rref([v1, v2], F)
    if len(rows) != 2:
        raise DegenerateWindowError(f"vectors {v1}, {v2} do not span a plane")
    return Subspace2((rows[0], rows[1]))


class GrassCycle(VertexSequence):
    """Cyclic sequence of nonzero vectors whose windows span distinct planes."""

    __slots__ = ()
    _rule = "vertex {i} is the zero vector"

    @property
    def m(self) -> int:
        return self.n

    def _rule_fails(self) -> np.ndarray:
        return ~self.codes.any(axis=1)


def tau(L: AffineLine, F: Field) -> Subspace2:
    """Outer-shell subspace spanned by the homogenized base point and direction."""
    return span2(L.base + (1,), L.dir.vector + (0,), F)


def _homogenize(c: Cycle) -> np.ndarray:
    """The codes of an affine-line cycle homogenized: x -> (x,1), [d] -> (d,0)."""
    return np.column_stack([c.codes, ~c.at_infinity])


def lift_affine_cycle(c: Cycle) -> GrassCycle:
    """Homogenize an affine-line cycle: x -> (x,1), [d] -> (d,0).

    Window spans then agree with tau of the decoded lines, so a universal
    cycle on all affine lines of AG(m-1,q) becomes a universal cycle on the
    outer shell of G_q(2,m).
    """
    return GrassCycle._from_arrays(c.field, _homogenize(c))


def singer_cycle(F: Field) -> GrassCycle:
    """Base cycle on G_q(2,3) from the multiplicative group of a cubic extension.

    The extension is GF(q)[x]/(m) for the modulus m = smallest_irreducible(F, 3),
    with gf's arithmetic and generator rule.  With its first generator g, the
    coordinate vectors of 1, g, g^2, ..., g^(q^2+q) under the basis
    {1, x, x^2} form a cycle whose q^2+q+1 windows are exactly the
    2-subspaces of F_q^3; multiplying the whole extension into itself by g
    permutes those subspaces in a single orbit.  The first vertex, the
    element 1, has coordinates e_1.
    """
    q = F.q
    mul = mulmod(smallest_irreducible(F, 3), F)
    return GrassCycle(generator_powers(mul, q, 3, q * q + q + 1), F)


def embed_codes(gc: GrassCycle, m: int) -> np.ndarray:
    """The codes of gc zero-padded into F_q^m, so their spans stay inside
    x_j = 0 for j > gc.m."""
    if m < gc.m:
        raise ValueError("cannot embed into a smaller dimension")
    return np.pad(gc.codes, ((0, 0), (0, m - gc.m)))


def embed_cycle(gc: GrassCycle, m: int) -> GrassCycle:
    """``embed_codes`` as a cycle of F_q^m; gc itself when m == gc.m."""
    codes = embed_codes(gc, m)
    return gc if m == gc.m else GrassCycle._from_arrays(gc.field, codes)


def _next_level(level: GrassCycle, j: int) -> GrassCycle:
    """U_j embedded into the hyperplane x_(j+1) = 0, spliced at e_1 with a
    universal affine-line cycle of AG(j,q) lifted to the outer shell."""
    shell = _homogenize(universal_cycle(j, level.field))
    inner = embed_codes(level, j + 1)
    e1 = (1,) + (0,) * j
    hits = [_row_hits(inner, e1), _row_hits(shell, e1)]
    return GrassCycle._from_arrays(level.field, *splice([(inner,), (shell,)], hits, e1))


def nested_levels(m: int, F: Field) -> Iterator[GrassCycle]:
    """Universal cycles U_3 ... U_m, each U_j contiguously inside U_(j+1)
    and built from it alone when asked for (U_3 at once).  The inner cycle
    covers the subspaces inside the hyperplane, the shell cycle the rest."""
    if m < 3:
        raise ValueError(f"need m >= 3, got {m}")
    return itertools.accumulate(range(3, m), _next_level, initial=singer_cycle(F))


def nested_cycles(m: int, F: Field) -> list[GrassCycle]:
    """The list of ``nested_levels(m, F)``."""
    return list(nested_levels(m, F))


# -- serialization -----------------------------------------------------------

def grass_to_json_obj(gc: GrassCycle) -> dict:
    """The JSON object of a Grassmannian cycle; ``grass_to_json`` writes its bytes."""
    return {
        "m": gc.m,
        "q": gc.field.q,
        "vertices": [list(v) for v in gc.vertices],
    }


def grass_blocks(gc: GrassCycle, tail: str = "]}\n") -> Iterator[str]:
    """``grass_to_json(gc)`` in blocks, ending in ``tail`` instead of "]}\n"."""
    head = f'{{"m":{gc.m},"q":{gc.field.q},"vertices":['
    return encode_blocks(gc.codes, None, gc.field.q, head, ("[",), ",", ("],",), tail)


def grass_to_json(gc: GrassCycle) -> str:
    """``grass_to_json_obj(gc)`` as compact JSON with sorted keys and a final
    newline, written from the code array."""
    return "".join(grass_blocks(gc))


def subspace_to_json_obj(s: Subspace2) -> dict:
    return {"basis": [list(row) for row in s.basis]}
