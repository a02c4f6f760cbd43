"""Exact arithmetic in GF(p^k) for small prime powers.

A field is described by its prime characteristic p, extension degree k and a
monic irreducible modulus polynomial of degree k over GF(p).  The modulus is
always the lexicographically smallest irreducible candidate, comparing
coefficient tuples from the constant term upward (Field takes no modulus
argument), so field construction is deterministic and dependency-free.

Elements are identified with integer codes in [0, q): the base-p digits of
the code are the polynomial coefficients, least degree first.  This codec is
the wire representation used everywhere (JSON, CLI, text dumps).  All
operations are table-backed, which is entirely adequate below the order
bound (default q <= 512, moved only by the UCYCLE_MAX_Q environment
variable), checked before any arithmetic on the order.
"""

from __future__ import annotations

import itertools
import os

DEFAULT_MAX_Q = 512
MAX_Q_ENV = "UCYCLE_MAX_Q"


class FieldMismatchError(ValueError):
    """Operands belong to two different fields."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# -- polynomial helpers over GF(p) ------------------------------------------
# Polynomials are tuples of residues mod p, least degree first, trailing
# zeros trimmed ( () is the zero polynomial ).

def _ptrim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a, m, p):
    """Remainder of a modulo a monic polynomial m."""
    r = list(a)
    dm = len(m) - 1
    while len(_ptrim(r)) - 1 >= dm:
        r = list(_ptrim(r))
        lead = r[-1]
        shift = len(r) - 1 - dm
        for i, mi in enumerate(m):
            r[shift + i] = (r[shift + i] - lead * mi) % p
    return _ptrim(r)


def _is_irreducible(m, p):
    """Trial division by every monic polynomial of degree 1..deg(m)//2."""
    deg = len(m) - 1
    for d in range(1, deg // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            divisor = low + (1,)
            if not _pmod(m, divisor, p):
                return False
    return True


def smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over GF(p).

    Candidates are scanned by their low-degree-first coefficient tuple
    (c0, ..., c_{k-1}); the leading coefficient is fixed to 1.  For k = 1
    this yields the polynomial x, giving plain mod-p arithmetic.
    """
    for low in itertools.product(range(p), repeat=k):
        cand = low + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise RuntimeError(f"no irreducible polynomial of degree {k} over GF({p})")


class Field:
    """GF(p^k) with precomputed operation tables on integer codes.

    The code-level methods (add, sub, mul, neg, inv) work on plain ints and
    are what the geometry layer uses; ``element`` wraps a code into a
    FieldElement for operator syntax.
    """

    __slots__ = ("p", "k", "q", "modulus", "_add", "_mul", "_neg", "_inv")

    def __init__(self, p: int, k: int):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = smallest_irreducible(p, k)
        self._build_tables()

    def _build_tables(self):
        p, k, q = self.p, self.k, self.q
        coeffs = [self.coeffs(a) for a in range(q)]
        add = [[0] * q for _ in range(q)]
        mul = [[0] * q for _ in range(q)]
        for a in range(q):
            ca = coeffs[a]
            for b in range(a, q):
                cb = coeffs[b]
                s = self.code(tuple((x + y) % p for x, y in zip(ca, cb)))
                add[a][b] = add[b][a] = s
                m = self.code(_pmod(_pmul(ca, cb, p), self.modulus, p))
                mul[a][b] = mul[b][a] = m
        self._add = add
        self._mul = mul
        self._neg = [add[a].index(0) for a in range(q)]
        self._inv = [0] + [mul[a].index(1) for a in range(1, q)]

    # -- integer codec -------------------------------------------------

    def coeffs(self, code: int) -> tuple[int, ...]:
        """Base-p digits of ``code``, least degree first, length k."""
        out = []
        for _ in range(self.k):
            code, r = divmod(code, self.p)
            out.append(r)
        return tuple(out)

    def code(self, coeffs) -> int:
        out = 0
        for c in reversed(tuple(coeffs)):
            out = out * self.p + c % self.p
        return out

    # -- code-level arithmetic ------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in " + repr(self))
        return self._inv[a]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        r = 1
        while e:
            if e & 1:
                r = self._mul[r][a]
            a = self._mul[a][a]
            e >>= 1
        return r

    # -- elements --------------------------------------------------------

    def element(self, code: int) -> "FieldElement":
        if not 0 <= code < self.q:
            raise ValueError(f"code {code} outside [0, {self.q})")
        return FieldElement(self, code)

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def elements(self) -> list["FieldElement"]:
        """All q elements, ordered by integer code (0 first)."""
        return [FieldElement(self, c) for c in range(self.q)]

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"GF({self.q})"

    def to_json_obj(self) -> dict:
        return {"p": self.p, "k": self.k, "modulus": list(self.modulus)}


class FieldElement:
    """Immutable element of a Field, stored as its integer code."""

    __slots__ = ("field", "code")

    def __init__(self, field: Field, code: int):
        self.field = field
        self.code = code

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field.coeffs(self.code)

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatchError(
                    f"mixing elements of {self.field!r} and {other.field!r}"
                )
            return other.code
        if isinstance(other, int):
            return other % self.field.p
        return None

    def __add__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return FieldElement(self.field, self.field.add(self.code, b))

    __radd__ = __add__

    def __sub__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return FieldElement(self.field, self.field.sub(self.code, b))

    def __rsub__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return FieldElement(self.field, self.field.sub(b, self.code))

    def __mul__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return FieldElement(self.field, self.field.mul(self.code, b))

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.code))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv(self.code))

    def __truediv__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return FieldElement(self.field, self.field.mul(self.code, self.field.inv(b)))

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.pow(self.code, e))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and self.code == other.code
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.code))

    def __int__(self):
        return self.code

    def __bool__(self):
        return self.code != 0

    def __repr__(self):
        return f"FieldElement({self.code}, {self.field!r})"


def _max_q() -> int:
    return int(os.environ.get(MAX_Q_ENV, DEFAULT_MAX_Q))


def field_make(p: int, k: int = 1) -> Field:
    """Build GF(p^k) with the lexicographically smallest irreducible modulus.

    The order is compared with the bound (UCYCLE_MAX_Q, default 512) before
    p is tested for primality, and p^k is multiplied out only until it
    passes the bound, so a huge p or k is refused at once.
    """
    if p >= 2:  # else p^k never passes the bound; Field rejects k < 1 before p
        max_q = _max_q()
        q = 1
        for i in range(k):
            q *= p
            if q > max_q:
                order = q if i == k - 1 else f"{p}^{k}"
                raise ValueError(f"field order {order} exceeds the bound {max_q}")
    return Field(p, k)


def field_from_order(q: int) -> Field:
    """Build GF(q) from its order, compared with the bound before factoring."""
    if q < 2:
        raise ValueError(f"field order must be >= 2, got {q}")
    max_q = _max_q()
    if q > max_q:
        raise ValueError(f"field order {q} exceeds the bound {max_q}")
    p = 2
    while q % p:
        p += 1
    k = 0
    n = q
    while n > 1:
        if n % p:
            raise ValueError(f"{q} is not a prime power")
        n //= p
        k += 1
    return Field(p, k)


def multiplicative_order(F: Field, code: int) -> int:
    if code == 0:
        raise ValueError("0 has no multiplicative order")
    r, n = code, 1
    while r != 1:
        r = F.mul(r, code)
        n += 1
    return n


def primitive_element(F: Field) -> FieldElement:
    """First element in code order whose multiplicative order is q - 1."""
    target = F.q - 1
    for c in range(1, F.q):
        if multiplicative_order(F, c) == target:
            return FieldElement(F, c)
    raise RuntimeError("no primitive element found")  # unreachable
