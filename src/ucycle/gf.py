"""Exact arithmetic in finite fields, and the rules that fix every choice.

GF(p^k) is GF(p)[x]/(m) for a monic irreducible modulus m of degree k; the
modulus is always the lexicographically smallest irreducible candidate,
comparing coefficient tuples from the constant term upward (Field takes no
modulus argument), and the generator is the first element of full order in
code order, so field construction is deterministic.  The polynomial
arithmetic, the modulus rule and the generator rule work over any
coefficient field, so the same code also walks the cubic extension of GF(q)
behind grassmann.singer_cycle.

Elements are identified with integer codes in [0, q): the base-p digits of
the code are the polynomial coefficients, least degree first.  This codec is
the wire representation used everywhere (JSON, CLI, text dumps).  All
operations are table-backed.  One numpy builder serves GF(p) and GF(p^k):
sums digit by digit mod p, products and inverses from the discrete log of
the q - 1 powers of the generator (Zech logarithms), so a field costs O(q)
polynomial products.  The order bound (default q <= 512, moved only by the
UCYCLE_MAX_Q environment variable) is checked before any arithmetic on it.
"""

from __future__ import annotations

import itertools
import os
from typing import Callable, NamedTuple

import numpy as np

DEFAULT_MAX_Q = 512
MAX_Q_ENV = "UCYCLE_MAX_Q"


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


def _max_q() -> int:
    """The order bound: UCYCLE_MAX_Q when set, a base-10 integer >= 2."""
    raw = os.environ.get(MAX_Q_ENV)
    if raw is None:
        return DEFAULT_MAX_Q
    try:
        bound = int(raw)
    except ValueError:
        pass
    else:
        if bound >= 2:
            return bound
    raise ValueError(f"{MAX_Q_ENV} must be an integer >= 2, got {raw!r}")


# -- polynomials over a coefficient field K ----------------------------------
# A polynomial is a tuple of codes of K, least degree first.  The arithmetic
# reads K's add, mul and neg tables as Python lists (``_tables``), made once
# per mulmod or per search, since a list index is about 10x faster than a
# numpy scalar read.  A residue modulo a monic m of degree d is kept as
# exactly d coefficients, the form Field.coeffs gives an element of GF(p^d).

def _tables(K: "Field") -> tuple[list, list, list]:
    """K's add, mul and neg tables as Python lists."""
    return tuple(t.tolist() for t in K.arrays[:3])


def _pmul(a, b, add: list, mul: list) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            row = mul[ai]
            for j, bj in enumerate(b, i):
                out[j] = add[out[j]][row[bj]]
    return out


def _pmod(a, m, add: list, mul: list, neg: list) -> tuple[int, ...]:
    """Remainder of a modulo the monic polynomial m, as deg(m) coefficients."""
    r = list(a)
    d = len(m) - 1
    for top in range(len(r) - 1, d - 1, -1):
        lead = r[top]
        if lead:
            row = mul[neg[lead]]
            for i, mi in enumerate(m, top - d):
                r[i] = add[r[i]][row[mi]]
    return tuple(r[:d]) + (0,) * (d - len(r))


def mulmod(m, K: "Field") -> Callable:
    """Multiplication in K[x]/(m) on residues of deg(m) coefficients."""
    add, mul, neg = _tables(K)
    return lambda a, b: _pmod(_pmul(a, b, add, mul), m, add, mul, neg)


def _is_irreducible(m, tables: tuple[list, list, list]) -> bool:
    """Trial division by every monic polynomial of degree 1..deg(m)//2 over
    the field whose ``_tables`` are given."""
    deg = len(m) - 1
    for d in range(1, deg // 2 + 1):
        for low in itertools.product(range(len(tables[0])), repeat=d):
            if not any(_pmod(m, low + (1,), *tables)):
                return False
    return True


def smallest_irreducible(K: "Field", k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over K.

    Candidates are scanned by their low-degree-first coefficient tuple
    (c0, ..., c_{k-1}); the leading coefficient is fixed to 1.  For k = 1
    this yields the polynomial x; for k >= 2 the scan starts at c0 = 1,
    since x divides every candidate with c0 = 0.
    """
    tables = _tables(K)
    first = range(1 if k >= 2 else 0, K.q)
    for low in itertools.product(first, *[range(K.q)] * (k - 1)):
        cand = low + (1,)
        if _is_irreducible(cand, tables):
            return cand
    raise RuntimeError(f"no irreducible polynomial of degree {k} over {K!r}")


def _power(x, e: int, mul: Callable, one):
    """x^e by square-and-multiply, for e >= 0."""
    r = one
    while e:
        if e & 1:
            r = mul(r, x)
        x = mul(x, x)
        e >>= 1
    return r


def generator_powers(mul: Callable, q: int, d: int, count: int) -> list:
    """The first ``count`` powers 1, g, g^2, ... of the first generator g of
    a field whose elements are residues of d coefficients over GF(q),
    multiplied by ``mul``.  Residues are scanned in code order (base-q
    digits, least degree first); g is the first with g^(N/r) != 1 for every
    prime r | N = q^d - 1, i.e. the first element of multiplicative order N.
    """
    order = q**d - 1
    one = (1,) + (0,) * (d - 1)
    exps = [order // r for r in _prime_factors(order)]
    for high in itertools.islice(itertools.product(range(q), repeat=d), 1, None):
        g = high[::-1]
        if all(_power(g, e, mul, one) != one for e in exps):
            break
    powers = [one]
    for _ in range(count - 1):
        powers.append(mul(powers[-1], g))
    return powers


def field_order(p: int, k: int) -> int:
    """The order q = p^k of GF(p^k), after the checks that the field can be
    built, and before any of its tables is.  The order is compared with the
    bound (UCYCLE_MAX_Q, default 512) before p is tested for primality, and
    p^k is multiplied out only until it passes the bound, so a huge p or k
    is refused at once."""
    if p >= 2:  # else p^k never passes the bound; k < 1 is refused below
        max_q = _max_q()
        q = 1
        for i in range(k):
            q *= p
            if q > max_q:
                order = q if i == k - 1 else f"{p}^{k}"
                raise ValueError(f"field order {order} exceeds the bound {max_q}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return q


class Field:
    """GF(p^k) with precomputed operation tables on integer codes.

    ``arrays`` holds the tables (add, mul, neg, inv) in the narrowest dtype
    that holds q - 1 (uint8 up to q = 256, uint16 above), for vectorized
    callers, which widen before a sum can leave [0, q).  The code-level
    methods (add, sub, mul, neg, inv) read single entries as plain ints.
    """

    __slots__ = ("p", "k", "q", "modulus", "arrays")

    def __init__(self, p: int, k: int):
        q = field_order(p, k)
        self.p = p
        self.k = k
        self.q = q
        if k == 1:  # the integers mod p; the modulus x needs no search
            self.modulus = (0, 1)
            times = lambda a, b: (a[0] * b[0] % p,)
        else:
            base = Field(p, 1)
            self.modulus = smallest_irreducible(base, k)
            times = mulmod(self.modulus, base)
        weights = p ** np.arange(k, dtype=np.int64)
        # products and inverses from the discrete log of the generator's powers
        antilog = np.array(generator_powers(times, p, k, q - 1), dtype=np.int64) @ weights
        log = np.zeros(q, dtype=np.int64)
        log[antilog] = np.arange(q - 1)
        mul = np.zeros((q, q), dtype=np.int64)
        mul[1:, 1:] = antilog[(log[1:, None] + log[1:]) % (q - 1)]
        inv = np.zeros(q, dtype=np.int64)
        inv[1:] = antilog[-log[1:] % (q - 1)]
        # sums digit by digit mod p: the table of the codes below p·w is
        # built from the one below w, with one more digit
        residue = np.arange(p, dtype=np.int64)
        digit_sum = (residue[:, None] + residue) % p
        add = np.zeros((1, 1), dtype=np.int64)
        for w in weights:
            add = (digit_sum[:, None, :, None] * w + add[:, None, :]).reshape(p * w, p * w)
        add, mul, inv = (t.astype(np.min_scalar_type(q - 1)) for t in (add, mul, inv))
        self.arrays = (add, mul, mul[p - 1], inv)  # -b is (p - 1)·b

    # -- integer codec -------------------------------------------------

    def coeffs(self, code: int) -> tuple[int, ...]:
        """Base-p digits of ``code``, least degree first, length k."""
        out = []
        for _ in range(self.k):
            code, r = divmod(code, self.p)
            out.append(r)
        return tuple(out)

    # -- code-level arithmetic ------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.arrays[0].item(a, b)

    def sub(self, a: int, b: int) -> int:
        return self.arrays[0].item(a, self.arrays[2].item(b))

    def mul(self, a: int, b: int) -> int:
        return self.arrays[1].item(a, b)

    def neg(self, a: int) -> int:
        return self.arrays[2].item(a)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in " + repr(self))
        return self.arrays[3].item(a)

    # -- elements --------------------------------------------------------

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


class FieldElement(NamedTuple):
    """Element of a Field, identified by its integer code."""

    field: Field
    code: int

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field.coeffs(self.code)


def field_make(p: int, k: int = 1) -> Field:
    """Build GF(p^k); ``field_order`` checks the order bound before anything else."""
    return Field(p, k)


def field_from_order(q: int) -> Field:
    """Build GF(q) from its order, compared with the bound before factoring."""
    if q < 2:
        raise ValueError(f"field order must be >= 2, got {q}")
    max_q = _max_q()
    if q > max_q:
        raise ValueError(f"field order {q} exceeds the bound {max_q}")
    p, *others = _prime_factors(q)
    if others:
        raise ValueError(f"{q} is not a prime power")
    k = 1
    while p**k < q:
        k += 1
    return Field(p, k)


def multiplicative_order(F: Field, code: int) -> int:
    """Order of a nonzero code by repeated multiplication (no shortcuts).

    Stops after q - 1 multiplications, which bound every order in a field:
    a product table that never returns to 1 is not a field's.
    """
    if code == 0:
        raise ValueError("0 has no multiplicative order")
    r = code
    for n in range(1, F.q):
        if r == 1:
            return n
        r = F.mul(r, code)
    raise ValueError(f"code {code} does not reach 1 in {F.q - 1} multiplications")


def primitive_element(F: Field) -> FieldElement:
    """First element in code order whose multiplicative order is q - 1."""
    g = generator_powers(lambda a, b: (F.mul(a[0], b[0]),), F.q, 1, 2)[1]
    return FieldElement(F, g[0])
