"""Field layer: moduli, codec, arithmetic, axiom sweeps."""

import itertools
import time

import numpy as np
import pytest

from ucycle.gf import (
    Field,
    _is_irreducible,
    _prime_factors,
    _tables,
    field_from_order,
    field_make,
    multiplicative_order,
    primitive_element,
    smallest_irreducible,
)

GRID_Q = [2, 3, 4, 5, 7, 8, 9]


def test_prime_field_arithmetic_mod_2():
    F = field_make(2, 1)
    assert F.q == 2
    assert F.add(1, 1) == 0
    assert F.mul(1, 1) == 1


def test_modulus_gf4_is_x2_x_1():
    # only monic irreducible quadratic over GF(2)
    assert field_make(2, 2).modulus == (1, 1, 1)


def test_modulus_gf9_is_x2_1():
    # x^2 + 1 has no root mod 3 and precedes the other irreducibles
    assert field_make(3, 2).modulus == (1, 0, 1)


def test_modulus_scan_order_is_low_degree_first():
    # over GF(3), (0,1) i.e. x^2+x is scanned before (1,0) i.e. x^2+1
    assert smallest_irreducible(field_make(3), 2) == (1, 0, 1)
    # over GF(2), (1,0,1) i.e. x^3+x^2+1 precedes (1,1,0) i.e. x^3+x+1
    assert smallest_irreducible(field_make(2), 3) == (1, 0, 1, 1)


def test_modulus_over_an_extension_field():
    # over GF(4) = GF(2)[t]/(t^2+t+1), with t the code 2: c0 = 0 gives
    # x(x + c1), x^2 + 1 = (x + 1)^2, x^2 + x + 1 has the roots t and t + 1,
    # and x^2 + t x + 1 has no root, so it is the first irreducible quadratic
    assert smallest_irreducible(field_make(2, 2), 2) == (1, 2, 1)


PRIME_POWERS_64 = [q for q in range(2, 65) if len(_prime_factors(q)) == 1]


@pytest.mark.parametrize("q", PRIME_POWERS_64)
def test_modulus_scan_matches_the_full_scan(q):
    # the full scan from c0 = 0 is the reference for the scan that skips it
    K = field_from_order(q)
    tables = _tables(K)
    for k in (2, 3):
        reference = next(
            low + (1,)
            for low in itertools.product(range(q), repeat=k)
            if _is_irreducible(low + (1,), tables)
        )
        assert smallest_irreducible(K, k) == reference


@pytest.mark.parametrize("p", [1, 4, 6, 9])
def test_non_prime_characteristic_rejected(p):
    with pytest.raises(ValueError):
        field_make(p, 1)


def test_bad_degree_rejected():
    with pytest.raises(ValueError):
        field_make(2, 0)


@pytest.mark.parametrize("p,k", [(2, 40), (10**18 + 3, 1)])
def test_field_refuses_huge_orders_at_once(p, k):
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds the bound 512"):
        Field(p, k)
    assert time.perf_counter() - t0 < 1.0


def test_order_bound_and_env_override(monkeypatch):
    with pytest.raises(ValueError):
        field_make(2, 10)  # 1024 > 512 default
    monkeypatch.setenv("UCYCLE_MAX_Q", "8")
    with pytest.raises(ValueError):
        field_make(3, 2)
    monkeypatch.setenv("UCYCLE_MAX_Q", "16")
    assert field_make(3, 2).q == 9
    monkeypatch.setenv("UCYCLE_MAX_Q", "32")
    assert field_make(2, 5).q == 32  # the bound itself is allowed
    monkeypatch.setenv("UCYCLE_MAX_Q", " 7 ")  # as int() reads it
    assert field_make(7).q == 7
    with pytest.raises(ValueError, match="exceeds the bound 7"):
        field_make(2, 3)


def test_gf3_two_times_two():
    F = field_make(3)
    assert F.mul(2, 2) == 1


def test_gf4_x_times_x():
    # with modulus x^2+x+1: x*x = x+1, codes 2*2 -> 3
    F = field_make(2, 2)
    assert F.mul(2, 2) == 3


def test_gf5_inverse_of_two():
    F = field_make(5)
    assert F.inv(2) == 3


def test_elements_order_and_codec():
    F2 = field_make(2)
    assert [e.code for e in F2.elements()] == [0, 1]
    F4 = field_make(2, 2)
    assert [e.coeffs for e in F4.elements()] == [(0, 0), (1, 0), (0, 1), (1, 1)]
    F3 = field_make(3)
    assert [e.code for e in F3.elements()] == [0, 1, 2]
    for q in GRID_Q:
        F = field_from_order(q)
        codes = [e.code for e in F.elements()]
        assert codes == list(range(q))
        # the base-p digits of each code read back to the code
        assert all(sum(d * F.p**i for i, d in enumerate(F.coeffs(c))) == c for c in codes)


def test_primitive_element_examples():
    assert primitive_element(field_make(2)).code == 1
    assert primitive_element(field_make(3)).code == 2
    F8 = field_make(2, 3)
    g = primitive_element(F8).code
    powers = set()
    x = 1
    for _ in range(7):
        x = F8.mul(x, g)
        powers.add(x)
    assert len(powers) == 7  # order 7, the whole multiplicative group


@pytest.mark.parametrize("q", GRID_Q + [16, 27, 64, 81, 125, 128])
def test_primitive_element_order(q):
    # the generator rule against the naive order loop: the chosen element has
    # order q - 1, and every smaller code has a smaller order
    F = field_from_order(q)
    g = primitive_element(F).code
    assert multiplicative_order(F, g) == q - 1
    assert all(multiplicative_order(F, c) < q - 1 for c in range(1, g))


def test_multiplicative_order_stops_on_a_broken_table(monkeypatch):
    # every nonzero product is 2, so the powers of 2 never return to 1: the
    # order loop must fail after q - 1 steps instead of spinning
    F = field_make(3, 2)
    assert multiplicative_order(F, 2) == 2  # 2 = -1 in GF(3)
    add, _, neg, inv = F.arrays
    broken = np.array([[2 if a and b else 0 for b in range(F.q)] for a in range(F.q)])
    monkeypatch.setattr(F, "arrays", (add, broken, neg, inv))
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="does not reach 1 in 8 multiplications"):
        multiplicative_order(F, 2)
    assert time.perf_counter() - t0 < 1.0


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        field_make(3).inv(0)


def schoolbook_mul(a, b, modulus, p):
    """a*b mod (modulus, p) on coefficient lists, with plain integers."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    k = len(modulus) - 1
    for top in range(len(prod) - 1, k - 1, -1):
        lead = prod[top]
        for i, m in enumerate(modulus):
            prod[top - k + i] -= lead * m
    return tuple(c % p for c in prod[:k])


TABLE_Q = [4, 8, 9, 25, 27, 64, 81, 125, 128]


@pytest.mark.parametrize("q", TABLE_Q)
def test_mul_table_matches_polynomial_arithmetic(q):
    # independent re-computation of the multiplication table
    F = field_from_order(q)
    for a in range(q):
        for b in range(q):
            assert F.coeffs(F.mul(a, b)) == schoolbook_mul(F.coeffs(a), F.coeffs(b), F.modulus, F.p)


@pytest.mark.parametrize("q", TABLE_Q)
def test_add_table_matches_digitwise_sum(q):
    # independent re-computation of the addition and negation tables
    F = field_from_order(q)
    for a in range(q):
        ca = F.coeffs(a)
        assert F.coeffs(F.neg(a)) == tuple(-x % F.p for x in ca)
        for b in range(q):
            assert F.coeffs(F.add(a, b)) == tuple((x + y) % F.p for x, y in zip(ca, F.coeffs(b)))


def int64_tables(F):
    """add, mul, neg and inv of GF(q), for q prime or a power of 2, built in
    int64 without the field's tables: residues mod q, or bit vectors with
    carry-less products reduced by the field's modulus."""
    a = np.arange(F.q, dtype=np.int64)
    if F.k == 1:
        add, mul, neg = (a[:, None] + a) % F.q, (a[:, None] * a) % F.q, -a % F.q
    else:
        assert F.p == 2
        modulus = sum(c << i for i, c in enumerate(F.modulus))  # x^k included
        add, mul, neg, x = a[:, None] ^ a, np.zeros((F.q, F.q), dtype=np.int64), a, a[:, None]
        for bit in range(F.k):
            mul = mul ^ np.where((a >> bit) & 1, x, 0)
            x = x << 1
            x = np.where(x & F.q, x ^ modulus, x)  # x^k reduced
    inv = np.argmax(mul == 1, axis=1)  # 0 for 0, whose row has no 1
    return add, mul, neg, inv


@pytest.mark.parametrize("q", [2, 256, 257, 512])
def test_tables_are_narrow_and_equal_the_int64_build(q):
    # the dtype edges: uint8 holds the codes of GF(256), uint16 those of
    # GF(257) and GF(512); under numpy 2 a uint8 sum with a Python int wraps
    F = field_from_order(q)
    for table, want in zip(F.arrays, int64_tables(F)):
        assert table.dtype == np.min_scalar_type(q - 1)
        assert np.array_equal(table.astype(np.int64), want)


def test_gf2048_tables_build_fast(monkeypatch):
    # the tables come from the q - 1 powers of the generator: O(q)
    # polynomial products, then numpy indexing
    monkeypatch.setenv("UCYCLE_MAX_Q", "2048")
    t0 = time.perf_counter()
    F = Field(2, 11)
    assert time.perf_counter() - t0 < 5.0
    assert all(F.mul(a, F.inv(a)) == 1 for a in range(1, F.q))


@pytest.mark.parametrize("q", GRID_Q)
def test_field_axioms_all_triples(q):
    F = field_from_order(q)
    els = range(q)
    for a, b in itertools.product(els, repeat=2):
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
    for a, b, c in itertools.product(els, repeat=3):
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    for a in els:
        assert F.add(a, F.neg(a)) == 0
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        if a:
            assert F.mul(a, F.inv(a)) == 1
    # the code-level methods return plain ints, not numpy scalars
    for a, b in itertools.product(els, repeat=2):
        out = [F.add(a, b), F.sub(a, b), F.mul(a, b), F.neg(a)]
        out += [F.inv(a)] if a else []
        assert all(type(x) is int for x in out)


def test_field_value_equality():
    assert field_make(3, 2) == field_make(3, 2)
    assert field_make(3, 2) != field_make(3, 1)
    assert field_from_order(9) == field_make(3, 2)
    # elements compare by field and code
    assert field_make(3).elements()[1] == field_make(3).elements()[1]
    assert field_make(3).elements()[1] != field_make(5).elements()[1]
    with pytest.raises(ValueError):
        field_from_order(6)


def test_field_json_shape():
    # p, k and the modulus identify a field
    F9, F2 = field_make(3, 2), field_make(2)
    assert (F9.p, F9.k, F9.modulus) == (3, 2, (1, 0, 1))
    assert (F2.p, F2.k, F2.modulus) == (2, 1, (0, 1))
