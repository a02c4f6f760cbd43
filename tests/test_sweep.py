"""Tier-1 sweep: every small admitted size, built and checked for exact cover.

Every (n, q) with q <= 512 and at most 2^16 affine lines goes through
``universal_cycle`` and ``verify_affine`` (87 cases), and every level of
``nested_cycles`` with at most 2^14 planes through ``verify_grassmann``
(58 levels).
"""

import pytest

from ucycle.constructions import universal_cycle
from ucycle.gf import field_from_order, is_prime
from ucycle.grassmann import nested_cycles
from ucycle.verify import affine_line_count, gaussian_binomial_2, verify_affine, verify_grassmann

ORDERS = sorted(
    p**k for p in range(2, 513) if is_prime(p) for k in range(1, 10) if p**k <= 512
)

AFFINE = [
    (n, q)
    for q in ORDERS
    for n in range(2, 17)
    if affine_line_count(n, q) <= 2**16
]

# the top chain level per q: the largest m with at most 2^14 planes
CHAINS = {
    q: max(m for m in range(3, 15) if gaussian_binomial_2(m, q) <= 2**14)
    for q in ORDERS
    if gaussian_binomial_2(3, q) <= 2**14
}


def test_sweep_sizes():
    assert len(AFFINE) == 87
    assert sum(m - 2 for m in CHAINS.values()) == 58


@pytest.mark.parametrize("n,q", AFFINE)
def test_affine_sweep(n, q):
    F = field_from_order(q)
    c = universal_cycle(n, F)
    rep = verify_affine(c, n, F)
    assert rep.passed, rep.summary()
    assert len(c) == affine_line_count(n, q)


@pytest.mark.parametrize("q,top", sorted(CHAINS.items()))
def test_grassmann_sweep(q, top):
    F = field_from_order(q)
    levels = nested_cycles(top, F)
    assert len(levels) == top - 2
    for m, gc in enumerate(levels, start=3):
        rep = verify_grassmann(gc, m, F)
        assert rep.passed, (m, rep.summary())
        assert len(gc) == gaussian_binomial_2(m, q)
