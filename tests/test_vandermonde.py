import random
from fractions import Fraction

import pytest

from steenrod_kit.chains import Chain, Simplex
from steenrod_kit.rings import F2, F3, F5, QQ, ZZ
from steenrod_kit.vandermonde import _symmetrized_powers, vandermonde_det_factorization, vandermonde_independence

S = [Simplex((v, v + 1)) for v in range(6)]


def _random_chain(rng, ring, nonzero=True):
    while True:
        terms = {s: rng.randint(-4, 4) for s in rng.sample(S, rng.randint(1, 4))}
        c = Chain(ring, 1, terms)
        if not (nonzero and c.is_zero()):
            return c


@pytest.mark.parametrize("ring", [ZZ, QQ, F2, F3, F5])
def test_independence_on_random_draws(ring):
    rng = random.Random(11)
    for _ in range(40):
        t = rng.randint(1, 5)
        chains = []
        while len(chains) < t:
            c = _random_chain(rng, ring)
            if all(c != d for d in chains):
                chains.append(c)
        assert vandermonde_independence(chains, ring)


def test_independence_preconditions_raise():
    c = Chain(ZZ, 1, {S[0]: 1})
    with pytest.raises(ValueError):
        vandermonde_independence([], ZZ)
    with pytest.raises(ValueError):
        vandermonde_independence([c, c], ZZ)  # duplicates
    with pytest.raises(ValueError):
        vandermonde_independence([Chain(ZZ, 1, {})], ZZ)  # zero chain
    with pytest.raises(ValueError):
        vandermonde_independence([c, Chain(ZZ, 0, {Simplex((0,)): 1})], ZZ)  # mixed degree
    with pytest.raises(ValueError):
        vandermonde_independence([c], QQ)  # ring mismatch


def test_scalar_multiples_remain_independent():
    # distinct scalar multiples of one chain are dependent in degree 1 but the
    # truncated diagonal vectors still separate them (classical Vandermonde)
    base = Chain(QQ, 1, {S[0]: 1})
    chains = [base.scale(QQ.coerce(k)) for k in (1, 2, 3)]
    assert vandermonde_independence(chains, QQ)


def test_determinant_factorization():
    for t in range(1, 5):
        assert vandermonde_det_factorization(t)


def _powers_by_repeated_products(terms, count, field):
    """c⁰, …, c^{count−1} in the symmetric algebra, each the previous times c,
    one product of a monomial and a term at a time."""
    powers = [{(): field.one}]
    while len(powers) < count:
        nxt = {}
        for mono, x in powers[-1].items():
            for k, y in terms:
                key = tuple(sorted(mono + (k,)))
                nxt[key] = field.add(nxt.get(key, field.zero), field.mul(x, y))
        powers.append({m: x for m, x in nxt.items() if not field.is_zero(x)})
    return powers


@pytest.mark.parametrize("field", [QQ, F2, F3, F5])
def test_symmetrized_powers_equal_repeated_products(field):
    # up to power 7, past every characteristic tested, where multinomials vanish mod p
    rng = random.Random(5)
    for _ in range(30):
        positions = sorted(rng.sample(range(9), rng.randint(1, 4)))
        if field is QQ:
            values = [Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 3, 7])) for _ in positions]
        else:
            values = [rng.randint(1, field.characteristic - 1) for _ in positions]
        terms = [(k, field.coerce(x)) for k, x in zip(positions, values)]
        got = _symmetrized_powers(terms, 8, field)
        assert got == _powers_by_repeated_products(terms, 8, field)
        assert all(not field.is_zero(x) for power in got for x in power.values())
    # (a + b)^p = a^p + b^p over 𝔽_p: the mixed monomials of degree p vanish
    for p, field_p in ((2, F2), (3, F3), (5, F5)):
        assert set(_symmetrized_powers([(0, 1), (1, 1)], p + 1, field_p)[p]) == {(0,) * p, (1,) * p}
