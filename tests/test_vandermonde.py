import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from steenrod_kit import suite, vandermonde
from steenrod_kit.chains import Simplex
from steenrod_kit.linalg import field_rank
from steenrod_kit.rings import F2, F3, F5, QQ, ZZ
from steenrod_kit.vandermonde import _symmetrized_powers, vandermonde_det_factorization, vandermonde_independence

S = [Simplex((v, v + 1)) for v in range(6)]


def _random_chain(rng, ring, nonzero=True):
    while True:
        terms = {s: rng.randint(-4, 4) for s in rng.sample(S, rng.randint(1, 4))}
        c = {s: y for s, x in terms.items() if (y := ring.coerce(x))}
        if c or not nonzero:
            return c


def _random_draws(ring):
    rng = random.Random(11)
    for _ in range(40):
        t = rng.randint(1, 5)
        chains = []
        while len(chains) < t:
            c = _random_chain(rng, ring)
            if all(c != d for d in chains):
                chains.append(c)
        yield chains


@pytest.mark.parametrize("ring", [ZZ, QQ, F2, F3, F5])
def test_independence_on_random_draws(ring):
    for chains in _random_draws(ring):
        assert vandermonde_independence(chains, ring)


def _truncated_rank(chains, ring, count):
    """The rank of the rows (c^{⊗0}, …, c^{⊗(count−1)}) over the fraction
    field, every power built at once and ranked by one ``field_rank`` call."""
    field = QQ if ring is ZZ else ring
    support = sorted({b for c in chains for b in c}, key=lambda b: b.sort_key())
    position = {b: k for k, b in enumerate(support)}
    columns = {}
    rows = []
    for c in chains:
        terms = sorted((position[b], field.coerce(x)) for b, x in c.items())
        powers = _symmetrized_powers(terms, count, field)
        rows.append([(columns.setdefault(m, len(columns)), x) for power in powers for m, x in power.items()])
    return field_rank(rows, field)


@pytest.fixture(scope="module")
def suite_item_run():
    """The ``vandermonde`` suite item run once, recording the (chains, ring)
    of each tuple it draws from ``suite.SEED`` and each ``count`` it passes to
    ``_symmetrized_powers``."""
    tuples, counts = [], []
    independence, powers = vandermonde.vandermonde_independence, vandermonde._symmetrized_powers

    def recording_independence(cs, ring):
        tuples.append((list(cs), ring))
        return independence(cs, ring)

    def recording_powers(terms, count, field):
        counts.append(count)
        return powers(terms, count, field)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(suite, "vandermonde_independence", recording_independence)
        mp.setattr(vandermonde, "_symmetrized_powers", recording_powers)
        status, _ = suite._check_vandermonde(suite.SuiteConfig())
    return status, tuples, counts


def test_early_stop_agrees_with_the_full_degree_matrix(suite_item_run):
    status, tuples, _ = suite_item_run
    assert status == suite.PASS and len(tuples) == 400
    draws = tuples + [(chains, ring) for ring in (ZZ, QQ, F2, F3, F5) for chains in _random_draws(ring)]
    for chains, ring in draws:
        assert vandermonde_independence(chains, ring) == (_truncated_rank(chains, ring, len(chains)) == len(chains))


def test_the_suite_item_stops_at_degree_one(suite_item_run):
    # every drawn tuple is affinely independent, so (1, c) already has rank t;
    # a fallback to the full degree would pass counts up to 5
    _, _, counts = suite_item_run
    assert counts and max(counts) <= 2


def _all_chains(ring):
    """Every nonzero chain over 𝔽_p on the first three edges."""
    p = ring.characteristic
    return [{S[k]: x for k, x in enumerate(values) if x} for values in product(range(p), repeat=3) if any(values)]


@pytest.mark.parametrize(
    "ring, sizes, tuples, affinely_dependent, needed",
    [(F2, range(1, 6), 119, 28, 3), (F3, range(1, 4), 2951, 104, 2)],
    ids=["F2", "F3"],
)
def test_every_small_tuple_is_independent(ring, sizes, tuples, affinely_dependent, needed):
    # the affinely dependent tuples are not settled below degree ``needed``:
    # over 𝔽₂ (a, b, c, a+b+c and every 5-tuple) the mixed monomials of degree
    # 2 vanish mod 2, and over 𝔽₃ a line's three points need a square
    chains = _all_chains(ring)
    drawn = [cs for t in sizes for cs in combinations(chains, t)]
    assert len(drawn) == tuples
    dependent = [cs for cs in drawn if _truncated_rank(cs, ring, 2) < len(cs)]
    assert len(dependent) == affinely_dependent
    assert all(_truncated_rank(cs, ring, needed) < len(cs) for cs in dependent)
    assert all(vandermonde_independence(list(cs), ring) for cs in drawn)


def test_independence_preconditions_raise():
    c = {S[0]: 1}
    with pytest.raises(ValueError, match="at least one"):
        vandermonde_independence([], ZZ)
    with pytest.raises(ValueError, match="pairwise distinct"):
        vandermonde_independence([c, dict(c)], ZZ)  # duplicates
    with pytest.raises(ValueError, match="nonzero"):
        vandermonde_independence([{}], ZZ)  # zero chain
    with pytest.raises(ValueError, match="nonzero"):
        vandermonde_independence([c, {S[1]: 5}], F5)  # zero once coerced
    with pytest.raises(ValueError, match="share a degree"):
        vandermonde_independence([c, {Simplex((0,)): 1}], ZZ)  # mixed degree
    with pytest.raises(ValueError, match="share a degree"):
        vandermonde_independence([{S[0]: 1, Simplex((0,)): 1}], ZZ)  # one chain of two degrees


def test_scalar_multiples_remain_independent():
    # distinct scalar multiples of one chain are dependent in degree 1 but the
    # truncated diagonal vectors still separate them (classical Vandermonde);
    # t points on a line are told apart by no polynomial of degree below t − 1
    for ring, t, terms in ((QQ, 3, {S[0]: 1}), (QQ, 5, {S[0]: 1, S[1]: -2, S[3]: 3}), (F5, 4, {S[0]: 1, S[1]: -2, S[3]: 3})):
        chains = [{b: ring.coerce(k * x) for b, x in terms.items()} for k in range(1, t + 1)]
        assert _truncated_rank(chains, ring, t - 1) == t - 1
        assert vandermonde_independence(chains, ring)


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
