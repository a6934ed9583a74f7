"""Universal coefficients: integral homology predicts homology over every field.

For a complex of free abelian groups, dim Hₙ(C ⊗ 𝔽_p) = rₙ + tₙ(p) + tₙ₋₁(p)
and dim Hₙ(C ⊗ ℚ) = rₙ, where rₙ is the free rank of Hₙ(C) and tₙ(p) the
number of its torsion orders divisible by p.  The field answers come from the
field engine, the integral ones from the Smith normal form: two independent
computations that must agree."""

import random

import pytest

from steenrod_kit.documents import corpus_names, load_corpus
from steenrod_kit.homology import homology
from steenrod_kit.rings import F2, F3, QQ, ZZ
from steenrod_kit.simplicial import SimplicialSetPresentation
from steenrod_kit.suite import _random_complex

FIELDS = (F2, F3, QQ)


def _predicted(integral, n, ring):
    """dim Hₙ over ``ring`` from the integral groups ``integral``."""
    def t(k):
        return sum(1 for order in integral[k].torsion if order % ring.characteristic == 0) if k in integral else 0

    rank = integral[n].free_rank
    return rank if ring.characteristic == 0 else rank + t(n) + t(n - 1)


def _check(complex_of, degrees):
    integral = {n: homology(complex_of(ZZ), n) for n in degrees}
    for ring in FIELDS:
        over = complex_of(ring)
        assert [homology(over, n).dimension for n in degrees] == [_predicted(integral, n, ring) for n in degrees], ring
    return integral


def test_random_complexes_over_z_reduced_mod_p_and_over_q():
    orders = set()
    for seed in range(60):
        # the same draws over every ring: the integral complex, reduced mod p or tensored with ℚ
        integral = _check(lambda ring: _random_complex(random.Random(seed), ring), range(3))
        orders.update(order for group in integral.values() for order in group.torsion)
    assert {2, 3} <= orders  # both primes meet torsion they see and torsion they do not


FAST_CORPUS = [name for name in corpus_names() if name != "rp4"]


@pytest.mark.parametrize("name", FAST_CORPUS)
def test_shipped_spaces(name):
    space = load_corpus(name)
    if isinstance(space, SimplicialSetPresentation):
        _check(space.normalized_chains, range(space.truncation_dim))
    else:
        _check(space.chains, range(space.dimension + 1))
