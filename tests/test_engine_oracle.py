"""The sparse echelon engine against the dense RREF engine it replaced
(``dense_oracle``): both must yield the same canonical representatives and
the same coordinates, for every cycle and for every cycle moved by a
boundary, and the same span solutions."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import dense_oracle
from steenrod_kit import homology as engine
from steenrod_kit import linalg
from steenrod_kit.documents import load_corpus
from steenrod_kit.rings import F2, F3, QQ
from steenrod_kit.suite import FAST_CORPUS, _random_complex

RINGS = (F2, F3, QQ)


def _boundary_vectors(complex_, degree, cohomological):
    """The columns of the map into ``degree`` as dense vectors."""
    n = complex_.rank(degree)
    if cohomological:  # the columns of δ^{degree−1}: the rows of ∂_degree
        cols = [{} for _ in range(complex_.rank(degree - 1))]
        for j, col in enumerate(complex_.boundary_matrix(degree) if degree > 0 else []):
            for i, x in col.items():
                cols[i][j] = x
    else:
        cols = complex_.boundary_matrix(degree + 1)
    return [[col.get(i, complex_.ring.zero) for i in range(n)] for col in cols]


def _assert_engines_agree(complex_, degree, rng):
    ring = complex_.ring
    for cohomological, new, old in (
        (False, engine.homology, dense_oracle.homology),
        (True, engine.cohomology, dense_oracle.cohomology),
    ):
        got, want = new(complex_, degree), old(complex_, degree)
        where = (complex_.ring, degree, new.__name__)
        assert got.free_rank == want.free_rank, where
        assert got.representatives == want.representatives, where
        boundaries = _boundary_vectors(complex_, degree, cohomological)
        for rep in want.representatives:
            assert got.coordinates(rep) == want.coordinates(rep), where
        # a random combination of the classes, shifted by random boundaries
        for _ in range(3):
            cycle = [ring.zero] * complex_.rank(degree)
            for vec in want.representatives + boundaries:
                c = ring.coerce(rng.randint(-2, 2))
                cycle = [ring.add(a, ring.mul(c, b)) for a, b in zip(cycle, vec)]
            coords = want.coordinates(cycle)
            assert got.coordinates(cycle) == coords, where
            if boundaries:
                shifted = [ring.add(a, b) for a, b in zip(cycle, rng.choice(boundaries))]
                assert got.coordinates(shifted) == coords, where


@pytest.mark.parametrize("ring", RINGS, ids=str)
@pytest.mark.parametrize("name", FAST_CORPUS)
def test_engines_agree_on_the_fast_corpus(name, ring):
    space = load_corpus(name)
    complex_ = space.chains(ring)
    rng = random.Random(name)
    for degree in range(space.dimension + 1):
        _assert_engines_agree(complex_, degree, rng)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(RINGS))
def test_engines_agree_on_random_complexes(seed, ring):
    rng = random.Random(seed)
    complex_ = _random_complex(rng, ring)
    # the complex is truncated at 3: degrees 0–2 have both maps
    for degree in range(3):
        _assert_engines_agree(complex_, degree, rng)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(RINGS),
    st.integers(1, 6),
    st.lists(st.lists(st.integers(-2, 2), min_size=6, max_size=6), max_size=5),
    st.lists(st.integers(-2, 2), min_size=5, max_size=5),
    st.lists(st.integers(-2, 2), min_size=6, max_size=6),
)
def test_span_solvers_agree(ring, ncols, generators, weights, outside):
    """The engine ``SpanSolver`` against the dense one: with independent
    generators the coefficients are equal; with dependent ones both find
    the same vectors outside the span, and the engine's coefficients
    rebuild every vector inside it."""
    gens = [[ring.coerce(x) for x in g[:ncols]] for g in generators]
    new = linalg.SpanSolver(gens, ncols, ring)
    old = dense_oracle.SpanSolver(gens, ncols, ring)
    independent = len(dense_oracle.rref_field(gens, ncols, ring)[0]) == len(gens)
    inside = [ring.zero] * ncols
    for w, g in zip(weights, gens):
        inside = [ring.add(a, ring.mul(ring.coerce(w), b)) for a, b in zip(inside, g)]
    for vec in (inside, [ring.coerce(x) for x in outside[:ncols]]):
        got, want = new.express(vec), old.express(vec)
        assert (got is None) == (want is None)
        if got is None:
            continue
        if independent:
            assert got == want
        rebuilt = [ring.zero] * ncols
        for c, g in zip(got, gens):
            rebuilt = [ring.add(a, ring.mul(c, b)) for a, b in zip(rebuilt, g)]
        assert rebuilt == vec
