"""The sparse engines against the dense engines they replaced
(``dense_oracle``).

Over a field both must yield the same canonical representatives and the
same coordinates, for every cycle and for every cycle moved by a boundary,
and the same span solutions.  Over ℤ the groups must agree, and the sparse
engine's own representatives and coordinates must keep the descriptor
contract; the sparse Smith normal form has its own property test.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import dense_oracle
from steenrod_kit import homology as engine
from steenrod_kit import linalg
from steenrod_kit.documents import load_corpus
from steenrod_kit.rings import F2, F3, QQ, ZZ
from steenrod_kit.simplicial import DeltaComplex
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


def _relabeled(name, seed):
    """A corpus space rebuilt from its facets after a seeded permutation of
    its vertices, which reorders the cells and so the pivots."""
    facets = load_corpus(name).cells[2]
    vertices = sorted({v for facet in facets for v in facet})
    image = list(vertices)
    random.Random(seed).shuffle(image)
    perm = dict(zip(vertices, image))
    return DeltaComplex.from_facets([[perm[v] for v in facet] for facet in facets], name=name)


@pytest.mark.parametrize("ring", RINGS, ids=str)
@pytest.mark.parametrize("name, seeds", [("klein", 2), ("rp2", 4)])
def test_engines_agree_on_relabelings(name, seeds, ring):
    for seed in range(seeds):
        space = _relabeled(name, seed)
        complex_ = space.chains(ring)
        rng = random.Random(seed)
        for degree in range(space.dimension + 1):
            _assert_engines_agree(complex_, degree, rng)


@pytest.mark.parametrize("ring", RINGS, ids=str)
@pytest.mark.parametrize("name", ["klein", "torus"])
def test_engines_agree_on_many_classes(name, ring):
    """The 1-skeleton of a relabeled surface: dim H₁ = dim H¹ = E − V + 1,
    and H¹ reads its classes and coordinates past the V − 1 boundaries."""
    edges = _relabeled(name, 5).cells[1]
    space = DeltaComplex.from_facets(edges, name=f"{name}-1")
    complex_ = space.chains(ring)
    assert engine.cohomology(complex_, 1).dimension == len(edges) - complex_.rank(0) + 1 >= 10
    rng = random.Random(name)
    for degree in (0, 1):
        _assert_engines_agree(complex_, degree, rng)


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_engines_agree_in_any_request_order(ring, monkeypatch):
    """The groups of one complex asked for in descending degree order and in
    a seeded shuffle: however the reductions were shared and cleared, the
    representatives and coordinates are the dense engine's, also for a
    class on a column that clearing skipped (its log replayed)."""
    replayed = []
    replay = linalg._replay
    monkeypatch.setattr(linalg, "_replay", lambda *args: replayed.append(args) or replay(*args))
    spaces = [(name, lambda name=name: load_corpus(name)) for name in FAST_CORPUS]
    spaces += [(f"{name}-{seed}", lambda name=name, seed=seed: _relabeled(name, seed))
               for name, seeds in [("klein", 2), ("rp2", 4)] for seed in range(seeds)]
    for label, build in spaces:
        for shuffled in (False, True):
            space = build()
            complex_ = space.chains(ring)
            requests = [(degree, group) for degree in range(space.dimension, -1, -1)
                        for group in (engine.homology, engine.cohomology)]
            if shuffled:
                random.Random(label).shuffle(requests)
            for degree, group in requests:
                group(complex_, degree)
            rng = random.Random(label)
            for degree in range(space.dimension + 1):
                _assert_engines_agree(complex_, degree, rng)
    assert replayed  # some class landed on a skipped column


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
    st.sampled_from(RINGS + (ZZ,)),
    st.integers(1, 6),
    st.lists(st.lists(st.integers(-2, 2), min_size=6, max_size=6), max_size=5),
    st.lists(st.integers(-2, 2), min_size=5, max_size=5),
    st.lists(st.integers(-2, 2), min_size=6, max_size=6),
)
def test_span_solvers_agree(ring, ncols, generators, weights, outside):
    """The engine's ``solver`` against the dense one (``SpanSolver`` over a
    field, ``IntegerSolver`` over ℤ): both find the same vectors outside
    the span (over ℤ solvability is a property of A and b alone); with
    independent generators the coefficients are equal, and the engine's
    coefficients rebuild every vector inside the span."""
    gens = [[ring.coerce(x) for x in g[:ncols]] for g in generators]
    new = linalg.solver([{i: x for i, x in enumerate(g) if x} for g in gens], ncols, ring)
    if ring == ZZ:
        old = dense_oracle.IntegerSolver([[g[i] for g in gens] for i in range(ncols)], len(gens))
        express = old.solve
    else:
        express = dense_oracle.SpanSolver(gens, ncols, ring).express
    independent = len(dense_oracle.rref_field(gens, ncols, QQ if ring == ZZ else ring)[0]) == len(gens)
    inside = [ring.zero] * ncols
    for w, g in zip(weights, gens):
        inside = [ring.add(a, ring.mul(ring.coerce(w), b)) for a, b in zip(inside, g)]
    for vec in (inside, [ring.coerce(x) for x in outside[:ncols]]):
        got, want = new.solve({i: x for i, x in enumerate(vec) if x}), express(vec)
        assert (got is None) == (want is None)
        if got is None:
            continue
        got = [got.get(k, ring.zero) for k in range(len(gens))]
        if independent:
            assert got == want
        rebuilt = [ring.zero] * ncols
        for c, g in zip(got, gens):
            rebuilt = [ring.add(a, ring.mul(c, b)) for a, b in zip(rebuilt, g)]
        assert rebuilt == vec


# ---------------------------------------------------------------------------
# ℤ: the sparse Smith normal form engine
# ---------------------------------------------------------------------------


def _is_cycle(complex_, degree, cohomological, vec):
    if cohomological:  # δ(v) pairs v with every column of ∂_{degree+1}
        return all(sum(vec[i] * x for i, x in col.items()) == 0 for col in complex_.boundary_matrix(degree + 1))
    total = {}
    for j, col in enumerate(complex_.boundary_matrix(degree) if degree > 0 else []):
        for i, x in col.items():
            total[i] = total.get(i, 0) + vec[j] * x
    return not any(total.values())


def _assert_integer_engine(complex_, degree, rng):
    """The groups of both kinds are read first, from the invariant factors
    alone; the representatives and coordinates read after them are built
    then, and must keep the groups and the descriptor contract."""
    n = complex_.rank(degree)
    kinds = [
        (cohomological, new.__name__, new(complex_, degree), old(complex_, degree))
        for cohomological, new, old in (
            (False, engine.homology, dense_oracle.homology),
            (True, engine.cohomology, dense_oracle.cohomology),
        )
    ]
    for _, name, got, want in kinds:
        assert (got.free_rank, got.torsion) == (want.free_rank, want.torsion), (degree, name)
    for cohomological, name, got, want in kinds:
        where = (degree, name)
        orders = got.torsion + [0] * got.free_rank
        reps = got.representatives
        assert len(reps) == len(orders), where
        assert (got.free_rank, got.torsion) == (want.free_rank, want.torsion), where
        for k, rep in enumerate(reps):
            assert _is_cycle(complex_, degree, cohomological, rep), where
            assert got.coordinates(rep) == [int(i == k) for i in range(len(reps))], where
        boundaries = _boundary_vectors(complex_, degree, cohomological)
        for _ in range(3):
            weights = [rng.randint(-3, 3) for _ in reps]
            cycle = [sum(w * rep[i] for w, rep in zip(weights, reps)) for i in range(n)]
            coords = [w % order if order else w for w, order in zip(weights, orders)]
            assert got.coordinates(cycle) == coords, where
            for b in boundaries:
                k = rng.randint(-2, 2)
                shifted = [x + k * y for x, y in zip(cycle, b)]
                assert got.coordinates(shifted) == coords, where
        for j in range(n):
            unit = [int(i == j) for i in range(n)]
            if not _is_cycle(complex_, degree, cohomological, unit):
                with pytest.raises(ValueError):
                    got.coordinates(unit)


@pytest.mark.parametrize("name", FAST_CORPUS)
def test_integer_engine_on_the_fast_corpus(name):
    space = load_corpus(name)
    complex_ = space.chains(ZZ)
    rng = random.Random(name)
    for degree in range(space.dimension + 1):
        _assert_integer_engine(complex_, degree, rng)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_integer_engine_on_random_complexes(seed):
    rng = random.Random(seed)
    complex_ = _random_complex(rng, ZZ)
    for degree in range(3):
        _assert_integer_engine(complex_, degree, rng)


def _dense(vectors, size, by_columns):
    """The matrix with the given sparse rows (or columns), as dense rows."""
    out = [[0] * size for _ in range(size)]
    for k, vec in enumerate(vectors):
        for i, x in vec.items():
            if by_columns:
                out[i][k] = x
            else:
                out[k][i] = x
    return out


def _mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]) if b else 0)] for i in range(len(a))]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 6),
    st.integers(0, 6),
    st.lists(st.integers(-4, 4), min_size=36, max_size=36),
    st.booleans(),
    st.floats(0.0, 1.0),
)
def test_sparse_smith_normal_form(nrows, ncols, entries, even, density):
    """U·A·V = D, U·U⁻¹ = I, V·V⁻¹ = I and d₁ | d₂ | …; with only even
    entries no unit pivot exists, so the whole matrix is the residue."""
    rng = random.Random(repr((entries, density)))
    scale = 2 if even else 1
    a = [[scale * entries[6 * i + j] if rng.random() < density else 0 for j in range(ncols)] for i in range(nrows)]
    rows = [{j: x for j, x in enumerate(row) if x} for row in a]
    form = linalg.sparse_smith(rows, ncols, u=True, v=True)
    u, uinv = _dense(form.u_rows, nrows, False), _dense(form.uinv_cols, nrows, True)
    v, vinv = _dense(form.v_cols, ncols, True), _dense(form.vinv_cols, ncols, True)
    identity = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    assert _mul(u, uinv) == identity
    assert _mul(v, vinv) == [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    d = [[0] * ncols for _ in range(nrows)]
    for r, c, x in form.pivots:
        d[r][c] = x
    if nrows and ncols:
        assert _mul(_mul(u, a), v) == d
    divisors = [x for _, _, x in form.pivots]
    assert all(x >= 1 for x in divisors)
    assert all(y % x == 0 for x, y in zip(divisors, divisors[1:]))
    if even:
        assert all(x % 2 == 0 for x in divisors)
    # one side alone: the same pivots and the same transforms on that side
    only_u = linalg.sparse_smith(rows, ncols, u=True)
    only_v = linalg.sparse_smith(rows, ncols, v=True)
    assert only_u.pivots == only_v.pivots == form.pivots
    assert (only_u.u_rows, only_u.uinv_cols) == (form.u_rows, form.uinv_cols)
    assert (only_v.v_cols, only_v.vinv_cols) == (form.v_cols, form.vinv_cols)
    pivot_cols = {c for _, c, _ in form.pivots}
    for j in range(ncols):  # V's columns off the pivots span the kernel
        if j not in pivot_cols:
            assert all(sum(row[k] * v[k][j] for k in range(ncols)) == 0 for row in a)
