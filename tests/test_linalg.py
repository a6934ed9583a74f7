import random

import pytest
from hypothesis import given, settings, strategies as st

import dense_oracle
from steenrod_kit.linalg import field_rank, homology_of_matrices, kernel, smith_normal_form, solver
from steenrod_kit.rings import F2, F5, QQ, ZZ


def _mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


small_matrix = st.lists(
    st.lists(st.integers(-6, 6), min_size=1, max_size=4),
    min_size=1,
    max_size=4,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@settings(max_examples=60, deadline=None)
@given(small_matrix)
def test_smith_normal_form_properties(a):
    d, u, uinv, v = smith_normal_form(a)
    # U·A·V = D
    assert _mat_mul(_mat_mul(u, a), v) == d
    # U·Uinv = identity
    n = len(a)
    assert _mat_mul(u, uinv) == [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    # diagonal with divisibility
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    for x, y in zip(diag, diag[1:]):
        if x != 0 and y != 0:
            assert y % x == 0
        assert not (x == 0 and y != 0)
    assert all(x >= 0 for x in diag)


def _columns(rows):
    """The sparse columns of a dense row-matrix, the form the kernels take."""
    return [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(len(rows[0]))]


def _dense(vec, size):
    return [vec.get(i, 0) for i in range(size)]


def test_integer_kernel_and_solve():
    a = [[2, 4, 6], [1, 2, 3]]
    kern = [_dense(v, 3) for v in kernel(_columns(a), ZZ)]
    assert len(kern) == 2
    for vec in kern:
        assert all(sum(row[j] * vec[j] for j in range(3)) == 0 for row in a)
    s = solver(_columns(a), 2, ZZ)  # one factorization, several right-hand sides
    x = _dense(s.solve({0: 2, 1: 1}), 3)
    assert sum(a[0][j] * x[j] for j in range(3)) == 2
    assert s.solve({0: 1, 1: 1}) is None  # incompatible
    assert solver([{0: 2}], 1, ZZ).solve({0: 1}) is None  # 2x = 1 has no integer solution


def test_engine_rank_and_kernel_over_fields():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert field_rank((enumerate(r) for r in rows), QQ) == 2
    assert field_rank((enumerate(r) for r in rows), F5) == 2
    # pivots at columns 0 and 1: the one kernel vector is 1 at the free column 2
    assert [_dense(v, 3) for v in kernel(_columns([[QQ.coerce(x) for x in r] for r in rows]), QQ)] == [[-1, -1, 1]]
    kern = [_dense(v, 3) for v in kernel(_columns([[F5.coerce(x) for x in r] for r in rows]), F5)]
    assert kern == [[4, 4, 1]]
    for row in rows:
        assert F5.is_zero(sum(F5.coerce(x) * k for x, k in zip(row, kern[0])))


def test_span_solver():
    gens = [{0: QQ.coerce(1)}, {0: QQ.coerce(1), 1: QQ.coerce(1)}]
    coeffs = solver(gens, 2, QQ).solve({0: QQ.coerce(3), 1: QQ.coerce(2)})
    assert coeffs is not None
    combo = [sum(c * gens[k].get(i, 0) for k, c in coeffs.items()) for i in range(2)]
    assert combo == [3, 2]
    # outside a 1-dim span
    assert solver([gens[0]], 2, QQ).solve({1: QQ.coerce(1)}) is None


def test_f2_engine_kernel():
    rows = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    # the echelon form has pivots 0 and 1; column 2 is free
    assert [_dense(v, 3) for v in kernel(_columns(rows), F2)] == [[1, 1, 1]]
    # the same matrix as the map out of a degree: H = ker, nothing comes in
    h = homology_of_matrices(F2, [dict(enumerate(r)) for r in rows], [], 3)
    assert h.dimension == 1 and h.representatives == [[1, 1, 1]]
    assert h.coordinates([1, 1, 1]) == [1]
    with pytest.raises(ValueError):
        h.coordinates([1, 0, 0])  # not a cycle


def test_f2_engine_image_and_coordinates():
    # the span of (1,1,0) and (0,1,1) as the image into a degree with no map out
    gens = [{0: 1, 1: 1}, {1: 1, 2: 1}]
    h = homology_of_matrices(F2, [], gens, 3)
    assert h.dimension == 1 and h.representatives == [[0, 0, 1]]
    assert h.coordinates([1, 0, 1]) == [0]  # the sum of both generators
    assert h.coordinates([1, 0, 0]) == [1]  # outside the span


def test_engine_image_and_coordinates_over_an_odd_field():
    # a degree of rank 2 with boundaries spanned by (1, 2): one class, at column 1
    h = homology_of_matrices(F5, [], [{0: 1, 1: 2}], 2)
    assert h.representatives == [[0, 1]]
    assert h.coordinates([3, 1]) == [0]  # 3·(1, 2) = (3, 6) ≡ (3, 1) mod 5
    assert h.coordinates([3, 2]) == [1]  # (3, 1) + (0, 1)


@settings(max_examples=40, deadline=None)
@given(small_matrix, st.integers(0, 10**6), st.sampled_from([ZZ, QQ, F5]))
def test_integer_kernel_is_actual_kernel(a, seed, ring):
    ncols = len(a[0])
    a = [[ring.coerce(x) for x in row] for row in a]
    kern = [_dense(v, ncols) for v in kernel(_columns(a), ring)]
    assert len(kern) == ncols - field_rank((enumerate(row) for row in a), QQ if ring == ZZ else ring)
    rng = random.Random(seed)
    if kern:
        weights = [ring.coerce(rng.randint(-3, 3)) for _ in kern]
        combo = [sum(w * vec[j] for w, vec in zip(weights, kern)) for j in range(ncols)]
        assert all(ring.is_zero(ring.coerce(sum(row[j] * combo[j] for j in range(ncols)))) for row in a)


@st.composite
def _rank_case(draw):
    """(ring, ncols, rows, permutation of the columns): integer rows over ℚ,
    𝔽₂ or 𝔽₅ with a duplicate row and a sum of two rows appended, shuffled."""
    ring = draw(st.sampled_from([QQ, F2, F5]))
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols), max_size=5))
    if rows:
        rows.append(list(draw(st.sampled_from(rows))))
        left, right = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        rows.append([x + y for x, y in zip(left, right)])
    return ring, ncols, draw(st.permutations(rows)), draw(st.permutations(range(ncols)))


@settings(max_examples=150, deadline=None)
@given(_rank_case())
def test_field_rank_equals_the_dense_rank(case):
    ring, ncols, rows, perm = case
    want = len(dense_oracle.rref_field([[ring.coerce(x) for x in row] for row in rows], ncols, ring)[1])
    assert field_rank((enumerate(row) for row in rows), ring) == want
    # the rank does not depend on how the columns are numbered
    assert field_rank(([(perm[j], x) for j, x in enumerate(row) if x] for row in rows), ring) == want
    if rows:
        assert want < len(rows)  # the appended rows are dependent, and the deficit is seen


def test_field_rank_eliminates_below_the_top_entries():
    # the last row is the sum of the first two: its top entry meets a pivot and
    # two eliminations take it to zero
    rows = [[(0, 1), (2, 1)], [(1, 1), (3, 1)], [(0, 1), (1, 1), (2, 1), (3, 1)]]
    # two rows with one top entry are still independent
    shared_top = [[(0, 1), (2, 1)], [(1, 1), (2, 1)]]
    for ring in (QQ, F2, F5):
        assert field_rank(rows, ring) == 2
        assert field_rank(rows[:2] + [[(4, 1)]], ring) == 3
        assert field_rank(shared_top, ring) == 2
