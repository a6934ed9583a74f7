import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import dense_oracle
from steenrod_kit.chains import Cell, ChainComplex
from steenrod_kit.homology import homology
from steenrod_kit.linalg import field_homology, field_rank, is_invertible, kernel, reduce_columns, solver, sparse_smith
from steenrod_kit.rings import F2, F3, F5, QQ, ZZ


def _mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


small_matrix = st.lists(
    st.lists(st.integers(-6, 6), min_size=1, max_size=4),
    min_size=1,
    max_size=4,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


def _assert_smith_form(a, d, u, uinv, v):
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


def _smith(a, u=True, v=True):
    """``sparse_smith`` of a dense matrix as dense (D, U, U⁻¹, V, V⁻¹), its
    rows and columns permuted so that the pivots lie on the diagonal."""
    rows, cols = len(a), len(a[0])
    form = sparse_smith([{j: x for j, x in enumerate(row) if x} for row in a], cols, u=u, v=v)
    row_order = [r for r, _, _ in form.pivots]
    row_order += [i for i in range(rows) if i not in row_order]
    col_order = [c for _, c, _ in form.pivots]
    col_order += [j for j in range(cols) if j not in col_order]
    d = [[0] * cols for _ in range(rows)]
    for t, (_, _, x) in enumerate(form.pivots):
        d[t][t] = x
    if not u:
        assert form.u_rows == form.uinv_cols == []
    if not v:
        assert form.v_cols == form.vinv_cols == []
    return (
        d,
        [[form.u_rows[r].get(k, 0) for k in range(rows)] for r in row_order] if u else None,
        [[form.uinv_cols[r].get(i, 0) for r in row_order] for i in range(rows)] if u else None,
        [[form.v_cols[c].get(j, 0) for c in col_order] for j in range(cols)] if v else None,
        [[form.vinv_cols[k].get(c, 0) for k in range(cols)] for c in col_order] if v else None,
    )


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


@settings(max_examples=60, deadline=None)
@given(small_matrix)
def test_smith_normal_form_properties(a):
    d, u, uinv, v, vinv = _smith(a)
    _assert_smith_form(a, d, u, uinv, v)
    assert _mat_mul(v, vinv) == _identity(len(v))


@settings(max_examples=60, deadline=None)
@given(small_matrix)
def test_the_oracle_smith_form_has_the_same_properties(a):
    d, u, uinv, v = dense_oracle.smith_form(a)
    _assert_smith_form(a, d, u, uinv, v)
    assert d == _smith(a)[0]  # D is unique


@pytest.mark.parametrize("a, divisors", [
    ([[2, 0], [0, 3]], [1, 6]),
    ([[2, 4], [6, 8]], [2, 4]),
])
def test_smith_normal_form_of_a_block_with_no_unit_entry(a, divisors):
    d, u, uinv, v, vinv = _smith(a)
    _assert_smith_form(a, d, u, uinv, v)
    assert _mat_mul(v, vinv) == _identity(len(v))
    assert [d[t][t] for t in range(len(divisors))] == divisors


def test_smith_normal_form_of_an_even_block_with_only_v():
    a = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    d, _, _, v, vinv = _smith(a, u=False)
    assert [d[t][t] for t in range(3)] == [2, 6, 12]
    assert _mat_mul(v, vinv) == _identity(3)
    # A·V = U⁻¹·D: its t-th column is d_t times a column of a unimodular
    # matrix, whose entries are coprime
    av = _mat_mul(a, v)
    for t in range(3):
        assert math.gcd(*(row[t] for row in av)) == d[t][t]


def _det(m):
    """Cofactor expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * x * _det([row[:j] + row[j + 1:] for row in m[1:]]) for j, x in enumerate(m[0]) if x)


@settings(max_examples=60, deadline=None)
@given(small_matrix)
def test_invariant_factors_are_quotients_of_the_determinantal_divisors(a):
    # d₁⋯d_k is the gcd of the k×k minors, computed here with no code of linalg
    d = _smith(a)[0]
    rows, cols = len(a), len(a[0])
    product = 1
    for k in range(1, min(rows, cols) + 1):
        product *= d[k - 1][k - 1]
        minors = [_det([[a[i][j] for j in cs] for i in rs]) for rs in combinations(range(rows), k)
                  for cs in combinations(range(cols), k)]
        assert product == math.gcd(*minors), (k, d)


def _columns(rows):
    """The sparse columns of a dense row-matrix, the form the kernels take."""
    return [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(len(rows[0]))]


def _dense(vec, size):
    return [vec.get(i, 0) for i in range(size)]


def _coerced(vec, ring):
    """A sparse vector of raw integer entries as the ring's nonzero elements."""
    return {i: ring.coerce(x) for i, x in vec.items() if not ring.is_zero(ring.coerce(x))}


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


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([ZZ, QQ, F2, F3, F5]), st.integers(0, 4), st.lists(st.integers(-2, 2), min_size=16, max_size=16))
def test_is_invertible_means_every_unit_vector_is_solvable(ring, size, entries):
    columns = [_coerced({i: entries[4 * j + i] for i in range(size)}, ring) for j in range(size)]
    onto = solver(columns, size, ring)
    assert is_invertible(columns, size, ring) == all(onto.solve({j: ring.one}) is not None for j in range(size))


def test_a_determinant_two_matrix_is_invertible_over_q_only():
    a = [[1, 1], [-1, 1]]  # det 2, every entry a unit
    assert not is_invertible(_columns(a), 2, ZZ)
    assert is_invertible([_coerced(col, QQ) for col in _columns(a)], 2, QQ)
    assert not is_invertible([_coerced(col, F2) for col in _columns(a)], 2, F2)
    assert is_invertible(_columns([[1, 1], [0, 1]]), 2, ZZ)
    assert is_invertible([], 0, ZZ) and not is_invertible([{0: 1}], 2, ZZ)


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
    # raw entries act as their coerced values: over 𝔽₃ the 3 and the 6 are zero entries
    for ring in (F5, F3):
        assert kernel(_columns(rows), ring) == kernel(_columns([[ring.coerce(x) for x in r] for r in rows]), ring)
    assert [_dense(v, 3) for v in kernel(_columns(rows), F3)] == [[2, 2, 1]]


def test_span_solver():
    gens = [{0: QQ.coerce(1)}, {0: QQ.coerce(1), 1: QQ.coerce(1)}]
    coeffs = solver(gens, 2, QQ).solve({0: QQ.coerce(3), 1: QQ.coerce(2)})
    assert coeffs is not None
    combo = [sum(c * gens[k].get(i, 0) for k, c in coeffs.items()) for i in range(2)]
    assert combo == [3, 2]
    # outside a 1-dim span
    assert solver([gens[0]], 2, QQ).solve({1: QQ.coerce(1)}) is None
    # raw entries solve as their coerced values do; over 𝔽₂ the 2 is a zero entry
    raw, b = [{0: 4, 1: 2}, {0: -1, 1: 3}], {0: 3, 1: -1}
    for ring in (F2, F3):
        gens = [_coerced(g, ring) for g in raw]
        coeffs = solver(raw, 2, ring).solve(b)
        assert coeffs is not None and coeffs == solver(gens, 2, ring).solve(_coerced(b, ring))
        combo = [ring.coerce(sum(c * gens[k].get(i, 0) for k, c in coeffs.items())) for i in range(2)]
        assert combo == [ring.coerce(b[i]) for i in range(2)]
        assert solver(raw[:1], 2, ring).solve({1: -1}) is None


def _homology_of_columns(ring, out_cols, in_cols, rank):
    """ker(out)/im(in) at a degree of rank ``rank``: H_1 of a complex with the
    map out of degree 1 into degree 0 and the map into it from degree 2, the
    columns given with raw entries, which the complex coerces."""
    ranks = {0: max((r + 1 for col in out_cols for r in col), default=0), 1: rank, 2: len(in_cols)}
    columns = {0: [{}] * ranks[0], 1: out_cols or [{}] * rank, 2: in_cols}
    basis = {d: [Cell(d, ("b", d, k)) for k in range(size)] for d, size in ranks.items()}
    return homology(ChainComplex(ring, basis, columns, 2, exhaustive=True), 1)


def test_f2_engine_kernel():
    # given as it is and with raw entries: 3 ≡ −1 ≡ 1, and 2 ≡ 4 ≡ 0 is dropped
    for rows in ([[1, 1, 0], [0, 1, 1], [1, 0, 1]], [[3, -1, 2], [2, 1, 3], [-1, 4, 3]]):
        # the echelon form has pivots 0 and 1; column 2 is free
        assert [_dense(v, 3) for v in kernel(_columns(rows), F2)] == [[1, 1, 1]]
        # the same matrix as the map out of a degree: H = ker, nothing comes in
        h = _homology_of_columns(F2, [dict(enumerate(r)) for r in rows], [], 3)
        assert h.dimension == 1 and h.representatives == [[1, 1, 1]]
        assert h.coordinates([1, 1, 1]) == [1]
        assert h.coordinates([3, -1, 1]) == [1]
        with pytest.raises(ValueError):
            h.coordinates([1, 0, 0])  # not a cycle


def test_f2_engine_image_and_coordinates():
    # the span of (1,1,0) and (0,1,1) as the image into a degree with no map out,
    # given as it is and with raw entries (the 2 and the 4 are zero entries)
    for gens in ([{0: 1, 1: 1}, {1: 1, 2: 1}], [{0: 3, 1: -1, 2: 2}, {0: 4, 1: 1, 2: -1}]):
        h = _homology_of_columns(F2, [], gens, 3)
        assert h.dimension == 1 and h.representatives == [[0, 0, 1]]
        assert h.coordinates([1, 0, 1]) == [0]  # the sum of both generators
        assert h.coordinates([1, 0, 0]) == [1]  # outside the span
        assert h.coordinates([-1, 2, 3]) == [0]


def test_field_homology_refuses_a_boundary_pivot_on_a_pivot_column():
    # the out-map reduced without clearing: its column 0, the in-map's pivot row, is not free
    in_pivots, logs = reduce_columns(F2, [{0: 1}]), []
    out_pivots = reduce_columns(F2, [{0: 1}], logs=logs)
    with pytest.raises(ArithmeticError, match="not a free column"):
        field_homology(F2, [{0: 1}], 1, out_pivots, logs, in_pivots)


def test_engine_image_and_coordinates_over_an_odd_field():
    # a degree of rank 2 with boundaries spanned by (1, 2): one class, at column 1
    h = _homology_of_columns(F5, [], [{0: 1, 1: 2}], 2)
    assert h.representatives == [[0, 1]]
    assert h.coordinates([3, 1]) == [0]  # 3·(1, 2) = (3, 6) ≡ (3, 1) mod 5
    assert h.coordinates([3, 2]) == [1]  # (3, 1) + (0, 1)
    # over 𝔽₃, given as it is and with raw entries: 4 ≡ 1, −1 ≡ 2
    for col in ({0: 1, 1: 2}, {0: 4, 1: -1}):
        h = _homology_of_columns(F3, [], [col], 2)
        assert h.representatives == [[0, 1]]
        assert h.coordinates([2, 1]) == h.coordinates([-1, 4]) == [0]  # 2·(1, 2) ≡ (2, 1)
        assert h.coordinates([2, 2]) == h.coordinates([-1, -1]) == [1]


@settings(max_examples=40, deadline=None)
@given(small_matrix, st.integers(0, 10**6), st.sampled_from([ZZ, QQ, F2, F3, F5]))
def test_integer_kernel_is_actual_kernel(a, seed, ring):
    ncols = len(a[0])
    raw, a = a, [[ring.coerce(x) for x in row] for row in a]
    if ring.is_field:  # raw entries give the kernel of their coerced values
        assert kernel(_columns(raw), ring) == kernel(_columns(a), ring)
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
    𝔽₂, 𝔽₃ or 𝔽₅ with a duplicate row and a sum of two rows appended, shuffled."""
    ring = draw(st.sampled_from([QQ, F2, F3, F5]))
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
