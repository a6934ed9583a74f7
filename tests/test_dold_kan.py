import copy
import functools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from steenrod_kit import dold_kan
from steenrod_kit.chains import Cell, ChainComplex
from steenrod_kit.diagonal import DiagonalTable
from steenrod_kit.documents import corpus_names, load_corpus
from steenrod_kit.dold_kan import (
    ChainMap,
    SimplicialAbelianGroup,
    _compose,
    chain_hurewicz,
    dold_kan_round_trip,
    free_simplicial_abelian,
    gamma,
    gamma_X,
    hurewicz_chain_map,
    hurewicz_square_defect,
    hurewicz_square_defects,
    moore_complex,
    pointed_unnormalized_chains,
)
from steenrod_kit.homology import homology
from steenrod_kit.rings import F2, F3, F5, QQ, ZZ
from steenrod_kit.simplicial import (
    DeltaComplex,
    SimplicialSetPresentation,
    all_surjection_words,
    compose_degeneracy,
    compose_face,
    freely_add_degeneracies,
    point_complex,
    standard_delta,
)
from steenrod_kit.suite import _random_complex


def _interval(ring=ZZ, truncation=4):
    return freely_add_degeneracies(standard_delta(1), truncation)


def _sphere_complex(ring):
    # one generator in degrees 0 and 2, zero boundary
    basis = {0: [Cell(0, "pt")], 2: [Cell(2, "top")]}
    return ChainComplex(ring, basis, {0: [{}], 2: [{}]}, 3)


def test_validation_catches_broken_identities():
    ring = ZZ
    levels = {0: ["a"], 1: ["x"]}
    # d_0 and d_1 both send x to a; s_0 sends a to x — fine
    good = SimplicialAbelianGroup(
        ring,
        levels,
        {(1, 0): [{0: 1}], (1, 1): [{0: 1}]},
        {(0, 0): [{0: 1}]},
        1,
    )
    assert good.rank(1) == 1
    with pytest.raises(ValueError):
        SimplicialAbelianGroup(
            ring,
            levels,
            {(1, 0): [{0: 1}], (1, 1): [{0: 2}]},  # d_1 s_0 ≠ id
            {(0, 0): [{0: 1}]},
            1,
        )


@pytest.mark.parametrize("faces, degs, message", [
    ({(1, 0): [0], (1, 1): [0]}, {(0, 0): [7]}, "s_0 on level 0 of 'one-edge' sends generator 0 to 7, not a generator of level 1"),
    ({(1, 0): [0], (1, 1): [-1]}, {(0, 0): [0]}, "d_1 on level 1 of 'one-edge' sends generator 0 to -1, not a generator of level 0"),
    ({(1, 0): [{0: 1}], (1, 1): [{3: 1}]}, {(0, 0): [0]}, "d_1 on level 1 of 'one-edge' sends generator 0 to 3, not a generator of level 0"),
    ({(1, 0): [0, 0], (1, 1): [0]}, {(0, 0): [0]}, "d_0 on level 1 of 'one-edge' has 2 entries for 1 generators"),
])
def test_a_map_entry_off_the_next_level_is_named(faces, degs, message):
    with pytest.raises(ValueError) as err:
        SimplicialAbelianGroup(ZZ, {0: ["a"], 1: ["x"]}, faces, degs, 1, name="one-edge")
    assert str(err.value) == message


def _two_vertex_group(ring, s0_of_a, d1_of_w=1):
    # vertices a, b; edges x, y, z, w with d_0 = d_1 = (a, b, b, b), except
    # that d_1 w = d1_of_w·b; s_0 a = s0_of_a and s_0 b = w
    return SimplicialAbelianGroup(
        ring,
        {0: ["a", "b"], 1: ["x", "y", "z", "w"]},
        {(1, 0): [{0: 1}, {1: 1}, {1: 1}, {1: 1}], (1, 1): [{0: 1}, {1: 1}, {1: 1}, {1: d1_of_w}]},
        {(0, 0): [s0_of_a, {3: 1}]},
        1,
        name="two-vertex",
    )


def test_validation_cancels_entries_in_the_ring():
    # d_i s_0 a = a + b + 2b: the identity holds only once b's entry 1 + 2 cancels mod 3
    s0_of_a = {0: 1, 1: 1, 2: 2}
    assert _two_vertex_group(F3, s0_of_a).rank(1) == 4
    for ring in (QQ, ZZ):
        with pytest.raises(ValueError, match="d_0 s_0"):
            _two_vertex_group(ring, s0_of_a)


@pytest.mark.parametrize("ring", [F3, QQ])
def test_validation_catches_a_factor_two(ring):
    assert _two_vertex_group(ring, {0: 1}).rank(0) == 2
    with pytest.raises(ValueError, match="d_1 s_0"):
        _two_vertex_group(ring, {0: 1}, d1_of_w=2)  # d_1 s_0 b = 2b


def test_column_input_is_coerced_at_the_constructor():
    # over 𝔽₃ the column {0: 4} is the unit column {0: 1} (so d_i s_0 = id holds)
    # and {0: 3} is the zero column
    g = SimplicialAbelianGroup(
        F3, {0: ["a"], 1: ["x", "y"]}, {(1, 0): [{0: 4}, {0: 3}], (1, 1): [{0: 1}, {}]}, {(0, 0): [{0: 1}]}, 1
    )
    assert g.face_maps[(1, 0)] == [{0: 1}, {}]
    with pytest.raises(ValueError, match="d_0 s_0"):
        SimplicialAbelianGroup(ZZ, g.levels, {(1, 0): [{0: 4}, {}], (1, 1): [{0: 1}, {}]}, {(0, 0): [{0: 1}]}, 1)
    # over ℚ, Fraction(4, 2) acts as 2 and Fraction(2, 2) as 1
    assert _two_vertex_group(QQ, {0: Fraction(2, 2)}).degeneracy_maps[(0, 0)] == [{0: 1}, {3: 1}]
    with pytest.raises(ValueError, match="d_1 s_0"):
        _two_vertex_group(QQ, {0: 1}, d1_of_w=Fraction(4, 2))
    # s_0 a = a + 2y − 2z: d_i s_0 a = a + 2b − 2b = a, and the entry 2 is an int
    entry = _two_vertex_group(QQ, {0: 1, 1: Fraction(4, 2), 2: Fraction(-4, 2)}).degeneracy_maps[(0, 0)][0][1]
    assert entry == 2 and type(entry) is int


def _as_columns(m):
    return [{} if t is None else {t: 1} for t in m]


@functools.lru_cache(maxsize=None)
def _base_group(pointed, truncation):
    """R̃ or ℛ of the interval 𝔡(Δ¹) truncated at 1 or 2: two or three levels."""
    return free_simplicial_abelian(_interval(truncation=truncation), ZZ, pointed=pointed)


@st.composite
def _unit_groups(draw):
    """(ring, levels, faces, degeneracies, truncation): two or three levels,
    every map an index list.  Either a valid group (ℛ or R̃ of the interval)
    with up to two entries moved, or ranks and maps all drawn at random."""
    ring = draw(st.sampled_from([ZZ, QQ, F2, F3]))
    top = draw(st.integers(1, 2))
    if draw(st.booleans()):
        base = _base_group(draw(st.booleans()), top)
        levels = base.levels
        faces = {k: list(m) for k, m in base.face_maps.items()}
        degs = {k: list(m) for k, m in base.degeneracy_maps.items()}
    else:
        levels = {n: [(n, k) for k in range(draw(st.integers(1, 3)))] for n in range(top + 1)}
        faces = {(n, i): [] for n in range(1, top + 1) for i in range(n + 1)}
        degs = {(n, i): [] for n in range(top) for i in range(n + 1)}
    rank = lambda n: len(levels.get(n, ()))
    target = lambda n: st.one_of(st.none(), st.integers(0, rank(n) - 1)) if rank(n) else st.none()
    for (n, i), m in faces.items():
        m[:] = m or [draw(target(n - 1)) for _ in range(rank(n))]
    for (n, i), m in degs.items():
        m[:] = m or [draw(target(n + 1)) for _ in range(rank(n))]
    for _ in range(draw(st.integers(0, 2))):  # move entries: identities that may break
        maps, step = draw(st.sampled_from([(faces, -1), (degs, 1)]))
        key = draw(st.sampled_from(sorted(k for k, m in maps.items() if m)))
        maps[key][draw(st.integers(0, len(maps[key]) - 1))] = draw(target(key[0] + step))
    as_columns = draw(st.sets(st.sampled_from(sorted(faces) + sorted(degs))))
    return ring, levels, faces, degs, top, as_columns


def _validation_outcome(ring, levels, faces, degs, top):
    try:
        SimplicialAbelianGroup(ring, levels, faces, degs, top, name="drawn")
    except ValueError as e:
        return str(e)
    return None


@settings(max_examples=100, deadline=None)
@given(_unit_groups())
def test_index_and_column_validation_agree(case):
    ring, levels, faces, degs, top, mixed = case
    as_index = _validation_outcome(ring, levels, faces, degs, top)
    columns = [{k: _as_columns(m) for k, m in maps.items()} for maps in (faces, degs)]
    assert _validation_outcome(ring, levels, *columns, top) == as_index
    # some maps as columns, the others as index lists: the mixed pairs go through _compose
    some = [{k: _as_columns(m) if k in mixed else m for k, m in maps.items()} for maps in (faces, degs)]
    assert _validation_outcome(ring, levels, *some, top) == as_index
    assert as_index is None or re.fullmatch(r"identity [ds]_\d [ds]_\d failed at level \d of 'drawn'", as_index)


def test_both_forms_accept_a_valid_group_and_reject_a_broken_one():
    base = _base_group(True, 2)
    faces, degs = dict(base.face_maps), dict(base.degeneracy_maps)
    assert _validation_outcome(ZZ, base.levels, faces, degs, 2) is None
    columns = [{k: _as_columns(m) for k, m in maps.items()} for maps in (faces, degs)]
    assert _validation_outcome(ZZ, base.levels, *columns, 2) is None
    degs[(0, 0)] = [None] * len(degs[(0, 0)])  # s_0 = 0 on level 0
    message = _validation_outcome(ZZ, base.levels, faces, degs, 2)
    assert message == "identity d_0 s_0 failed at level 0 of 'drawn'"
    columns = [{k: _as_columns(m) for k, m in maps.items()} for maps in (faces, degs)]
    assert _validation_outcome(ZZ, base.levels, *columns, 2) == message


def _rp2_cellular(ring):
    # ℤ in degrees 0, 1 and 2 with ∂₂ = 2: its d_m faces of Γ stay columns
    basis = {0: [Cell(0, "pt")], 1: [Cell(1, "e")], 2: [Cell(2, "f")]}
    return ChainComplex(ring, basis, {0: [{}], 1: [{}], 2: [{0: 2}]}, 3)


def test_the_complex_coerces_its_columns_into_its_ring():
    # ∂₂ = 2 is zero over 𝔽₂, so H₁ = H₂ = 𝔽₂ (universal coefficients on ℤ, ℤ/2, 0)
    cx = _rp2_cellular(F2)
    assert cx.boundary_matrix(2) == [{}]
    assert [str(homology(cx, n)) for n in range(3)] == ["F2^1", "F2^1", "F2^1"]
    assert [str(homology(_rp2_cellular(ZZ), n)) for n in range(3)] == ["Z", "Z/2", "0"]


@pytest.mark.parametrize("build", [
    lambda: free_simplicial_abelian(freely_add_degeneracies(load_corpus("circle"), 3), ZZ, pointed=True),
    lambda: gamma(_rp2_cellular(ZZ), 3),
], ids=["pointed-free-circle", "gamma"])
def test_a_moved_index_entry_is_refused(build):
    a = build()
    rng = random.Random(11)
    # (maps, key, j, the generators entry j of that index map can be moved to)
    moves = [(maps, key, j, [t for t in range(a.rank(key[0] + step)) if t != target])
             for maps, step in ((a.face_maps, -1), (a.degeneracy_maps, 1))
             for key, m in sorted(maps.items()) if all(type(t) is not dict for t in m)
             for j, target in enumerate(m)]
    moves = [move for move in moves if move[3]]
    assert len({(id(maps), key) for maps, key, _, _ in moves}) >= 8
    pattern = rf"identity [ds]_\d [ds]_\d failed at level \d of {re.escape(repr(a.name))}"
    for _ in range(25):
        maps, key, j, targets = rng.choice(moves)
        moved = {k: list(m) for k, m in maps.items()}
        moved[key][j] = rng.choice(targets)
        faces, degs = (moved, a.degeneracy_maps) if maps is a.face_maps else (a.face_maps, moved)
        with pytest.raises(ValueError, match=pattern):
            SimplicialAbelianGroup(a.ring, a.levels, faces, degs, a.truncation_dim, name=a.name)


@st.composite
def _composable(draw):
    """(ring, k, second, first): sparse columns of a k×m and an m×n matrix
    over ℤ, ℚ, 𝔽₂ or 𝔽₅, entries as ``ring.coerce`` gives them, zeros
    dropped.  Each column is a unit column {j: 1}, a single other entry, or
    any column."""
    ring = draw(st.sampled_from([ZZ, QQ, F2, F5]))
    scalars = st.integers(-4, 4) if ring in (ZZ, F2) else st.fractions(-4, 4, max_denominator=3)

    def column(nrows):
        shape = draw(st.sampled_from(["unit", "single", "any"]))
        if shape == "any":
            return draw(st.dictionaries(st.integers(0, nrows - 1), scalars, max_size=nrows))
        return {draw(st.integers(0, nrows - 1)): 1 if shape == "unit" else draw(scalars)}

    def columns(nrows, ncols):
        drawn = [column(nrows) for _ in range(ncols)]
        return [{r: x for r, y in col.items() if not ring.is_zero(x := ring.coerce(y))} for col in drawn]

    k, m, n = (draw(st.integers(1, 5)) for _ in range(3))
    return ring, k, columns(k, m), columns(m, n)


@settings(max_examples=80, deadline=None)
@given(_composable())
def test_compose_equals_the_dense_product(case):
    ring, k, second, first = case
    dense = lambda cols, nrows: [[col.get(r, 0) for col in cols] for r in range(nrows)]
    a, b = dense(second, k), dense(first, len(second))
    product = [[sum(a[r][t] * b[t][j] for t in range(len(second))) for j in range(len(first))] for r in range(k)]
    if ring.characteristic:
        product = [[x % ring.characteristic for x in row] for row in product]
    inputs = copy.deepcopy((second, first))
    composed = _compose(second, first, ring)
    assert dense(composed, k) == product
    assert all(not ring.is_zero(x) for col in composed for x in col.values())
    assert (second, first) == inputs  # neither input is mutated


def test_gamma_level_ranks():
    g = gamma(_sphere_complex(ZZ), 3)
    # level m rank = Σ_n rank(C_n)·#{surjections [m]↠[n]}
    assert [g.rank(m) for m in range(4)] == [1, 1, 2, 4]
    assert moore_complex(g).check_dd_zero()


def _gamma_generator_by_generator(c, truncation):
    """Γ(C) built from the definition, one generator and one operator at a
    time: the reference for the block builder."""
    ring = c.ring
    levels, index = {}, {}
    for m in range(truncation + 1):
        labels = []
        for n in c.degrees():
            for word in all_surjection_words(m, n):
                for j in range(c.rank(n)):
                    index[(m, word, n, j)] = len(labels)
                    labels.append(("G", word, n, j))
        levels[m] = labels
    face_maps, degeneracy_maps = {}, {}
    for m in range(truncation + 1):
        for i in range(m + 1):
            if m > 0:
                images = []
                for (_, word, n, j) in levels[m]:
                    new_word, missing = compose_face(word, m, i)
                    if missing is None:
                        images.append(index[(m - 1, new_word, n, j)])
                    elif missing == n:
                        sign = -1 if n % 2 else 1
                        col = {index[(m - 1, new_word, n - 1, t)]: ring.mul(sign, coeff)
                               for t, coeff in c.boundary_matrix(n)[j].items()}
                        unit = len(col) == 1 and ring.one in col.values()
                        images.append(next(iter(col)) if unit else col or None)
                    else:
                        images.append(None)
                if any(type(k) is dict for k in images):
                    images = [k if type(k) is dict else {} if k is None else {k: ring.one} for k in images]
                face_maps[(m, i)] = images
            if m + 1 <= truncation:
                degeneracy_maps[(m, i)] = [index[(m + 1, compose_degeneracy(word, m, i), n, j)]
                                           for (_, word, n, j) in levels[m]]
    return SimplicialAbelianGroup(ring, levels, face_maps, degeneracy_maps, truncation, name="gamma")


def _assert_gamma_matches_its_definition(c):
    top = max(c.degrees(), default=0)
    for truncation in range(top, top + 3):
        g, reference = gamma(c, truncation), _gamma_generator_by_generator(c, truncation)
        assert (g.levels, g.face_maps, g.degeneracy_maps) == (
            reference.levels, reference.face_maps, reference.degeneracy_maps)


def _has_a_gap(c):
    """A zero-rank degree between two nonzero ones."""
    degrees = c.degrees()
    return len(degrees) > 1 and len(degrees) <= degrees[-1] - degrees[0]


@pytest.mark.parametrize("ring", [ZZ, QQ, F2])
def test_block_gamma_equals_the_generator_by_generator_definition_on_random_complexes(ring):
    rng = random.Random(7)
    drawn = [_random_complex(rng, ring) for _ in range(12)]
    assert any(_has_a_gap(c) for c in drawn)
    for c in [*drawn, _sphere_complex(ring), _rp2_cellular(ring)]:
        _assert_gamma_matches_its_definition(c)


@pytest.mark.parametrize("name", [n for n in corpus_names() if n not in ("rp4", "counterexample")])
def test_block_gamma_equals_the_generator_by_generator_definition_on_the_corpus(name):
    space = load_corpus(name)
    assert isinstance(space, DeltaComplex)
    _assert_gamma_matches_its_definition(space.chains(ZZ))


def test_normalized_of_gamma_recovers_the_complex():
    c = _sphere_complex(QQ)
    assert dold_kan_round_trip(c)


@pytest.mark.parametrize("ring", [ZZ, QQ, F2])
def test_round_trip_on_random_complexes(ring):
    rng = random.Random(99)
    for _ in range(12):
        c = _random_complex(rng, ring)
        assert c.check_dd_zero()
        assert dold_kan_round_trip(c)


def test_free_simplicial_abelian_ranks_and_pointed_quotient():
    x = _interval()
    free = free_simplicial_abelian(x, ZZ)
    assert [free.rank(m) for m in range(5)] == [2, 3, 4, 5, 6]
    pointed = free_simplicial_abelian(x, ZZ, pointed=True)
    # one basepoint degeneracy removed per level
    assert [pointed.rank(m) for m in range(5)] == [1, 2, 3, 4, 5]


def test_pointed_chains_equal_moore_of_pointed_free_group():
    for name in ("circle", "boundary_delta3"):
        x = freely_add_degeneracies(load_corpus(name), 3)
        for ring in (ZZ, F2):
            direct = pointed_unnormalized_chains(x, ring)
            via_moore = moore_complex(free_simplicial_abelian(x, ring, pointed=True))
            for n in range(4):
                assert direct.basis_in(n) == via_moore.basis_in(n)
                assert direct.boundary_matrix(n) == via_moore.boundary_matrix(n)


def test_point_has_trivial_pointed_chains():
    pt = freely_add_degeneracies(point_complex(), 3)
    cx = pointed_unnormalized_chains(pt, ZZ)
    assert all(cx.rank(n) == 0 for n in range(4))


def test_pointed_chains_compute_reduced_homology():
    x = freely_add_degeneracies(load_corpus("circle"), 3)
    cx = pointed_unnormalized_chains(x, ZZ)
    assert str(homology(cx, 0)) == "0"  # reduced: the basepoint kills H₀
    assert str(homology(cx, 1)) == "Z"
    assert str(homology(cx, 2)) == "0"


def test_gamma_x_retracts_the_hurewicz_map():
    x = freely_add_degeneracies(load_corpus("rp2"), 3)
    for ring in (ZZ, F2):
        h = chain_hurewicz(x, ring)
        g = gamma_X(x, ring)
        cx = pointed_unnormalized_chains(x, ring)
        for n in range(4):
            assert _compose(g.columns[n], h.columns[n], ring) == [{j: ring.one} for j in range(cx.rank(n))]


def test_hurewicz_maps_are_chain_maps():
    for name in ("circle", "boundary_delta3"):
        x = freely_add_degeneracies(load_corpus(name), 3)
        for ring in (ZZ, F2):
            assert chain_hurewicz(x, ring).is_chain_map(range(4))
            assert hurewicz_chain_map(x, ring).is_chain_map(range(4))


def test_chain_map_detects_a_killed_degree():
    cx = standard_delta(2).chains(ZZ)
    identity = {n: [{j: 1} for j in range(cx.rank(n))] for n in cx.degrees()}
    assert ChainMap(cx, cx, identity).is_chain_map(cx.degrees())
    # a non-chain-map: kill degree 1 only
    broken = {**identity, 1: [{} for _ in range(cx.rank(1))]}
    assert not ChainMap(cx, cx, broken).is_chain_map(cx.degrees())


def test_round_trip_fails_when_the_projection_does_not_intertwine(monkeypatch):
    original = dold_kan._normalized_data

    def flipped(a):  # N(Γ(C)) with the sign of one nonzero boundary column flipped
        normalized, kernels = original(a)
        cols = normalized.boundary_matrix(1)
        j = next(j for j, col in enumerate(cols) if col)
        cols[j] = {i: -x for i, x in cols[j].items()}
        return normalized, kernels

    c = ChainComplex(ZZ, {0: [Cell(0, "a"), Cell(0, "b")], 1: [Cell(1, "x")]}, {0: [{}, {}], 1: [{0: 1, 1: -1}]}, 1)
    assert dold_kan_round_trip(c)
    monkeypatch.setattr(dold_kan, "_normalized_data", flipped)
    assert not dold_kan_round_trip(c)


@pytest.mark.parametrize("ring, survives", [(ZZ, False), (QQ, True)], ids=str)
def test_round_trip_needs_the_projection_invertible_over_its_ring(ring, survives, monkeypatch):
    original = dold_kan._normalized_data

    def doubled(a):  # N(Γ(C)) with one basis vector of its top degree doubled
        normalized, kernels = original(a)
        top = max(n for n, vecs in kernels.items() if vecs)
        kernels[top][0] = {i: 2 * x for i, x in kernels[top][0].items()}
        cols = normalized.boundary_matrix(top)
        cols[0] = {i: 2 * x for i, x in cols[0].items()}
        return normalized, kernels

    c = ChainComplex(ring, {0: [Cell(0, "a"), Cell(0, "b")], 1: [Cell(1, "x")]}, {0: [{}, {}], 1: [{0: 1, 1: -1}]}, 1)
    assert dold_kan_round_trip(c)
    monkeypatch.setattr(dold_kan, "_normalized_data", doubled)
    # still a chain map, with a projection of determinant ±2: onto over ℚ, not over ℤ
    assert dold_kan_round_trip(c) is survives


def _square_defect_by_cell(x, ring, table, level, n, idx):
    """The Hurewicz square's defect on one cell, walking each term's faces
    from that cell alone: in X with ``iterated_face``, in R̃X through its
    face index lists from the cell's generator."""
    a = free_simplicial_abelian(x, ring, pointed=True)
    p, acc = ring.characteristic, {}

    def in_rx(keep):
        dim, cur = n, a.of_cell[n][idx]
        for j in range(n, -1, -1):
            if j not in keep and cur is not None:
                dim, cur = dim - 1, a.face_maps[(dim, j)][cur]
        return None if cur is None else a.basis_cell(dim, cur)

    def in_x(keep):
        dim, cur = x.iterated_face(n, idx, keep)
        return None if a.of_cell[dim][cur] is None else a.basis_cell(dim, a.of_cell[dim][cur])

    for (left, right), coeff in table.raw(level, n).items():
        for key, c in (((in_x(left), in_x(right)), coeff), ((in_rx(left), in_rx(right)), -coeff)):
            if None not in key:
                v = acc.get(key, 0) + ring.coerce(c)
                acc[key] = v % p if p else v
    return {key: v for key, v in acc.items() if v}


def _square_defects_agree(x, ring, table, levels):
    """Each level's degree-at-a-time defects, checked against the one-cell
    view and against the walk from each cell alone; all of them, in order."""
    found = []
    for level in levels:
        for n in sorted(x.cells):
            defects = hurewicz_square_defects(x, ring, table, level, n)
            assert len(defects) == x.n_cells(n)
            for idx, defect in enumerate(defects):
                assert defect == hurewicz_square_defect(x, ring, table, level, n, idx), (level, n, idx)
                assert defect == _square_defect_by_cell(x, ring, table, level, n, idx), (level, n, idx)
                found.append(defect)
    return found


def test_hurewicz_square_defect_vanishes():
    table = DiagonalTable()
    for name in ("circle", "rp2"):
        x = freely_add_degeneracies(load_corpus(name), 3)
        for ring in (ZZ, QQ, F2):
            assert not any(_square_defects_agree(x, ring, table, range(4))), (name, ring)


def test_hurewicz_square_defect_sees_a_moved_face():
    table = DiagonalTable()
    x = freely_add_degeneracies(load_corpus("circle"), 3)
    for ring in (ZZ, QQ, F2):
        a = free_simplicial_abelian(x, ring, pointed=True)
        assert x.free_groups[(ring, True)] is a
        # after validation, point d_0 of one edge of R̃X at another vertex generator
        # in its index list, the one form the map is kept in
        d0 = a.face_maps[(1, 0)]
        k = next(k for k, target in enumerate(d0) if target is not None)
        d0[k] = next(t for t in range(a.rank(0)) if t != d0[k])
        assert any(_square_defects_agree(x, ring, table, range(4))), ring


def test_gamma_rejects_negative_grading():
    c = ChainComplex(ZZ, {-1: [Cell(-1, "aug")]}, {-1: [{}]}, 2)
    with pytest.raises(ValueError):
        gamma(c, 2)


def test_free_simplicial_abelian_is_built_once_per_presentation():
    x = _interval()
    pointed = free_simplicial_abelian(x, ZZ, pointed=True)
    assert free_simplicial_abelian(x, ZZ, pointed=True) is pointed
    assert free_simplicial_abelian(x, ZZ) is not pointed
    assert free_simplicial_abelian(x, F2, pointed=True) is not pointed
    # an equal presentation built separately keeps its own groups
    assert free_simplicial_abelian(_interval(), ZZ, pointed=True) is not pointed


def test_hurewicz_square_validates_each_free_group_once(monkeypatch):
    validated = []
    original = SimplicialAbelianGroup.validate

    def counting(self):
        validated.append(self.name)
        original(self)

    monkeypatch.setattr(SimplicialAbelianGroup, "validate", counting)
    table = DiagonalTable()
    for name in ("circle", "rp2"):
        x = freely_add_degeneracies(load_corpus(name), 3)
        for level in range(3):
            for n in sorted(x.cells):
                for idx in range(x.n_cells(n)):
                    assert hurewicz_square_defect(x, ZZ, table, level, n, idx) == {}
    assert sorted(validated) == ["R~(d(circle))", "R~(d(rp2))"]


def _refused(build):
    try:
        build()
    except ValueError:
        return True
    return False


@pytest.mark.parametrize("name", ["circle", "rp2"])
def test_a_presentation_and_the_group_on_its_tables_refuse_alike(name):
    # a strict presentation with moved table entries is refused exactly when
    # the simplicial abelian group on its transposed tables (index lists) is
    x = freely_add_degeneracies(load_corpus(name), 3)
    top = x.truncation_dim
    rng = random.Random(f"refuse-{name}")
    outcomes = set()
    for _ in range(40):
        tables = {"faces": {n: list(t) for n, t in x.faces.items()},
                  "degeneracies": {n: list(t) for n, t in x.degeneracies.items()}}
        for _ in range(rng.randint(0, 2)):
            kind = rng.choice(sorted(tables))
            n, step = (rng.randint(1, top), -1) if kind == "faces" else (rng.randrange(top), 1)
            idx, i = rng.randrange(x.n_cells(n)), rng.randrange(n + 1)
            entry = list(tables[kind][n][idx])
            entry[i] = rng.randrange(x.n_cells(n + step))
            tables[kind][n][idx] = tuple(entry)
        faces, degeneracies = tables["faces"], tables["degeneracies"]
        maps = [{(n, i): list(col) for n, t in table.items() for i, col in enumerate(zip(*t))}
                for table in (faces, degeneracies)]
        as_presentation = _refused(lambda: SimplicialSetPresentation(x.cells, faces, degeneracies, top))
        as_group = _refused(lambda: SimplicialAbelianGroup(ZZ, x.cells, *maps, top))
        assert as_presentation == as_group
        outcomes.add(as_group)
    assert outcomes == {False, True}
