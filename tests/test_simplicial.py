import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from steenrod_kit.documents import corpus_names, load_corpus
from steenrod_kit.rings import ZZ
from steenrod_kit.simplicial import (
    DeltaComplex,
    SimplicialSetPresentation,
    all_surjection_words,
    compose_degeneracy,
    compose_face,
    core,
    forget_degeneracies,
    freely_add_degeneracies,
    is_degeneracy_free,
    map_to_word,
    point_complex,
    standard_delta,
    word_to_map,
)

# ---------------------------------------------------------------------------
# Surjection-word calculus
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 6), st.data())
def test_word_map_roundtrip(m, data):
    words = all_surjection_words(m, data.draw(st.integers(0, m)))
    if not words:
        return
    word = data.draw(st.sampled_from(words))
    f = word_to_map(word, m)
    assert map_to_word(f) == word
    assert len(f) == m + 1
    assert all(f[i] <= f[i + 1] <= f[i] + 1 for i in range(m))


def test_all_surjection_counts():
    # surjections [m]↠[n] are choices of m−n repeat positions among m
    from math import comb

    for m in range(6):
        for n in range(m + 1):
            assert len(all_surjection_words(m, n)) == comb(m, m - n)
    assert all_surjection_words(2, 3) == []


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.data())
def test_compose_face_factorization(m, data):
    n = data.draw(st.integers(0, m - 1))
    word = data.draw(st.sampled_from(all_surjection_words(m, n)))
    i = data.draw(st.integers(0, m))
    f = word_to_map(word, m)
    composite = f[:i] + f[i + 1 :]  # f ∘ δ_i as a map [m−1] → [n]
    new_word, missing = compose_face(word, m, i)
    if missing is None:
        assert word_to_map(new_word, m - 1) == composite
    else:
        g = word_to_map(new_word, m - 1)  # [m−1] ↠ [n−1]
        # δ_missing ∘ g = composite
        lifted = tuple(x if x < missing else x + 1 for x in g)
        assert lifted == composite


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 5), st.data())
def test_compose_degeneracy(m, data):
    n = data.draw(st.integers(0, m))
    word = data.draw(st.sampled_from(all_surjection_words(m, n)))
    i = data.draw(st.integers(0, m))
    f = word_to_map(word, m)
    composite = f[: i + 1] + f[i:]  # f ∘ σ_i
    assert word_to_map(compose_degeneracy(word, m, i), m + 1) == composite


# ---------------------------------------------------------------------------
# Delta-complexes
# ---------------------------------------------------------------------------


def test_standard_delta_counts():
    d3 = standard_delta(3)
    assert [d3.n_cells(n) for n in range(4)] == [4, 6, 4, 1]
    assert d3.chains(ZZ).check_dd_zero()


def test_from_facets_rejects_repeats():
    with pytest.raises(ValueError):
        DeltaComplex.from_facets([(0, 0, 1)])


def test_validate_catches_bad_face_tables():
    with pytest.raises(ValueError):
        DeltaComplex({0: ["a"], 1: ["e"]}, {0: [()], 1: [(0,)]})  # wrong arity
    # face identity broken on a 2-cell
    cells = {0: ["a", "b", "c"], 1: ["x", "y", "z"], 2: ["t"]}
    faces = {
        0: [(), (), ()],
        1: [(1, 0), (2, 0), (2, 1)],
        2: [(2, 1, 1)],  # d_i d_j violated
    }
    with pytest.raises(ValueError):
        DeltaComplex(cells, faces)


def test_iterated_face_matches_vertex_subsets():
    d3 = standard_delta(3)
    top = d3.n_cells(3) - 1
    dim, idx = d3.iterated_face(3, top, (0, 2))
    assert dim == 1
    assert d3.label(dim, idx) == (0, 2)


# ---------------------------------------------------------------------------
# Simplicial-set presentations and the two functors
# ---------------------------------------------------------------------------


def test_freely_add_degeneracies_validates_and_counts():
    x = freely_add_degeneracies(standard_delta(1), 3)
    # level m: one cell per (core cell of dim n, surjection m↠n)
    assert [x.n_cells(m) for m in range(4)] == [2, 3, 4, 5]
    assert x.nondegenerate_indices(1) != []
    assert len(x.nondegenerate_indices(2)) == 0


def _free_tables_cell_by_cell(y, truncation):
    """The cells, faces and degeneracies of 𝔡(y) built from the definition,
    one cell and one operator at a time: the reference for the block builder."""
    cells, index = {}, {}
    for m in range(truncation + 1):
        labels = []
        for n in sorted(y.cells):
            for word in all_surjection_words(m, n):
                for idx in range(y.n_cells(n)):
                    index[(m, word, n, idx)] = len(labels)
                    labels.append((word, n, idx))
        cells[m] = labels

    def face(m, word, n, idx, i):
        new_word, v = compose_face(word, m, i)
        return index[(m - 1, new_word, n, idx)] if v is None else index[(m - 1, new_word, n - 1, y.face(n, idx, v))]

    faces = {m: [tuple(face(m, *label, i) for i in range(m + 1)) if m else () for label in labels]
             for m, labels in cells.items()}
    degeneracies = {m: [tuple(index[(m + 1, compose_degeneracy(word, m, i), n, idx)] for i in range(m + 1))
                        for word, n, idx in cells[m]] for m in range(truncation)}
    return cells, faces, degeneracies


def _assert_free_tables_match(y):
    for truncation in range(y.dimension, 6):
        x = freely_add_degeneracies(y, truncation)
        cells, faces, degeneracies = _free_tables_cell_by_cell(y, truncation)
        assert (x.cells, x.faces, x.degeneracies) == (cells, faces, degeneracies)


@pytest.mark.parametrize("name", [n for n in corpus_names() if n not in ("rp4", "counterexample")])
def test_block_builder_equals_the_cell_by_cell_definition_on_the_corpus(name):
    _assert_free_tables_match(load_corpus(name))


@pytest.mark.parametrize("k", range(4))
def test_block_builder_equals_the_cell_by_cell_definition_on_simplices(k):
    _assert_free_tables_match(standard_delta(k))


facet_lists = st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True), min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(facet_lists)
def test_block_builder_equals_the_cell_by_cell_definition_on_drawn_complexes(facets):
    _assert_free_tables_match(DeltaComplex.from_facets(facets, name="drawn"))


@pytest.mark.parametrize("name", ["circle", "rp2", "delta3"])
def test_a_truncation_below_the_dimension_is_refused(name):
    y = load_corpus(name)
    with pytest.raises(ValueError, match="^truncation below the top cells of the core$"):
        freely_add_degeneracies(y, y.dimension - 1)


def test_forget_then_core_recovers_the_complex():
    y = standard_delta(2)
    x = freely_add_degeneracies(y, 4)
    recovered, _ = core(x)
    assert {n: recovered.n_cells(n) for n in sorted(recovered.cells)} == {
        n: y.n_cells(n) for n in sorted(y.cells)
    }
    assert forget_degeneracies(x).n_cells(2) == x.n_cells(2)


def test_degeneracy_freeness_on_free_objects():
    for name in ("circle", "rp2", "boundary_delta3"):
        x = freely_add_degeneracies(load_corpus(name), 3)
        assert is_degeneracy_free(x)


def _c_is_a_bijection(x):
    """The definition, on the built 𝔡(Core(x)): c sends each of its cells
    (word, n, core index) to the word applied to that core cell in x."""
    core_complex, back = core(x)
    free = freely_add_degeneracies(core_complex, x.truncation_dim)
    return all(sorted(x.apply_word(n, back[n][idx], word) for word, n, idx in free.cells.get(m, []))
               == list(range(x.n_cells(m))) for m in range(x.truncation_dim + 1))


@pytest.mark.parametrize("name", ["circle", "rp2", "boundary_delta3", "torus", "counterexample"])
def test_degeneracy_freeness_equals_its_definition(name):
    y = load_corpus(name)
    for x in [y] if name == "counterexample" else [freely_add_degeneracies(y, t) for t in (y.dimension, 4)]:
        assert is_degeneracy_free(x) == _c_is_a_bijection(x)


def test_degeneracy_freeness_refuses_a_core_above_the_truncation():
    x = freely_add_degeneracies(standard_delta(2), 2)
    low = SimplicialSetPresentation(x.cells, x.faces, {0: x.degeneracies[0]}, 1, name="low")
    with pytest.raises(ValueError, match="truncation below the top cells of the core"):
        is_degeneracy_free(low)


def test_counterexample_is_not_degeneracy_free():
    x = load_corpus("counterexample")
    assert not x.strict
    assert not is_degeneracy_free(x)
    # its core is a point with a loop; the free object would have 3 two-cells
    recovered, _ = core(x)
    assert {n: recovered.n_cells(n) for n in sorted(recovered.cells)} == {0: 1, 1: 1}
    free = freely_add_degeneracies(recovered, 2)
    assert free.n_cells(2) == 3 and x.n_cells(2) == 2


def _replace(x, **change):
    """A presentation with x's fields and the ones in ``change``, validated anew."""
    fields = dict(
        cells=x.cells, faces=x.faces, degeneracies=x.degeneracies, truncation_dim=x.truncation_dim,
        name=x.name, strict=x.strict, basepoint=x.basepoint,
    )
    return SimplicialSetPresentation(**{**fields, **change})


def test_counterexample_violates_mixed_identities_when_strict():
    x = load_corpus("counterexample")
    with pytest.raises(ValueError):
        _replace(x, strict=True)


@pytest.mark.parametrize("basepoint", [1, -1, "0", True, 0.0])
def test_a_basepoint_that_is_no_vertex_index_is_refused(basepoint):
    x = load_corpus("counterexample")
    assert _replace(x, basepoint=None).basepoint is None
    with pytest.raises(ValueError, match="basepoint"):
        _replace(x, basepoint=basepoint)


def test_normalized_vs_unnormalized_ranks():
    x = freely_add_degeneracies(load_corpus("circle"), 3)
    unnorm = x.unnormalized_chains(ZZ)
    norm = x.normalized_chains(ZZ)
    for n in range(4):
        degenerate = sum(1 for flag in x.degenerate_flags(n) if flag)
        assert norm.rank(n) + degenerate == unnorm.rank(n)
    assert norm.check_dd_zero() and unnorm.check_dd_zero()


def test_point_complex():
    pt = freely_add_degeneracies(point_complex(), 3)
    assert [pt.n_cells(m) for m in range(4)] == [1, 1, 1, 1]
    assert is_degeneracy_free(pt)


def _first_mixed_failure(x):
    """The mixed identities checked cell by cell, dimension by dimension: the
    message of the first failure, or None."""
    for n in sorted(x.cells):
        if n + 1 > x.truncation_dim:
            continue
        for idx in range(x.n_cells(n)):
            for i in range(n + 1):
                s = x.degeneracy(n, idx, i)
                if x.face(n + 1, s, i) != idx or x.face(n + 1, s, i + 1) != idx:
                    return f"identity d s = id failed at s_{i} of ({n},{idx})"
                for j in range(n + 2):
                    if j in (i, i + 1):
                        continue
                    if j < i:
                        expect = x.degeneracy(n - 1, x.face(n, idx, j), i - 1)
                    else:
                        expect = x.degeneracy(n - 1, x.face(n, idx, j - 1), i)
                    if x.face(n + 1, s, j) != expect:
                        return f"identity d_{j} s_{i} failed on ({n},{idx})"
            if n + 2 <= x.truncation_dim:
                for i in range(n + 1):
                    for j in range(i, n + 1):
                        if x.degeneracy(n + 1, x.degeneracy(n, idx, j), i) != x.degeneracy(
                            n + 1, x.degeneracy(n, idx, i), j + 1
                        ):
                            return f"identity s_i s_j failed on ({n},{idx})"
    return None


@pytest.mark.parametrize("name", ["circle", "rp2", "boundary_delta3"])
def test_corrupt_degeneracies_name_the_first_failing_cell(name):
    x = freely_add_degeneracies(load_corpus(name), 3)
    assert _first_mixed_failure(x) is None
    rng = random.Random(f"degeneracies-{name}")
    messages = set()
    for _ in range(40):
        tables = {n: list(table) for n, table in x.degeneracies.items()}
        for _ in range(rng.randint(1, 2)):  # one or two entries, each pointed at another cell
            n = rng.randrange(x.truncation_dim)
            idx, i = rng.randrange(x.n_cells(n)), rng.randrange(n + 1)
            entry = list(tables[n][idx])
            entry[i] = rng.choice([c for c in range(x.n_cells(n + 1)) if c != entry[i]])
            tables[n][idx] = tuple(entry)
        loose = SimplicialSetPresentation(x.cells, x.faces, tables, x.truncation_dim, strict=False)
        want = _first_mixed_failure(loose)
        if want is None:
            _replace(loose, strict=True)
            continue
        with pytest.raises(ValueError) as caught:
            _replace(loose, strict=True)
        assert str(caught.value) == want
        messages.add(want.split(" failed")[0])
    assert messages == {"identity d s = id", "identity s_i s_j"}


def test_corrupt_face_names_a_d_j_s_i_failure():
    # on the one-vertex circle, d_2 s_0 a = s_0 d_1 a for the loop a; pointing
    # d_2 of s_0 a at a itself keeps the face identities and d s = id, and
    # breaks only that
    loop = DeltaComplex({0: ["v"], 1: ["a"]}, {0: [()], 1: [(0, 0)]}, name="loop")
    x = freely_add_degeneracies(loop, 2)
    (a,) = x.nondegenerate_indices(1)
    s0a = x.degeneracy(1, a, 0)
    faces = {n: list(table) for n, table in x.faces.items()}
    faces[2][s0a] = (*faces[2][s0a][:2], a)
    loose = SimplicialSetPresentation(x.cells, faces, x.degeneracies, x.truncation_dim, strict=False)
    want = f"identity d_2 s_0 failed on (1,{a})"
    assert _first_mixed_failure(loose) == want
    with pytest.raises(ValueError) as caught:
        _replace(loose, strict=True)
    assert str(caught.value) == want


def _first_face_failure(x):
    """The face identities checked cell by cell, dimension by dimension: the
    message of the first failure, or None."""
    for n in sorted(x.cells):
        for idx in range(x.n_cells(n) if n >= 2 else 0):
            for j in range(n + 1):
                for i in range(j):
                    if x.face(n - 1, x.face(n, idx, j), i) != x.face(n - 1, x.face(n, idx, i), j - 1):
                        return f"face identity d_{i} d_{j} failed on cell ({n},{idx})"
    return None


def _walk(x, faces, degeneracies):
    """x's cells and truncation over other tables, as the cell walks read them."""
    return SimpleNamespace(
        cells=x.cells,
        truncation_dim=x.truncation_dim,
        n_cells=x.n_cells,
        face=lambda n, idx, i: faces[n][idx][i],
        degeneracy=lambda n, idx, i: degeneracies[n][idx][i],
    )


def _moved_tables(x, rng):
    """Copies of x's face and degeneracy tables with one or two entries, in
    either, each pointed at another cell of the right dimension."""
    tables = {kind: {n: list(t) for n, t in getattr(x, kind).items()} for kind in ("faces", "degeneracies")}
    for _ in range(rng.randint(1, 2)):
        kind = rng.choice(sorted(tables))
        n, step = (rng.randint(1, x.truncation_dim), -1) if kind == "faces" else (rng.randrange(x.truncation_dim), 1)
        idx, i = rng.randrange(x.n_cells(n)), rng.randrange(n + 1)
        entry = list(tables[kind][n][idx])
        others = [c for c in range(x.n_cells(n + step)) if c != entry[i]]
        entry[i] = rng.choice(others) if others else entry[i]
        tables[kind][n][idx] = tuple(entry)
    return tables["faces"], tables["degeneracies"]


@pytest.mark.parametrize("name", ["circle", "rp2", "boundary_delta3"])
def test_corrupt_faces_and_degeneracies_name_the_first_failing_cell(name):
    # a face identity failing anywhere is named before any mixed one
    x = freely_add_degeneracies(load_corpus(name), 3)
    rng = random.Random(f"tables-{name}")
    messages = set()
    for _ in range(60):
        faces, degeneracies = _moved_tables(x, rng)
        walk = _walk(x, faces, degeneracies)
        want = _first_face_failure(walk) or _first_mixed_failure(walk)
        if want is None:
            SimplicialSetPresentation(x.cells, faces, degeneracies, x.truncation_dim)
            continue
        with pytest.raises(ValueError) as caught:
            SimplicialSetPresentation(x.cells, faces, degeneracies, x.truncation_dim)
        assert str(caught.value) == want
        messages.add("face identity" if want.startswith("face") else want.split(" failed")[0])
    assert {"face identity", "identity d s = id"} <= messages
