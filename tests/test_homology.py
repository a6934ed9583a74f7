import copy
import importlib.util
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest

import dense_oracle
from steenrod_kit import linalg
from steenrod_kit.chains import Cell, ChainComplex
from steenrod_kit.documents import load_corpus
from steenrod_kit.homology import cohomology, homology
from steenrod_kit.rings import F2, F3, QQ, ZZ
from steenrod_kit.simplicial import DeltaComplex, freely_add_degeneracies, standard_delta

# name -> degree -> (free rank, torsion orders) over Z
INTEGRAL = {
    "circle": {0: (1, ()), 1: (1, ())},
    "boundary_delta3": {0: (1, ()), 1: (0, ()), 2: (1, ())},
    "torus": {0: (1, ()), 1: (2, ()), 2: (1, ())},
    "rp2": {0: (1, ()), 1: (0, (2,)), 2: (0, ())},
    "klein": {0: (1, ()), 1: (1, (2,)), 2: (0, ())},
}


def test_integral_homology_of_corpus():
    for name, table in INTEGRAL.items():
        cx = load_corpus(name).chains(ZZ)
        for degree, (rank, torsion) in table.items():
            h = homology(cx, degree)
            assert (h.free_rank, tuple(h.torsion)) == (rank, torsion), (name, degree)


def test_mod2_homology_sees_torsion():
    rp2 = load_corpus("rp2").chains(F2)
    assert [homology(rp2, i).free_rank for i in range(3)] == [1, 1, 1]
    klein = load_corpus("klein").chains(F2)
    assert [homology(klein, i).free_rank for i in range(3)] == [1, 2, 1]


def test_odd_characteristic_misses_two_torsion():
    rp2 = load_corpus("rp2").chains(F3)
    assert [homology(rp2, i).free_rank for i in range(3)] == [1, 0, 0]


def test_rational_homology_matches_free_ranks():
    torus = load_corpus("torus").chains(QQ)
    assert [homology(torus, i).free_rank for i in range(3)] == [1, 2, 1]


def test_cohomology_universal_coefficients():
    rp2 = load_corpus("rp2").chains(ZZ)
    # torsion shifts up one degree in cohomology
    assert str(cohomology(rp2, 1)) == "0"
    h2 = cohomology(rp2, 2)
    assert h2.free_rank == 0 and tuple(h2.torsion) == (2,)
    with pytest.raises(ValueError, match="only makes sense over a field"):
        h2.dimension


def test_contractible_and_sphere():
    d3 = standard_delta(3).chains(ZZ)
    assert [str(homology(d3, i)) for i in range(4)] == ["Z", "0", "0", "0"]
    # high degrees of an exhaustive complex are genuinely zero
    assert str(homology(d3, 7)) == "0"


def test_truncation_guard_on_presentations():
    x = freely_add_degeneracies(standard_delta(1), 2)
    cx = x.normalized_chains(ZZ)
    for group in (homology, cohomology):  # each would need the complex past its truncation
        with pytest.raises(ValueError, match="^degree 2 needs the complex up to 3, but it is truncated at 2$"):
            group(cx, 2)
    assert str(homology(cx, 0)) == "Z"


def test_representatives_are_cycles():
    cx = load_corpus("torus").chains(ZZ)
    h1 = homology(cx, 1)
    for rep in h1.representatives:
        boundary: dict = {}
        for coeff, col in zip(rep, cx.boundary_matrix(1)):
            for i, x in col.items():
                boundary[i] = boundary.get(i, 0) + coeff * x
        assert any(rep) and not any(boundary.values())


@pytest.mark.parametrize("ring", [F2, QQ], ids=str)
def test_field_representatives_are_built_when_first_read(ring):
    # the complete graph on 40 vertices: dim H^1 = 741 on 780 edges; `homology`
    # prints only dimensions, so the dense representatives (741 lists of 780
    # entries, some 4.6 MB of list slots) wait until they are read
    edges = list(combinations(range(40), 2))
    graph = DeltaComplex({0: list(range(40)), 1: edges}, {1: [(b, a) for a, b in edges]}, 2, name="k40")
    cx = graph.chains(ring)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        group = cohomology(cx, 1)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert group.dimension == 741
    assert held < 741 * 780 * 8 // 2  # the group, its pivots and the transpose of ∂ hold about 1 MB
    reps = group.representatives
    assert group.representatives is reps and len(reps) == 741 and all(len(rep) == 780 for rep in reps)
    for k in (0, 370, 740):
        assert group.coordinates(reps[k]) == [int(i == k) for i in range(741)]


def _count_smith_forms(monkeypatch) -> list:
    """The (u, v) flags of every Smith form built from now on."""
    built = []
    smith = linalg.sparse_smith
    monkeypatch.setattr(linalg, "sparse_smith",
                        lambda rows, ncols, u=False, v=False: built.append((u, v)) or smith(rows, ncols, u=u, v=v))
    return built


@pytest.mark.parametrize("names", [("klein",), ("rp2", "torus")])
@pytest.mark.parametrize("group, maps", [(homology, "boundary_matrix"), (cohomology, "coboundary_matrix")])
def test_integer_groups_build_one_transform_free_form_per_map(names, group, maps, monkeypatch):
    # `homology` prints only ranks and torsion: over ℤ they take one Smith form
    # without transforms per nonzero map, shared by the two degrees it joins
    built = _count_smith_forms(monkeypatch)
    for name in names:
        space = load_corpus(name)
        cx = space.chains(ZZ)
        degrees = range(space.dimension, -1, -1)
        groups = {d: group(cx, d) for d in degrees}
        nonzero = [n for n in range(-1, space.dimension + 2) if any(getattr(cx, maps)(n))]
        assert built == [(False, False)] * len(nonzero), name
        for d in degrees:
            want = getattr(dense_oracle, group.__name__)(cx, d)
            got = groups[d]
            assert (got.free_rank, got.torsion) == (want.free_rank, want.torsion), (name, d)
            # coordinates read first build the transformed forms once, and the
            # representatives read next build nothing more
            built.clear()
            assert got.coordinates([0] * cx.rank(d)) == [0] * (got.free_rank + len(got.torsion))
            assert built == [(False, True), (True, False)], (name, d)
            coordinates = [got.coordinates(rep) for rep in want.representatives]
            reps = got.representatives
            assert len(built) == 2
            # the engine's classes are the oracle's: a cycle rebuilt from its
            # coordinates in the engine's representatives has its class
            for rep, coords in zip(want.representatives, coordinates):
                rebuilt = [sum(x * r[i] for x, r in zip(coords, reps)) for i in range(cx.rank(d))]
                assert want.coordinates(rebuilt) == want.coordinates(rep), (name, d)
            # and they are the transformed Smith forms' of the same maps
            out_cols, in_cols = (getattr(cx, maps)(n) for n in ((d, d + 1) if group is homology else (d, d - 1)))
            direct = linalg.integer_homology(out_cols, in_cols, cx.rank(d))
            assert reps == direct.representatives, (name, d)
            assert coordinates == [direct.coordinates(rep) for rep in want.representatives], (name, d)
        built.clear()


@pytest.mark.parametrize("kinds", [(homology, cohomology), (cohomology, homology)], ids=["h-first", "c-first"])
@pytest.mark.parametrize("name", ["klein", "rp2", "torus"])
def test_integer_homology_and_cohomology_share_each_map_s_form(name, kinds, monkeypatch):
    # δⁿ is ∂ₙ₊₁ transposed, with the same invariant factors: both kinds of one
    # complex take one Smith form per nonzero ∂, whichever kind comes first
    built = _count_smith_forms(monkeypatch)
    space = load_corpus(name)
    cx = space.chains(ZZ)
    degrees = range(space.dimension, -1, -1)
    groups = {(group, d): group(cx, d) for group in kinds for d in degrees}
    nonzero = [n for n in range(space.dimension + 2) if any(cx.boundary_matrix(n))]
    assert built == [(False, False)] * len(nonzero)
    for (group, d), got in groups.items():
        want = getattr(dense_oracle, group.__name__)(cx, d)
        assert (got.free_rank, got.torsion) == (want.free_rank, want.torsion), (group.__name__, d)


def _rp3() -> DeltaComplex:
    tool = Path(__file__).resolve().parent.parent / "tools" / "make_corpus.py"
    spec = importlib.util.spec_from_file_location("make_corpus", tool)
    make_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_corpus)
    return DeltaComplex.from_facets(make_corpus.rpn_facets(3), name="rp3")


@pytest.mark.parametrize("ring", [ZZ, F2, F3, QQ], ids=str)
def test_the_engine_leaves_the_stored_columns_unchanged(ring):
    # the field engine reduces in place, so it must work on copies of the
    # columns a complex stores (and shares with every holder of the complex)
    for space in [*map(load_corpus, ("rp2", "klein", "torus")), _rp3()]:
        cx = space.chains(ring)
        degrees = range(max(cx.degrees()) + 1)
        stored = [(cx.boundary_matrix(n), cx.coboundary_matrix(n)) for n in degrees]
        before = copy.deepcopy(stored)
        for n in degrees:
            for group in (homology(cx, n), cohomology(cx, n)):
                for rep in group.representatives:
                    group.coordinates(rep)
        assert stored == before, space.name


def test_groups_are_computed_once_per_complex_and_degree():
    space = load_corpus("rp2")
    cx = space.chains(F2)
    assert space.chains(F2) is cx and space.chains(ZZ) is not cx
    assert cohomology(cx, 1) is cohomology(cx, 1)
    assert homology(cx, 1) is homology(cx, 1)
    assert homology(cx, 1) is not cohomology(cx, 1)


def _count_dd_checks(monkeypatch) -> list:
    checked = []
    composes_to_zero = ChainComplex.composes_to_zero
    monkeypatch.setattr(ChainComplex, "composes_to_zero", lambda cx, n: checked.append(n) or composes_to_zero(cx, n))
    return checked


@pytest.mark.parametrize("ring", [ZZ, F2, QQ], ids=str)
def test_boundary_squared_is_checked_once_per_degree(ring, monkeypatch):
    # a complex given by its columns, not by a face table: ∂² = 0 is checked
    faces = load_corpus("rp2").chains(ring)
    cx = ChainComplex(ring, faces.basis, {n: faces.boundary_matrix(n) for n in faces.degrees()}, 2, exhaustive=True)
    checked = _count_dd_checks(monkeypatch)
    homology(cx, 1)
    cohomology(cx, 1)
    assert checked == [1]
    cohomology(cx, 0)
    homology(cx, 0)
    assert checked == [1, 0]


@pytest.mark.parametrize("ring", [ZZ, F2, F3, QQ], ids=str)
def test_the_chains_of_a_face_table_are_not_checked_again(ring, monkeypatch):
    # ∂² = 0 on all cells follows from the face identities checked at load;
    # the normalized chains of a presentation are still checked
    checked = _count_dd_checks(monkeypatch)
    for name in ("rp2", "klein", "counterexample"):
        space = load_corpus(name)
        cx = space.chains(ring)
        for n in range(cx.truncation_dim + cx.exhaustive):
            homology(cx, n)
            cohomology(cx, n)
    assert checked == []
    normalized = freely_add_degeneracies(load_corpus("circle"), 3).normalized_chains(ring)
    homology(normalized, 1)
    assert checked == [1]
    # an explicit call still computes
    assert cx.check_dd_zero() and checked == [1, 0, 1, 2]


@pytest.mark.parametrize("ring", [ZZ, F2, F3, QQ], ids=str)
def test_nonzero_boundary_squared_is_an_error(ring):
    a, b, c = Cell(0, "a"), Cell(1, "b"), Cell(2, "c")
    columns = {0: [{}], 1: [{0: 1}], 2: [{0: 1}]}  # ∂∂c = a ≠ 0
    cx = ChainComplex(ring, {0: [a], 1: [b], 2: [c]}, columns, 2, exhaustive=True)
    with pytest.raises(ArithmeticError):
        homology(cx, 1)
    with pytest.raises(ArithmeticError):
        cohomology(cx, 1)
