"""The acceptance gate: one test per advertised guarantee.

Each test states the guarantee in its name and exercises it end to end.  Two
published displays of the level-1 diagonal differ from the value forced by
the chain-map identity: they have the opposite sign on every term but
[0,1,2]⊗[0,1] (relabeled), and the [0,1,1] display has [1,1] for [0,1] in
its third term.  Those two tests assert the displays verbatim and are
expected to fail, strictly — see README ("documented deviations") for the
analysis.
"""

import random
import time
from itertools import combinations

import pytest

from steenrod_kit.chains import Simplex, render_terms, standard_simplex
from steenrod_kit.cli import EXIT_OK, main
from steenrod_kit.cochains import sq_matrix
from steenrod_kit.diagonal import (
    DiagonalTable,
    chain_map_defect,
    check_prime3,
    equivariance_defect,
    top_diagonal_sign,
    xi_simplex,
)
from steenrod_kit.documents import load_corpus
from steenrod_kit.dold_kan import (
    _compose,
    chain_hurewicz,
    dold_kan_round_trip,
    free_simplicial_abelian,
    gamma_X,
    hurewicz_chain_map,
    hurewicz_square_defect,
    moore_complex,
    pointed_unnormalized_chains,
)
from steenrod_kit.homology import cohomology, homology
from steenrod_kit.kernel import eta
from steenrod_kit.rings import F2, F5, QQ, ZZ
from steenrod_kit.simplicial import freely_add_degeneracies, is_degeneracy_free
from steenrod_kit.suite import FAST_CORPUS, _random_complex
from steenrod_kit.vandermonde import vandermonde_det_factorization, vandermonde_independence

TABLE = DiagonalTable()

SIGN_NOTE = (
    "published display has the opposite sign from the value forced by the chain-map identity "
    "on every term but [0,1,2]⊗[0,1] (relabeled), and the [0,1,1] display has [1,1] for [0,1] "
    "(see README: documented deviations)"
)


# -- 1. golden Alexander-Whitney diagonal ------------------------------------


def test_criterion_01_aw_golden(capsys):
    start = time.monotonic()
    chain = xi_simplex(0, standard_simplex(2), TABLE)
    assert chain == {
        (Simplex((0, 1, 2)), Simplex((2,))): 1,
        (Simplex((0, 1)), Simplex((1, 2))): 1,
        (Simplex((0,)), Simplex((0, 1, 2))): 1,
    }
    assert render_terms(chain) == "[0]⊗[0,1,2] + [0,1]⊗[1,2] + [0,1,2]⊗[2]"
    # the same value through the CLI, canonically rendered
    assert main(["diag", "--n", "0", "--simplex", "0,1,2"]) == EXIT_OK
    assert "[0]⊗[0,1,2] + [0,1]⊗[1,2] + [0,1,2]⊗[2]" in capsys.readouterr().out
    assert time.monotonic() - start < 1.0


# -- 2. golden level-1 diagonal on the 2-simplex -----------------------------

# published displays as printed, one (coefficient, left, right) per term
DISPLAY_B3 = ((1, (0, 1, 2), (1, 2)), (-1, (0, 2), (0, 1, 2)), (-1, (0, 1, 2), (0, 1)))
DISPLAY_D0 = ((1, (0, 0, 1), (0, 1)), (-1, (0, 1), (0, 0, 1)), (-1, (0, 0, 1), (0, 0)))
DISPLAY_D1 = ((1, (0, 1, 1), (1, 1)), (-1, (0, 1), (0, 1, 1)), (-1, (0, 1, 1), (1, 1)))


def _chain(display, scalar=1):
    """scalar times the sum of the printed terms; a cancelling pair cancels."""
    total = {}
    for coeff, left, right in display:
        key = (Simplex(left), Simplex(right))
        total[key] = total.get(key, 0) + scalar * coeff
    return {key: c for key, c in total.items() if c}


def _relabel(display, vertices):
    return tuple((c, tuple(vertices[i] for i in a), tuple(vertices[i] for i in b)) for c, a, b in display)


@pytest.mark.xfail(strict=True, reason=SIGN_NOTE)
def test_criterion_02_level1_golden():
    assert xi_simplex(1, standard_simplex(2), TABLE) == _chain(DISPLAY_B3)


# -- 3. degenerate-simplex displays ------------------------------------------


@pytest.mark.xfail(strict=True, reason=SIGN_NOTE)
def test_criterion_03_degenerate_displays():
    got0 = xi_simplex(1, Simplex((0, 0, 1)), TABLE)
    got1 = xi_simplex(1, Simplex((0, 1, 1)), TABLE)
    # the third printed term of the second display cancels its first; kept verbatim
    assert got0 == _chain(DISPLAY_D0) and got1 == _chain(DISPLAY_D1)


def test_criteria_02_03_the_displays_differ_from_the_computed_values_in_sign_only():
    # the two xfails above fail on signs alone: each display has the terms of
    # the computed value with the same magnitudes, and every sign but that of
    # [0,1,2]⊗[0,1] (relabeled) opposite
    relabeled = _relabel(DISPLAY_B3, (0, 1, 1))
    for vertices, display in (((0, 1, 2), DISPLAY_B3), ((0, 0, 1), DISPLAY_D0), ((0, 1, 1), relabeled)):
        got = xi_simplex(1, Simplex(vertices), TABLE)
        kept = (Simplex(vertices), Simplex(vertices[:2]))
        assert _chain(display) == {key: c if key == kept else -c for key, c in got.items()}, vertices
    assert DISPLAY_D0 == _relabel(DISPLAY_B3, (0, 0, 1))
    # the [0,1,1] display as printed has [1,1] for [0,1] in the third term of
    # the relabeled Δ² display, so that term cancels its first
    assert DISPLAY_D1[:2] == relabeled[:2]
    assert (relabeled[2], DISPLAY_D1[2]) == ((-1, (0, 1, 1), (0, 1)), (-1, (0, 1, 1), (1, 1)))


# -- 4. the top-diagonal sign law ---------------------------------------------


def test_criterion_04_top_diagonal_signs():
    start = time.monotonic()
    assert [eta(k) for k in range(7)] == [1, 1, -1, -1, 1, 1, -1]
    for k in range(7):
        assert top_diagonal_sign(k, TABLE) == eta(k)
    assert time.monotonic() - start < 60.0


@pytest.mark.slow
def test_criterion_04_top_diagonal_sign_k7():
    assert top_diagonal_sign(7, TABLE) == eta(7)


# -- 5. chain-map and equivariance identities, exhaustively -------------------


def test_criterion_05_chain_map_and_equivariance():
    violations = []
    for n in range(5):
        for k in range(6):
            if chain_map_defect(n, k, TABLE):
                violations.append(("chain-map", n, k))
            if equivariance_defect(n, k, TABLE):
                violations.append(("equivariance", n, k))
    assert violations == []


# -- 6. the arity-3 boundary identity ------------------------------------------


def test_criterion_06_prime3_identity():
    for k in range(5):
        assert check_prime3(k, TABLE), k


# -- 7. Steenrod squares --------------------------------------------------------


def test_criterion_07_sq0_identity_and_rp2_bockstein():
    for name in FAST_CORPUS:
        space = load_corpus(name)
        complex_ = space.chains(F2)
        for p in range(space.dimension + 1):
            rank = cohomology(complex_, p).dimension
            if rank == 0:
                continue
            columns = sq_matrix(0, p, space, TABLE)
            assert columns == [
                [1 if i == j else 0 for i in range(rank)] for j in range(rank)
            ], (name, p)
    assert sq_matrix(1, 1, load_corpus("rp2"), TABLE) == [[1]]


@pytest.mark.slow
def test_criterion_07_rp4_squares():
    start = time.monotonic()
    space = load_corpus("rp4")
    assert sq_matrix(1, 1, space, TABLE) == [[1]]
    assert sq_matrix(2, 2, space, TABLE) == [[1]]
    assert time.monotonic() - start < 600.0


# -- 8. Dold-Kan ----------------------------------------------------------------


def test_criterion_08_dold_kan():
    rng = random.Random(2024)
    for trial in range(50):
        ring = [ZZ, QQ, F2][trial % 3]
        c = _random_complex(rng, ring)
        assert c.check_dd_zero()
        assert dold_kan_round_trip(c), trial
    for name in ("circle", "boundary_delta3", "rp2"):
        x = freely_add_degeneracies(load_corpus(name), 4)
        m = moore_complex(free_simplicial_abelian(x, ZZ, pointed=True))
        pc = pointed_unnormalized_chains(x, ZZ)
        assert m.basis == pc.basis
        for n in m.degrees():
            assert m.boundary_matrix(n) == pc.boundary_matrix(n), (name, n)
        space = load_corpus(name)
        oracle = space.chains(ZZ)
        for i in range(4):
            got = homology(m, i)
            if i <= space.dimension:
                want = homology(oracle, i)
                want_rank = want.free_rank - (1 if i == 0 else 0)
                want_torsion = list(want.torsion)
            else:
                want_rank, want_torsion = 0, []
            assert (got.free_rank, list(got.torsion)) == (want_rank, want_torsion), (name, i)


# -- 9. the retraction of the Hurewicz map ---------------------------------------


def test_criterion_09_gamma_retracts_hurewicz():
    for name in FAST_CORPUS:
        x = freely_add_degeneracies(load_corpus(name), 4)
        g, h = gamma_X(x, ZZ), chain_hurewicz(x, ZZ)
        for n in h.source.degrees():
            back = _compose(g.columns[n], h.columns[n], ZZ)
            assert back == [{j: 1} for j in range(h.source.rank(n))], (name, n)


# -- 10. the Hurewicz map respects the diagonal -----------------------------------


def test_criterion_10_hurewicz_square():
    for name in ("circle", "boundary_delta3", "rp2"):
        x = freely_add_degeneracies(load_corpus(name), 3)
        for level in range(4):
            for n in sorted(x.cells):
                for idx in range(x.n_cells(n)):
                    assert hurewicz_square_defect(x, ZZ, TABLE, level, n, idx) == {}, (name, level, n, idx)
        # the Hurewicz map is itself a chain map, unnormalized and normalized
        assert chain_hurewicz(x, ZZ).is_chain_map(range(4))
        assert hurewicz_chain_map(x, ZZ).is_chain_map(range(4))


# -- 11. the independence witness ---------------------------------------------------


def test_criterion_11_vandermonde_witness():
    assert vandermonde_det_factorization(3)
    rng = random.Random(2024)
    edges = [Simplex(c) for c in combinations(range(6), 2)]
    for ring in (QQ, F5):
        for _ in range(200):
            t = rng.randint(1, 5)
            chains, seen = [], set()
            while len(chains) < t:
                terms = {
                    edge: ring.coerce(rng.randint(1, 4) * rng.choice([1, -1]))
                    for edge in rng.sample(edges, rng.randint(1, 4))
                }
                if (key := frozenset(terms.items())) not in seen:
                    seen.add(key)
                    chains.append(terms)
            assert vandermonde_independence(chains, ring)


# -- 12. degeneracy-freeness --------------------------------------------------------


def test_criterion_12_degeneracy_freeness():
    for name in FAST_CORPUS:
        assert is_degeneracy_free(freely_add_degeneracies(load_corpus(name), 4)), name
    assert not is_degeneracy_free(load_corpus("counterexample"))
