"""The diagonal ξ and the squares against Steenrod's cup-i coproduct
(``cup_i_oracle``), which shares no code with the package."""

from math import comb

from cup_i_oracle import delta

from steenrod_kit.cochains import sq_matrix
from steenrod_kit.diagonal import DiagonalTable
from steenrod_kit.documents import corpus_names, load_corpus
from steenrod_kit.homology import cohomology
from steenrod_kit.rings import F2
from steenrod_kit.simplicial import SimplicialSetPresentation


def test_the_odd_support_of_xi_is_steenrods_coproduct():
    table, pairs = DiagonalTable(), 0
    for n in range(11):
        for j in range(n + 1):
            terms = delta(j, n)
            assert len(terms) == comb(n + 1, n - j)
            if j and j % 2 == 0:  # ξ writes the two factors the other way round
                terms = {(b, a) for a, b in terms}
            odd = {term for term, c in table.raw(j, n).items() if c % 2}
            assert odd == terms, (j, n)
            pairs += 1
    assert pairs == 66


def _oracle_square(i, p, space, u):
    """u ⌣_{p−i} u on the (p+i)-cells, mod 2, from the oracle's terms of
    bidegree (p, p), each factor read through ``face_indices``."""
    n = p + i
    out = [0] * space.n_cells(n)
    for a, b in delta(p - i, n):
        if len(a) == len(b) == p + 1:
            for k, (x, y) in enumerate(zip(space.face_indices(n, a), space.face_indices(n, b))):
                out[k] ^= u[x] & u[y]
    return out


def test_squares_from_the_coproduct_equal_sq_matrix():
    cases = []
    for name in corpus_names():
        space = load_corpus(name)
        if isinstance(space, SimplicialSetPresentation):
            continue
        cx, table = space.chains(F2), DiagonalTable()
        for p in range(space.dimension + 1):
            source = cohomology(cx, p)
            if not source.dimension:
                continue
            for i in range(min(p, space.dimension - p) + 1):
                target = cohomology(cx, p + i)
                reps = [[int(x) for x in rep] for rep in source.representatives]
                squares = [target.coordinates(_oracle_square(i, p, space, u)) for u in reps]
                assert squares == sq_matrix(i, p, space, table), (name, i, p)
                cases.append((name, i, p, any(map(any, squares))))
    assert len(cases) == 30
    # the squares other than Sq⁰ that are not zero: the cup squares on H¹ of
    # RP², of the Klein bottle and of RP⁴, and Sq¹ on H³ and Sq² on H² of RP⁴
    nonzero = {(name, i, p) for name, i, p, x in cases if x and i}
    assert nonzero == {("rp2", 1, 1), ("klein", 1, 1), ("rp4", 1, 1), ("rp4", 1, 3), ("rp4", 2, 2)}
