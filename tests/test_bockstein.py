"""Sq¹ is the mod-2 Bockstein: an oracle for the squares that shares no code
with the diagonal or with cup-i (Steenrod and Epstein, *Cohomology
Operations*, 1962; Hatcher, *Algebraic Topology*, §3.E).

A mod-2 p-cocycle u lifts to the 0/1 integer cochain ũ, whose integer
coboundary is even; β[u] is the class of δũ/2 reduced mod 2.  The integer
coboundary is summed here from the face table, Σᵢ (−1)ⁱ ũ(dᵢσ); only the
classes' ``coordinates`` come from the package.
"""

from steenrod_kit.cochains import sq_matrix
from steenrod_kit.diagonal import DiagonalTable
from steenrod_kit.documents import corpus_names, load_corpus
from steenrod_kit.homology import cohomology
from steenrod_kit.rings import F2
from steenrod_kit.simplicial import SimplicialSetPresentation, forget_degeneracies


def _bockstein(faces, u):
    """δũ/2 mod 2 on the (p+1)-cells with these face lists."""
    out = []
    for cell in faces:
        total = sum(-u[f] if i & 1 else u[f] for i, f in enumerate(cell))
        assert total % 2 == 0, "u is not a mod-2 cocycle"
        out.append(total // 2 % 2)
    return out


def test_sq1_is_the_bockstein_on_every_shipped_space():
    pairs = []
    for name in corpus_names():
        space, top = load_corpus(name), None
        if isinstance(space, SimplicialSetPresentation):  # as `sq` reads a presentation
            space, top = forget_degeneracies(space), space.truncation_dim - 1
        top = space.dimension if top is None else min(top, space.dimension)
        cx = space.chains(F2)
        for p in range(top):
            source = cohomology(cx, p)
            if not source.dimension:
                continue
            target = cohomology(cx, p + 1)
            lifted = [[int(x) for x in rep] for rep in source.representatives]
            beta = [target.coordinates(_bockstein(space.faces[p + 1], u)) for u in lifted]
            assert beta == sq_matrix(1, p, space, DiagonalTable()), (name, p)
            pairs.append((name, p, any(map(any, beta))))
    assert len(pairs) == 18
    # β ≠ 0 on H¹ of RP², of the Klein bottle and of RP⁴, and on H³ of RP⁴
    assert {(name, p) for name, p, nonzero in pairs if nonzero} >= {("rp2", 1), ("klein", 1), ("rp4", 1), ("rp4", 3)}
