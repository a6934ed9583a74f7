"""Truncated Dold-Kan machinery.

Simplicial abelian groups are presented by an ordered basis per level with
face and degeneracy operators as sparse integer (or field) matrices.  The
module provides:

* the Moore complex (full levels, alternating-sum boundary) and the
  normalized complex N (degreewise ⋂ ker d_i, boundary (−1)ⁿ d_n),
* the inverse functor Γ building a simplicial abelian group from a chain
  complex by formal degeneracies,
* free (pointed) simplicial abelian groups ℛX and R̃X on a presented
  simplicial set, with R̃X = ℛX / (basepoint degeneracy chain), built and
  validated once per presentation, ring and variant,
* the Hurewicz map x ↦ 1·x on normalized and unnormalized chains, the
  retraction γ, and the diagonal-compatibility defect of the Hurewicz square.

Everything is finite because the inputs are truncated; every linear-algebra
step is exact.  Kernels and span solves go through ``linalg.kernel`` and
``linalg.solver``, which pick the engine for the ring (Smith form over ℤ,
the sparse echelon engine over fields); vectors stay sparse ``{index:
entry}`` dicts throughout, and a solve's coordinates are the boundary
column of N as they come.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .bar import BarElement
from .chains import Cell, Chain, ChainComplex, GradedMap, TensorPair, chain_of, zero_chain
from .diagonal import DiagonalTable, xi_cell
from .linalg import _axpy, kernel, solver
from .rings import Coefficient, Ring
from .simplicial import (
    SimplicialSetPresentation,
    all_surjection_words,
    compose_degeneracy,
    compose_face,
)

Columns = List[Dict[int, Coefficient]]  # sparse columns of a linear map


def _apply_columns(cols: Columns, entries: Iterable[Tuple[int, Coefficient]], p: int) -> Dict[int, Coefficient]:
    """Σ x·cols[j] over the (j, x) pairs, as a sparse vector (mod p when p is
    nonzero); entries that vanish are skipped."""
    acc: Dict[int, Coefficient] = {}
    for j, x in entries:
        if x % p if p else x:
            _axpy(acc, cols[j], x, p)
    return acc


def _compose(second: Columns, first: Columns, ring: Ring) -> Columns:
    """Columns of (second ∘ first)."""
    p = ring.characteristic
    return [_apply_columns(second, col.items(), p) for col in first]


def _coerced(cols: Columns, ring: Ring) -> Columns:
    """A copy of the columns with each entry as ``ring.coerce`` gives it and
    the zeros dropped, as ``_apply_columns`` needs them."""
    coerce, is_zero = ring.coerce, ring.is_zero
    return [{r: x for r, y in col.items() if not is_zero(x := coerce(y))} for col in cols]


class SimplicialAbelianGroup:
    """A truncated simplicial object in free modules over an exact ring.

    ``levels[n]`` is the ordered basis of level n (arbitrary hashable labels);
    ``face_maps[(n, i)]`` the sparse columns of d_i: level n → level n−1, and
    ``degeneracy_maps[(n, i)]`` those of s_i: level n → level n+1 (present
    whenever n+1 ≤ truncation_dim).  All simplicial identities are checked as
    matrix identities up to the truncation.
    """

    def __init__(
        self,
        ring: Ring,
        levels: Dict[int, List[object]],
        face_maps: Dict[Tuple[int, int], Columns],
        degeneracy_maps: Dict[Tuple[int, int], Columns],
        truncation_dim: int,
        name: str = "",
        validate: bool = True,
    ):
        self.ring = ring
        self.levels: Dict[int, List[object]] = {n: list(v) for n, v in levels.items() if v}
        self.face_maps = {k: _coerced(v, ring) for k, v in face_maps.items()}
        self.degeneracy_maps = {k: _coerced(v, ring) for k, v in degeneracy_maps.items()}
        self.truncation_dim = truncation_dim
        self.name = name
        # (level, label) -> index of that generator in its level
        self.position: Dict[Tuple[int, object], int] = {
            (n, label): i for n, labels in self.levels.items() for i, label in enumerate(labels)
        }
        if validate:
            self.validate()

    def rank(self, n: int) -> int:
        return len(self.levels.get(n, []))

    def face(self, n: int, i: int) -> Columns:
        cols = self.face_maps.get((n, i))
        return [{} for _ in range(self.rank(n))] if cols is None else cols

    def degeneracy(self, n: int, i: int) -> Columns:
        cols = self.degeneracy_maps.get((n, i))
        return [{} for _ in range(self.rank(n))] if cols is None else cols

    def basis_cell(self, n: int, idx: int) -> Cell:
        return Cell(n, self.levels[n][idx])

    def validate(self) -> None:
        ring = self.ring
        for n in sorted(self.levels):
            # d_i d_j = d_{j−1} d_i, i < j
            if n >= 2 and self.rank(n - 1):
                for j in range(n + 1):
                    for i in range(j):
                        lhs = _compose(self.face(n - 1, i), self.face(n, j), ring)
                        rhs = _compose(self.face(n - 1, j - 1), self.face(n, i), ring)
                        if lhs != rhs:
                            raise ValueError(f"identity d_{i} d_{j} failed at level {n} of {self.name!r}")
            # s_i s_j = s_{j+1} s_i, i ≤ j
            if n + 2 <= self.truncation_dim:
                for j in range(n + 1):
                    for i in range(j + 1):
                        lhs = _compose(self.degeneracy(n + 1, i), self.degeneracy(n, j), ring)
                        rhs = _compose(self.degeneracy(n + 1, j + 1), self.degeneracy(n, i), ring)
                        if lhs != rhs:
                            raise ValueError(f"identity s_{i} s_{j} failed at level {n} of {self.name!r}")
            # d_i s_j mixed identities
            if n + 1 <= self.truncation_dim:
                for j in range(n + 1):
                    s = self.degeneracy(n, j)
                    for i in range(n + 2):
                        got = _compose(self.face(n + 1, i), s, ring)
                        if i in (j, j + 1):
                            want = [{k: ring.one} for k in range(self.rank(n))]
                        elif i < j:
                            want = _compose(self.degeneracy(n - 1, j - 1), self.face(n, i), ring)
                        else:
                            want = _compose(self.degeneracy(n - 1, j), self.face(n, i - 1), ring)
                        if got != want:
                            raise ValueError(f"identity d_{i} s_{j} failed at level {n} of {self.name!r}")


# ---------------------------------------------------------------------------
# Moore and normalized complexes
# ---------------------------------------------------------------------------


def moore_complex(a: SimplicialAbelianGroup) -> ChainComplex:
    """Degree-n module = level n, boundary = Σ (−1)^i d_i."""
    p = a.ring.characteristic
    basis: Dict[int, List[Cell]] = {n: [a.basis_cell(n, i) for i in range(a.rank(n))] for n in sorted(a.levels)}
    columns: Dict[int, Columns] = {}
    for n in sorted(a.levels):
        if n == 0 or not a.rank(n - 1):
            columns[n] = [{} for _ in range(a.rank(n))]
            continue
        signs = [(i, -1 if i % 2 else 1) for i in range(n + 1)]
        # per generator, its n+1 face columns, summed with alternating signs
        columns[n] = [_apply_columns(faces, signs, p) for faces in zip(*(a.face(n, i) for i in range(n + 1)))]
    return ChainComplex(a.ring, basis, columns, a.truncation_dim)


def _normalized_data(a: SimplicialAbelianGroup) -> Tuple[ChainComplex, Dict[int, Columns]]:
    """The normalized complex N(a) together with the inclusion of its basis
    into the levels of ``a``, as sparse vectors per level."""
    ring, p = a.ring, a.ring.characteristic
    kernels: Dict[int, Columns] = {}
    for n in sorted(a.levels):
        if n == 0:
            kernels[0] = [{i: ring.one} for i in range(a.rank(0))]
            continue
        # column j of d_0 … d_{n−1} stacked, d_i's entries shifted down by i·rank(n−1)
        faces, nrows = [a.face(n, i) for i in range(n)], a.rank(n - 1)
        kernels[n] = kernel([{i * nrows + t: x for i, cols in enumerate(faces) for t, x in cols[j].items()}
                             for j in range(a.rank(n))], ring)
    basis = {n: [Cell(n, ("N", a.name, n, j)) for j in range(len(vecs))] for n, vecs in kernels.items()}
    columns: Dict[int, Columns] = {}
    for n in sorted(kernels):
        columns[n] = [{} for _ in kernels[n]]
        if n == 0 or not kernels.get(n - 1) or not kernels[n]:
            continue
        below, sign = solver(kernels[n - 1], a.rank(n - 1), ring), (-1 if n % 2 else 1)
        for j, vec in enumerate(kernels[n]):
            coords = below.solve(_apply_columns(a.face(n, n), ((t, sign * x) for t, x in vec.items()), p))
            if coords is None:
                raise ValueError("vector is outside the expected span")
            columns[n][j] = coords
    return ChainComplex(ring, basis, columns, a.truncation_dim), kernels


# ---------------------------------------------------------------------------
# The functor Γ
# ---------------------------------------------------------------------------


def gamma(c: ChainComplex, truncation: int, name: str = "") -> SimplicialAbelianGroup:
    """Γ(C)_m = ⊕_{m↠n} C_n with formal degeneracies.

    A generator of level m is (canonical word of a surjection [m]↠[n], basis
    element of C_n).  A face d_i factors the composite surjection∘δ_i into
    epi∘mono; the mono contributes the identity when trivial, (−1)ⁿ·∂ when it
    omits the last vertex, and zero otherwise — the sign makes N(Γ(C)) equal
    to C on the nose with the (−1)ⁿ d_n normalization.
    """
    if any(n < 0 for n in c.degrees()):
        raise ValueError("gamma needs a nonnegatively graded complex")
    ring = c.ring
    levels: Dict[int, List[object]] = {}
    index: Dict[Tuple[int, Tuple[int, ...], int, int], int] = {}
    for m in range(truncation + 1):
        labels: List[object] = []
        for n in c.degrees():
            if n > m:
                continue
            for word in all_surjection_words(m, n):
                for j in range(c.rank(n)):
                    index[(m, word, n, j)] = len(labels)
                    labels.append(("G", word, n, j))
        levels[m] = labels
    face_maps: Dict[Tuple[int, int], Columns] = {}
    degeneracy_maps: Dict[Tuple[int, int], Columns] = {}
    for m in range(truncation + 1):
        for i in range(m + 1):
            if m > 0:
                cols: Columns = []
                for (_, word, n, j) in levels[m]:
                    new_word, missing = compose_face(word, m, i)
                    if missing is None:
                        cols.append({index[(m - 1, new_word, n, j)]: ring.one})
                    elif missing == n:  # distinct t give distinct rows, so nothing cancels
                        sign = -1 if n % 2 else 1
                        cols.append({
                            index[(m - 1, new_word, n - 1, t)]: ring.mul(sign, coeff)
                            for t, coeff in c.boundary_matrix(n)[j].items()
                        })
                    else:
                        cols.append({})
                face_maps[(m, i)] = cols
            if m + 1 <= truncation:
                degeneracy_maps[(m, i)] = [
                    {index[(m + 1, compose_degeneracy(word, m, i), n, j)]: ring.one}
                    for (_, word, n, j) in levels[m]
                ]
    return SimplicialAbelianGroup(ring, levels, face_maps, degeneracy_maps, truncation, name=name or "gamma")


def dold_kan_round_trip(c: ChainComplex, truncation: Optional[int] = None) -> bool:
    """N(Γ(C)) ≅ C via the explicit projection onto the identity-surjection
    summand: checks it is a degreewise bijection commuting with boundaries."""
    ring = c.ring
    top = max(c.degrees(), default=0)
    if truncation is None:
        truncation = top + 1
    g = gamma(c, truncation)
    normalized, kernels = _normalized_data(g)
    p = ring.characteristic
    lower: Columns = []  # the projections of the basis of N_{m−1}
    for m in range(min(truncation, top + 1) + 1):
        vecs = kernels.get(m, [])
        if len(vecs) != c.rank(m):
            return False
        # coordinates of the identity-word summand C_m inside level m
        summand = {g.position[(m, ("G", (), m, j))]: j for j in range(c.rank(m))}
        projected = [{summand[i]: x for i, x in v.items() if i in summand} for v in vecs]
        # bijectivity of the projection restricted to N
        onto = solver(projected, c.rank(m), ring)
        if any(onto.solve({j: ring.one}) is None for j in range(c.rank(m))):
            return False
        # the projection intertwines ∂_N with ∂_C
        for j, proj in enumerate(projected if m else ()):
            left = _apply_columns(lower, normalized.boundary_matrix(m)[j].items(), p)
            if left != _apply_columns(c.boundary_matrix(m), proj.items(), p):
                return False
        lower = projected
    return True


# ---------------------------------------------------------------------------
# Free (pointed) simplicial abelian groups on a simplicial set
# ---------------------------------------------------------------------------


def _basepoint_index(x: SimplicialSetPresentation, n: int) -> int:
    """Index of the n-fold degeneracy of the basepoint vertex."""
    bp = x.basepoint if x.basepoint is not None else 0
    return x.apply_word(0, bp, tuple(range(n - 1, -1, -1))) if n > 0 else bp


def free_simplicial_abelian(x: SimplicialSetPresentation, ring: Ring, pointed: bool = False) -> SimplicialAbelianGroup:
    """ℛX: levels free on the cells of x; pointed variant R̃X quotients by the
    basepoint degeneracy chain (one basis vector per level).

    Built and validated once per presentation, ring and variant: the group is
    kept on ``x.free_groups`` and every later call returns that object.
    """
    key = (ring, bool(pointed))
    if key in x.free_groups:
        return x.free_groups[key]
    dropped: Dict[int, Optional[int]] = {}
    if pointed:
        if x.n_cells(0) == 0:
            raise ValueError("pointed variant needs at least one vertex")
        for n in range(x.truncation_dim + 1):
            dropped[n] = _basepoint_index(x, n) if x.n_cells(n) else None
    levels: Dict[int, List[object]] = {}
    reindex: Dict[Tuple[int, int], int] = {}
    for n in sorted(x.cells):
        labels = []
        for idx in range(x.n_cells(n)):
            if pointed and dropped.get(n) == idx:
                continue
            reindex[(n, idx)] = len(labels)
            labels.append(x.basis_cell(n, idx).label)
        levels[n] = labels
    face_maps: Dict[Tuple[int, int], Columns] = {}
    degeneracy_maps: Dict[Tuple[int, int], Columns] = {}
    for n in sorted(x.cells):
        for i in range(n + 1):
            if n > 0:
                cols = []
                for idx in range(x.n_cells(n)):
                    if (n, idx) not in reindex:
                        continue
                    target = x.face(n, idx, i)
                    cols.append({reindex[(n - 1, target)]: ring.one} if (n - 1, target) in reindex else {})
                face_maps[(n, i)] = cols
            if n + 1 <= x.truncation_dim and n in x.degeneracies:
                cols = []
                for idx in range(x.n_cells(n)):
                    if (n, idx) not in reindex:
                        continue
                    target = x.degeneracy(n, idx, i)
                    cols.append({reindex[(n + 1, target)]: ring.one} if (n + 1, target) in reindex else {})
                degeneracy_maps[(n, i)] = cols
    label = f"R~({x.name})" if pointed else f"R({x.name})"
    group = SimplicialAbelianGroup(ring, levels, face_maps, degeneracy_maps, x.truncation_dim, name=label)
    x.free_groups[key] = group
    return group


def pointed_unnormalized_chains(x: SimplicialSetPresentation, ring: Ring) -> ChainComplex:
    """C(X) modulo the basepoint degeneracy chain: one basis cell dropped per
    degree, boundary entries through the dropped cells erased."""
    dropped = {n: _basepoint_index(x, n) for n in sorted(x.cells)}
    return x.chains_from_faces(ring, lambda n: [i for i in range(x.n_cells(n)) if i != dropped[n]])


# ---------------------------------------------------------------------------
# Hurewicz maps and the retraction γ
# ---------------------------------------------------------------------------


def chain_hurewicz(x: SimplicialSetPresentation, ring: Ring) -> GradedMap:
    """C(h): pointed C(X) → C(R̃X) = Moore complex of R̃X, cell ↦ 1·cell.

    Under the canonical basis identification the two complexes are equal, so
    the map carries each basis cell to the generator with the same label.
    """
    source = pointed_unnormalized_chains(x, ring)
    target = moore_complex(free_simplicial_abelian(x, ring, pointed=True))
    return GradedMap(source, target, 0, lambda basis: chain_of(ring, basis))


def gamma_X(x: SimplicialSetPresentation, ring: Ring) -> GradedMap:
    """γ: C(R̃X) → pointed C(X), sending each chain-generator of R̃X to the
    combination of simplices of X it denotes (1·σ ↦ σ), extended linearly."""
    source = moore_complex(free_simplicial_abelian(x, ring, pointed=True))
    target = pointed_unnormalized_chains(x, ring)
    return GradedMap(source, target, 0, lambda basis: chain_of(ring, basis))


def hurewicz_chain_map(x: SimplicialSetPresentation, ring: Ring) -> GradedMap:
    """N(h): N(X) → N(R̃X), σ ↦ the normalization of 1·σ.

    The generator 1·σ is projected into ⋂ ker d_i with the standard
    normalization operator P = (1 − s_{n−1}d_{n−1})⋯(1 − s_0 d_0) and
    expressed in the computed kernel basis.  The basepoint chain maps to zero
    (it is the quotiented direction), so on a reduced space degree 0 is the
    zero map.
    """
    a = free_simplicial_abelian(x, ring, pointed=True)
    target, kernels = _normalized_data(a)
    source = x.normalized_chains(ring)
    solvers: Dict[int, object] = {}
    p = ring.characteristic

    def action(basis: Cell) -> Chain:
        n = basis.degree
        if not kernels.get(n):
            return zero_chain(ring, n)
        pos = a.position.get((n, basis.label))
        if pos is None:  # the basepoint chain itself
            return zero_chain(ring, n)
        vec = {pos: ring.one}
        for i in range(n):  # P = Π (1 − s_i d_i), innermost i = 0
            down = _apply_columns(a.face(n, i), vec.items(), p)
            _axpy(vec, _apply_columns(a.degeneracy(n - 1, i), down.items(), p), -1, p)
        if n not in solvers:
            solvers[n] = solver(kernels[n], a.rank(n), ring)
        coords = solvers[n].solve(vec)
        if coords is None:
            raise ValueError("vector is outside the expected span")
        return Chain(ring, n, {target.basis_in(n)[t]: c for t, c in coords.items()})

    return GradedMap(source, target, 0, action)


# ---------------------------------------------------------------------------
# The diagonal on R̃X and the Hurewicz square
# ---------------------------------------------------------------------------


def _sab_iterated_face(a: SimplicialAbelianGroup, n: int, idx: int, keep: Sequence[int]) -> Optional[Tuple[int, int]]:
    """Follow an iterated face of a generator through single-generator face
    maps; None when the face is zero (a quotiented basepoint cell)."""
    drop = [j for j in range(n + 1) if j not in set(keep)]
    dim, cur = n, idx
    for j in sorted(drop, reverse=True):
        col = a.face(dim, j)[cur]
        if not col:
            return None
        if len(col) != 1 or next(iter(col.values())) != a.ring.one:
            raise ValueError("face of a generator is not a single generator")
        cur = next(iter(col))
        dim -= 1
    return dim, cur


def xi_sab_generator(
    b: BarElement, a: SimplicialAbelianGroup, n: int, idx: int, table: DiagonalTable, ring: Ring
) -> Chain:
    """ξ(b⊗g) for a generator g of a free simplicial abelian group, via the
    colimit extension; terms through a zero face vanish."""
    from .bar import twist_act

    acc: Dict[object, Coefficient] = {}
    for (left, right), coeff in table.raw(b.level, n).items():
        fa = _sab_iterated_face(a, n, idx, left)
        fb = _sab_iterated_face(a, n, idx, right)
        if fa is None or fb is None:
            continue
        key = TensorPair(a.basis_cell(*fa), a.basis_cell(*fb))
        acc[key] = ring.add(acc.get(key, ring.zero), ring.coerce(coeff))
    chain = Chain(ring, b.level + n, acc)
    if b.twist:
        chain = twist_act(chain)
    return chain


def hurewicz_square_defect(
    x: SimplicialSetPresentation,
    ring: Ring,
    table: DiagonalTable,
    level: int,
    n: int,
    idx: int,
) -> Chain:
    """(C(h)⊗C(h))∘ξ_X − ξ_{R̃X}∘(1⊗C(h)) on the cell (n, idx) at bar level
    ``level``; zero iff the Hurewicz map respects the diagonal there."""
    from .bar import e

    a = free_simplicial_abelian(x, ring, pointed=True)
    position = a.position
    full = xi_cell(e(level), x, n, idx, table, ring)
    lhs_terms: Dict[object, Coefficient] = {}
    for pair, coeff in full.terms.items():
        if (pair.left.degree, pair.left.label) in position and (pair.right.degree, pair.right.label) in position:
            lhs_terms[pair] = coeff
    lhs = Chain(ring, full.degree, lhs_terms)
    pos = position.get((n, x.basis_cell(n, idx).label))
    if pos is None:
        rhs = zero_chain(ring, full.degree)
    else:
        rhs = xi_sab_generator(e(level), a, n, pos, table, ring)
    return lhs - rhs
