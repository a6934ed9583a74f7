"""Truncated Dold-Kan machinery.

Simplicial abelian groups are presented by an ordered basis per level with
face and degeneracy operators as index lists (each generator goes to one
generator or to 0) or as sparse integer (or field) matrices, and checked
against ``simplicial.simplicial_identities`` like a presentation.  It provides:

* the Moore complex (full levels, alternating-sum boundary) and the
  normalized complex N (degreewise ⋂ ker d_i, boundary (−1)ⁿ d_n),
* the inverse functor Γ building a simplicial abelian group from a chain
  complex by formal degeneracies,
* free (pointed) simplicial abelian groups ℛX and R̃X on a presented
  simplicial set, with R̃X = ℛX / (basepoint degeneracy chain), built and
  validated once per presentation, ring and variant,
* the Hurewicz map x ↦ 1·x on normalized and unnormalized chains, the
  retraction γ, and the diagonal-compatibility defect of the Hurewicz square,
* ``ChainMap``, the one form of a map of complexes: sparse columns per degree.

Everything is finite because the inputs are truncated; every linear-algebra
step is exact.  Kernels, span solves and the round trip's bijectivity go
through ``linalg.kernel``, ``linalg.solver`` and ``linalg.is_invertible``,
which pick the engine for the ring (Smith form over ℤ, the sparse echelon
engine over fields); vectors stay sparse ``{index: entry}`` dicts
throughout, and a solve's coordinates are the boundary column of N as they
come.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

from .chains import Cell, ChainComplex
from .diagonal import DiagonalTable
from .linalg import _axpy, is_invertible, kernel, solver
from .rings import Coefficient, Ring
from .simplicial import SimplicialSetPresentation, degeneracy_column, face_column, simplicial_identities, surjection_blocks

Columns = List[Dict[int, Coefficient]]  # sparse columns of a linear map
IndexMap = List[Optional[int]]  # generator j ↦ generator IndexMap[j], or 0 for None
Map = Union[Columns, IndexMap]


def _is_index(m: Map) -> bool:
    return not m or not isinstance(m[0], dict)


def _columns(m: Map, ring: Ring) -> Columns:
    """The map as sparse columns: an index map gives unit columns."""
    return [{} if k is None else {k: ring.one} for k in m] if _is_index(m) else m


def _apply(m: Map, entries: Iterable[Tuple[int, Coefficient]], p: int) -> Dict:
    """Σ x·m(e_j) over the (j, x) pairs, as a sparse vector (mod p when p is
    nonzero); entries that vanish are dropped."""
    acc: Dict = {}
    index = _is_index(m)
    for j, x in entries:
        if x % p if p else x:
            _axpy(acc, m[j] if not index else {} if m[j] is None else {m[j]: 1}, x, p)
    return acc


def _compose(second: Columns, first: Columns, ring: Ring) -> Columns:
    """Columns of (second ∘ first).  A unit column {j: 1} of ``first`` gives
    ``second[j]`` itself, not a copy: the result may share dicts with
    ``second`` and must not be mutated."""
    p = ring.characteristic
    return [second[next(iter(col))] if len(col) == 1 and 1 in col.values() else _apply(second, col.items(), p)
            for col in first]


class ChainMap:
    """A degree-0 linear map of complexes as sparse columns: ``columns[n][j]``
    is the image of basis element j of degree n, as ``{row: coefficient}``
    over the target's basis of degree n, with a column list for every degree
    of the source."""

    def __init__(self, source: ChainComplex, target: ChainComplex, columns: Dict[int, Columns]):
        self.source, self.target, self.columns = source, target, columns

    def is_chain_map(self, degrees: Iterable[int]) -> bool:
        """Whether f∘∂ = ∂∘f on every basis element of the given degrees."""
        p = self.target.ring.characteristic
        for n in degrees:
            here, below, d = self.columns.get(n, []), self.columns.get(n - 1, []), self.target.boundary_matrix(n)
            for j, col in enumerate(self.source.boundary_matrix(n)):
                if _apply(below, col.items(), p) != _apply(d, here[j].items(), p):
                    return False
        return True


class SimplicialAbelianGroup:
    """A truncated simplicial object in free modules over an exact ring.

    ``levels[n]`` is the ordered basis of level n (arbitrary hashable labels);
    ``face_maps[(n, i)]`` is d_i: level n → level n−1 and
    ``degeneracy_maps[(n, i)]`` is s_i: level n → level n+1 (present whenever
    n+1 ≤ truncation_dim).  A map is kept in the form it is given: an index
    list (entry j the generator that generator j goes to, None for 0), or
    sparse columns, whose entries are coerced into a new list here.  The group
    takes an index list over as it is, with no copy: the caller must not
    change it afterwards.  The constructor runs ``validate``, which checks
    every identity that ``simplicial_identities`` lists up to the
    truncation, composing after an index map by list lookup.  ``of_cell`` is
    filled for ℛX and R̃X only: per level, the generator of each cell of X
    (None for the basepoint chain).
    """

    def __init__(
        self,
        ring: Ring,
        levels: Dict[int, List[object]],
        face_maps: Dict[Tuple[int, int], Map],
        degeneracy_maps: Dict[Tuple[int, int], Map],
        truncation_dim: int,
        name: str = "",
    ):
        coerce, is_zero = ring.coerce, ring.is_zero

        def own(m: Map) -> Map:
            if _is_index(m):
                return m
            return [{r: x for r, y in col.items() if not is_zero(x := coerce(y))} for col in m]

        self.ring = ring
        self.levels: Dict[int, List[object]] = {n: list(v) for n, v in levels.items() if v}
        self.face_maps = {k: own(v) for k, v in face_maps.items()}
        self.degeneracy_maps = {k: own(v) for k, v in degeneracy_maps.items()}
        self.truncation_dim = truncation_dim
        self.name = name
        self.of_cell: Dict[int, IndexMap] = {}
        self.validate()

    def rank(self, n: int) -> int:
        return len(self.levels.get(n, []))

    def face(self, n: int, i: int) -> Map:
        """d_i on level n as it is kept; the zero index list when absent."""
        m = self.face_maps.get((n, i))
        return [None] * self.rank(n) if m is None else m

    def degeneracy(self, n: int, i: int) -> Map:
        m = self.degeneracy_maps.get((n, i))
        return [None] * self.rank(n) if m is None else m

    def basis_cell(self, n: int, idx: int) -> Cell:
        return Cell(n, self.levels[n][idx])

    def _then(self, second: Map, first: Map) -> Map:
        """second ∘ first.  An index ``first`` looks each generator up in
        ``second``, in whatever form ``second`` is kept: the result shares its
        columns, with {} for 0, and must not be mutated.  A column ``first``
        goes through ``_compose`` with ``second`` as columns."""
        if _is_index(first):
            zero = None if _is_index(second) else {}
            return [zero if k is None else second[k] for k in first]
        return _compose(_columns(second, self.ring), first, self.ring)

    def _same(self, f: Map, g: Map) -> bool:
        if f == g:
            return True
        return _is_index(f) != _is_index(g) and _columns(f, self.ring) == _columns(g, self.ring)

    def _check_entries(self) -> None:
        """Each map has one entry per generator, and each entry names a
        generator of the level the map goes to."""
        for maps, op, step in ((self.face_maps, "d", -1), (self.degeneracy_maps, "s", 1)):
            for (n, i), m in sorted(maps.items()):
                name, size = f"{op}_{i} on level {n} of {self.name!r}", self.rank(n + step)
                if len(m) != self.rank(n):
                    raise ValueError(f"{name} has {len(m)} entries for {self.rank(n)} generators")
                targets = set(m) if _is_index(m) else {r for col in m for r in col}
                targets.discard(None)
                if set(map(type, targets)) <= {int} and (not targets or (min(targets) >= 0 and max(targets) < size)):
                    continue
                pairs = enumerate(m) if _is_index(m) else ((j, r) for j, col in enumerate(m) for r in col)
                j, t = next((j, t) for j, t in pairs if t is not None and not (type(t) is int and 0 <= t < size))
                raise ValueError(f"{name} sends generator {j} to {t!r}, not a generator of level {n + step}")

    def validate(self) -> None:
        self._check_entries()
        top, d, s, same = self.truncation_dim, self.face, self.degeneracy, self._same
        for n in sorted(self.levels):
            identity = list(range(self.rank(n)))
            for kind, i, j, lhs, rhs in simplicial_identities(n, top, d, s, self._then):
                if not same(lhs, identity if rhs is None else rhs):
                    ops = {"dd": "dd", "ss": "ss"}.get(kind, "ds")
                    raise ValueError(f"identity {ops[0]}_{i} {ops[1]}_{j} failed at level {n} of {self.name!r}")


# ---------------------------------------------------------------------------
# Moore and normalized complexes
# ---------------------------------------------------------------------------


def moore_complex(a: SimplicialAbelianGroup) -> ChainComplex:
    """Degree-n module = level n, boundary = Σ (−1)^i d_i."""
    p = a.ring.characteristic
    basis: Dict[int, List[Cell]] = {n: [a.basis_cell(n, i) for i in range(a.rank(n))] for n in sorted(a.levels)}
    columns: Dict[int, Columns] = {}
    for n in sorted(a.levels):
        columns[n] = [{} for _ in range(a.rank(n))]
        for i in range(n + 1 if n and a.rank(n - 1) else 0):
            d, sign = a.face(n, i), -1 if i % 2 else 1
            index = _is_index(d)
            for col, image in zip(columns[n], d):
                if image is not None:
                    _axpy(col, {image: 1} if index else image, sign, p)
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
        faces, nrows = [_columns(a.face(n, i), ring) for i in range(n)], a.rank(n - 1)
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
            coords = below.solve(_apply(a.face(n, n), ((t, sign * x) for t, x in vec.items()), p))
            if coords is None:
                raise ValueError("vector is outside the expected span")
            columns[n][j] = coords
    return ChainComplex(ring, basis, columns, a.truncation_dim), kernels


# ---------------------------------------------------------------------------
# The functor Γ
# ---------------------------------------------------------------------------


def gamma(c: ChainComplex, truncation: int) -> SimplicialAbelianGroup:
    """Γ(C)_m = ⊕_{m↠n} C_n with formal degeneracies.

    A generator of level m is (canonical word of a surjection [m]↠[n], basis
    element of C_n), laid out in the blocks of ``surjection_blocks`` like the
    cells of 𝔡(Y).  A face d_i factors the composite surjection∘δ_i into
    epi∘mono; the mono contributes the identity when trivial, (−1)ⁿ·∂ when it
    omits the last vertex, and zero otherwise — the sign makes N(Γ(C)) equal
    to C on the nose with the (−1)ⁿ d_n normalization.
    """
    if any(n < 0 for n in c.degrees()):
        raise ValueError("gamma needs a nonnegatively graded complex")
    ring = c.ring
    # every degree up to the top, so that the block of ∂'s target exists even where C is zero
    size = {n: c.rank(n) for n in range(max(c.degrees(), default=-1) + 1)}
    blocks = surjection_blocks(size, truncation)
    levels = {m: [("G", word, n, j) for word, n in level for j in range(size[n])] for m, level in blocks.items()}
    signed = {n: [{t: ring.mul(-1 if n % 2 else 1, x) for t, x in col.items()} for col in c.boundary_matrix(n)]
              for n in size if n}

    def boundaries(n: int, v: int, start: int) -> list:  # per generator: a generator, None for 0, or ±∂
        if v != n:
            return [None] * size[n]
        cols = [{start + t: x for t, x in col.items()} for col in signed[n]]  # distinct rows: nothing cancels
        return [next(iter(col)) if len(col) == 1 and ring.one in col.values() else col or None for col in cols]

    face_maps: Dict[Tuple[int, int], Map] = {}
    for m in range(1, truncation + 1):
        for i in range(m + 1):
            images = face_column(blocks, size, m, i, boundaries)
            if any(type(k) is dict for k in images):
                images = [k if type(k) is dict else {} if k is None else {k: ring.one} for k in images]
            face_maps[(m, i)] = images
    degeneracy_maps = {(m, i): degeneracy_column(blocks, size, m, i) for m in range(truncation) for i in range(m + 1)}
    return SimplicialAbelianGroup(ring, levels, face_maps, degeneracy_maps, truncation, name="gamma")


def dold_kan_round_trip(c: ChainComplex) -> bool:
    """N(Γ(C)) ≅ C via the explicit projection onto the identity-surjection
    summand, with Γ truncated one above the top degree of C: checks it is a
    degreewise bijection commuting with boundaries."""
    ring = c.ring
    top = max(c.degrees(), default=0)
    g = gamma(c, top + 1)
    normalized, kernels = _normalized_data(g)
    projections: Dict[int, Columns] = {}
    for m in range(top + 2):
        vecs, rank = kernels.get(m, []), c.rank(m)
        if len(vecs) != rank:
            return False
        # the identity-word summand C_m is the last block of level m, since
        # surjection_blocks orders the blocks by n and then by word
        start = g.rank(m) - rank
        projections[m] = [{i - start: x for i, x in v.items() if i >= start} for v in vecs]
        # bijectivity of the projection restricted to N
        if not is_invertible(projections[m], rank, ring):
            return False
    # the projection intertwines ∂_N with ∂_C
    return ChainMap(normalized, c, projections).is_chain_map(range(1, top + 2))


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
    if pointed and x.n_cells(0) == 0:
        raise ValueError("pointed variant needs at least one vertex")
    of_cell: Dict[int, IndexMap] = {}
    for n in sorted(x.cells):
        of_cell[n] = list(range(x.n_cells(n)))
        if pointed:  # the basepoint chain has no generator, and the cells after it move down
            drop = _basepoint_index(x, n)
            of_cell[n][drop:] = [None, *range(drop, x.n_cells(n) - 1)]
    kept = {n: [idx for idx, k in enumerate(gens) if k is not None] for n, gens in of_cell.items()}
    levels = {n: [x.basis_cell(n, idx).label for idx in cells] for n, cells in kept.items()}
    face_maps: Dict[Tuple[int, int], Map] = {}
    degeneracy_maps: Dict[Tuple[int, int], Map] = {}
    for n, cells in kept.items():
        for i, targets in enumerate(zip(*x.faces[n]) if n > 0 else ()):
            face_maps[(n, i)] = [of_cell[n - 1][targets[idx]] for idx in cells]
        if n + 1 <= x.truncation_dim and n in x.degeneracies:
            for i, targets in enumerate(zip(*x.degeneracies[n])):
                degeneracy_maps[(n, i)] = [of_cell[n + 1][targets[idx]] for idx in cells]
    label = f"R~({x.name})" if pointed else f"R({x.name})"
    group = SimplicialAbelianGroup(ring, levels, face_maps, degeneracy_maps, x.truncation_dim, name=label)
    group.of_cell = of_cell
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


def _pointed_chains(x: SimplicialSetPresentation, ring: Ring) -> Tuple[ChainComplex, ChainComplex]:
    """Pointed C(X) and C(R̃X), built once per ring and kept on ``x.free_groups``."""
    key = (ring, "chains")
    if key not in x.free_groups:
        rx = free_simplicial_abelian(x, ring, pointed=True)
        x.free_groups[key] = (pointed_unnormalized_chains(x, ring), moore_complex(rx))
    return x.free_groups[key]


def _same_labels(source: ChainComplex, target: ChainComplex) -> ChainMap:
    """Each basis cell of ``source`` ↦ the cell of ``target`` with the same
    label, found through ``target.index_of``: a label ``target`` lacks raises."""
    one = target.ring.one
    return ChainMap(source, target, {n: [{target.index_of(b): one} for b in source.basis_in(n)] for n in source.degrees()})


def chain_hurewicz(x: SimplicialSetPresentation, ring: Ring) -> ChainMap:
    """C(h): pointed C(X) → C(R̃X) = Moore complex of R̃X, cell ↦ 1·cell.

    Under the canonical basis identification the two complexes are equal, so
    the map carries each basis cell to the generator with the same label.
    """
    return _same_labels(*_pointed_chains(x, ring))


def gamma_X(x: SimplicialSetPresentation, ring: Ring) -> ChainMap:
    """γ: C(R̃X) → pointed C(X), sending each chain-generator of R̃X to the
    combination of simplices of X it denotes (1·σ ↦ σ), extended linearly."""
    target, source = _pointed_chains(x, ring)
    return _same_labels(source, target)


def hurewicz_chain_map(x: SimplicialSetPresentation, ring: Ring) -> ChainMap:
    """N(h): N(X) → N(R̃X), σ ↦ the normalization of 1·σ.

    The generator 1·σ, found through ``of_cell``, is projected into ⋂ ker d_i
    with the standard normalization operator P = (1 − s_{n−1}d_{n−1})⋯(1 −
    s_0 d_0), and its coordinates in the computed kernel basis are its column.
    The basepoint chain maps to zero (it is the quotiented direction), so on a
    reduced space degree 0 is the zero map.
    """
    a = free_simplicial_abelian(x, ring, pointed=True)
    target, kernels = _normalized_data(a)
    source = x.normalized_chains(ring)
    p = ring.characteristic
    columns: Dict[int, Columns] = {}
    for n in source.degrees():
        # the generator of each basis cell, None for the basepoint chain itself
        generators = [a.of_cell[n][idx] for idx in x.nondegenerate_indices(n)]
        columns[n] = [{} for _ in generators]
        if not kernels.get(n):
            continue
        onto = solver(kernels[n], a.rank(n), ring)
        for j, pos in enumerate(generators):
            if pos is None:
                continue
            vec = {pos: ring.one}
            for i in range(n):  # P = Π (1 − s_i d_i), innermost i = 0
                down = _apply(a.face(n, i), vec.items(), p)
                _axpy(vec, _apply(a.degeneracy(n - 1, i), down.items(), p), -1, p)
            coords = onto.solve(vec)
            if coords is None:
                raise ValueError("vector is outside the expected span")
            columns[n][j] = coords
    return ChainMap(source, target, columns)


# ---------------------------------------------------------------------------
# The diagonal on R̃X and the Hurewicz square
# ---------------------------------------------------------------------------


def hurewicz_square_defects(
    x: SimplicialSetPresentation,
    ring: Ring,
    table: DiagonalTable,
    level: int,
    n: int,
    cells: Optional[Iterable[int]] = None,
) -> List[Dict[Tuple[Cell, Cell], Coefficient]]:
    """(C(h)⊗C(h))∘ξ_X − ξ_{R̃X}∘(1⊗C(h)) at bar level ``level`` on each
    n-cell in ``cells`` (all n-cells by default), in order, each as a chain
    ``{(Cell, Cell): coefficient}`` of R̃X; empty iff the Hurewicz map
    respects the diagonal on that cell.

    Both sides are colimit extensions of ξ(e_level⊗Δⁿ): the left one takes
    faces in X and then their generators of R̃X through ``of_cell`` (none for
    the basepoint chain), the right one follows the face index lists of R̃X
    from the generator of the cell.  Each vertex subset of a term of ξ has its
    face taken once for all the cells, on both sides; each cell's terms are
    summed into one dict keyed by the two (dim, index) pairs in R̃X's
    numbering, and cells are built only for the nonzero remainder.
    """
    a = free_simplicial_abelian(x, ring, pointed=True)
    of_cell, p = a.of_cell, ring.characteristic
    cells = list(range(x.n_cells(n)) if cells is None else cells)
    faces: Dict[Tuple[int, ...], Tuple[list, list]] = {}

    def face(keep: Tuple[int, ...]) -> Tuple[list, list]:
        # per cell: the (dim, generator) of its face in X and of its generator's face in R̃X, None for 0
        dim, here, there = n, cells, [of_cell[n][idx] for idx in cells]
        for j in range(n, -1, -1):
            if j not in keep:
                table_x, d = x.faces[dim], a.face_maps[(dim, j)]
                here, there, dim = [table_x[k][j] for k in here], [None if k is None else d[k] for k in there], dim - 1
        return ([None if (k := of_cell[dim][i]) is None else (dim, k) for i in here],
                [None if k is None else (dim, k) for k in there])

    sums: List[Dict[Tuple[Tuple[int, int], Tuple[int, int]], Coefficient]] = [{} for _ in cells]
    for (left, right), coeff in table.raw(level, n).items():
        c = ring.coerce(coeff)
        for keep in (left, right):
            if keep not in faces:
                faces[keep] = face(keep)
        (xa, ra), (xb, rb) = faces[left], faces[right]
        for pairs, sign in ((zip(xa, xb), c), (zip(ra, rb), -c)):
            for acc, key in zip(sums, pairs):
                if None not in key:
                    v = acc.get(key, 0) + sign
                    acc[key] = v % p if p else v
    return [{(a.basis_cell(*ka), a.basis_cell(*kb)): v for (ka, kb), v in acc.items() if v} for acc in sums]


def hurewicz_square_defect(
    x: SimplicialSetPresentation,
    ring: Ring,
    table: DiagonalTable,
    level: int,
    n: int,
    idx: int,
) -> Dict[Tuple[Cell, Cell], Coefficient]:
    """The Hurewicz square's defect on the one cell (n, idx): see
    ``hurewicz_square_defects``."""
    return hurewicz_square_defects(x, ring, table, level, n, [idx])[0]
