"""Finite presentations of delta-complexes and simplicial sets.

A delta-complex stores abstract cells per dimension with face tables only; a
simplicial-set presentation additionally stores degeneracy tables.  The two
functors between them are implemented here:

* ``forget_degeneracies`` (drop degeneracy operators, every cell becomes a
  delta-complex cell), and
* ``freely_add_degeneracies`` (adjoin free degeneracies: the m-cells are pairs
  (n-cell, canonical surjection m↠n)).

Surjections [m]↠[n] are kept in canonical form: the strictly decreasing word
s_{i₁}⋯s_{i_j} with i₁ > ⋯ > i_j, equivalently the set of positions where the
underlying monotone map repeats a value.

``simplicial_identities`` lists the simplicial identities once, for these
tables and for the simplicial abelian groups of ``dold_kan``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .chains import Cell, ChainComplex
from .rings import Coefficient, Ring

# ---------------------------------------------------------------------------
# Surjection-word calculus
# ---------------------------------------------------------------------------

Word = Tuple[int, ...]  # strictly decreasing degeneracy indices


def word_to_map(word: Word, m: int) -> Tuple[int, ...]:
    """The monotone surjection [m]↠[m−len(word)] with the given canonical word."""
    dup = set(word)
    value = 0
    out = []
    for k in range(m + 1):
        out.append(value)
        if k not in dup:
            value += 1
    return tuple(out)


def map_to_word(f: Sequence[int]) -> Word:
    """Canonical word of a monotone surjection: positions where it repeats."""
    return tuple(sorted((k for k in range(len(f) - 1) if f[k] == f[k + 1]), reverse=True))


def is_surjective_onto(f: Sequence[int], n: int) -> bool:
    return set(f) == set(range(n + 1))


@lru_cache(maxsize=None)
def compose_degeneracy(word: Word, m: int, i: int) -> Word:
    """Canonical word of s_i ∘ (the surjection [m]↠[m−j] given by ``word``).

    The result is a surjection [m+1]↠[m−j].  Computed once per (word, m, i):
    every cell over the same surjection shares it.
    """
    f = word_to_map(word, m)
    g = f[: i + 1] + f[i:]  # precompose with the codegeneracy repeating slot i
    return map_to_word(g)


@lru_cache(maxsize=None)
def compose_face(word: Word, m: int, i: int) -> Tuple[Word, Optional[int]]:
    """Factor (surjection given by ``word``) ∘ δ_i through its epi-mono pieces.

    Returns (word', v): if v is None, the composite [m−1]→[n] is onto and
    ``word'`` is its canonical word; otherwise the composite misses the single
    value v, the factorization is δ_v ∘ (surjection with word ``word'``), and
    the caller must take the v-th face of the underlying cell.  Computed once
    per (word, m, i), like ``compose_degeneracy``.
    """
    f = word_to_map(word, m)
    g = f[:i] + f[i + 1 :]
    n = max(f)
    if is_surjective_onto(g, n):
        return map_to_word(g), None
    missing = [v for v in range(n + 1) if v not in g]
    assert len(missing) == 1
    v = missing[0]
    g_prime = tuple(x if x < v else x - 1 for x in g)
    return map_to_word(g_prime), v


def all_surjection_words(m: int, n: int) -> List[Word]:
    """All canonical words for surjections [m]↠[n]: every strictly decreasing
    set of m − n indices below m."""
    if n > m or n < 0:
        return []
    return [combo[::-1] for combo in combinations(range(m), m - n)]


Blocks = Dict[int, Dict[Tuple[Word, int], int]]


def surjection_blocks(size: Dict[int, int], truncation: int) -> Blocks:
    """The layout of the free constructions 𝔡(Y) and Γ(C): per level m up to
    ``truncation``, the first index of each block (word, n), the ``size[n]``
    generators of degree n over one surjection [m]↠[n], in order.  Blocks are
    ordered by n and then by word; a block may be empty."""
    blocks: Blocks = {}
    for m in range(truncation + 1):
        start, blocks[m] = 0, {}
        for n in sorted(size):
            for word in all_surjection_words(m, n):
                blocks[m][word, n] = start
                start += size[n]
    return blocks


def face_column(blocks: Blocks, size: Dict[int, int], m: int, i: int, missing: Callable) -> list:
    """d_i out of level m, written a block at a time: the factorization of
    word ∘ δ_i depends on the block only.  An onto composite word' sends the
    block (word, n) onto block (word', n) one level down; one that misses the
    vertex v gives ``missing(n, v, start)``, start the first index of block
    (word', n − 1)."""
    column: list = []
    for word, n in blocks[m]:
        new_word, v = compose_face(word, m, i)
        if v is None:
            start = blocks[m - 1][new_word, n]
            column += range(start, start + size[n])
        else:
            column += missing(n, v, blocks[m - 1][new_word, n - 1])
    return column


def degeneracy_column(blocks: Blocks, size: Dict[int, int], m: int, i: int) -> List[int]:
    """s_i out of level m, a block at a time: block (word, n) onto block
    (s_i ∘ word, n) one level up."""
    column: List[int] = []
    for word, n in blocks[m]:
        start = blocks[m + 1][compose_degeneracy(word, m, i), n]
        column += range(start, start + size[n])
    return column


# ---------------------------------------------------------------------------
# Face tables
# ---------------------------------------------------------------------------


def simplicial_identities(n: int, top: int, d: Callable, s: Callable, then: Callable) -> Iterator[tuple]:
    """The simplicial identities out of level n, up to truncation ``top``, as
    (kind, i, j, lhs, rhs): ``d(m, k)`` and ``s(m, k)`` give d_k and s_k out
    of level m, and ``then(second, first)`` composes two of them.  In order:
    "dd", d_i d_j = d_{j−1} d_i (i < j); per s_j, "id", d_j s_j = d_{j+1} s_j =
    id (rhs None), then "ds", d_i s_j = s_{j−1} d_i (i < j) or s_j d_{i−1}
    (i > j+1); "ss", s_i s_j = s_{j+1} s_i (i ≤ j).  Each identity's two sides
    are composed only when the caller reaches it."""
    for j in range(n + 1 if n >= 2 else 0):
        for i in range(j):
            yield "dd", i, j, then(d(n - 1, i), d(n, j)), then(d(n - 1, j - 1), d(n, i))
    for j in range(n + 1 if n + 1 <= top else 0):
        sj = s(n, j)
        for i in (j, j + 1):
            yield "id", i, j, then(d(n + 1, i), sj), None
        for i in chain(range(j), range(j + 2, n + 2)):
            rhs = then(s(n - 1, j - 1), d(n, i)) if i < j else then(s(n - 1, j), d(n, i - 1))
            yield "ds", i, j, then(d(n + 1, i), sj), rhs
    for j in range(n + 1 if n + 2 <= top else 0):
        for i in range(j + 1):
            yield "ss", i, j, then(s(n + 1, i), s(n, j)), then(s(n + 1, j + 1), s(n, i))


def _basis_cell(name: str, n: int, idx: int) -> Cell:
    return Cell(n, (name, n, idx) if name else (n, idx))


class FaceTable:
    """Cells per dimension with a face table: what delta-complexes and
    simplicial-set presentations share.

    Subclasses provide ``cells`` ({dimension: labels}), ``faces`` ({dimension
    n: list whose entry idx is the tuple of the n+1 face indices of cell idx,
    () for a vertex}), ``truncation_dim`` and ``name``.  A cell is its index
    in its dimension's lists throughout.
    """

    def _own_tables(self) -> None:
        """Drop empty dimensions; the vertex face table may be left out."""
        self.cells = {n: list(v) for n, v in self.cells.items() if v}
        self.faces = {0: [()] * self.n_cells(0), **self.faces}

    def n_cells(self, n: int) -> int:
        return len(self.cells.get(n, []))

    def face(self, n: int, idx: int, i: int) -> int:
        return self.faces[n][idx][i]

    def iterated_face(self, n: int, idx: int, keep: Sequence[int]) -> Tuple[int, int]:
        """The face keeping the vertex positions in ``keep`` (increasing)."""
        dim, cur = n, idx
        for j in range(n, -1, -1):
            if j not in keep:
                cur = self.faces[dim][cur][j]
                dim -= 1
        return dim, cur

    def face_indices(self, n: int, keep: Sequence[int]) -> List[int]:
        """``iterated_face(n, idx, keep)[1]`` for every n-cell idx, in order."""
        out = range(self.n_cells(n))
        for dim, j in enumerate(j for j in range(n, -1, -1) if j not in keep):
            table = self.faces.get(n - dim, ())  # absent only when there are no n-cells
            out = [table[x][j] for x in out]
        return list(out)

    def basis_cell(self, n: int, idx: int) -> Cell:
        return _basis_cell(self.name, n, idx)

    def _check_tables(self, tables: Dict[int, list], required: Callable[[int], bool], kind: str) -> None:
        """Each dimension's table (``kind`` "faces" or "degeneracies") has one
        entry per cell, and each entry n+1 (a vertex's face entry: 0) integer
        indices of cells one dimension down (faces) or up (degeneracies)."""
        noun, op, step = ("face", "d", -1) if kind == "faces" else ("degeneracy", "s", 1)
        for n in sorted(set(self.cells) | set(tables)):
            size, have = self.n_cells(n), len(tables.get(n, ()))
            if have < size and (n in tables or required(n)):
                raise ValueError(f"cell ({n},{have}) has no {noun} list")
            if have > size:
                raise ValueError(f"dimension {n} has {have} {noun} lists for {size} cells")
        for n, table in sorted(tables.items()):
            width, below = (n + 1 if n or step > 0 else 0), self.n_cells(n + step)
            flat = list(chain.from_iterable(table))
            if set(map(len, table)) <= {width} and set(map(type, flat)) <= {int}:
                if not flat or (min(flat) >= 0 and max(flat) < below):
                    continue
            for idx, entry in enumerate(table):
                if len(entry) != width:
                    extra = f", expected {width}" if step < 0 else ""
                    raise ValueError(f"cell ({n},{idx}) has {len(entry)} {kind}{extra}")
                for i, target in enumerate(entry):
                    if type(target) is not int:
                        raise ValueError(f"{noun} {op}_{i} of cell ({n},{idx}) is {target!r}, not a cell index")
                    if not 0 <= target < below:
                        raise ValueError(f"{noun} {op}_{i} of cell ({n},{idx}) points at missing cell {target}")

    def _validate_identities(self, degeneracies: Dict[int, list], top: int) -> None:
        """Every simplicial identity up to truncation ``top`` (0: the face
        identities only), each side an index tuple over the cells of a
        dimension.  Face identities are named before mixed ones and lower
        dimensions before higher; the failing cell is the first where a failing
        identity's sides differ, named by the first identity differing there."""

        def transposed(tables: Dict[int, list]) -> Callable[[int, int], tuple]:
            # per map (column, getter): column[x] is the image of cell x, getter(seq) is seq ∘ map
            maps = {n: [(col, itemgetter(*col) if len(col) > 1 else lambda seq, k=col[0]: (seq[k],))
                        for col in zip(*table)] for n, table in tables.items()}
            return lambda n, k: maps[n][k]

        d, s = transposed(self.faces), transposed(degeneracies)
        failed = []  # (mixed, n, kind, i, j, lhs, rhs) per failing identity
        for n in sorted(self.cells):
            same = tuple(range(self.n_cells(n)))
            for kind, i, j, lhs, rhs in simplicial_identities(n, top, d, s, lambda second, first: first[1](second[0])):
                rhs = same if rhs is None else rhs
                if lhs != rhs:
                    failed.append((kind != "dd", n, kind, i, j, lhs, rhs))
        if failed:
            first = min(f[:2] for f in failed)
            group = [f[2:] for f in failed if f[:2] == first]
            where = [next(x for x, (a, b) in enumerate(zip(lhs, rhs)) if a != b) for *_, lhs, rhs in group]
            (_, n), idx = first, min(where)
            kind, i, j, _, _ = group[where.index(idx)]
            raise ValueError({"dd": f"face identity d_{i} d_{j} failed on cell ({n},{idx})",
                              "id": f"identity d s = id failed at s_{j} of ({n},{idx})",
                              "ds": f"identity d_{i} s_{j} failed on ({n},{idx})",
                              "ss": f"identity s_i s_j failed on ({n},{idx})"}[kind])

    def chains_from_faces(
        self, ring: Ring, kept: Callable[[int], Sequence[int]], exhaustive: bool = False
    ) -> ChainComplex:
        """The chain complex on the cells ``kept(n)`` (increasing indices) of
        each dimension, with boundary Σ (−1)^i d_i.  A degree's columns of ∂,
        and of δ, are written from the face table by ``signed_incidence``
        when first read: faces outside the kept cells vanish (they are
        quotiented away) and repeated faces add up.  When every cell is kept,
        ∂∂ = 0 follows from the face identities d_i d_j = d_{j−1} d_i, which
        the constructor validated, over every ring: it is recorded in
        ``derived`` under ``("dd_zero", n)`` and not checked again.  The
        builders close over the face lists, the name and the kept indices:
        one over the table, which keeps its complex, would be a cycle only
        the cyclic collector frees."""
        kept_cells = {n: kept(n) for n in sorted(self.cells)}
        # per dimension: None when every cell is kept, else each cell's row,
        # or the rank for a cell quotiented away
        rows: Dict[int, Optional[List[int]]] = {}
        for n, indices in kept_cells.items():
            rows[n] = None if len(indices) == self.n_cells(n) else [len(indices)] * self.n_cells(n)
            for r, idx in enumerate(indices if rows[n] else ()):
                rows[n][idx] = r
        faces, name = self.faces, self.name

        def incidence(n: int, by_row: bool) -> List[Dict[int, Coefficient]]:
            return signed_incidence(ring, n, faces.get(n, ()), kept_cells.get(n, ()), rows.get(n - 1),
                                    len(kept_cells.get(n - 1, ())), by_row)

        def basis(n: int) -> List[Cell]:
            return [_basis_cell(name, n, idx) for idx in kept_cells[n]]

        complex_ = ChainComplex(ring, basis, lambda n: incidence(n, False), self.truncation_dim, exhaustive,
                                ranks={n: len(indices) for n, indices in kept_cells.items()},
                                coboundary=lambda n: incidence(n + 1, True))
        if all(r is None for r in rows.values()):
            complex_.derived.update((("dd_zero", n), True) for n in kept_cells)
        return complex_


def signed_incidence(ring: Ring, n: int, table: Sequence[Sequence[int]], kept: Sequence[int],
                     rows: Optional[List[int]], size: int, by_row: bool) -> List[Dict[int, Coefficient]]:
    """∂_n = Σ (−1)^i d_i on the cells ``kept`` of the n-cells' face lists
    ``table``, with entries nonzero elements of ``ring``: repeated faces add
    up, and sums that vanish and faces quotiented away are dropped.

    ``rows`` gives each (n−1)-cell's row, ``size`` (the number of rows) for
    one quotiented away, or is None when every (n−1)-cell is a row.  Grouped
    by column, the result is ∂_n: one ``{row: x}`` per kept n-cell, in face
    order.  Grouped by row, it is δ^{n−1}: one ``{k: x}`` per row, k the
    positions of the kept n-cells, increasing, as transposing ∂_n gives it.
    """
    value = {s: c for s in range(-n - 1, n + 2) if not ring.is_zero(c := ring.coerce(s))}
    signs = [value[-1 if i & 1 else 1] for i in range(n + 1)]
    if rows is None:
        faces = table if len(kept) == len(table) else [table[idx] for idx in kept]
    else:
        faces = [[rows[f] for f in table[idx]] for idx in kept]
    if by_row:
        out = [{} for _ in range(size + 1)]  # the last row takes the faces quotiented away
        for k, fs in enumerate(faces):
            for r, x in zip(fs, signs):
                out[r][k] = x
    else:
        out = [dict(zip(fs, signs)) for fs in faces]
    # a cell lost an entry to a repeated face: sum its faces again
    if n and sum(map(len, out)) < len(faces) * (n + 1):
        for k, fs in enumerate(faces):
            if len(set(fs)) < len(fs):
                summed: Dict[int, int] = {}
                for i, r in enumerate(fs):
                    summed[r] = summed.get(r, 0) + (-1 if i & 1 else 1)
                for r, s in summed.items():
                    entries, key = (out[r], k) if by_row else (out[k], r)
                    if s in value:
                        entries[key] = value[s]
                    else:
                        del entries[key]
    if by_row:
        out.pop()
    elif rows is not None:
        for col in out:
            col.pop(size, None)
    return out


# ---------------------------------------------------------------------------
# Delta-complexes
# ---------------------------------------------------------------------------


class DeltaComplex(FaceTable):
    """Abstract cells with face tables satisfying d_i d_j = d_{j−1} d_i (i<j)."""

    def __init__(
        self,
        cells: Dict[int, List[object]],
        faces: Dict[int, List[Tuple[int, ...]]],
        truncation_dim: int | None = None,
        name: str = "",
    ):
        self.cells, self.faces = cells, faces
        self._own_tables()
        self.dimension = max(self.cells) if self.cells else 0
        self.truncation_dim = self.dimension if truncation_dim is None else truncation_dim
        self.name = name
        self._chains: Dict[Ring, ChainComplex] = {}
        self.validate()

    def label(self, n: int, idx: int) -> object:
        return self.cells[n][idx]

    def validate(self) -> None:
        self._check_tables(self.faces, lambda n: n > 0, "faces")
        self._validate_identities({}, 0)

    def chains(self, ring: Ring) -> ChainComplex:
        """The cellular chain complex over ``ring``, built once per ring."""
        if ring not in self._chains:
            self._chains[ring] = self.chains_from_faces(ring, lambda n: range(self.n_cells(n)), exhaustive=True)
        return self._chains[ring]

    # --- constructors --------------------------------------------------------
    @staticmethod
    def from_facets(facets: Sequence[Sequence[int]], name: str = "", truncation_dim: int | None = None) -> "DeltaComplex":
        """Build the full subcomplex generated by facets of a simplicial complex.

        Cells are labeled by their sorted vertex tuples; vertex orders within a
        facet must be strictly increasing after sorting (no repeats).
        """
        by_dim: Dict[int, List[Tuple[int, ...]]] = {}
        seen = set()

        def add(simplex: Tuple[int, ...]):
            if simplex in seen:
                return
            seen.add(simplex)
            by_dim.setdefault(len(simplex) - 1, []).append(simplex)
            if len(simplex) > 1:
                for i in range(len(simplex)):
                    add(simplex[:i] + simplex[i + 1 :])

        for facet in facets:
            ordered = tuple(sorted(facet))
            if len(set(ordered)) != len(ordered):
                raise ValueError(f"facet {facet} has repeated vertices")
            add(ordered)
        cells = {n: sorted(v) for n, v in by_dim.items()}
        index = {lab: i for labs in cells.values() for i, lab in enumerate(labs)}  # lengths tell dimensions apart
        faces = {
            n: [tuple(index[lab[:i] + lab[i + 1 :]] for i in range(n + 1)) if n else () for lab in labs]
            for n, labs in cells.items()
        }
        return DeltaComplex(cells, faces, truncation_dim, name=name)


def standard_delta(k: int, truncation_dim: int | None = None) -> DeltaComplex:
    """The delta-complex of the standard k-simplex (all increasing subsets)."""
    return DeltaComplex.from_facets([tuple(range(k + 1))], name=f"delta{k}", truncation_dim=truncation_dim)


def point_complex() -> DeltaComplex:
    return DeltaComplex({0: ["pt"]}, {0: [()]}, 0, name="point")


# ---------------------------------------------------------------------------
# Simplicial-set presentations
# ---------------------------------------------------------------------------


class SimplicialSetPresentation(FaceTable):
    """A truncated simplicial set with explicit face and degeneracy tables.

    ``faces[n][idx]`` lists the n+1 faces of cell idx in dimension n;
    ``degeneracies[n][idx]`` lists its n+1 degeneracies (a table for each
    dimension n with n+1 ≤ truncation_dim).  ``strict=False`` skips
    validation of the mixed face/degeneracy identities (needed for the
    shipped counterexample that deliberately carries a non-free degeneracy
    relation), while pure face identities are always checked.
    """

    def __init__(
        self,
        cells: Dict[int, List[object]],
        faces: Dict[int, List[Tuple[int, ...]]],
        degeneracies: Dict[int, List[Tuple[int, ...]]],
        truncation_dim: int,
        name: str = "",
        strict: bool = True,
        basepoint: Optional[int] = None,  # vertex index
    ):
        self.cells, self.faces, self.degeneracies, self.truncation_dim = cells, faces, degeneracies, truncation_dim
        self.name, self.strict, self.basepoint = name, strict, basepoint
        # per (ring, pointed) R(X) or R̃X, per (ring, "chains") pointed C(X) and C(R̃X); see dold_kan
        self.free_groups: Dict[Tuple[Ring, object], object] = {}
        self._own_tables()
        self.validate()

    # --- accessors -----------------------------------------------------------
    def degeneracy(self, n: int, idx: int, i: int) -> int:
        return self.degeneracies[n][idx][i]

    def degenerate_flags(self, n: int) -> List[bool]:
        """Which n-cells are degenerate (in the image of some s_i)."""
        flags = [False] * self.n_cells(n)
        for degs in self.degeneracies.get(n - 1, ()):
            for img in degs:
                flags[img] = True
        return flags

    def nondegenerate_indices(self, n: int) -> List[int]:
        return [i for i, flag in enumerate(self.degenerate_flags(n)) if not flag]

    def apply_word(self, n: int, idx: int, word: Word) -> int:
        """Apply the canonical degeneracy word (innermost index first)."""
        dim, cur = n, idx
        for i in reversed(word):
            cur = self.degeneracy(dim, cur, i)
            dim += 1
        return cur

    # --- validation ------------------------------------------------------------
    def validate(self) -> None:
        bp = self.basepoint
        if bp is not None and (type(bp) is not int or not 0 <= bp < self.n_cells(0)):
            raise ValueError(f"basepoint {bp!r} is not the index of a vertex")
        self._check_tables(self.faces, lambda n: n > 0, "faces")
        self._check_tables(self.degeneracies, lambda n: n + 1 <= self.truncation_dim, "degeneracies")
        self._validate_identities(self.degeneracies, self.truncation_dim if self.strict else 0)

    # --- chains ------------------------------------------------------------------
    def unnormalized_chains(self, ring: Ring) -> ChainComplex:
        return self.chains_from_faces(ring, lambda n: range(self.n_cells(n)))

    def normalized_chains(self, ring: Ring) -> ChainComplex:
        """Chains modulo degenerate cells: degenerate faces vanish."""
        return self.chains_from_faces(ring, self.nondegenerate_indices)


# ---------------------------------------------------------------------------
# The functors between the two categories
# ---------------------------------------------------------------------------


def freely_add_degeneracies(y: DeltaComplex, truncation: int) -> SimplicialSetPresentation:
    """Adjoin free degeneracies: m-cells are (n-cell of y, surjection m↠n).

    Cell labels are triples (word, n, core index); faces and degeneracies are
    computed through the canonical epi-mono factorization, so the result is
    degeneracy-free by construction.  The m-cells come in the blocks of
    ``surjection_blocks``, one per (word, n): the n-cells of y in order over
    one surjection.  A d_i whose composite misses the vertex v sends a block
    onto the v-th faces of its cells.
    """
    if truncation < y.dimension:
        raise ValueError("truncation below the top cells of the core")
    size = {n: y.n_cells(n) for n in y.cells}
    vth_faces = {n: list(zip(*y.faces[n])) for n in size if n}  # [v][idx]: d_v of the n-cell idx
    blocks = surjection_blocks(size, truncation)
    cells = {m: [(word, n, idx) for word, n in level for idx in range(size[n])] for m, level in blocks.items()}

    faces_of_cells = lambda n, v, start: [start + f for f in vth_faces[n][v]]
    faces = {m: list(zip(*(face_column(blocks, size, m, i, faces_of_cells) for i in range(m + 1))))
             if m else [()] * len(labels) for m, labels in cells.items()}
    degeneracies = {m: list(zip(*(degeneracy_column(blocks, size, m, i) for i in range(m + 1))))
                    for m in range(truncation)}
    return SimplicialSetPresentation(cells, faces, degeneracies, truncation, name=y.name and f"d({y.name})")


def forget_degeneracies(x: SimplicialSetPresentation) -> DeltaComplex:
    """Every cell of x (degenerate or not) becomes a delta-complex cell."""
    return DeltaComplex(x.cells, x.faces, x.truncation_dim, name=x.name and f"f({x.name})")


def core(x: SimplicialSetPresentation) -> Tuple[DeltaComplex, Dict[int, List[int]]]:
    """The delta-complex of nondegenerate cells closed under iterated faces.

    Cells of x that are degenerate but occur as (iterated) faces of
    nondegenerate cells are included as honest cells of the core.  Returns the
    core and, per dimension, the index in x of each core cell.
    """
    chosen: Dict[int, set] = {n: set() for n in x.cells}
    stack = []
    for n in x.cells:
        for idx in x.nondegenerate_indices(n):
            stack.append((n, idx))
    while stack:
        n, idx = stack.pop()
        if idx in chosen[n]:
            continue
        chosen[n].add(idx)
        for f in x.faces[n][idx]:
            stack.append((n - 1, f))
    back = {n: sorted(chosen[n]) for n in sorted(chosen)}
    cells = {n: [x.cells[n][i] for i in olds] for n, olds in back.items()}
    fwd = {n: {old: new for new, old in enumerate(olds)} for n, olds in back.items()}
    faces = {n: [tuple(fwd[n - 1][f] for f in x.faces[n][old]) for old in olds] for n, olds in back.items()}
    return DeltaComplex(cells, faces, x.truncation_dim, name=x.name and f"core({x.name})"), back


def is_degeneracy_free(x: SimplicialSetPresentation) -> bool:
    """Whether the canonical map c: 𝔡(Core(x)) → x is a degreewise bijection.

    The m-cells of 𝔡(Core(x)) are the labels (word, n, core cell) over the
    surjections [m]↠[n], and c applies the word to the core cell in x: the
    labels are enumerated block by block, as ``surjection_blocks`` lays them
    out, and no presentation is built."""
    core_complex, back = core(x)
    if x.truncation_dim < core_complex.dimension:
        raise ValueError("truncation below the top cells of the core")
    blocks = surjection_blocks({n: len(olds) for n, olds in back.items()}, x.truncation_dim)
    for m, level in blocks.items():
        images = [x.apply_word(n, idx, word) for word, n in level for idx in back[n]]
        if len(images) != x.n_cells(m) or set(images) != set(range(x.n_cells(m))):
            return False
    return True
