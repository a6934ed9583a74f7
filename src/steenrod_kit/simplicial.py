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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
    """All canonical words for surjections [m]↠[n] (strictly decreasing)."""
    from itertools import combinations

    if n > m or n < 0:
        return []
    if n == m:
        return [()]
    words = []
    for combo in combinations(range(m), m - n):
        word = tuple(sorted(combo, reverse=True))
        # every strictly decreasing index set is a valid canonical word
        words.append(word)
    return words


# ---------------------------------------------------------------------------
# Face tables
# ---------------------------------------------------------------------------


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
        return Cell(n, (self.name, n, idx) if self.name else (n, idx))

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

    def _validate_face_identities(self) -> None:
        """d_i d_j = d_{j−1} d_i for i < j, on every cell: per pair (i, j),
        the faces of all cells of a dimension are compared at once."""
        for n in sorted(self.cells):
            if n < 2:
                continue
            table, lower = self.faces[n], self.faces[n - 1]
            below = list(zip(*lower))  # below[i][x]: d_i of cell x
            at = [itemgetter(*column) for column in zip(*table)]  # at[j](seq): seq at d_j of each cell
            failed = [(j, i) for j in range(n + 1) for i in range(j) if at[j](below[i]) != at[i](below[j - 1])]
            for idx, fs in enumerate(table if failed else ()):
                for j, i in failed:
                    if lower[fs[j]][i] != lower[fs[i]][j - 1]:
                        raise ValueError(f"face identity d_{i} d_{j} failed on cell ({n},{idx})")

    def chains_from_faces(
        self, ring: Ring, kept: Callable[[int], List[int]], exhaustive: bool = False
    ) -> ChainComplex:
        """The chain complex on the cells ``kept(n)`` (increasing indices) of
        each dimension, with boundary Σ (−1)^i d_i written straight into index
        columns; faces outside the kept cells vanish (they are quotiented
        away) and repeated faces add up."""
        basis: Dict[int, List[Cell]] = {}
        columns: Dict[int, List[Dict[int, Coefficient]]] = {}
        rows: Dict[int, Optional[List[Optional[int]]]] = {}  # per cell its row or None; None: all kept
        for n in sorted(self.cells):
            indices, table, lower = kept(n), self.faces[n], rows.get(n - 1)
            basis[n] = [self.basis_cell(n, idx) for idx in indices]
            rows[n] = None if len(indices) == len(table) else [None] * len(table)
            for r, idx in enumerate(indices if rows[n] else ()):
                rows[n][idx] = r
            # the signed sums that occur, each coerced once
            value = {s: c for s in range(-n - 1, n + 2) if not ring.is_zero(c := ring.coerce(s))}
            signs = [value[-1 if i & 1 else 1] for i in range(n + 1)]
            faces = [table[idx] if lower is None else [lower[f] for f in table[idx]] for idx in indices]
            # distinct kept faces (the rule on simplicial complexes): one dict() each
            cols = [dict(zip(fs, signs)) for fs in faces]
            for k in [k for k, col in enumerate(cols) if len(col) < len(faces[k]) or None in col]:
                col = {}
                for i, r in enumerate(faces[k]):
                    if r is not None:
                        col[r] = col.get(r, 0) + (-1 if i & 1 else 1)
                cols[k] = {r: value[s] for r, s in col.items() if s in value}
            columns[n] = cols
        return ChainComplex(ring, basis, columns, self.truncation_dim, exhaustive)


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
        validate: bool = True,
    ):
        self.cells, self.faces = cells, faces
        self._own_tables()
        self.dimension = max(self.cells) if self.cells else 0
        self.truncation_dim = self.dimension if truncation_dim is None else truncation_dim
        self.name = name
        self._chains: Dict[Ring, ChainComplex] = {}
        if validate:
            self.validate()

    def label(self, n: int, idx: int) -> object:
        return self.cells[n][idx]

    def validate(self) -> None:
        self._check_tables(self.faces, lambda n: n > 0, "faces")
        self._validate_face_identities()

    def chains(self, ring: Ring) -> ChainComplex:
        """The cellular chain complex over ``ring``, built once per ring."""
        if ring not in self._chains:
            self._chains[ring] = self.chains_from_faces(ring, lambda n: list(range(self.n_cells(n))), exhaustive=True)
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


@dataclass
class SimplicialSetPresentation(FaceTable):
    """A truncated simplicial set with explicit face and degeneracy tables.

    ``faces[n][idx]`` lists the n+1 faces of cell idx in dimension n;
    ``degeneracies[n][idx]`` lists its n+1 degeneracies (a table for each
    dimension n with n+1 ≤ truncation_dim).  ``strict=False`` skips
    validation of the mixed face/degeneracy identities (needed for the
    shipped counterexample that deliberately carries a non-free degeneracy
    relation), while pure face identities are always checked.
    """

    cells: Dict[int, List[object]]
    faces: Dict[int, List[Tuple[int, ...]]]
    degeneracies: Dict[int, List[Tuple[int, ...]]]
    truncation_dim: int
    name: str = ""
    strict: bool = True
    basepoint: Optional[int] = None  # vertex index
    # R(X) and R̃X per (ring, pointed), built once by dold_kan.free_simplicial_abelian
    free_groups: Dict[Tuple[Ring, bool], object] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
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
        self._check_tables(self.faces, lambda n: n > 0, "faces")
        self._check_tables(self.degeneracies, lambda n: n + 1 <= self.truncation_dim, "degeneracies")
        self._validate_face_identities()
        if self.strict:
            self._validate_mixed_identities()

    def _validate_mixed_identities(self) -> None:
        """d_i s_i = d_{i+1} s_i = id, d_j s_i = s_{i−1} d_j (j < i),
        d_j s_i = s_i d_{j−1} (j > i+1) and s_i s_j = s_{j+1} s_i (i ≤ j) on
        every cell: per dimension, each identity compares two index lists over
        all cells at once, and a dimension where one fails is walked cell by
        cell to name the first failing cell."""
        faces = {n: [list(col) for col in zip(*table)] for n, table in self.faces.items()}  # faces[n][j][x]: d_j x
        degs = {n: [list(col) for col in zip(*table)] for n, table in self.degeneracies.items()}
        top = self.truncation_dim

        def take(seq: List[int], indices: List[int]) -> List[int]:
            return list(map(seq.__getitem__, indices))

        def d_s(n: int, j: int, i: int) -> bool:
            got = take(faces[n + 1][j], degs[n][i])
            if j in (i, i + 1):
                return got == list(range(self.n_cells(n)))
            if j < i:
                return got == take(degs[n - 1][i - 1], faces[n][j])
            return got == take(degs[n - 1][i], faces[n][j - 1])

        def s_s(n: int, i: int, j: int) -> bool:
            return take(degs[n + 1][i], degs[n][j]) == take(degs[n + 1][j + 1], degs[n][i])

        for n in sorted(self.cells):
            if n + 1 > top:
                continue
            held = all(d_s(n, j, i) for i in range(n + 1) for j in range(n + 2))
            if held and n + 2 <= top:
                held = all(s_s(n, i, j) for i in range(n + 1) for j in range(i, n + 1))
            if not held:
                self._name_failing_cell(n)

    def _name_failing_cell(self, n: int) -> None:
        """Raise for the first n-cell on which a mixed identity fails."""
        for idx in range(self.n_cells(n)):
            for i in range(n + 1):
                s = self.degeneracy(n, idx, i)
                # d_i s_i = d_{i+1} s_i = id
                if self.face(n + 1, s, i) != idx or self.face(n + 1, s, i + 1) != idx:
                    raise ValueError(f"identity d s = id failed at s_{i} of ({n},{idx})")
                for j in range(n + 2):
                    if j == i or j == i + 1:
                        continue
                    got = self.face(n + 1, s, j)
                    if j < i:
                        expect = self.degeneracy(n - 1, self.face(n, idx, j), i - 1)
                    else:
                        expect = self.degeneracy(n - 1, self.face(n, idx, j - 1), i)
                    if got != expect:
                        raise ValueError(f"identity d_{j} s_{i} failed on ({n},{idx})")
            if n + 2 <= self.truncation_dim:
                for i in range(n + 1):
                    for j in range(i, n + 1):
                        lhs = self.degeneracy(n + 1, self.degeneracy(n, idx, j), i)
                        rhs = self.degeneracy(n + 1, self.degeneracy(n, idx, i), j + 1)
                        if lhs != rhs:
                            raise ValueError(f"identity s_i s_j failed on ({n},{idx})")

    # --- chains ------------------------------------------------------------------
    def unnormalized_chains(self, ring: Ring) -> ChainComplex:
        return self.chains_from_faces(ring, lambda n: list(range(self.n_cells(n))))

    def normalized_chains(self, ring: Ring) -> ChainComplex:
        """Chains modulo degenerate cells: degenerate faces vanish."""
        return self.chains_from_faces(ring, self.nondegenerate_indices)


# ---------------------------------------------------------------------------
# The functors between the two categories
# ---------------------------------------------------------------------------


def freely_add_degeneracies(y: DeltaComplex, truncation: int, name: str = "") -> SimplicialSetPresentation:
    """Adjoin free degeneracies: m-cells are (n-cell of y, surjection m↠n).

    Cell labels are triples (word, n, core index); faces and degeneracies are
    computed through the canonical epi-mono factorization, so the result is
    degeneracy-free by construction.
    """
    if truncation < y.dimension:
        raise ValueError("truncation below the top cells of the core")
    cells: Dict[int, List[object]] = {}
    index: Dict[Tuple[Word, int, int], int] = {}
    for m in range(truncation + 1):
        labels = []
        for n in sorted(y.cells):
            if n > m:
                continue
            for word in all_surjection_words(m, n):
                for idx in range(y.n_cells(n)):
                    key = (word, n, idx)
                    index[key] = len(labels)
                    labels.append(key)
        cells[m] = labels

    def face(word: Word, m: int, n: int, idx: int, i: int) -> int:
        new_word, v = compose_face(word, m, i)
        return index[(new_word, n, idx)] if v is None else index[(new_word, n - 1, y.face(n, idx, v))]

    faces = {
        m: [tuple(face(word, m, n, idx, i) for i in range(m + 1)) if m else () for word, n, idx in labels]
        for m, labels in cells.items()
    }
    degeneracies = {
        m: [tuple(index[(compose_degeneracy(word, m, i), n, idx)] for i in range(m + 1)) for word, n, idx in cells[m]]
        for m in range(truncation)
    }
    return SimplicialSetPresentation(
        cells, faces, degeneracies, truncation, name=name or (y.name and f"d({y.name})") or ""
    )


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
    """Whether the canonical map c: 𝔡(Core(x)) → x is a degreewise bijection."""
    core_complex, back = core(x)
    free = freely_add_degeneracies(core_complex, x.truncation_dim)
    for m in range(x.truncation_dim + 1):
        images = []
        for (word, n, core_idx) in free.cells.get(m, []):
            images.append(x.apply_word(n, back[n][core_idx], word))
        if len(images) != x.n_cells(m) or len(set(images)) != len(images):
            return False
        if set(images) != set(range(x.n_cells(m))):
            return False
    return True
