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

    Subclasses provide ``cells`` ({dimension: labels}), ``faces`` ({(n, idx):
    the n+1 face indices, () for a vertex}), ``truncation_dim`` and ``name``.
    """

    def n_cells(self, n: int) -> int:
        return len(self.cells.get(n, []))

    def face(self, n: int, idx: int, i: int) -> int:
        return self.faces[(n, idx)][i]

    def iterated_face(self, n: int, idx: int, keep: Sequence[int]) -> Tuple[int, int]:
        """The face keeping the vertex positions in ``keep`` (increasing)."""
        kept = set(keep)
        dim, cur = n, idx
        for j in range(n, -1, -1):
            if j not in kept:
                cur = self.faces[(dim, cur)][j]
                dim -= 1
        return dim, cur

    def basis_cell(self, n: int, idx: int) -> Cell:
        return Cell(n, (self.name, n, idx) if self.name else (n, idx))

    def _validate_face_targets(self) -> None:
        """Every cell of dimension n ≥ 1 has a list of n+1 integer face
        indices, each naming a cell of dimension n−1."""
        sizes = {n: len(labels) for n, labels in self.cells.items()}
        for n, size in sizes.items():
            for idx in range(size if n else 0):
                if (n, idx) not in self.faces:
                    raise ValueError(f"cell ({n},{idx}) has no face list")
        for (n, idx), fs in self.faces.items():
            expected = 0 if n == 0 else n + 1
            if len(fs) != expected:
                raise ValueError(f"cell ({n},{idx}) has {len(fs)} faces, expected {expected}")
            below = sizes.get(n - 1, 0)
            for i, target in enumerate(fs):
                if type(target) is not int:
                    raise ValueError(f"face d_{i} of cell ({n},{idx}) is {target!r}, not a cell index")
                if not 0 <= target < below:
                    raise ValueError(f"face d_{i} of cell ({n},{idx}) points at missing cell {target}")

    def _validate_face_identities(self) -> None:
        """d_i d_j = d_{j−1} d_i for i < j, on every cell."""
        faces = self.faces
        for n in sorted(self.cells):
            if n < 2:
                continue
            for idx in range(self.n_cells(n)):
                fs = faces[(n, idx)]
                for j in range(n + 1):
                    below_j = faces[(n - 1, fs[j])]
                    for i in range(j):
                        if below_j[i] != faces[(n - 1, fs[i])][j - 1]:
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
        rows: Dict[int, Dict[int, int]] = {}  # per dimension, kept cell index -> its row
        for n in sorted(self.cells):
            indices = kept(n)
            basis[n] = [self.basis_cell(n, idx) for idx in indices]
            rows[n] = {idx: r for r, idx in enumerate(indices)}
            lower = rows.get(n - 1, {})
            # the signed sums that occur, each coerced once
            value = {s: c for s in range(-n - 1, n + 2) if not ring.is_zero(c := ring.coerce(s))}
            cols = []
            for idx in indices:
                col: Dict[int, int] = {}
                for i, f in enumerate(self.faces[(n, idx)] if n else ()):
                    r = lower.get(f)
                    if r is not None:
                        col[r] = col.get(r, 0) + (-1 if i & 1 else 1)
                cols.append({r: value[s] for r, s in col.items() if s in value})
            columns[n] = cols
        return ChainComplex.from_columns(ring, basis, columns, self.truncation_dim, exhaustive)


# ---------------------------------------------------------------------------
# Delta-complexes
# ---------------------------------------------------------------------------


class DeltaComplex(FaceTable):
    """Abstract cells with face tables satisfying d_i d_j = d_{j−1} d_i (i<j)."""

    def __init__(
        self,
        cells: Dict[int, List[object]],
        faces: Dict[Tuple[int, int], Tuple[int, ...]],
        truncation_dim: int | None = None,
        name: str = "",
        validate: bool = True,
    ):
        self.cells: Dict[int, List[object]] = {n: list(v) for n, v in cells.items() if v}
        self.faces = dict(faces)
        self.dimension = max(self.cells) if self.cells else 0
        self.truncation_dim = self.dimension if truncation_dim is None else truncation_dim
        self.name = name
        self._chains: Dict[Ring, ChainComplex] = {}
        if validate:
            self.validate()

    def label(self, n: int, idx: int) -> object:
        return self.cells[n][idx]

    def validate(self) -> None:
        self._validate_face_targets()
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
        index = {(n, lab): i for n, labs in cells.items() for i, lab in enumerate(labs)}
        faces = {}
        for n, labs in cells.items():
            if n == 0:
                for i in range(len(labs)):
                    faces[(0, i)] = ()
                continue
            for idx, lab in enumerate(labs):
                faces[(n, idx)] = tuple(
                    index[(n - 1, lab[:i] + lab[i + 1 :])] for i in range(n + 1)
                )
        return DeltaComplex(cells, faces, truncation_dim, name=name)


def standard_delta(k: int, truncation_dim: int | None = None) -> DeltaComplex:
    """The delta-complex of the standard k-simplex (all increasing subsets)."""
    return DeltaComplex.from_facets([tuple(range(k + 1))], name=f"delta{k}", truncation_dim=truncation_dim)


def point_complex() -> DeltaComplex:
    return DeltaComplex({0: ["pt"]}, {(0, 0): ()}, 0, name="point")


# ---------------------------------------------------------------------------
# Simplicial-set presentations
# ---------------------------------------------------------------------------


@dataclass
class SimplicialSetPresentation(FaceTable):
    """A truncated simplicial set with explicit face and degeneracy tables.

    ``faces[(n, idx)]`` lists the n+1 faces of cell idx in dimension n;
    ``degeneracies[(n, idx)]`` lists its n+1 degeneracies (defined whenever
    n+1 ≤ truncation_dim).  ``strict=False`` skips validation of the mixed
    face/degeneracy identities (needed for the shipped counterexample that
    deliberately carries a non-free degeneracy relation), while pure face
    identities are always checked.
    """

    cells: Dict[int, List[object]]
    faces: Dict[Tuple[int, int], Tuple[int, ...]]
    degeneracies: Dict[Tuple[int, int], Tuple[int, ...]]
    truncation_dim: int
    name: str = ""
    strict: bool = True
    basepoint: Optional[int] = None  # vertex index
    # R(X) and R̃X per (ring, pointed), built once by dold_kan.free_simplicial_abelian
    free_groups: Dict[Tuple[Ring, bool], object] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.cells = {n: list(v) for n, v in self.cells.items() if v}
        self.validate()

    # --- accessors -----------------------------------------------------------
    def degeneracy(self, n: int, idx: int, i: int) -> int:
        return self.degeneracies[(n, idx)][i]

    def degenerate_flags(self, n: int) -> List[bool]:
        """Which n-cells are degenerate (in the image of some s_i)."""
        flags = [False] * self.n_cells(n)
        if n == 0:
            return flags
        for idx in range(self.n_cells(n - 1)):
            degs = self.degeneracies.get((n - 1, idx))
            if degs is None:
                continue
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
        self._validate_face_targets()
        for n in sorted(self.cells):
            if n + 1 > self.truncation_dim:
                continue
            for idx in range(self.n_cells(n)):
                if (n, idx) not in self.degeneracies:
                    raise ValueError(f"cell ({n},{idx}) has no degeneracy list")
        for (n, idx), ds in self.degeneracies.items():
            if len(ds) != n + 1:
                raise ValueError(f"cell ({n},{idx}) has {len(ds)} degeneracies")
            for i, target in enumerate(ds):
                if type(target) is not int:
                    raise ValueError(f"degeneracy s_{i} of cell ({n},{idx}) is {target!r}, not a cell index")
                if not 0 <= target < self.n_cells(n + 1):
                    raise ValueError(
                        f"degeneracy s_{i} of cell ({n},{idx}) points at missing cell {target}"
                    )
        self._validate_face_identities()
        if not self.strict:
            return
        for n in sorted(self.cells):
            if n + 1 > self.truncation_dim:
                continue
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
    faces: Dict[Tuple[int, int], Tuple[int, ...]] = {}
    degeneracies: Dict[Tuple[int, int], Tuple[int, ...]] = {}
    for m in range(truncation + 1):
        for pos, (word, n, idx) in enumerate(cells[m]):
            if m > 0:
                fs = []
                for i in range(m + 1):
                    new_word, v = compose_face(word, m, i)
                    if v is None:
                        fs.append(index[(new_word, n, idx)])
                    else:
                        fs.append(index[(new_word, n - 1, y.face(n, idx, v))])
                faces[(m, pos)] = tuple(fs)
            else:
                faces[(0, pos)] = ()
            if m + 1 <= truncation:
                degeneracies[(m, pos)] = tuple(
                    index[(compose_degeneracy(word, m, i), n, idx)] for i in range(m + 1)
                )
    return SimplicialSetPresentation(
        cells, faces, degeneracies, truncation, name=name or (y.name and f"d({y.name})") or ""
    )


def forget_degeneracies(x: SimplicialSetPresentation) -> DeltaComplex:
    """Every cell of x (degenerate or not) becomes a delta-complex cell."""
    return DeltaComplex(
        {n: list(v) for n, v in x.cells.items()},
        {k: v for k, v in x.faces.items()},
        x.truncation_dim,
        name=x.name and f"f({x.name})",
    )


def core(x: SimplicialSetPresentation) -> Tuple[DeltaComplex, Dict[Tuple[int, int], Tuple[int, int]]]:
    """The delta-complex of nondegenerate cells closed under iterated faces.

    Cells of x that are degenerate but occur as (iterated) faces of
    nondegenerate cells are included as honest cells of the core.  Returns the
    core and a map from core cell coordinates to x cell coordinates.
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
        if n > 0:
            for i in range(n + 1):
                stack.append((n - 1, x.face(n, idx, i)))
    cells: Dict[int, List[object]] = {}
    back: Dict[Tuple[int, int], Tuple[int, int]] = {}
    fwd: Dict[Tuple[int, int], int] = {}
    for n in sorted(chosen):
        ordered = sorted(chosen[n])
        cells[n] = [x.cells[n][i] for i in ordered]
        for new_idx, old_idx in enumerate(ordered):
            back[(n, new_idx)] = (n, old_idx)
            fwd[(n, old_idx)] = new_idx
    faces = {}
    for n in sorted(chosen):
        for new_idx in range(len(cells.get(n, []))):
            _, old_idx = back[(n, new_idx)]
            if n == 0:
                faces[(0, new_idx)] = ()
            else:
                faces[(n, new_idx)] = tuple(fwd[(n - 1, x.face(n, old_idx, i))] for i in range(n + 1))
    return DeltaComplex(cells, faces, x.truncation_dim, name=x.name and f"core({x.name})"), back


def is_degeneracy_free(x: SimplicialSetPresentation) -> bool:
    """Whether the canonical map c: 𝔡(Core(x)) → x is a degreewise bijection."""
    core_complex, back = core(x)
    free = freely_add_degeneracies(core_complex, x.truncation_dim)
    for m in range(x.truncation_dim + 1):
        images = []
        for (word, n, core_idx) in free.cells.get(m, []):
            _, x_idx = back[(n, core_idx)]
            images.append(x.apply_word(n, x_idx, word))
        if len(images) != x.n_cells(m) or len(set(images)) != len(images):
            return False
        if set(images) != set(range(x.n_cells(m))):
            return False
    return True
