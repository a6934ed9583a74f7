"""Basis elements, chains and chain complexes over an exact ring.

Basis elements are simplices with explicit vertex lists and abstract cells
of a presentation; both carry a degree and a canonical sort key.  A chain is
a plain dict ``{(factor, …): coefficient}`` with nonzero ring coefficients,
each factor a basis element; ``render_terms`` prints it in canonical order.

Sign conventions (used consistently everywhere):

* tensor boundary      ∂(a⊗b) = ∂a⊗b + (−1)^{|a|} a⊗∂b
* map on tensors       (f⊗g)(a⊗b) = (−1)^{deg(g)·deg(a)} f(a)⊗g(b)
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Tuple

from .linalg import transpose
from .rings import Coefficient, Frozen, Ring, _set

# ---------------------------------------------------------------------------
# Basis elements
# ---------------------------------------------------------------------------


class Simplex(Frozen):
    """A simplex given by an ordered vertex list; repeats encode degeneracy.

    ``D_i [0..n] = [0,..,i,i,..,n]`` is the i-th degeneracy, so a simplex is
    degenerate exactly when two adjacent vertices coincide.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices: Tuple[int, ...]) -> None:
        if not vertices:
            raise ValueError("a simplex needs at least one vertex")
        _set(self, "vertices", tuple(vertices))

    def _fields(self) -> tuple:
        return (self.vertices,)

    @property
    def degree(self) -> int:
        return len(self.vertices) - 1

    dimension = degree

    @property
    def is_degenerate(self) -> bool:
        v = self.vertices
        return any(v[i] == v[i + 1] for i in range(len(v) - 1))

    def face(self, i: int) -> "Simplex":
        if not 0 <= i <= self.degree:
            raise IndexError(f"face index {i} out of range for {self}")
        return Simplex(self.vertices[:i] + self.vertices[i + 1 :])

    def degeneracy(self, i: int) -> "Simplex":
        if not 0 <= i <= self.degree:
            raise IndexError(f"degeneracy index {i} out of range for {self}")
        v = self.vertices
        return Simplex(v[: i + 1] + (v[i],) + v[i + 1 :])

    def sort_key(self):
        return (0, self.vertices)

    def __str__(self) -> str:
        return "[" + ",".join(str(v) for v in self.vertices) + "]"


def standard_simplex(k: int) -> Simplex:
    return Simplex(tuple(range(k + 1)))


class Cell(Frozen):
    """An abstract cell of a finite presentation: a dimension and a label."""

    __slots__ = ("dim", "label")

    def __init__(self, dim: int, label: object) -> None:
        _set(self, "dim", dim)
        _set(self, "label", label)

    def _fields(self) -> tuple:
        return (self.dim, self.label)

    @property
    def degree(self) -> int:
        return self.dim

    def sort_key(self):
        return (1, self.dim, _label_key(self.label))

    def __str__(self) -> str:
        return f"<{self.dim}:{self.label}>"


def _label_key(label):
    # Totally order heterogeneous labels by (type name, value) recursively.
    if isinstance(label, tuple):
        return ("tuple", tuple(_label_key(x) for x in label))
    return (type(label).__name__, label)


BasisElement = object  # a Simplex or a Cell; duck-typed via .degree and .sort_key()


# ---------------------------------------------------------------------------
# Chains
# ---------------------------------------------------------------------------


def render_terms(terms: Mapping[tuple, Coefficient]) -> str:
    """Canonical text of a chain ``{(factor, …): coefficient}`` with nonzero
    coefficients: terms ordered by their factors' sort keys, factors joined
    by ⊗, ±1 rendered as signs."""
    if not terms:
        return "0"
    parts: List[str] = []
    for key, coeff in sorted(terms.items(), key=lambda kv: tuple(f.sort_key() for f in kv[0])):
        text = "⊗".join(map(str, key))
        if coeff != 1 and coeff != -1:
            text = f"{abs(coeff)}·{text}"
        sign = "-" if coeff < 0 else "+"
        parts.append(f"{sign} {text}" if parts else f"-{text}" if coeff < 0 else text)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Chain complexes
# ---------------------------------------------------------------------------


class ChainComplex:
    """A nonnegatively graded free complex with explicit basis per degree.

    The boundary is stored only as index columns: ``boundary_matrix(n)[j]``
    is ∂ of the j-th basis element of degree n, as ``{row: coefficient}``
    over the basis of degree n−1.  ``columns`` is either a mapping of every
    degree's column list, checked against the basis at construction and
    coerced into the ring once (zeros dropped), or a function building one
    degree's columns when ``boundary_matrix`` first reads it: then ``ranks``
    gives the rank per degree, the length check runs on that first read, and
    the columns are kept as built, so their entries must already be nonzero
    ring elements.  ``coboundary``, a function of n, may build δ^n in the
    same form without ∂; otherwise δ^n is the transpose of ∂_{n+1}.  The
    basis objects of a degree may be built only when ``basis_in`` or
    ``index_of`` first asks for them.
    """

    def __init__(
        self,
        ring: Ring,
        basis: Mapping[int, List[BasisElement]] | Callable[[int], List[BasisElement]],
        columns: Mapping[int, List[Dict[int, Coefficient]]] | Callable[[int], List[Dict[int, Coefficient]]],
        truncation_dim: int,
        exhaustive: bool = False,
        *,
        ranks: Mapping[int, int] | None = None,
        coboundary: Callable[[int], List[Dict[int, Coefficient]]] | None = None,
    ):
        # exhaustive: absent degrees are genuinely zero (the complex is not a
        # truncation of something larger), so homology is valid at every degree
        self.exhaustive = exhaustive
        self.ring = ring
        # basis: the list per degree, or a function building a degree's list
        # when ``basis_in`` or ``index_of`` first asks for it; the degrees and ranks
        # are then those of ``ranks`` or of the columns
        self._basis: Dict[int, List[BasisElement]] = {}
        if callable(basis):
            self._build_basis = basis
        else:
            self._basis = {n: self._checked(n, elems) for n, elems in basis.items() if elems}
        if ranks is None:
            ranks = {n: len(given) for n, given in (columns if callable(basis) else self._basis).items()}
        self._ranks = {n: r for n, r in ranks.items() if r}
        self._build_coboundary = coboundary
        self._columns: Dict[int, List[Dict[int, Coefficient]]] = {}
        if callable(columns):
            self._build_columns = columns
        else:
            for n in sorted({*self._ranks, *columns}):
                self._length_checked(n, columns.get(n, ()))
            coerce = ring.coerce
            self._columns = {n: [{i: y for i, x in col.items() if (y := coerce(x))} for col in columns[n]]
                             for n in self._ranks}
        self.truncation_dim = truncation_dim
        # data computed from the complex, e.g. (co)homology per degree, kept
        # by the modules that compute it so that every holder shares it
        self.derived: Dict[tuple, object] = {}
        self._index: Dict[BasisElement, int] | None = None

    def _length_checked(self, n: int, columns: List[Dict[int, Coefficient]]) -> List[Dict[int, Coefficient]]:
        if (given := len(columns)) != self.rank(n):
            raise ValueError(f"degree {n} has {self.rank(n)} basis elements but {given} columns")
        return columns

    @staticmethod
    def _checked(n: int, elems: Iterable[BasisElement]) -> List[BasisElement]:
        elems = list(elems)
        for b in elems:
            if b.degree != n:
                raise ValueError(f"basis element {b} listed in degree {n}")
        return elems

    def _positions(self) -> Dict[BasisElement, int]:
        if self._index is None:
            self._index = {b: i for n in self.degrees() for i, b in enumerate(self.basis_in(n))}
        return self._index

    @property
    def basis(self) -> Dict[int, List[BasisElement]]:
        return {n: self.basis_in(n) for n in self.degrees()}

    def degrees(self) -> List[int]:
        return sorted(self._ranks)

    def rank(self, n: int) -> int:
        return self._ranks.get(n, 0)

    def basis_in(self, n: int) -> List[BasisElement]:
        if n not in self._basis and n in self._ranks:
            self._basis[n] = self._checked(n, self._build_basis(n))
        return self._basis.get(n, [])

    def index_of(self, basis: BasisElement) -> int:
        return self._positions()[basis]

    def boundary_matrix(self, n: int) -> List[Dict[int, Coefficient]]:
        """Columns of ∂_n: C_n → C_{n−1}, one sparse column per basis element,
        built on the first read of the degree.

        These are the stored columns; callers must not modify them.
        """
        if n not in self._columns and n in self._ranks:
            self._columns[n] = self._length_checked(n, self._build_columns(n))
        return self._columns.get(n, [])

    def coboundary_matrix(self, n: int) -> List[Dict[int, Coefficient]]:
        """Columns of δ^n: C^n → C^{n+1}, the rows of ∂_{n+1}, one per basis
        element of degree n, each with its rows in increasing order.  Built
        once per degree, by ``coboundary`` when given, and kept in
        ``derived``."""
        key = ("coboundary_matrix", n)
        if key not in self.derived:
            if self._build_coboundary is None:
                self.derived[key] = transpose(self.boundary_matrix(n + 1), self.rank(n))
            else:
                self.derived[key] = self._length_checked(n, self._build_coboundary(n))
        return self.derived[key]

    def composes_to_zero(self, n: int) -> bool:
        """Whether ∂_n ∘ ∂_{n+1} = 0, summed one column at a time in a small
        set or dict (bitsets would span the whole basis); a summed column is
        tested with ``%`` p over 𝔽_p and by truth value in characteristic 0."""
        lower, upper, p = self.boundary_matrix(n), self.boundary_matrix(n + 1), self.ring.characteristic
        if p == 2:  # every stored entry is 1: rows hit an odd number of times
            for col in upper if lower else ():
                odd: set = set()
                for j in col:
                    odd.symmetric_difference_update(lower[j])
                if odd:
                    return False
            return True
        terms = [list(col.items()) for col in lower]
        for col in upper if lower else ():
            total: Dict[int, Coefficient] = {}
            for j, c in col.items():
                for i, x in terms[j]:
                    total[i] = total.get(i, 0) + c * x
            if any(x % p for x in total.values()) if p else any(total.values()):
                return False
        return True

    def check_dd_zero(self) -> bool:
        return all(self.composes_to_zero(n) for n in self.degrees())
