"""The named-invariant verification suite.

``run_suite`` executes a catalog of named checks over the shipped corpus and
returns a machine-readable report: each item carries a status of ``pass``,
``fail``, or ``deviation`` (a documented difference between a published
display and the value the verified construction produces — see README), and
failing items print their counterexample chains canonically.

Filtering: ``only`` selects a single item by name; ``max_k`` bounds the
simplex dimension in the η_k checks.  Slow items (RP⁴) run only when
``include_slow`` is set or the item is selected explicitly.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from .chains import Cell, ChainComplex, Simplex, render_terms, standard_simplex
from .cochains import sq_matrix
from .diagonal import (
    DiagonalTable,
    chain_map_defect,
    check_prime3,
    equivariance_defect,
    naturality_defect,
    top_diagonal_sign,
    xi_simplex,
)
from .documents import load_corpus
from .dold_kan import (
    _compose,
    _pointed_chains,
    chain_hurewicz,
    dold_kan_round_trip,
    gamma_X,
    hurewicz_chain_map,
    hurewicz_square_defect,
    hurewicz_square_defects,
)
from .homology import homology
from .kernel import eta
from .rings import F2, F5, QQ, ZZ
from .simplicial import DeltaComplex, SimplicialSetPresentation, freely_add_degeneracies, is_degeneracy_free
from .vandermonde import vandermonde_det_factorization, vandermonde_independence

PASS, FAIL, DEVIATION = "pass", "fail", "deviation"

SEED = 2024  # of the random draws in dold-kan-roundtrip and vandermonde

FAST_CORPUS = ["delta2", "delta3", "boundary_delta3", "circle", "torus", "rp2", "klein"]

# integer homology of the corpus: degree -> (free rank, torsion list)
KNOWN_HOMOLOGY: Dict[str, Dict[int, Tuple[int, List[int]]]] = {
    "circle": {0: (1, []), 1: (1, [])},
    "boundary_delta3": {0: (1, []), 1: (0, []), 2: (1, [])},
    "torus": {0: (1, []), 1: (2, []), 2: (1, [])},
    "rp2": {0: (1, []), 1: (0, [2]), 2: (0, [])},
    "klein": {0: (1, []), 1: (1, [2]), 2: (0, [])},
    "delta2": {0: (1, []), 1: (0, []), 2: (0, [])},
    "delta3": {0: (1, []), 1: (0, []), 2: (0, []), 3: (0, [])},
}


class SuiteConfig:
    def __init__(
        self,
        only: Optional[str] = None,
        max_k: int = 6,
        include_slow: bool = False,
        truncation: int = 4,
    ) -> None:
        self.only, self.max_k, self.include_slow, self.truncation = only, max_k, include_slow, truncation
        self.table = DiagonalTable()
        # per corpus name the space of the run, with the chains and groups memoized on it, and per
        # (corpus name, truncation) the 𝔡(Y) of the run: shared by its items, emptied when run_suite returns
        self.spaces: Dict[str, DeltaComplex] = {}
        self.presentations: Dict[Tuple[str, int], SimplicialSetPresentation] = {}


CheckFn = Callable[[SuiteConfig], Tuple[str, str]]


def _space(cfg: SuiteConfig, name: str) -> DeltaComplex:
    """The corpus space ``name``, loaded once per run and kept in ``cfg.spaces``."""
    if name not in cfg.spaces:
        cfg.spaces[name] = load_corpus(name)
    return cfg.spaces[name]


def _check_prop_c4(cfg: SuiteConfig) -> Tuple[str, str]:
    for k in range(cfg.max_k + 1):
        got = top_diagonal_sign(k, cfg.table)
        if got != eta(k):
            return FAIL, f"k={k}: expected {eta(k)}, got {got}"
    return PASS, f"eta_k matches (−1)^(k(k−1)/2) for k ≤ {cfg.max_k}"


def _check_golden_b2(cfg: SuiteConfig) -> Tuple[str, str]:
    want = "[0]⊗[0,1,2] + [0,1]⊗[1,2] + [0,1,2]⊗[2]"
    got = render_terms(xi_simplex(0, standard_simplex(2), cfg.table))
    return (PASS if got == want else FAIL), got


def _check_golden_b3(cfg: SuiteConfig) -> Tuple[str, str]:
    # the published display of the level-1 diagonal on the 2-simplex; the
    # functorial construction satisfying the chain-map identity produces the
    # same three terms, with the opposite sign on every term but
    # [0,1,2]⊗[0,1] (documented deviation)
    printed = "[0,1,2]⊗[1,2] - [0,2]⊗[0,1,2] - [0,1,2]⊗[0,1]"
    got = render_terms(xi_simplex(1, standard_simplex(2), cfg.table))
    if got == printed:
        return PASS, got
    return DEVIATION, f"computed {got}; published display is {printed}"


def _check_golden_degenerate(cfg: SuiteConfig) -> Tuple[str, str]:
    # published displays of ξ(e₁⊗D₀[0,1]) and ξ(e₁⊗D₁[0,1]) before
    # normalization: golden-b3's display relabeled, with the same signs, but
    # the [0,1,1] display has [1,1] for [0,1] in its third term
    printed0 = "[0,0,1]⊗[0,1] - [0,1]⊗[0,0,1] - [0,0,1]⊗[0,0]"
    printed1 = "[0,1,1]⊗[1,1] - [0,1]⊗[0,1,1] - [0,1,1]⊗[1,1]"
    got0 = render_terms(xi_simplex(1, Simplex((0, 0, 1)), cfg.table))
    got1 = render_terms(xi_simplex(1, Simplex((0, 1, 1)), cfg.table))
    if (got0, got1) == (printed0, printed1):
        return PASS, f"{got0} ; {got1}"
    return DEVIATION, (f"computed {got0} ; {got1} — the published displays have the opposite sign on every term "
                       "but [0,1,2]⊗[0,1] (relabeled), and the [0,1,1] display has [1,1] for [0,1]")


def _check_defects(defect, cfg: SuiteConfig) -> Tuple[str, str]:
    for n in range(5):
        for k in range(6):
            if found := defect(n, k, cfg.table):
                return FAIL, f"(n={n}, k={k}): defect {found}"
    return PASS, "zero defects for bar level ≤ 4, dimension ≤ 5"


def _check_prime3(cfg: SuiteConfig) -> Tuple[str, str]:
    for k in range(5):
        if not check_prime3(k, cfg.table):
            return FAIL, f"identity fails on a basis simplex of the {k}-simplex"
    return PASS, "holds on every basis simplex of Δ^k, k ≤ 4"


def _check_naturality(cfg: SuiteConfig) -> Tuple[str, str]:
    samples = [(0, (0, 2)), (1, (0, 2, 5)), (1, (1, 3, 4)), (2, (0, 1, 3, 6)), (2, (2, 4, 5, 7))]
    for n, injection in samples:
        defect = naturality_defect(n, injection, cfg.table)
        if defect:
            return FAIL, f"(n={n}, injection={injection}): defect {defect}"
    return PASS, f"{len(samples)} order-preserving injections agree with the native recursion"


def _check_cache_roundtrip(cfg: SuiteConfig) -> Tuple[str, str]:
    # the in-process memo: entries must not depend on the order they were filled in
    keys = [(n, k) for n in range(4) for k in range(5) if n <= k]
    fresh = DiagonalTable()
    for n, k in reversed(keys):
        fresh.raw(n, k)
    for n, k in keys:
        if list(cfg.table.raw(n, k).items()) != list(fresh.raw(n, k).items()):
            return FAIL, f"memo entry (n={n}, k={k}) depends on the fill order"
    return PASS, f"{len(keys)} memo entries equal those of a fresh table filled in reverse order"


def _check_homology_corpus(cfg: SuiteConfig) -> Tuple[str, str]:
    for name, expected in KNOWN_HOMOLOGY.items():
        complex_ = _space(cfg, name).chains(ZZ)
        for degree, (rank, torsion) in expected.items():
            h = homology(complex_, degree)
            if h.free_rank != rank or list(h.torsion) != list(torsion):
                return FAIL, f"{name} H_{degree}: got {h}, expected rank {rank} torsion {torsion}"
    return PASS, f"integer homology matches on {len(KNOWN_HOMOLOGY)} corpus spaces"


def _identity_matrix(m: List[List[object]]) -> bool:
    return all(
        (m[i][j] in (1, True)) == (i == j) or (m[i][j] == (1 if i == j else 0))
        for i in range(len(m))
        for j in range(len(m))
    )


def _check_sq_corpus(cfg: SuiteConfig) -> Tuple[str, str]:
    from .homology import cohomology

    for name in FAST_CORPUS:
        space = _space(cfg, name)
        complex_ = space.chains(F2)
        for p in range(space.dimension + 1):
            if cohomology(complex_, p).dimension == 0:
                continue
            m = sq_matrix(0, p, space, cfg.table)
            if not _identity_matrix(m):
                return FAIL, f"Sq^0 on H^{p}({name}) is {m}, not the identity"
    m = sq_matrix(1, 1, _space(cfg, "rp2"), cfg.table)
    if m != [[1]]:
        return FAIL, f"Sq^1 on H^1(rp2) is {m}, expected [[1]]"
    return PASS, "Sq^0 = id on the corpus; Sq^1 ≠ 0 on H^1(RP²)"


def _check_sq_rp4(cfg: SuiteConfig) -> Tuple[str, str]:
    space = load_corpus("rp4")
    m1 = sq_matrix(1, 1, space, cfg.table)
    m2 = sq_matrix(2, 2, space, cfg.table)
    if m1 != [[1]]:
        return FAIL, f"Sq^1: H^1→H^2 on RP⁴ is {m1}"
    if m2 != [[1]]:
        return FAIL, f"Sq^2: H^2→H^4 on RP⁴ is {m2}"
    return PASS, "Sq^1 and Sq^2 nonzero on RP⁴ over 𝔽₂"


def _random_complex(rng: random.Random, ring) -> ChainComplex:
    ranks = {d: rng.randint(0, 3) for d in range(4)}
    basis = {d: [Cell(d, ("r", d, i)) for i in range(ranks[d])] for d in range(4) if ranks[d]}
    columns = {d: [{} for _ in basis[d]] for d in basis}
    cycles = {d: set(range(ranks[d])) for d in range(4)}
    for d in range(1, 4):
        for i in range(ranks[d]):
            lower = sorted(cycles[d - 1])
            if lower and rng.random() < 0.6:
                t = rng.choice(lower)
                k = ring.coerce(rng.choice([1, 2, 3, -1]))
                columns[d][i] = {} if ring.is_zero(k) else {t: k}
                cycles[d].discard(i)
                cycles[d - 1].discard(t)
    return ChainComplex(ring, basis, columns, 3)


def _direct_sum(complexes: List[ChainComplex], ring) -> ChainComplex:
    """⊕ of complexes over ``ring``: each summand's basis in turn per degree,
    labelled with its place in the list, and its boundary in its own block."""
    basis: Dict[int, List[Cell]] = {}
    columns: Dict[int, List[Dict[int, object]]] = {}
    for t, c in enumerate(complexes):
        start = {d: len(cells) for d, cells in basis.items()}
        for d in c.degrees():
            basis.setdefault(d, []).extend(Cell(d, (t, b.label)) for b in c.basis_in(d))
            shift = start.get(d - 1, 0)
            columns.setdefault(d, []).extend({shift + i: x for i, x in col.items()} for col in c.boundary_matrix(d))
    return ChainComplex(ring, basis, columns, max((c.truncation_dim for c in complexes), default=0))


def _check_dold_kan_roundtrip(cfg: SuiteConfig) -> Tuple[str, str]:
    rng = random.Random(SEED)
    trials = []
    for trial in range(50):
        ring = [ZZ, QQ, F2][trial % 3]
        trials.append((trial, ring, _random_complex(rng, ring)))
    # Γ, N, the projection onto the identity-word summand and the chain-map test all commute with ⊕,
    # and no face, kernel or projection entry joins two summands: a ring's sum passes exactly when
    # each of its trials does (a lower trial is checked at a higher truncation, which only adds levels)
    try:
        summed = all(c.check_dd_zero() for _, _, c in trials) and all(
            dold_kan_round_trip(_direct_sum([c for _, r, c in trials if r is ring], ring)) for ring in (ZZ, QQ, F2))
    except Exception:
        summed = False
    for trial, ring, c in [] if summed else trials:  # a failure is told trial by trial, in the order drawn
        if not c.check_dd_zero():
            return FAIL, f"trial {trial}: generated complex violates ∂∂ = 0"
        if not dold_kan_round_trip(c):
            return FAIL, f"trial {trial} over {ring}: N(Γ(C)) ≇ C"
    return PASS, "N(Γ(C)) ≅ C on 50 random complexes over ℤ, ℚ, 𝔽₂"


def _free_presentations(cfg: SuiteConfig, names=("circle", "boundary_delta3", "rp2"), truncation: Optional[int] = None):
    """(name, 𝔡(Y)) per corpus space, at the run's truncation unless another
    is given: each built once per run from the run's space and kept in
    ``cfg.presentations``, so R̃X, the pointed chains and moore(R̃X), memoized
    on the presentation, are shared by the items too.  A build that raises
    stores nothing."""
    truncation = cfg.truncation if truncation is None else truncation
    for name in names:
        key = (name, truncation)
        if key not in cfg.presentations:
            cfg.presentations[key] = freely_add_degeneracies(_space(cfg, name), truncation)
        yield name, cfg.presentations[key]


def _check_moore_pointed(cfg: SuiteConfig) -> Tuple[str, str]:
    for name, x in _free_presentations(cfg):
        pc, m = _pointed_chains(x, ZZ)  # built apart: from the faces of x, and from R̃X
        if m.basis != pc.basis:
            return FAIL, f"{name}: bases differ"
        for n in m.degrees():
            if (cols := m.boundary_matrix(n)) != (want := pc.boundary_matrix(n)):
                j = next(j for j, col in enumerate(cols) if col != want[j])
                return FAIL, f"{name}: boundary of {m.basis_in(n)[j]} differs"
    return PASS, "moore(R̃X) equals the pointed unnormalized chains on the nose"


def _check_reduced_homology(cfg: SuiteConfig) -> Tuple[str, str]:
    for name, x in _free_presentations(cfg):
        _, m = _pointed_chains(x, ZZ)
        space = _space(cfg, name)
        oracle = space.chains(ZZ)
        # compare degreewise against the reduced homology of the space
        for i in range(min(3, cfg.truncation - 1) + 1):
            got = homology(m, i)
            if i <= space.dimension:
                want = homology(oracle, i)
                want_rank = want.free_rank - (1 if i == 0 else 0)
                want_torsion = list(want.torsion)
            else:
                want_rank, want_torsion = 0, []
            if got.free_rank != want_rank or list(got.torsion) != want_torsion:
                return FAIL, f"{name} H_{i}(moore(R̃X)) = {got}, reduced oracle rank {want_rank} torsion {want_torsion}"
    return PASS, "H_i(moore(R̃X)) matches the reduced homology oracle, i ≤ 3"


def _check_gamma_retraction(cfg: SuiteConfig) -> Tuple[str, str]:
    for name, x in _free_presentations(cfg):
        g, h = gamma_X(x, ZZ), chain_hurewicz(x, ZZ)
        for n, first in h.columns.items():
            for j, col in enumerate(_compose(g.columns[n], first, ZZ)):
                if col != {j: 1}:
                    return FAIL, f"{name}: γ∘C(h) moved {h.source.basis_in(n)[j]}"
    return PASS, "γ_X ∘ C(h_X) is the identity degreewise ≤ truncation"


def _check_hurewicz_xi(cfg: SuiteConfig) -> Tuple[str, str]:
    for name, x in _free_presentations(cfg, truncation=3):
        for level in range(4):
            for n in sorted(x.cells):
                try:  # a degree at a time; one cell at a time when that raises, so an earlier defect is told first
                    defects = hurewicz_square_defects(x, ZZ, cfg.table, level, n)
                except Exception:
                    defects = (hurewicz_square_defect(x, ZZ, cfg.table, level, n, idx) for idx in range(x.n_cells(n)))
                for idx, defect in enumerate(defects):
                    if defect:
                        return FAIL, f"{name} cell ({n},{idx}) level {level}: {render_terms(defect)}"
    return PASS, "the Hurewicz square commutes on all corpus cells (truncation 3)"


def _check_hurewicz_normalized(cfg: SuiteConfig) -> Tuple[str, str]:
    for name, x in _free_presentations(cfg, names=("circle", "boundary_delta3")):
        if not hurewicz_chain_map(x, ZZ).is_chain_map(range(1, cfg.truncation + 1)):
            return FAIL, f"{name}: N(h) is not a chain map"
    return PASS, "N(h) is a chain map on the corpus"


def _check_degeneracy_freeness(cfg: SuiteConfig) -> Tuple[str, str]:
    for name, x in _free_presentations(cfg, names=FAST_CORPUS):
        if not is_degeneracy_free(x):
            return FAIL, f"𝔡({name}) reported as not degeneracy-free"
    counterexample = _space(cfg, "counterexample")
    if is_degeneracy_free(counterexample):
        return FAIL, "the relation-bearing counterexample reported as degeneracy-free"
    return PASS, "true on every 𝔡(Y) corpus object, false on the counterexample"


def _check_vandermonde(cfg: SuiteConfig) -> Tuple[str, str]:
    from itertools import combinations

    if not vandermonde_det_factorization(3):
        return FAIL, "det [x_i^j] ≠ Π_{i<j}(x_j − x_i) at t = 3"
    rng = random.Random(SEED)
    edges = [Simplex(c) for c in combinations(range(6), 2)]
    for ring in (QQ, F5):
        for trial in range(200):
            t = rng.randint(1, 5)
            chains, seen = [], set()
            while len(chains) < t:
                # coefficients ±1 … ±4 are nonzero in ℚ and 𝔽₅
                terms = {
                    edge: ring.coerce(rng.randint(1, 4) * rng.choice([1, -1]))
                    for edge in rng.sample(edges, rng.randint(1, 4))
                }
                if (key := frozenset(terms.items())) not in seen:
                    seen.add(key)
                    chains.append(terms)
            if not vandermonde_independence(chains, ring):
                rendered = [render_terms({(b,): x for b, x in c.items()}) for c in chains]
                return FAIL, f"dependent tuple over {ring}: {rendered}"
    return PASS, "independent on 200 random distinct tuples per ring (ℚ, 𝔽₅); det factorization at t = 3"


CATALOG: List[Tuple[str, bool, CheckFn]] = [
    ("prop-c4", False, _check_prop_c4),
    ("golden-b2", False, _check_golden_b2),
    ("golden-b3", False, _check_golden_b3),
    ("golden-degenerate", False, _check_golden_degenerate),
    ("chain-map", False, lambda cfg: _check_defects(chain_map_defect, cfg)),
    ("equivariance", False, lambda cfg: _check_defects(equivariance_defect, cfg)),
    ("prime3", False, _check_prime3),
    ("naturality", False, _check_naturality),
    ("cache-roundtrip", False, _check_cache_roundtrip),
    ("homology-corpus", False, _check_homology_corpus),
    ("sq-corpus", False, _check_sq_corpus),
    ("sq-rp4", True, _check_sq_rp4),
    ("dold-kan-roundtrip", False, _check_dold_kan_roundtrip),
    ("moore-pointed", False, _check_moore_pointed),
    ("reduced-homology", False, _check_reduced_homology),
    ("gamma-retraction", False, _check_gamma_retraction),
    ("hurewicz-xi", False, _check_hurewicz_xi),
    ("hurewicz-normalized", False, _check_hurewicz_normalized),
    ("degeneracy-freeness", False, _check_degeneracy_freeness),
    ("vandermonde", False, _check_vandermonde),
]


def run_suite(config: Optional[SuiteConfig] = None) -> dict:
    cfg = config or SuiteConfig()
    if cfg.only is not None and cfg.only not in {name for name, _, _ in CATALOG}:
        known = ", ".join(name for name, _, _ in CATALOG)
        raise ValueError(f"unknown invariant {cfg.only!r}; available: {known}")
    items = []
    failures = 0
    for name, slow, fn in CATALOG:
        if cfg.only is not None and name != cfg.only:
            continue
        if slow and not cfg.include_slow and cfg.only != name:
            items.append({"name": name, "status": "skipped", "detail": "slow tier; select with --only or include_slow"})
            continue
        try:
            status, detail = fn(cfg)
        except Exception as exc:  # a crash is a failure with the exception as detail
            status, detail = FAIL, f"exception: {exc!r}"
        if status == FAIL:
            failures += 1
        items.append({"name": name, "status": status, "detail": detail})
    cfg.spaces.clear()  # a later run loads and builds anew, and the caller's config keeps none alive
    cfg.presentations.clear()
    return {"items": items, "failures": failures, "passed": failures == 0}
