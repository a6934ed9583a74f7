import gc
import weakref
from collections import Counter

import pytest

from steenrod_kit import dold_kan, simplicial, suite
from steenrod_kit.chains import Cell, Simplex
from steenrod_kit.suite import DEVIATION, FAIL, PASS, SuiteConfig, run_suite


def test_fast_tier_passes_with_documented_deviations():
    report = run_suite(SuiteConfig(max_k=5))
    assert report["passed"] and report["failures"] == 0
    by_name = {item["name"]: item for item in report["items"]}
    # the two sign-convention goldens are flagged, never silently passed
    assert by_name["golden-b3"]["status"] == DEVIATION
    assert by_name["golden-degenerate"]["status"] == DEVIATION
    # the detail states the deviation as README does: not an overall sign
    assert by_name["golden-degenerate"]["detail"] == (
        "computed -[0,0,1]⊗[0,0] - [0,0,1]⊗[0,1] + [0,1]⊗[0,0,1] ; "
        "[0,1]⊗[0,1,1] - [0,1,1]⊗[0,1] - [0,1,1]⊗[1,1] — the published displays have the opposite sign "
        "on every term but [0,1,2]⊗[0,1] (relabeled), and the [0,1,1] display has [1,1] for [0,1]"
    )
    assert by_name["golden-b2"]["status"] == PASS
    assert by_name["sq-rp4"]["status"] == "skipped"
    deviations = [i for i in report["items"] if i["status"] == DEVIATION]
    assert len(deviations) == 2


def test_only_selects_a_single_item():
    report = run_suite(SuiteConfig(only="vandermonde"))
    assert len(report["items"]) == 1
    assert report["items"][0]["status"] == PASS
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(only="nonsense"))


def test_crashing_check_is_reported_as_failure():
    # an impossible truncation makes the Dold-Kan checks raise internally;
    # the suite must convert that into a failure, not propagate
    report = run_suite(SuiteConfig(only="hurewicz-normalized", truncation=-1))
    assert report["items"][0]["status"] == FAIL
    assert not report["passed"]


def test_gamma_retraction_builds_each_pointed_complex_once_per_space(monkeypatch):
    calls = Counter()
    for module, name in [
        (dold_kan, "moore_complex"),
        (dold_kan, "pointed_unnormalized_chains"),
        (suite, "gamma_X"),
        (suite, "chain_hurewicz"),
    ]:
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _n=name, _f=original: calls.update([_n]) or _f(*a))
    status, _ = suite._check_gamma_retraction(SuiteConfig())
    assert status == PASS
    # three spaces: both maps are built for each, and share its two complexes
    assert calls == {"gamma_X": 3, "chain_hurewicz": 3, "moore_complex": 3, "pointed_unnormalized_chains": 3}


def test_gamma_retraction_reads_both_complexes(monkeypatch):
    # C(R̃X) swapped for the chains of Δ¹: γ∘C(h) cannot be the identity
    original = dold_kan._pointed_chains
    delta1 = simplicial.standard_delta(1)
    monkeypatch.setattr(dold_kan, "_pointed_chains", lambda x, ring: (original(x, ring)[0], delta1.chains(ring)))
    report = run_suite(SuiteConfig(only="gamma-retraction"))
    assert report["items"][0]["status"] == FAIL


def test_hurewicz_normalized_fails_on_a_doubled_column(monkeypatch):
    original = suite.hurewicz_chain_map

    def doubled(x, ring):  # N(h) with its first nonzero column above degree 0 doubled
        h = original(x, ring)
        n, j = next((n, j) for n in sorted(h.columns) if n for j, col in enumerate(h.columns[n]) if col)
        h.columns[n][j] = {t: 2 * c for t, c in h.columns[n][j].items()}
        return h

    monkeypatch.setattr(suite, "hurewicz_chain_map", doubled)
    item = run_suite(SuiteConfig(only="hurewicz-normalized"))["items"][0]
    assert (item["status"], item["detail"]) == (FAIL, "circle: N(h) is not a chain map")


@pytest.mark.parametrize("item, cells", [("moore-pointed", True), ("hurewicz-normalized", False)])
def test_the_column_checks_build_no_chain(monkeypatch, item, cells):
    # no chain of simplices is built and none is rendered: the checks compare columns
    built = Counter()
    for cls in (Simplex, Cell):
        original = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *a, _f=original, _n=cls.__name__, **k: built.update([_n]) or _f(self, *a, **k))
    render = suite.render_terms
    monkeypatch.setattr(suite, "render_terms", lambda terms: built.update(["render"]) or render(terms))
    assert run_suite(SuiteConfig(only=item))["passed"]
    assert built["Simplex"] == 0 and built["render"] == 0
    if cells:  # moore-pointed compares the Cell bases of its two complexes
        assert built["Cell"] > 0


def _count_builds(monkeypatch):
    """Every 𝔡(Y) built, through the suite and through ``is_degeneracy_free``."""
    built = []
    original = simplicial.freely_add_degeneracies

    def build(y, truncation):
        built.append((y.name, truncation))
        return original(y, truncation)

    monkeypatch.setattr(suite, "freely_add_degeneracies", build)
    monkeypatch.setattr(simplicial, "freely_add_degeneracies", build)
    return built


@pytest.mark.parametrize("truncation, builds", [(4, 10), (3, 7)])
def test_a_run_builds_each_free_presentation_once(monkeypatch, truncation, builds):
    built = _count_builds(monkeypatch)
    cfg = SuiteConfig(truncation=truncation)
    assert run_suite(cfg)["passed"]
    # 10 (space, truncation) pairs at 4 (7 at 3, where hurewicz-xi's are shared);
    # is_degeneracy_free builds no 𝔡 of a core
    assert len(built) == len(set(built)) == builds
    assert sum(name.startswith("core(") for name, _ in built) == 0
    built.clear()
    run_suite(cfg)  # the same config: a second run builds anew
    assert len(built) == builds


def test_the_shared_presentations_are_freed_when_the_run_returns(monkeypatch):
    refs = []
    original = suite.freely_add_degeneracies
    monkeypatch.setattr(suite, "freely_add_degeneracies", lambda y, t: refs.append(weakref.ref(x := original(y, t))) or x)
    cfg = SuiteConfig()
    enabled = gc.isenabled()
    gc.disable()
    try:
        report = run_suite(cfg)
        alive = [ref for ref in refs if ref() is not None]
    finally:
        if enabled:
            gc.enable()
    assert report["passed"] and len(refs) == 10
    assert alive == [] and cfg.presentations == {}


def test_the_fast_tier_gives_the_same_statuses_at_truncation_3_and_4():
    def statuses(truncation):
        return [(item["name"], item["status"]) for item in run_suite(SuiteConfig(truncation=truncation))["items"]]

    assert statuses(3) == statuses(4)


def test_a_build_that_raises_fails_each_item_that_asks_for_it():
    report = run_suite(SuiteConfig(truncation=1))  # below the 2-cells of the boundary of Δ³ and of RP²
    failed = {item["name"] for item in report["items"] if item["status"] == FAIL}
    assert failed == {"moore-pointed", "reduced-homology", "gamma-retraction", "hurewicz-normalized",
                      "degeneracy-freeness"}


def test_a_fast_run_loads_each_corpus_document_once(monkeypatch):
    loaded = Counter()
    original = suite.load_corpus
    monkeypatch.setattr(suite, "load_corpus", lambda name: loaded.update([name]) or original(name))
    cfg = SuiteConfig()
    assert run_suite(cfg)["passed"]
    # the 7 fast-corpus spaces and the counterexample, shared by every item that reads them
    assert loaded == Counter([*suite.FAST_CORPUS, "counterexample"])
    assert cfg.spaces == {}
    loaded.clear()
    run_suite(cfg)  # the same config: a second run loads anew
    assert sum(loaded.values()) == 8


def test_the_pointed_items_share_each_pointed_complex(monkeypatch):
    calls = Counter()
    for name in ("moore_complex", "pointed_unnormalized_chains"):
        for module in (dold_kan, suite):
            if hasattr(module, name):
                original = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *a, _n=name, _f=original: calls.update([_n]) or _f(*a))
    cfg = SuiteConfig()
    for check in (suite._check_moore_pointed, suite._check_reduced_homology, suite._check_gamma_retraction):
        assert check(cfg)[0] == PASS
    # three spaces: moore(R̃X) and the pointed chains of each built once, for all three items
    assert calls == {"moore_complex": 3, "pointed_unnormalized_chains": 3}


def test_the_hurewicz_square_failure_renders_the_defect(monkeypatch):
    # d_0 of one edge of R̃X is pointed at another vertex generator after validation
    original, moved = dold_kan.free_simplicial_abelian, set()

    def moving(x, ring, pointed=False):
        a = original(x, ring, pointed=pointed)
        if pointed and id(a) not in moved:
            moved.add(id(a))
            d0 = a.face_maps[(1, 0)]
            k = next(k for k, target in enumerate(d0) if target is not None)
            d0[k] = next(t for t in range(a.rank(0)) if t != d0[k])
        return a

    monkeypatch.setattr(dold_kan, "free_simplicial_abelian", moving)
    item = run_suite(SuiteConfig(only="hurewicz-xi"))["items"][0]
    cell = "<1:('d(circle)', 1, 1)>"
    detail = f"circle cell (1,1) level 0: {cell}⊗<0:('d(circle)', 0, 1)> - {cell}⊗<0:('d(circle)', 0, 2)>"
    assert (item["status"], item["detail"]) == (FAIL, detail)


def test_the_vandermonde_failure_renders_the_tuple(monkeypatch):
    monkeypatch.setattr(suite, "vandermonde_independence", lambda cs, ring: False)
    item = run_suite(SuiteConfig(only="vandermonde"))["items"][0]
    tuple_ = "['-4·[2,3] + 3·[2,5]', '-4·[2,4] + 4·[3,5]', '-2·[1,2] + [1,5] + 4·[2,5]', '-3·[3,4]']"
    assert (item["status"], item["detail"]) == (FAIL, f"dependent tuple over Q: {tuple_}")
