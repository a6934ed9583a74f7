from collections import Counter

import pytest

from steenrod_kit import dold_kan, suite
from steenrod_kit.suite import DEVIATION, FAIL, PASS, SuiteConfig, run_suite


def test_fast_tier_passes_with_documented_deviations():
    report = run_suite(SuiteConfig(max_k=5))
    assert report["passed"] and report["failures"] == 0
    by_name = {item["name"]: item for item in report["items"]}
    # the two sign-convention goldens are flagged, never silently passed
    assert by_name["golden-b3"]["status"] == DEVIATION
    assert by_name["golden-degenerate"]["status"] == DEVIATION
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
