"""Self-test of perfbench/run.py on tiny stand-ins of each workload.

    python3 -m pytest perfbench -q

The stand-ins are RP² ``sq --i 1 --p 1``, the 4×4 Klein bottle over Z, Q and
F3, and ``verify --only golden-b2``; each runs one iteration.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spaces  # noqa: E402

TINY = {
    "sq-rp4": lambda: run.sq_workload(space="rp2"),
    "homology-klein": lambda: run.klein_workload(n=4),
    "verify-fast": lambda: run.verify_workload(only="golden-b2", expected={"golden-b2": "pass"}),
}

# a span each stand-in must record, besides the root
LAYER_SEEN = {
    "sq-rp4": "homology.cohomology",
    "homology-klein": "homology.homology.z",
    "verify-fast": "suite.item.golden-b2",
}


def _metric_units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("name", sorted(TINY))
def test_end_to_end_metrics_are_emitted_and_checked(name, tmp_path):
    result, details = run.measure(TINY[name](), seed=3, seconds=0.1, trace=False, directory=tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert _metric_units(result["metrics"]) == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert details["fail_ratio"] == 0 and details["provenance"]["python"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_per_layer_metrics_are_emitted(name, tmp_path):
    result, details = run.measure(TINY[name](), seed=3, seconds=0.1, trace=True, directory=tmp_path)
    assert result["correct"]
    assert _metric_units(result["metrics"]) == run.PER_LAYER
    assert set(details["targets"]) == set(run.PER_LAYER)
    assert result["metrics"]["cli.import.s"]["value"] > 0
    if name != "verify-fast":  # the bypass workloads never enter Dold-Kan code
        assert not any(m["value"] for n, m in result["metrics"].items() if n.startswith("dold_kan."))


@pytest.mark.parametrize("name", sorted(TINY))
def test_spans_nest(name, tmp_path):
    workload = TINY[name]()
    runner = run.Runner(tmp_path, time.perf_counter() + 60)
    runner.probe()
    paths = list(workload.inputs(0, 0, tmp_path))
    outcome = runner.invoke(workload.commands[0], paths[0] if workload.facets else None, traced=True)
    assert outcome.failure is None
    spans = outcome.spans["spans"]
    assert spans[0][0] == "cli.main" and spans[0][3] == -1
    assert LAYER_SEEN[name] in {s[0] for s in spans}
    assert run.spans_nest(outcome.spans)
    assert not run.spans_nest({"spans": [["a", 0.0, 1.0, -1, None], ["b", 0.5, 1.5, 0, None]]})


def test_oracle_rejects_a_wrong_answer(tmp_path):
    tampered = [{"i": 1, "p": 1, "matrix": [[0]]}]
    result, details = run.measure(run.sq_workload(space="rp2", expected=tampered), seed=0, seconds=0.1,
                                  trace=False, directory=tmp_path)
    sq_runs = details["iterations"]
    assert not result["correct"]
    assert result["failed"] == sq_runs and details["failures"] == {"wrong_output": sq_runs}
    assert details["fail_ratio"] == sq_runs / result["attempted"] > 0


def test_timeout_is_recorded(tmp_path):
    wall, _, code, _, _ = run.run_process([sys.executable, "-c", "import time; time.sleep(30)"], tmp_path / "p", 0.3)
    assert code is None and wall < 10


def test_relabeling_is_seeded_and_keeps_the_space(tmp_path):
    facets = spaces.klein_facets(4)
    a, b = spaces.relabel(facets, "1/0"), spaces.relabel(facets, "1/0")
    c = spaces.relabel(facets, "2/0")
    assert a == b and a != c
    counts = {tuple(len(v) for v in spaces.delta_document(f, "k")["cells"].values()) for f in (facets, a, c)}
    assert counts == {(16, 48, 32)}
    # one document per command, each under its own relabeling
    documents = run.klein_workload(n=4).inputs(1, 0, tmp_path)
    assert len(documents) == 3 and len({path.read_text() for path in documents}) == 3


def test_every_declared_workload_runs():
    assert [w["name"] for w in run.SPEC["workloads"]] == list(run.WORKLOADS)


def test_seconds_beyond_the_budget_are_refused():
    with pytest.raises(SystemExit) as refused:
        run.main(["--workload", "sq-rp4", "--seconds", str(run.MAX_SECONDS + 1)])
    assert refused.value.code == 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "sq-rp4", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
