"""The corpus generator (``tools/make_corpus.py``) and the RPⁿ it builds.

``--check`` guards the shipped documents, and so ``rpn_facets``; RP³ is
built in process from ``rpn_facets(3)`` (nothing is added to the corpus) and
checked against literal values (Mosher–Tangora): H*(RP³; 𝔽₂) = 𝔽₂[x]/x⁴
with Sq¹x = x², Sq¹x² = 0 and Sq²x = 0.
"""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from steenrod_kit.cli import EXIT_OK, main
from steenrod_kit.documents import save_complex
from steenrod_kit.simplicial import DeltaComplex

TOOL = Path(__file__).resolve().parent.parent / "tools" / "make_corpus.py"


@pytest.fixture(scope="module")
def make_corpus():
    spec = importlib.util.spec_from_file_location("make_corpus", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_finds_the_shipped_corpus_regenerated(make_corpus, capsys):
    assert make_corpus.main(["--check"]) == 0
    assert capsys.readouterr().out.startswith("12 documents match ")


def test_check_names_the_first_file_that_differs(make_corpus, tmp_path, capsys):
    for path in make_corpus.OUT.glob("*.json"):
        shutil.copy(path, tmp_path / path.name)
    rp2 = tmp_path / "rp2.json"
    rp2.write_bytes(rp2.read_bytes().replace(b'"rp2"', b'"rp3"'))
    (tmp_path / "torus.json").unlink()
    before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
    assert make_corpus.check(tmp_path) == 1
    assert capsys.readouterr().err == f"{rp2} differs from the generated document\n"
    assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before  # nothing written


@pytest.fixture(scope="module")
def rp3(make_corpus, tmp_path_factory):
    space = DeltaComplex.from_facets(make_corpus.rpn_facets(3), name="rp3")
    assert [len(space.cells[n]) for n in range(4)] == [40, 232, 384, 192]
    path = tmp_path_factory.mktemp("rp3") / "rp3.json"
    save_complex(space, path)
    return str(path)


def test_rp3_squares(rp3, capsys):
    assert main(["sq", "--input", rp3, "--json"]) == EXIT_OK
    squares = {(r["i"], r["p"]): r["matrix"] for r in json.loads(capsys.readouterr().out)["squares"]}
    expected = {(0, p): [[1]] for p in range(4)}  # Sq⁰ = id
    expected |= {(i, 0): [[0]] for i in range(1, 4)}  # Sq^i 1 = 0 for i > 0
    expected |= {(1, 1): [[1]], (2, 1): [[0]], (1, 2): [[0]]}  # Sq¹x = x², Sq²x = 0, Sq¹x² = 0
    assert squares == expected


@pytest.mark.parametrize("ring, groups", [
    ("z", ["Z", "Z/2", "0", "Z"]),
    ("q", ["Q^1", "Q^0", "Q^0", "Q^1"]),
    ("f3", ["F3^1", "F3^0", "F3^0", "F3^1"]),
    ("f2", ["F2^1", "F2^1", "F2^1", "F2^1"]),
])
def test_rp3_homology(rp3, ring, groups, capsys):
    assert main(["homology", "--input", rp3, "--ring", ring, "--json"]) == EXIT_OK
    assert [r["group"] for r in json.loads(capsys.readouterr().out)["homology"]] == groups
