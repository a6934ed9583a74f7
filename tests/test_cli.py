import gc
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from steenrod_kit import cli, documents, homology as homology_module, linalg, rings
from steenrod_kit.chains import ChainComplex
from steenrod_kit.cli import EXIT_FAIL, EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, main
from steenrod_kit.documents import load_corpus, save_complex
from steenrod_kit.simplicial import DeltaComplex

CORPUS = Path(documents.__file__).parent / "corpus"
XI_E1_DELTA2 = "xi(e1 ⊗ [0,1,2]) = -[0,1,2]⊗[0,1] - [0,1,2]⊗[1,2] + [0,2]⊗[0,1,2]\n"

@pytest.fixture()
def corpus_file(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.json"
        save_complex(load_corpus(name), path)
        return str(path)

    return write


def test_diag_standard_simplex(capsys):
    assert main(["diag", "--n", "1", "--simplex", "0,1,2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "-[0,1,2]⊗[0,1] - [0,1,2]⊗[1,2] + [0,2]⊗[0,1,2]" in out


def test_cache_flag_is_ignored_and_nothing_is_written(tmp_path, monkeypatch, capsys):
    # a table file in the format older versions persisted, with one coefficient changed
    poisoned = tmp_path / "poisoned"
    poisoned.mkdir()
    rows = [[[0, 1, 2], [0, 1], 5], [[0, 1, 2], [1, 2], -1], [[0, 2], [0, 1, 2], 1]]
    (poisoned / "xi_table.json").write_text(json.dumps({"schema": 1, "entries": {"1,2": rows}}))
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    assert main(["diag", "--n", "1", "--simplex", "0,1,2", "--cache", str(poisoned)]) == EXIT_OK
    assert capsys.readouterr().out == XI_E1_DELTA2
    absent = tmp_path / "absent"
    for argv in (
        ["diag", "--n", "2", "--simplex", "0,1,2,3"],
        ["sq", "--input", str(CORPUS / "rp2.json")],
        ["verify", "--only", "cache-roundtrip"],
    ):
        assert main(argv + ["--cache", str(absent)]) == EXIT_OK
        assert main(argv) == EXIT_OK
    assert not absent.exists()
    assert sorted(tmp_path.rglob("*")) == before


def test_diag_cell_of_a_document(capsys, corpus_file):
    path = corpus_file("rp2")
    assert main(["diag", "--n", "1", "--input", path, "--cell", "2,0", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["query"].startswith("xi(e1")
    assert "⊗" in payload["value"]


def test_diag_argument_errors(capsys, corpus_file):
    assert main(["diag", "--n", "1"]) == EXIT_INPUT
    assert main(["diag", "--simplex", "0,x"]) == EXIT_INPUT
    path = corpus_file("circle")
    assert main(["diag", "--input", path]) == EXIT_INPUT
    assert main(["diag", "--input", path, "--cell", "9,9"]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err
    assert main(["diag", "--n=-1", "--simplex", "0,1"]) == EXIT_INPUT
    assert main(["diag", "--n=-1", "--input", path, "--cell", "1,0"]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: bar level must be nonnegative\n" * 2


XI_E3_DELTA4 = "xi(e3 ⊗ [0,1,2,3,4]) = [0,1,2,3,4]⊗[0,1,2,3] + [0,1,2,3,4]⊗[0,1,3,4] + [0,1,2,3,4]⊗[1,2,3,4] "


@pytest.mark.parametrize(
    "ring, tail",
    [
        ("z", "- [0,1,2,4]⊗[0,1,2,3,4] - [0,2,3,4]⊗[0,1,2,3,4]"),
        ("q", "- [0,1,2,4]⊗[0,1,2,3,4] - [0,2,3,4]⊗[0,1,2,3,4]"),
        ("f2", "+ [0,1,2,4]⊗[0,1,2,3,4] + [0,2,3,4]⊗[0,1,2,3,4]"),
        ("f3", "+ 2·[0,1,2,4]⊗[0,1,2,3,4] + 2·[0,2,3,4]⊗[0,1,2,3,4]"),
    ],
)
def test_diag_renders_each_ring(capsys, ring, tail):
    # over 𝔽_p the coefficients are residues: −1 is + over 𝔽₂ and 2· over 𝔽₃
    assert main(["diag", "--n", "3", "--simplex", "0,1,2,3,4", "--ring", ring]) == EXIT_OK
    assert capsys.readouterr().out == XI_E3_DELTA4 + tail + "\n"


def test_diag_renders_a_cell_with_a_tuple_label(capsys):
    path = str(CORPUS / "counterexample.json")
    assert main(["diag", "--n", "2", "--input", path, "--cell", "2,0", "--ring", "f3"]) == EXIT_OK
    cell = "<2:('counterexample', 2, 0)>"
    assert capsys.readouterr().out == f"xi(e2 ⊗ cell(2,0)) = 2·{cell}⊗{cell}\n"


def test_homology_text_and_json(capsys, corpus_file):
    path = corpus_file("torus")
    assert main(["homology", "--input", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "H_1 = Z + Z" in out or "H_1 = Z^2" in out
    assert main(["homology", "--input", path, "--ring", "f2", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert [r["group"] for r in payload["homology"]] != []


def test_sq_defaults_to_f2_and_rejects_others(capsys, corpus_file):
    path = corpus_file("rp2")
    assert main(["sq", "--input", path, "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    entries = {(r["i"], r["p"]): r["matrix"] for r in payload["squares"]}
    assert entries[(1, 1)] == [[1]]  # the Bockstein on the projective plane
    assert main(["sq", "--input", path, "--ring", "z"]) == EXIT_INPUT


def _count_field_work(monkeypatch):
    """Per map (its columns list, by identity) the field reductions of it,
    and the list of descriptors built."""
    reduced, built = Counter(), []
    reduce, build = homology_module.reduce_columns, homology_module.field_homology
    monkeypatch.setattr(homology_module, "reduce_columns",
                        lambda ring, cols, *rest: reduced.update([id(cols)]) or reduce(ring, cols, *rest))
    monkeypatch.setattr(homology_module, "field_homology", lambda *args: built.append(args) or build(*args))
    return reduced, built


def test_sq_computes_each_cohomology_group_once(capsys, corpus_file, monkeypatch):
    reduced, built = _count_field_work(monkeypatch)
    assert main(["sq", "--input", corpus_file("rp2"), "--json"]) == EXIT_OK
    assert len(built) == 3  # H^0, H^1 and H^2, shared by every square
    assert len(reduced) == 4 and set(reduced.values()) == {1}  # δ^-1 … δ^2, each reduced once


@pytest.mark.parametrize("name", ["rp2", "counterexample"])
def test_sq_reads_only_the_coboundary(name, capsys, corpus_file, monkeypatch):
    # δ comes from the face table and ∂² = 0 from the face identities: no ∂ is read
    read = []
    for attr in ("boundary_matrix", "composes_to_zero"):
        original = getattr(ChainComplex, attr)
        monkeypatch.setattr(ChainComplex, attr, lambda cx, n, f=original, a=attr: read.append((a, n)) or f(cx, n))
    assert main(["sq", "--input", corpus_file(name), "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["squares"] and read == []


def test_sq_on_rp4_reduces_each_coboundary_map_once(capsys, monkeypatch):
    reduced, built = _count_field_work(monkeypatch)
    assert main(["sq", "--input", str(CORPUS / "rp4.json"), "--i", "1", "--p", "1", "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["squares"] == [{"i": 1, "p": 1, "matrix": [[1]]}]
    assert len(built) == 2  # H^1 and H^2
    assert len(reduced) == 3 and set(reduced.values()) == {1}  # δ^0, δ^1 and δ^2, each reduced once


def test_sq_on_rp4_inverts_only_the_pivots_that_eliminate(capsys, monkeypatch):
    # a pivot's inverse is computed when it first clears an entry, once: of the
    # 4,203 pivots the reductions make, 1,375 ever do
    made, inversions = [], Counter()
    reduce, inv = linalg._reduce, rings.Ring.inv
    monkeypatch.setattr(linalg, "_reduce", lambda *args, **kw: made.extend((pivots := reduce(*args, **kw)).values()) or pivots)
    monkeypatch.setattr(rings.Ring, "inv", lambda ring, a: inversions.update([ring]) or inv(ring, a))
    assert main(["sq", "--input", str(CORPUS / "rp4.json"), "--i", "1", "--p", "1", "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["squares"] == [{"i": 1, "p": 1, "matrix": [[1]]}]
    inverted = sum(hit[2] is not None for hit in made)
    assert len(made) == 4203
    assert inversions == {rings.F2: inverted} and inverted == 1375


@pytest.mark.parametrize(
    "argv",
    [["--p", "7"], ["--p", "-1"], ["--i", "-1"], ["--i", "-1", "--p", "1"], ["--i", "9"], ["--i", "2", "--p", "1"]],
)
def test_sq_argument_out_of_range_is_an_input_error(argv, capsys, corpus_file):
    assert main(["sq", "--input", corpus_file("rp2")] + argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("argv", [["--truncation", "2"], ["--truncation", "1"], ["--truncation", "9"], ["--max-k", "-3"]])
def test_verify_argument_out_of_range_is_an_input_error(argv, capsys):
    assert main(["verify"] + argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    # the two truncations the suite is written for both run
    assert main(["verify", "--only", "gamma-retraction", "--truncation", "3"]) == EXIT_OK
    assert main(["verify", "--only", "gamma-retraction", "--truncation", "4"]) == EXIT_OK


@pytest.mark.parametrize(
    "argv",
    [
        ["homology", "--input", str(CORPUS / "circle.json"), "--truncation", "-7"],
        ["sq", "--input", str(CORPUS / "rp2.json"), "--truncation", "3"],
        ["info", "--input", str(CORPUS / "circle.json"), "--ring", "z"],
        ["verify", "--input", str(CORPUS / "circle.json")],
        ["verify", "--ring", "f2"],
    ],
)
def test_option_the_command_does_not_read_is_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments" in captured.err


def test_sq_stops_at_the_truncation(tmp_path, capsys, corpus_file):
    # truncation_dim 2 determines cohomology up to degree 1, as for homology
    assert main(["sq", "--input", corpus_file("counterexample"), "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["space"] == "counterexample"  # the presentation as loaded, no copy of its cells
    assert payload["squares"] == [
        {"i": 0, "p": 0, "matrix": [[1]]},
        {"i": 1, "p": 0, "matrix": [[0]]},
        {"i": 0, "p": 1, "matrix": [[1]]},
    ]
    assert main(["sq", "--input", corpus_file("counterexample"), "--p", "2"]) == EXIT_INPUT
    capsys.readouterr()
    # a presentation truncated at 0 leaves no degree at all
    path = tmp_path / "point.json"
    path.write_text(json.dumps(
        {"kind": "simplicial", "cells": {"0": ["a"]}, "faces": {"0": [[]]}, "degeneracies": {}, "truncation_dim": 0}
    ))
    assert main(["sq", "--input", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "no cohomology degree" in lines[0]


def test_info_reports_degeneracy_freeness(capsys, corpus_file):
    path = corpus_file("counterexample")
    assert main(["info", "--input", path, "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "simplicial"
    assert payload["degeneracy_free"] is False
    assert payload["core_cells"] == {"0": 1, "1": 1}
    delta_path = corpus_file("torus")
    assert main(["info", "--input", delta_path, "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "delta" and payload["degeneracy_free"] is True


def test_verify_single_invariant(capsys):
    assert main(["verify", "--only", "prop-c4", "--max-k", "4"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS (0 failures)" in out


def test_verify_json_reports_items(capsys):
    assert main(["verify", "--only", "golden-b2", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] and payload["failures"] == 0
    assert payload["items"][0]["name"] == "golden-b2"


def test_verify_unknown_invariant_is_an_input_error(capsys):
    assert main(["verify", "--only", "no-such-check"]) == EXIT_INPUT


def test_missing_input_file(capsys):
    assert main(["homology", "--input", "/nonexistent/space.json"]) == EXIT_INPUT


HOSTILE_DOCUMENTS = {
    # a 1-cell with no face list
    "missing-faces": {"kind": "delta", "cells": {"0": ["a", "b"], "1": ["e"]}, "faces": {"0": [[], []]}},
    # face indices given as strings
    "string-faces": {
        "kind": "delta",
        "cells": {"0": ["a", "b"], "1": ["e"]},
        "faces": {"0": [[], []], "1": [["0", "1"]]},
    },
    # the top-level tables given as arrays
    "cells-not-an-object": {"kind": "delta", "cells": [["a"]], "faces": {"0": [[]]}},
    # a degeneracy index given as a string
    "string-degeneracies": {
        "kind": "simplicial",
        "cells": {"0": ["a"], "1": ["s0a"]},
        "faces": {"0": [[]], "1": [[0, 0]]},
        "degeneracies": {"0": [["0"]]},
        "truncation_dim": 1,
    },
    # truncation 2 calls for degeneracies of the 1-cells, but only the vertex has a table
    "missing-degeneracies": {
        "kind": "simplicial",
        "cells": {"0": ["a"], "1": ["s0a"], "2": ["s0s0a"]},
        "faces": {"0": [[]], "1": [[0, 0]], "2": [[0, 0, 0]]},
        "degeneracies": {"0": [[0]]},
        "truncation_dim": 2,
    },
    # a negative truncation, which left nothing to print
    "negative-truncation": {
        "kind": "simplicial",
        "cells": {"0": ["a"]},
        "faces": {"0": [[]]},
        "degeneracies": {},
        "truncation_dim": -3,
    },
}


@pytest.mark.parametrize("name", sorted(HOSTILE_DOCUMENTS))
def test_hostile_document_is_a_one_line_input_error(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(HOSTILE_DOCUMENTS[name]))
    assert main(["homology", "--input", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("command", ["sq", "homology", "info"])
def test_non_string_name_is_an_input_error(command, tmp_path, capsys):
    # sq used to end in "TypeError: unhashable type: 'list'" with a traceback
    doc = documents.complex_to_document(load_corpus("circle"))
    doc["name"] = ["x"]
    path = tmp_path / "named.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--input", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "name" in lines[0]


@pytest.mark.parametrize("field, value", [
    ("strict", "false"),  # used to read as bool("false") == True and fail the strict check
    ("strict", 0),
    ("strict", None),
    ("basepoint", 7),  # used to pass info, homology and sq with exit 0
    ("basepoint", -1),
    ("basepoint", "x"),
    ("basepoint", True),
    ("basepoint", 0.0),
])
@pytest.mark.parametrize("command", ["info", "homology", "sq"])
def test_wrong_strict_or_basepoint_is_an_input_error(command, field, value, tmp_path, capsys):
    doc = documents.complex_to_document(load_corpus("counterexample"))
    doc[field] = value
    path = tmp_path / "counterexample.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--input", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and field in lines[0]


def test_unexpected_exception_is_one_internal_error_line(monkeypatch, capsys, corpus_file):
    def broken(args):
        raise RuntimeError("handler fault")

    monkeypatch.setattr(cli, "_cmd_info", broken)
    assert main(["info", "--input", corpus_file("circle")]) == EXIT_INTERNAL == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["internal error: RuntimeError: handler fault"]


def test_homology_with_no_degree_to_print_is_an_input_error(tmp_path, capsys):
    # a valid one-vertex presentation truncated at 0 determines no homology degree
    path = tmp_path / "point.json"
    path.write_text(json.dumps(
        {"kind": "simplicial", "cells": {"0": ["a"]}, "faces": {"0": [[]]}, "degeneracies": {}, "truncation_dim": 0}
    ))
    assert main(["info", "--input", str(path)]) == EXIT_OK
    capsys.readouterr()
    assert main(["homology", "--input", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "no homology degree" in lines[0]


RP4 = str(CORPUS / "rp4.json")

# Sq^i(x^k) = C(k, i)·x^{k+i} mod 2 on H^*(RP^4; F2) = F2[x]/(x^5) (Mosher–Tangora)
RP4_SQUARES = [
    {"i": 0, "p": 0, "matrix": [[1]]},
    {"i": 1, "p": 0, "matrix": [[0]]},
    {"i": 2, "p": 0, "matrix": [[0]]},
    {"i": 3, "p": 0, "matrix": [[0]]},
    {"i": 4, "p": 0, "matrix": [[0]]},
    {"i": 0, "p": 1, "matrix": [[1]]},
    {"i": 1, "p": 1, "matrix": [[1]]},
    {"i": 2, "p": 1, "matrix": [[0]]},
    {"i": 3, "p": 1, "matrix": [[0]]},
    {"i": 0, "p": 2, "matrix": [[1]]},
    {"i": 1, "p": 2, "matrix": [[0]]},
    {"i": 2, "p": 2, "matrix": [[1]]},
    {"i": 0, "p": 3, "matrix": [[1]]},
    {"i": 1, "p": 3, "matrix": [[1]]},
    {"i": 0, "p": 4, "matrix": [[1]]},
]


@pytest.mark.slow
def test_rp4_full_square_table(capsys):
    assert main(["sq", "--input", RP4, "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"space": "rp4", "squares": RP4_SQUARES}


@pytest.mark.slow
@pytest.mark.parametrize(
    "ring, groups",
    [
        ("f2", ["F2^1"] * 5),
        # H_*(RP^4; Z) = Z, Z/2, 0, Z/2, 0 and 3 does not divide 2
        ("f3", ["F3^1", "F3^0", "F3^0", "F3^0", "F3^0"]),
        ("z", ["Z", "Z/2", "0", "Z/2", "0"]),
        ("q", ["Q^1", "Q^0", "Q^0", "Q^0", "Q^0"]),
    ],
)
def test_rp4_field_homology(capsys, ring, groups):
    assert main(["homology", "--input", RP4, "--ring", ring, "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert [(r["degree"], r["group"]) for r in payload["homology"]] == list(enumerate(groups))


# what a homology process never runs; dataclasses and inspect cost a short command more than its arithmetic,
# fractions (with decimal) serves only ℚ, which neither ℤ homology nor 𝔽₂ squares divide in, and argparse
# (with gettext and locale) only help and argument errors
NOT_FOR_HOMOLOGY = ["dataclasses", "inspect", "fractions", "decimal", "argparse", "gettext", "locale"] + [
    f"steenrod_kit.{m}" for m in ("suite", "dold_kan", "vandermonde", "diagonal", "cochains", "kernel")
]
LOADED_PER_STEP = """
import json, sys
src, rp2, guarded = sys.argv[1], sys.argv[2], sys.argv[3:]
sys.path.insert(0, src)
loaded = {}
import steenrod_kit.cli as cli
loaded["import"] = [m for m in guarded if m in sys.modules]
for command in ("homology", "sq"):
    cli.main([command, "--input", rp2])
    loaded[command] = [m for m in guarded if m in sys.modules]
print(json.dumps(loaded))
"""


def test_a_command_imports_only_the_modules_it_runs():
    src = str(Path(cli.__file__).resolve().parents[1])
    # -S: no site hooks, whose own imports would say nothing about the program's
    argv = [sys.executable, "-S", "-c", LOADED_PER_STEP, src, str(CORPUS / "rp2.json"), *NOT_FOR_HOMOLOGY]
    run = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    loaded = json.loads(run.stdout.splitlines()[-1])
    assert loaded["import"] == [] and loaded["homology"] == []
    assert "steenrod_kit.cochains" in loaded["sq"]
    assert not {"dataclasses", "inspect", "fractions", "decimal", "argparse", "gettext", "locale",
                "steenrod_kit.suite", "steenrod_kit.dold_kan"} & set(loaded["sq"])


def test_rational_homology_of_a_klein_bottle_divides_by_no_fraction(tmp_path):
    # the pivots of the 6×6 grid's boundary maps are ±1, which Ring.inv inverts as ints
    spec = importlib.util.spec_from_file_location("make_corpus", Path(__file__).parents[1] / "tools" / "make_corpus.py")
    make_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_corpus)
    save_complex(DeltaComplex.from_facets(make_corpus.klein_facets(6), name="klein6"), tmp_path / "klein6.json")
    src = str(Path(cli.__file__).resolve().parents[1])
    script = (
        "import io, json, sys; from contextlib import redirect_stdout; sys.path.insert(0, sys.argv[1])\n"
        "import steenrod_kit.cli as cli\n"
        "with redirect_stdout(io.StringIO()) as out: code = cli.main(sys.argv[2:])\n"
        "print(json.dumps([code, out.getvalue(), [m for m in ('fractions', 'decimal') if m in sys.modules]]))\n"
    )
    argv = [sys.executable, "-S", "-c", script, src, "homology", "--input", str(tmp_path / "klein6.json"), "--ring", "q"]
    run = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    code, out, loaded = json.loads(run.stdout.splitlines()[-1])
    assert code == EXIT_OK and loaded == []
    assert out.splitlines() == ["H_0 = Q^1", "H_1 = Q^1", "H_2 = Q^0"]


def _entry(*argv):
    """``python -m steenrod_kit.cli`` in a fresh process, through pipes, argparse's help wrapped at 80 columns."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "steenrod_kit.cli", *argv], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=src, COLUMNS="80"))


def test_the_process_entry_writes_the_whole_json_to_a_pipe(capsys):
    argv = ["homology", "--input", str(CORPUS / "klein.json"), "--json"]
    run = _entry(*argv)
    assert run.returncode == EXIT_OK and run.stderr == ""
    assert main(argv) == EXIT_OK
    assert run.stdout == capsys.readouterr().out and json.loads(run.stdout)


def test_the_process_entry_reports_a_missing_input_on_one_line():
    run = _entry("homology")
    assert run.returncode == EXIT_INPUT and run.stdout == ""
    assert run.stderr == "error: this command needs --input FILE\n"


def test_the_process_entry_exits_2_on_a_usage_error():
    run = _entry("homology", "--no-such-option")
    assert run.returncode == EXIT_INPUT and run.stdout == ""
    assert run.stderr.startswith("usage: steenrod-kit") and "error: unrecognized arguments" in run.stderr


@pytest.mark.parametrize(
    "argv, code, head",
    [
        (["--help"], EXIT_OK, "usage: steenrod-kit [-h] {diag,sq,homology,info,verify} ..."),
        (["sq", "--help"], EXIT_OK, "usage: steenrod-kit sq [-h] [--input INPUT] [--ring RING]"),
        (["info", "--ring", "z"], EXIT_INPUT, "usage: steenrod-kit [-h] {diag,sq,homology,info,verify} ..."),
    ],
)
def test_help_and_argument_errors_come_from_argparse(argv, code, head):
    run = _entry(*argv)
    assert run.returncode == code
    if code == EXIT_OK:  # the help, on standard output
        assert run.stderr == "" and run.stdout.startswith(head) and "-h, --help" in run.stdout
    else:  # the usage and one error line, on standard error
        assert run.stdout == "" and run.stderr.startswith(head)
        assert run.stderr.splitlines()[-1] == "steenrod-kit: error: unrecognized arguments: --ring z"


@pytest.mark.parametrize("argv", [["sq", "--json"], ["homology"], ["info", "--json"]])
def test_a_closed_standard_output_exits_1_in_silence(argv):
    src = str(Path(cli.__file__).resolve().parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe fails
    try:
        run = subprocess.run([sys.executable, "-m", "steenrod_kit.cli", *argv, "--input", str(CORPUS / "rp2.json")],
                             stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
                             env=dict(os.environ, PYTHONPATH=src))
    finally:
        os.close(write_end)
    assert (run.returncode, run.stderr) == (EXIT_FAIL, "")


class _ClosedStream:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


def test_main_passes_a_broken_pipe_on_and_reports_no_internal_error(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _ClosedStream())
    with pytest.raises(BrokenPipeError):
        main(["info", "--input", str(CORPUS / "rp2.json")])
    assert capsys.readouterr().err == ""


def test_the_process_entry_runs_main_with_the_collector_off_and_freezes_after(monkeypatch):
    seen = []
    monkeypatch.setattr(sys, "argv", ["steenrod-kit", "info"])
    monkeypatch.setattr(cli, "main", lambda argv: seen.append((argv, gc.isenabled(), gc.get_freeze_count())) or 7)
    try:
        with pytest.raises(SystemExit) as stop:
            cli.run()
        assert stop.value.code == 7 and seen == [(["info"], False, 0)] and gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
        gc.enable()


def test_main_leaves_the_collector_on_and_the_heap_unfrozen(capsys, corpus_file):
    path = corpus_file("rp2")
    for argv in (
        ["diag", "--n", "1", "--simplex", "0,1,2"],
        ["sq", "--input", path],
        ["homology", "--input", path],
        ["info", "--input", path],
        ["verify", "--only", "golden-b2"],
        ["homology"],  # an input error
    ):
        main(argv)
        assert gc.isenabled() and gc.get_freeze_count() == 0, argv


def test_the_installed_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    module, _, name = pyproject["project"]["scripts"]["steenrod-kit"].partition(":")
    assert (module, name) == ("steenrod_kit.cli", "run") and callable(getattr(cli, name))
