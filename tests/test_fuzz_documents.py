"""Mutated corpus documents through the CLI, in process.

Every run of ``info``, ``homology`` or ``sq`` on a document must end in a
result (exit 0) or a one-line input error (exit 2): never an internal error
(exit 3), a traceback, or the cyclic garbage collector left off.  The
mutations change types, lengths, indices, ``truncation_dim``, ``kind``,
``strict`` and ``basepoint`` of small corpus documents and of a strict free
presentation."""

import contextlib
import copy
import gc
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from steenrod_kit.cli import EXIT_INPUT, EXIT_OK, main
from steenrod_kit.documents import complex_to_document, load_corpus
from steenrod_kit.simplicial import freely_add_degeneracies

SEEDS = {name: complex_to_document(load_corpus(name)) for name in ("circle", "rp2", "delta2", "counterexample")}
SEEDS["free-circle"] = complex_to_document(freely_add_degeneracies(load_corpus("circle"), 2))

# values of every JSON type, including those that look like the expected ones
ODD_VALUES = st.one_of(
    st.integers(-3, 9),
    st.sampled_from([None, True, False, 0.0, 1.5, "", "0", "delta", "simplicial", [], {}, [[]], [0], {"0": []}]).map(
        copy.deepcopy  # a fresh container per draw: a mutation must not change the constant
    ),
    st.text(max_size=3),
)


FIELDS = ["truncation_dim", "kind", "strict", "basepoint", "name", "degeneracies"]


def _paths(node, path=()):
    """Every path of keys into a JSON document, the root excluded."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def mutated_documents(draw):
    name = draw(st.sampled_from(sorted(SEEDS)))
    doc = copy.deepcopy(SEEDS[name])
    # top-level fields set or removed, then changes inside the tables: at least one change in all
    fields = draw(st.lists(st.sampled_from(FIELDS), max_size=2, unique=True))
    for field in fields:
        if draw(st.booleans()) and field in doc:
            del doc[field]
        else:
            doc[field] = draw(ODD_VALUES)
    for _ in range(draw(st.integers(0, 1) if fields else st.integers(1, 2))):
        kind = draw(st.sampled_from(["type", "length", "index", "key"]))
        paths = list(_paths(doc))
        if kind == "type" and paths:  # any node replaced by a value of any type
            path = draw(st.sampled_from(paths))
            _parent(doc, path)[path[-1]] = draw(ODD_VALUES)
        elif kind == "length":  # a list shortened, or grown by a copy of an entry or an odd value
            lists = [p for p in paths if isinstance(_parent(doc, p)[p[-1]], list)]
            if lists:
                path = draw(st.sampled_from(lists))
                seq = _parent(doc, path)[path[-1]]
                if seq and draw(st.booleans()):
                    del seq[draw(st.integers(0, len(seq) - 1))]
                else:
                    seq.append(copy.deepcopy(seq[0]) if seq and draw(st.booleans()) else draw(ODD_VALUES))
        elif kind == "index":  # an integer entry moved, maybe out of range
            ints = [p for p in paths if type(_parent(doc, p)[p[-1]]) is int]
            if ints:
                path = draw(st.sampled_from(ints))
                _parent(doc, path)[path[-1]] += draw(st.sampled_from([-100, -2, -1, 1, 2, 100]))
        elif kind == "key":  # a dimension key renamed
            keyed = [p for p in paths if isinstance(_parent(doc, p), dict) and p[0] in ("cells", "faces", "degeneracies")]
            if keyed:
                path = draw(st.sampled_from(keyed))
                parent = _parent(doc, path)
                parent[draw(st.sampled_from(["-1", "x", "1.0", "7", " 1", "01"]))] = parent.pop(path[-1])
    return doc


@pytest.fixture(scope="module")
def document_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutated.json"


COMMANDS = {"info": ["info"], "homology": ["homology"], "homology-f3": ["homology", "--ring", "f3"], "sq": ["sq"]}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(doc=mutated_documents())
def test_a_mutated_document_is_a_result_or_an_input_error(command, doc, document_path):
    document_path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*COMMANDS[command], "--input", str(document_path)])
    assert gc.isenabled()
    assert code in (EXIT_OK, EXIT_INPUT), (code, err.getvalue(), json.dumps(doc))
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == EXIT_INPUT:
        lines = err.getvalue().splitlines()
        assert out.getvalue() == "" and len(lines) == 1 and lines[0].startswith("error: ")
