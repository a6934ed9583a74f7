"""Traced CLI run: ``python tracer.py SPANS.json ARG...`` runs
``steenrod_kit.cli.main([ARG...])`` in this fresh process with a span around
every call to the layer entry points below, and writes the spans to SPANS.json
when main returns.

Nothing in the program is edited: each entry point is replaced, for the
duration of this process, at every module attribute (or class attribute, for
methods) where callers look it up, so calls made through ``from x import f``
bindings are caught too.  A span is ``[name, start, end, parent, count]``:
``parent`` is the index of the enclosing span (-1 for the root) and ``count``
a per-call size (nonzeros, cells visited, table entries filled) or null.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path

perf_counter = time.perf_counter


class Recorder:
    """In-memory span list with a stack of open spans."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name, fn, count=None, before=None, suffix=None):
        """Return ``fn`` recording one span per call.  ``count(args, kwargs,
        result, early)`` gives the span's size, where ``early`` is
        ``before(args, kwargs)`` taken at entry; ``suffix(args, kwargs)``
        extends the name (the ring of a homology call)."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if suffix is None else f"{name}.{suffix(args, kwargs)}"
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            early = before(args, kwargs) if before else None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = [label, start, end, parent, None]
            if count:
                spans[index][4] = count(args, kwargs, result, early)
            return result

        return traced


def _arg(fn, position: int, keyword: str):
    """Accessor for one argument of ``fn`` given positionally or by name."""
    if list(inspect.signature(fn).parameters)[position] != keyword:
        raise TypeError(f"{fn.__qualname__} no longer takes {keyword!r} at position {position}")
    return lambda args, kwargs: args[position] if len(args) > position else kwargs[keyword]


def install(recorder: Recorder) -> None:
    """Wrap the layer entry points of every loaded ``steenrod_kit`` module."""
    from steenrod_kit import chains, cochains, diagonal, documents, dold_kan, homology
    from steenrod_kit import linalg, simplicial, suite, vandermonde

    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("steenrod_kit") and m is not None]

    def rebind(fn, wrapped) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)

    def function(name, fn, **hooks) -> None:
        rebind(fn, recorder.wrap(name, fn, **hooks))

    def method(name, cls, attr, **hooks) -> None:
        setattr(cls, attr, recorder.wrap(name, vars(cls)[attr], **hooks))

    ring_of = _arg(homology.homology, 0, "complex_")
    function("homology.homology", homology.homology,
             suffix=lambda a, k: str(ring_of(a, k).ring).lower())
    function("homology.cohomology", homology.cohomology)
    method("linalg.coordinates", linalg.HomologyDescriptor, "coordinates")
    method("chains.boundary_matrix", chains.ChainComplex, "boundary_matrix",
           count=lambda a, k, r, e: sum(len(col) for col in r))
    method("simplicial.chains", simplicial.DeltaComplex, "chains")
    function("simplicial.freely_add_degeneracies", simplicial.freely_add_degeneracies)
    function("documents.load_complex", documents.load_complex)

    table_of = _arg(diagonal.DiagonalTable.raw, 0, "self")
    method("diagonal.table_raw", diagonal.DiagonalTable, "raw",
           before=lambda a, k: len(table_of(a, k).entries),
           count=lambda a, k, r, e: len(table_of(a, k).entries) - e)
    function("diagonal.xi_cell", diagonal.xi_cell)

    u_of, v_of = _arg(cochains.cup_i, 0, "u"), _arg(cochains.cup_i, 1, "v")
    i_of, space_of = _arg(cochains.cup_i, 2, "i"), _arg(cochains.cup_i, 3, "space")
    function("cochains.cup_i", cochains.cup_i,
             count=lambda a, k, r, e: space_of(a, k).n_cells(u_of(a, k).degree + v_of(a, k).degree - i_of(a, k)))
    function("cochains.sq_matrix", cochains.sq_matrix)

    for name in ("free_simplicial_abelian", "hurewicz_square_defect", "moore_complex", "dold_kan_round_trip"):
        function(f"dold_kan.{name}", getattr(dold_kan, name))
    method("dold_kan.validate", dold_kan.SimplicialAbelianGroup, "validate")

    function("vandermonde.independence", vandermonde.vandermonde_independence)
    function("vandermonde.det_factorization", vandermonde.vandermonde_det_factorization)

    suite.CATALOG[:] = [
        (name, slow, recorder.wrap(f"suite.item.{name}", check)) for name, slow, check in suite.CATALOG
    ]


def main(argv: list) -> int:
    out, cli_args = Path(argv[0]), argv[1:]
    start = perf_counter()
    import steenrod_kit.cli as cli

    imported = perf_counter()
    recorder = Recorder()
    install(recorder)
    entry = recorder.wrap("cli.main", cli.main)
    code = 1
    try:
        code = entry(cli_args)
    finally:
        sys.stdout.flush()
        document = {"import_s": imported - start, "spans": recorder.spans}
        out.write_text(json.dumps(document), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
