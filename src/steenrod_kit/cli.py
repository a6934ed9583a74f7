"""Command-line front end.

    steenrod-kit <diag|sq|homology|info|verify> [options]

Exit codes: 0 = all requested checks passed, 1 = verification failures,
2 = input error (unreadable file, malformed document, bad arguments),
3 = internal error (any other exception, reported on one line: a fault of
the program, not of its input).  When the reader of standard output closes
it early, the process exits 1, silently.

Each command's options are declared once, in ``COMMANDS``.  ``_parse`` reads
a command line that writes them out in full; argparse, built from the same
table, is imported only for the rest: help, abbreviations, ``--opt=value``
and every argument error, with its own text and exit code 2.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from types import SimpleNamespace
from typing import Optional

from .chains import Simplex, render_terms
from .documents import load_complex
from .homology import cohomology, homology
from .rings import F2, Ring, ZZ
from .simplicial import SimplicialSetPresentation, core, is_degeneracy_free
# the diagonal, cup-i and suite modules are imported by the handlers that call them

EXIT_OK, EXIT_FAIL, EXIT_INPUT, EXIT_INTERNAL = 0, 1, 2, 3


# command: (help, options), each option (option, type, default, help, metavar), a flag's type being bool
_INPUT = ("--input", str, None, "complex document (JSON)", None)
_RING = ("--ring", str, None, "coefficients: z, q, f2, f3, f5, ... (default z; sq defaults to f2)", None)
_CACHE = ("--cache", str, None, "accepted and ignored: the diagonal table is kept in memory only", "DIR")
_JSON = ("--json", bool, False, "machine-readable output", None)
COMMANDS = {
    "diag": ("print ξ(e_n⊗σ) in canonical term order", (_INPUT, _RING, _CACHE, _JSON,
        ("--n", int, 0, "bar resolution level", None),
        ("--simplex", str, None, "comma-separated vertex list, e.g. 0,1,2 (weakly increasing)", None),
        ("--cell", str, None, "cell of the input complex as dim,index", None))),
    "sq": ("matrices of Steenrod squares on H^*(X;F2)", (_INPUT, _RING, _CACHE, _JSON,
        ("--i", int, None, "which square (default: all)", None),
        ("--p", int, None, "source cohomology degree (default: all)", None))),
    "homology": ("homology groups of the input complex per degree", (_INPUT, _RING, _CACHE, _JSON)),
    "info": ("cell counts, degeneracy-freeness, core size", (_INPUT, _CACHE, _JSON)),
    "verify": ("run the named-invariant verification suite", (_CACHE, _JSON,
        ("--only", str, None, "run a single named invariant", None),
        ("--max-k", int, 6, "maximum simplex dimension for the eta_k checks", None),
        ("--slow", bool, False, "include the slow tier (RP⁴ squares)", None),
        ("--truncation", int, 4, "truncation of the free presentations, 3 or 4", None))),
}


def _build_parser():
    import argparse  # with gettext and locale, for what _parse leaves: help, abbreviations, errors

    description = "Exact-arithmetic Steenrod diagonals, squares, homology, and verification."
    parser = argparse.ArgumentParser(prog="steenrod-kit", description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for option, kind, default, option_help, metavar in options:
            how = {"action": "store_true"} if kind is bool else {"type": kind, "default": default, "metavar": metavar}
            p.add_argument(option, help=option_help, **how)
    return parser


def _parse(argv: Optional[list]) -> Optional[SimpleNamespace]:
    """``_build_parser().parse_args(argv)`` when argv is a command and its own options in full, a flag
    alone, any other option with one value that does not start with ``-`` and that its type accepts
    (the last of a repeated option wins); None for anything else."""
    if not argv or argv[0] not in COMMANDS:
        return None
    options = {spec[0]: spec for spec in COMMANDS[argv[0]][1]}
    values = {option: default for option, _, default, _, _ in options.values()}
    words = iter(argv[1:])
    for word in words:
        kind = options[word][1] if word in options else None
        if kind is bool:
            values[word] = True
            continue
        value = next(words, "-")  # a missing value is refused like an option in its place
        if kind is None or value.startswith("-"):
            return None
        try:
            values[word] = kind(value)
        except ValueError:
            return None
    return SimpleNamespace(command=argv[0], **{option[2:].replace("-", "_"): v for option, v in values.items()})


def _ring(args, default: Ring = ZZ) -> Ring:
    if args.ring is None:
        return default
    return Ring.from_name(args.ring)


def _load_input(args):
    if not args.input:
        raise ValueError("this command needs --input FILE")
    return load_complex(args.input)


def _cmd_diag(args) -> int:
    from .diagonal import DiagonalTable, xi_cell, xi_simplex

    ring = _ring(args)
    table = DiagonalTable()
    if args.simplex:
        try:
            vertices = tuple(int(v) for v in args.simplex.split(","))
        except ValueError as exc:
            raise ValueError(f"bad --simplex: {exc}") from exc
        chain = xi_simplex(args.n, Simplex(vertices), table, ring)
        label = f"xi(e{args.n} ⊗ {Simplex(vertices)})"
    elif args.input:
        space = _load_input(args)
        if args.cell is None:
            raise ValueError("diag on a complex document needs --cell dim,index")
        try:
            dim, idx = (int(v) for v in args.cell.split(","))
        except ValueError as exc:
            raise ValueError(f"bad --cell: {exc}") from exc
        if dim not in space.cells or not 0 <= idx < len(space.cells[dim]):
            raise ValueError(f"no cell ({dim},{idx}) in {space.name or 'the input'}")
        chain = xi_cell(args.n, space, dim, idx, table, ring)
        label = f"xi(e{args.n} ⊗ cell({dim},{idx}))"
    else:
        raise ValueError("diag needs --simplex or --input with --cell")
    if args.json:
        print(json.dumps({"query": label, "value": render_terms(chain)}))
    else:
        print(f"{label} = {render_terms(chain)}")
    return EXIT_OK


def _cmd_sq(args) -> int:
    from .cochains import sq_matrix
    from .diagonal import DiagonalTable

    ring = _ring(args, default=F2)
    if ring != F2:
        raise ValueError("Steenrod squares are computed over f2")
    space = _load_input(args)  # a presentation is read as the delta-complex of all its cells
    top = space.dimension  # the highest cohomology degree a square may land in
    if isinstance(space, SimplicialSetPresentation):
        # degree truncation_dim − 1 is the last one the presentation determines
        top = min(top, space.truncation_dim - 1)
        if top < 0:
            raise ValueError(f"truncation_dim {space.truncation_dim} determines no cohomology degree")
    if args.p is not None and not 0 <= args.p <= top:
        raise ValueError(f"--p must lie in 0..{top}, got {args.p}")
    if args.i is not None and args.i < 0:
        raise ValueError(f"--i must be nonnegative, got {args.i}")
    lowest = args.p if args.p is not None else 0
    if args.i is not None and lowest + args.i > top:
        raise ValueError(f"--i {args.i} from degree {lowest} lands above degree {top}, the highest computed")
    table = DiagonalTable()
    complex_ = space.chains(F2)
    results = []
    ps = [args.p] if args.p is not None else list(range(top + 1))
    for p in ps:
        dim_p = cohomology(complex_, p).dimension
        if dim_p == 0:
            continue
        squares = [args.i] if args.i is not None else list(range(top - p + 1))
        for i in squares:
            if p + i > top:
                continue
            matrix = sq_matrix(i, p, space, table)
            results.append({"i": i, "p": p, "matrix": matrix})
    if args.json:
        print(json.dumps({"space": space.name, "squares": results}))
    else:
        for r in results:
            print(f"Sq^{r['i']}: H^{r['p']} -> H^{r['p'] + r['i']}  columns = {r['matrix']}")
    return EXIT_OK


def _cmd_homology(args) -> int:
    ring = _ring(args)
    space = _load_input(args)
    if isinstance(space, SimplicialSetPresentation):
        complex_ = space.normalized_chains(ring)
        top = space.truncation_dim - 1
        if top < 0:
            raise ValueError(f"truncation_dim {space.truncation_dim} determines no homology degree")
    else:
        complex_ = space.chains(ring)
        top = space.dimension
    # top-down, so that over a field ∂ₙ₊₁'s pivots clear the reduction of ∂ₙ
    groups = {degree: str(homology(complex_, degree)) for degree in range(top, -1, -1)}
    rows = [{"degree": degree, "group": groups[degree]} for degree in range(top + 1)]
    if args.json:
        print(json.dumps({"space": space.name, "ring": str(ring), "homology": rows}))
    else:
        for r in rows:
            print(f"H_{r['degree']} = {r['group']}")
    return EXIT_OK


def _cmd_info(args) -> int:
    space = _load_input(args)
    counts = {n: len(space.cells[n]) for n in sorted(space.cells)}
    info = {"name": space.name, "cells": counts}
    if isinstance(space, SimplicialSetPresentation):
        info["kind"] = "simplicial"
        info["truncation_dim"] = space.truncation_dim
        info["strict"] = space.strict
        info["degeneracy_free"] = is_degeneracy_free(space)
        core_complex, _ = core(space)
        info["core_cells"] = {n: len(core_complex.cells[n]) for n in sorted(core_complex.cells)}
    else:
        info["kind"] = "delta"
        info["degeneracy_free"] = True  # freely-degenerate closure of a delta-complex
        info["core_cells"] = counts
    if args.json:
        print(json.dumps(info))
    else:
        print(f"name: {info['name']}")
        print(f"kind: {info['kind']}")
        print(f"cells per dimension: {info['cells']}")
        print(f"degeneracy-free: {str(info['degeneracy_free']).lower()}")
        print(f"core cells per dimension: {info['core_cells']}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    # the suite is written for truncations 3 and 4: below 3 its presentations
    # lack cells that its checks read
    if args.truncation not in (3, 4):
        raise ValueError(f"--truncation must be 3 or 4, got {args.truncation}")
    if args.max_k < 0:
        raise ValueError(f"--max-k must be nonnegative, got {args.max_k}")
    from .suite import SuiteConfig, run_suite

    cfg = SuiteConfig(only=args.only, max_k=args.max_k, include_slow=args.slow, truncation=args.truncation)
    report = run_suite(cfg)
    if args.json:
        print(json.dumps(report))
    else:
        for item in report["items"]:
            print(f"[{item['status']:9s}] {item['name']}: {item['detail']}")
        print(f"{'PASS' if report['passed'] else 'FAIL'} ({report['failures']} failures)")
    return EXIT_OK if report["passed"] else EXIT_FAIL


def main(argv: Optional[list] = None) -> int:
    # a command builds no cycle worth a collection: see README, "Garbage collector";
    # the pause covers parsing too: where argparse runs, its import and regex compiles can start one
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _dispatch(_parse(argv) or _build_parser().parse_args(argv))
    finally:
        if enabled:
            gc.enable()


def _dispatch(args) -> int:
    handlers = {
        "diag": _cmd_diag,
        "sq": _cmd_sq,
        "homology": _cmd_homology,
        "info": _cmd_info,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        raise  # the reader closed standard output: no fault of the program, see run()
    except Exception as exc:  # a fault of the program: one line, no traceback, its own code
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    """The process entry (``python -m steenrod_kit.cli`` and the
    ``steenrod-kit`` script): ``main`` with the cyclic collector off, then
    the heap frozen, so the interpreter's collection at exit walks nothing
    the command built.  ``main`` leaves the collector as it found it and
    never freezes, since tests and tools call it in process.

    A reader that closes standard output early (``| head``) ends the process
    with exit code 1 and nothing on stderr: standard output is pointed at
    ``os.devnull``, so the flush at exit does not fail again (the recipe of
    the Python docs on SIGPIPE)."""
    gc.disable()
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_FAIL
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
