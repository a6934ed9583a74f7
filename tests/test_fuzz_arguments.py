"""Drawn command lines through the CLI, in process.

A seeded fuzzer draws argvs from a token grammar: every command and every
declared option, abbreviations, ``--opt=value`` and ``--``, ``-h``, empty
strings, unknown options and the options of other commands, and numbers that
are negative, ``+``-signed, underscored or written in non-ASCII digits.  Every
run must end in exit 0, 1 or 2 (argparse's help and usage errors included),
never in an internal error (exit 3) or a traceback.  Whenever ``cli._parse``
accepts an argv, its namespace must equal argparse's.

Inputs are small corpus documents only, and a ``verify`` line ends in
``--only`` and a fast item, so that no draw runs the whole suite."""

import gc
import io
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from steenrod_kit import cli, documents
from steenrod_kit.cli import COMMANDS, EXIT_FAIL, EXIT_INPUT, EXIT_OK, main

CORPUS = Path(documents.__file__).parent / "corpus"
FAST_ITEMS = ["prop-c4", "golden-b2", "golden-b3", "golden-degenerate", "naturality", "cache-roundtrip"]
NUMBERS = ["0", "1", "2", "3", "9", "-1", "-0", "+1", "+2", "0_1", "1_0", "1__0", "٢", "３", "१", " 2", "1.5", "x", ""]
VALUES = {
    "--input": [str(CORPUS / f"{name}.json") for name in ("circle", "rp2", "delta2", "counterexample", "no-such-space")]
    + [""],
    "--ring": ["z", "q", "f2", "f3", "F2", " q ", "f4", "f", "f١", "f²", "", "-z"],
    "--n": NUMBERS,
    "--i": NUMBERS,
    "--p": NUMBERS,
    "--max-k": NUMBERS,
    "--truncation": NUMBERS,
    "--simplex": ["0,1,2", "0,1", "0", "0,0,1", "2,1", "0,x", "0,١", "-1,0", ""],
    "--cell": ["1,0", "2,0", "0,0", "9,9", "1", "x,1", "1,0,0", "-1,0", ""],
    "--only": FAST_ITEMS + ["no-such-invariant", ""],
}
OPTIONS = {name: [spec[0] for spec in options] for name, (_, options) in COMMANDS.items()}
FLAGS = {spec[0] for _, options in COMMANDS.values() for spec in options if spec[1] is bool}
EVERY_OPTION = sorted({option for options in OPTIONS.values() for option in options})
STRAYS = ["--", "-h", "--help", "", "-", "--bogus", "-x", "--Input", "--json=1", "stray", "sq", "-1"]


def _value(option, rng, cache):
    return cache if option == "--cache" else rng.choice(VALUES[option])


def _words(option, rng, cache):
    """The option written out in full, with one value unless it is a flag."""
    return [option] if option in FLAGS else [option, _value(option, rng, cache)]


def _slot(command, rng, cache):
    """One run of words after the command, mostly well formed."""
    own = OPTIONS.get(command, EVERY_OPTION)
    option = rng.choice(own)
    kind = rng.choices(["full", "equals", "abbreviated", "other", "flag value", "stray"], [12, 2, 2, 2, 1, 2])[0]
    if kind == "full":
        return _words(option, rng, cache)
    if kind == "equals":
        return [f"{option}={'' if option in FLAGS else _value(option, rng, cache)}"]
    if kind == "abbreviated":
        return [option[: rng.randint(3, len(option))]] + _words(option, rng, cache)[1:]
    if kind == "other":
        return _words(rng.choice(EVERY_OPTION), rng, cache)
    if kind == "flag value":
        return [rng.choice(sorted(FLAGS)), rng.choice(["1", "yes", ""])]
    return [rng.choice(STRAYS)]


def _argv(rng, cache):
    command = rng.choices([*COMMANDS, "", "-h", "--help", "hom", "bogus"], [4] * len(COMMANDS) + [1] * 5)[0]
    argv = [command]
    for _ in range(rng.randint(0, 4)):
        argv += _slot(command, rng, cache)
    if command == "verify":
        argv += ["--only", rng.choice(FAST_ITEMS)]
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:  # argparse: 0 after help, 2 on a usage error
            code = stop.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("seed", [0, 1])
def test_drawn_command_lines_exit_0_1_or_2_and_parse_as_argparse_does(seed, tmp_path):
    rng = random.Random(seed)
    parser = cli._build_parser()
    cache = str(tmp_path / "cache")
    accepted = 0
    for _ in range(400):
        argv = _argv(rng, cache)
        fast = cli._parse(argv)
        if fast is not None:
            accepted += 1
            assert vars(fast) == vars(parser.parse_args(argv)), argv
        code, out, err = _run(argv)
        assert code in (EXIT_OK, EXIT_FAIL, EXIT_INPUT), (argv, code, err)
        assert "Traceback" not in out + err and not err.startswith("internal error"), (argv, err)
        if err.startswith("usage: "):  # argparse's usage error: the usage, then one error line
            assert fast is None and code == EXIT_INPUT and ": error: " in err.splitlines()[-1], (argv, err)
        assert gc.isenabled(), argv
    # the comparison is not empty: about a third of the draws are well formed
    assert accepted >= 100
    assert not (tmp_path / "cache").exists()
