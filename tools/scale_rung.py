#!/usr/bin/env python3
"""Times the CLI on RPⁿ, the scale rung of the roadmap (n = 5 by default).

    python3 tools/scale_rung.py [--n N] [--rings R ...] [--src DIR]

Writes RPⁿ, built from ``make_corpus.rpn_facets(n)``, as a complex document
into a temporary directory.  Then it runs ``info``, ``sq --i 1 --p 1`` and
``homology --ring R`` for each ring R (default: ``f2``; add ``q`` and ``z``
on request), each through ``steenrod_kit.cli.main`` in one fresh process,
then once more as a fresh ``python -m steenrod_kit.cli`` process, both
importing the package from DIR (default: this checkout's ``src``).

Prints one JSON line per command:

* ``wall_s``: seconds inside ``cli.main``, which runs the command with the
  cyclic garbage collector off;
* ``peak_rss_mb``: the process's peak resident set, from ``os.wait4``;
* ``exit`` and ``output``: the command's exit code and what it printed;
* ``process_wall_s`` and ``process_peak_rss_mb``: the whole ``python -m``
  process, from its start to its end (interpreter start, import, the
  command and the exit), and its peak resident set; ``process_wall_s``
  minus ``wall_s`` is what the process spends outside ``cli.main``.  A
  ``python -m`` run whose exit code or output differs from the
  ``cli.main`` run is reported as ``process_mismatch`` and fails the rung.

Nothing is written under the checkout: the document goes to a temporary
directory, and no process writes bytecode.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from make_corpus import rpn_facets  # noqa: E402  (puts the checkout's src on sys.path)
from steenrod_kit.documents import save_complex  # noqa: E402
from steenrod_kit.simplicial import DeltaComplex  # noqa: E402

# runs in the fresh process: argv is the CLI's
CHILD = r"""
import io, json, sys, time
from contextlib import redirect_stdout

import steenrod_kit.cli as cli

out = io.StringIO()
start = time.perf_counter()
with redirect_stdout(out):
    code = cli.main(sys.argv[1:])
wall = time.perf_counter() - start
print(json.dumps({"exit": code, "wall_s": wall, "output": out.getvalue()}))
"""


def _spawn(args: list, src: Path):
    """Runs ``python args`` to its end: (stdout, exit code, rusage, wall seconds)."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, text=True
    )
    text = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    return text, os.waitstatus_to_exitcode(status), usage, time.perf_counter() - start


def run(argv: list, src: Path) -> dict:
    """``cli.main(argv)`` in one fresh process, with its peak RSS, and the
    whole of one fresh ``python -m steenrod_kit.cli`` process."""
    text, code, usage, _ = _spawn(["-c", CHILD, *argv], src)
    lines = text.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"exit": None, "error": text.strip()[-400:]}
    result["process_exit"] = code
    result["peak_rss_mb"] = round(usage.ru_maxrss / 1024, 1)  # kB on Linux
    text, code, usage, wall = _spawn(["-m", "steenrod_kit.cli", *argv], src)
    result["process_wall_s"] = wall
    result["process_peak_rss_mb"] = round(usage.ru_maxrss / 1024, 1)
    if (code, text) != (result["exit"], result.get("output")):
        result["process_mismatch"] = {"exit": code, "output": text.strip()[-400:]}
    return result


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=5, help="dimension of the projective space (default 5)")
    parser.add_argument("--rings", nargs="+", default=["f2"], help="rings of the homology runs (default f2)")
    parser.add_argument("--src", type=Path, default=HERE.parent / "src", help="source tree to run (default: src)")
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("--n must be at least 1")
    name = f"rp{args.n}"
    commands = [["info"], ["sq", "--i", "1", "--p", "1"], *(["homology", "--ring", r] for r in args.rings)]
    failed = False
    with tempfile.TemporaryDirectory(prefix="scale-rung-") as tmp:
        document = Path(tmp) / f"{name}.json"
        save_complex(DeltaComplex.from_facets(rpn_facets(args.n), name=name), document)
        for command in commands:
            result = {"space": name, "command": " ".join(command), **run([*command, "--input", str(document)], args.src)}
            failed |= result["exit"] != 0 or "process_mismatch" in result
            print(json.dumps(result, ensure_ascii=False), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
