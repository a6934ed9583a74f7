#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the steenrod-kit CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from a source checkout: the program is imported from ``src/``, nothing is
installed.  Each iteration of a workload starts fresh ``python -m
steenrod_kit.cli`` processes one after another (a closed loop with one client
and no threads) and checks every output against literal expected values that
do not come from the code under test.  Iterations repeat for about
``--seconds`` seconds (default: ``run_seconds`` in BENCHMARK.json).  Every
process gets its own empty diagonal-table cache inside this checkout.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs untraced and
traced iterations in turn and prints the per-layer metrics, derived from the
spans ``tracer.py`` records around the program's layer entry points.  The last
line of standard output is the result object; the line before it holds
provenance, sample counts, quartiles and failures by kind.  End-to-end times
are in reference seconds: each is scaled by a fixed reference job timed right
before it on the same CPU, so that the shared machine's changes of speed move
them little (see README.md).  The workloads,
metric names, units and bounds are those of BENCHMARK.json; see README.md in
this directory for what each workload exercises.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import spaces

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = SRC / "steenrod_kit" / "corpus"
WORK = HERE / ".work"
TRACER = HERE / "tracer.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

DEFAULT_SEED = 0
HELD_OUT_SEED = 97  # never used while tuning the benchmark; reserve it for claims
SETUP_SAMPLES_PER_ITERATION = 2
# about what the reference job's median takes on a 2-vCPU shared virtual
# machine with Python 3.11; a fixed scale, never to change once runs are compared
REFERENCE_NOMINAL_S = 0.2
PROCESS_TIMEOUT_S = 90.0
RUN_BUDGET_S = 150.0  # no process outlives this; a run must exit within 180 s
# so the last iteration still starts with a full process timeout left
MAX_SECONDS = RUN_BUDGET_S - PROCESS_TIMEOUT_S

# ---------------------------------------------------------------------------
# Oracles: literal expected outputs
# ---------------------------------------------------------------------------

# Sq^1: H^1(RP^n; F2) -> H^2 sends x to x^2 (Mosher–Tangora); the same on RP^2.
SQ1_ON_H1 = [{"i": 1, "p": 1, "matrix": [[1]]}]

# The Klein bottle: H_* = Z, Z + Z/2, 0, and by universal coefficients
# Q^1, Q^1, Q^0 and F3^1, F3^1, F3^0 (3 does not divide the torsion).
KLEIN_GROUPS = {
    "z": ["Z", "Z + Z/2", "0"],
    "q": ["Q^1", "Q^1", "Q^0"],
    "f3": ["F3^1", "F3^1", "F3^0"],
}

# The fast tier of `verify`: the two documented deviations, the slow RP^4 item
# skipped, everything else passing.
VERIFY_FAST = {
    "prop-c4": "pass",
    "golden-b2": "pass",
    "golden-b3": "deviation",
    "golden-degenerate": "deviation",
    "chain-map": "pass",
    "equivariance": "pass",
    "prime3": "pass",
    "naturality": "pass",
    "cache-roundtrip": "pass",
    "homology-corpus": "pass",
    "sq-corpus": "pass",
    "sq-rp4": "skipped",
    "dold-kan-roundtrip": "pass",
    "moore-pointed": "pass",
    "reduced-homology": "pass",
    "gamma-retraction": "pass",
    "hurewicz-xi": "pass",
    "hurewicz-normalized": "pass",
    "degeneracy-freeness": "pass",
    "vandermonde": "pass",
}
# the shipped documents the fast tier loads
VERIFY_CORPUS = ("delta2", "delta3", "boundary_delta3", "circle", "torus", "rp2", "klein", "counterexample")


def _json_out(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def expect_squares(expected: list) -> Callable[[str, int], bool]:
    return lambda out, code: code == 0 and _json_out(out)["squares"] == expected


def expect_groups(expected: List[str]) -> Callable[[str, int], bool]:
    def check(out: str, code: int) -> bool:
        rows = _json_out(out)["homology"]
        return code == 0 and [(r["degree"], r["group"]) for r in rows] == list(enumerate(expected))

    return check


def expect_statuses(expected: Dict[str, str]) -> Callable[[str, int], bool]:
    def check(out: str, code: int) -> bool:
        report = _json_out(out)
        got = {item["name"]: item["status"] for item in report["items"]}
        return code == 0 and report["passed"] is True and got == expected

    return check


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    args: Tuple[str, ...]  # "{input}" stands for the generated document
    check: Callable[[str, int], bool]  # (stdout, exit code) -> correct?


@dataclass(frozen=True)
class Workload:
    name: str
    commands: Tuple[Command, ...]
    facets: Optional[Callable[[], List[spaces.Facet]]] = None  # None: the program reads its shipped corpus
    space: str = ""

    def inputs(self, seed: int, variant: int, directory: Path) -> Dict[Path, Dict[str, int]]:
        """The documents of one iteration, one per command in command order,
        with their cell counts."""
        if self.facets is None:
            paths = [CORPUS / f"{name}.json" for name in VERIFY_CORPUS]
            return {path: spaces.cell_counts(json.loads(path.read_text(encoding="utf-8"))) for path in paths}
        documents = {}
        for k in range(len(self.commands)):
            path = directory / f"{self.space}-{variant}-{k}.json"
            doc = spaces.delta_document(spaces.relabel(self.facets(), f"{seed}/{variant}/{k}"), self.space)
            spaces.write_document(doc, path)
            documents[path] = spaces.cell_counts(doc)
        return documents


def sq_workload(space: str = "rp4", expected: list = SQ1_ON_H1) -> Workload:
    return Workload(
        name="sq-rp4",
        commands=(Command(("sq", "--input", "{input}", "--i", "1", "--p", "1", "--json"), expect_squares(expected)),),
        facets=lambda: spaces.shipped_facets(CORPUS, space),
        space=space,
    )


def klein_workload(n: int = 6, expected: Dict[str, List[str]] = KLEIN_GROUPS) -> Workload:
    return Workload(
        name="homology-klein",
        commands=tuple(
            Command(("homology", "--input", "{input}", "--ring", ring, "--json"), expect_groups(groups))
            for ring, groups in expected.items()
        ),
        facets=lambda: spaces.klein_facets(n),
        space=f"klein{n}",
    )


def verify_workload(only: Optional[str] = None, expected: Dict[str, str] = VERIFY_FAST) -> Workload:
    args = ("verify", "--json") + (("--only", only) if only else ())
    return Workload(
        name="verify-fast",
        commands=(Command(args, expect_statuses(expected)),),
    )


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    "sq-rp4": sq_workload,
    "homology-klein": klein_workload,
    "verify-fast": verify_workload,
}

# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}  # measured with tracing off
# ".s" is self seconds (a span minus its traced children), ".wall_s" inclusive
# seconds, the rest exact counts
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

_SQ, _KLEIN, _VERIFY = "wall_s on sq-rp4", "wall_s on homology-klein", "wall_s on verify-fast"
_SETUP = "setup_s on every workload; wall_s on sq-rp4"
_SNF = f"{_KLEIN} and peak_rss_mb on homology-klein"
# (per-layer metric name prefix, the end-to-end metric and workload it should
# move); the first matching prefix applies
TARGETS = [
    ("homology.cohomology.", _SQ),
    ("linalg.coordinates.", _SQ),
    ("chains.boundary_matrix.", _SQ),
    ("homology.homology.z.", f"{_SNF}; {_VERIFY}"),
    ("homology.homology.q.", _SNF),
    ("homology.homology.f3.", _SNF),
    ("homology.homology.calls", f"{_KLEIN}; {_VERIFY}"),
    ("dold_kan.", f"{_VERIFY} only"),
    ("diagonal.", _SQ),
    ("cochains.", _SQ),
    ("documents.load_complex.", _SETUP),
    ("simplicial.", _SETUP),
    ("cli.import.", _SETUP),
    ("cli.main.", "wall_s on every workload (time in no traced layer)"),
    ("vandermonde.", _VERIFY),
    ("suite.item.", _VERIFY),
    ("trace.overhead_s", "none: traced minus untraced median wall per iteration"),
]


def target_of(metric: str) -> str:
    return next(target for prefix, target in TARGETS if metric.startswith(prefix))


# per-call sizes recorded by the tracer, by span name
SPAN_COUNTS = {
    "chains.boundary_matrix": "chains.boundary_matrix.nnz",
    "diagonal.table_raw": "diagonal.table_new_entries",
    "cochains.cup_i": "cochains.cup_i.cells",
}


def layer_totals(documents: Sequence[dict]) -> Dict[str, float]:
    """Self seconds, call counts and sizes per span name over the span
    documents of one iteration (one per CLI process)."""
    totals: Dict[str, float] = defaultdict(float)
    for doc in documents:
        spans = doc["spans"]
        covered = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for index, (name, start, end, _, count) in enumerate(spans):
            totals[f"{name}.s"] += end - start - covered[index]
            totals[f"{name}.wall_s"] += end - start
            totals[f"{name}.calls"] += 1
            if name.startswith("homology.homology."):
                totals["homology.homology.calls"] += 1
            if count is not None:
                totals[SPAN_COUNTS[name]] += count
        totals["cli.import.s"] += doc["import_s"]
    return totals


def spans_nest(doc: dict) -> bool:
    """Every span lies inside its parent, and parents come first."""
    spans = doc["spans"]
    for index, (_, start, end, parent, _) in enumerate(spans):
        if start > end or parent >= index:
            return False
        if parent >= 0 and not spans[parent][1] <= start <= end <= spans[parent][2]:
            return False
    return True


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------


def _reference_job() -> int:
    """Fixed pure-Python work of the program's kind (Fraction elimination,
    big-integer dictionary updates) that calls none of the program's code."""
    n = 16
    rows = [[Fraction((7 * i * i + 3 * j + i * j) % 11 - 5) for j in range(n)] for i in range(n)]
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c]), None)
        if p is None:
            continue
        rows[c], rows[p] = rows[p], rows[c]
        inverse = 1 / rows[c][c]
        rows[c] = [x * inverse for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    table: Dict[int, int] = {}
    for k in range(40000):
        key = (k * 7919) % 1009
        table[key] = table.get(key, 1) * 3 % (1 << 200) + k
    return len(table)


def reference_seconds() -> float:
    """Wall time of the fixed reference job (about 0.2 s at the nominal speed)."""
    start = time.perf_counter()
    for _ in range(7):
        _reference_job()
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# Running the CLI
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    wall_s: float
    rss_mb: float
    failure: Optional[str]  # None, "timeout", "exit_code", "traceback" or "wrong_output"
    spans: Optional[dict] = None


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    # measure what an installed package pays: bytecode compiled once (by the
    # probe of the first run) and kept under WORK, never written into src/
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


def run_process(argv: List[str], workdir: Path, timeout: float) -> Tuple[float, float, Optional[int], str, str]:
    """Run one child to completion; returns (wall s, peak RSS MB, exit code or
    None on timeout, stdout, stderr).  The child is killed at ``timeout``."""
    workdir.mkdir(parents=True)
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=_child_env(), cwd=ROOT)
        timed_out = []

        def kill(signum, frame):
            timed_out.append(True)
            proc.kill()

        previous = signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    code = None if timed_out else proc.returncode
    return wall, usage.ru_maxrss / 1024.0, code, stdout, stderr


class Runner:
    """Starts the CLI processes of one benchmark run inside ``directory``."""

    def __init__(self, directory: Path, deadline: float):
        self.directory = directory
        self.deadline = deadline
        self.count = 0
        self.reference: List[float] = []

    def _workdir(self) -> Path:
        # sample the machine's speed right before every process, on its CPU
        self.reference.append(reference_seconds())
        self.count += 1
        return self.directory / f"p{self.count}"

    def _timeout(self) -> float:
        return min(PROCESS_TIMEOUT_S, self.deadline - time.perf_counter())

    def probe(self) -> dict:
        """Warm the bytecode cache and read provenance from the program."""
        code = (
            "import json, steenrod_kit.cli, steenrod_kit.kernel as kernel\n"
            "print(json.dumps({'is_compiled': bool(kernel.IS_COMPILED)}))\n"
        )
        _, _, status, out, err = run_process([sys.executable, "-c", code], self._workdir(), self._timeout())
        if status != 0:
            raise RuntimeError(f"cannot import steenrod_kit.cli: {err.strip()[-400:]}")
        return _json_out(out)

    def setup_once(self, paths: Sequence[Path]) -> Tuple[float, bool]:
        """Fresh-process time to import the CLI and load ``paths``."""
        code = (
            "import sys\nimport steenrod_kit.cli\nfrom steenrod_kit.documents import load_complex\n"
            "for path in sys.argv[1:]:\n    load_complex(path)\n"
        )
        wall, _, status, _, _ = run_process(
            [sys.executable, "-c", code, *map(str, paths)], self._workdir(), self._timeout()
        )
        return wall, status == 0

    def invoke(self, command: Command, document: Optional[Path], traced: bool) -> Outcome:
        workdir = self._workdir()
        args = [str(document) if a == "{input}" else a for a in command.args]
        args += ["--cache", str(workdir / "cache")]
        spans_path = workdir / "spans.json"
        if traced:
            argv = [sys.executable, str(TRACER), str(spans_path), *args]
        else:
            argv = [sys.executable, "-m", "steenrod_kit.cli", *args]
        wall, rss, code, out, err = run_process(argv, workdir, self._timeout())
        if code is None:
            return Outcome(wall, rss, "timeout")
        if "Traceback (most recent call last)" in err:
            return Outcome(wall, rss, "traceback")
        try:
            correct = command.check(out, code)
        except (ValueError, KeyError, TypeError, IndexError):
            correct = False
        if not correct:
            return Outcome(wall, rss, "exit_code" if code != 0 else "wrong_output")
        spans = json.loads(spans_path.read_text(encoding="utf-8")) if traced else None
        return Outcome(wall, rss, None, spans)


# ---------------------------------------------------------------------------
# A run
# ---------------------------------------------------------------------------


def summary_of(values: Sequence[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "samples": len(values), "values": list(values)}


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_revision() -> Optional[str]:
    """HEAD when the checkout is itself a git work tree, else None."""
    # the ceiling keeps git from reading any directory above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def measure(workload: Workload, seed: int, seconds: float, trace: bool, directory: Path) -> Tuple[dict, dict]:
    """One benchmark run; returns (result object, details)."""
    begun = time.perf_counter()
    # one CPU for this process and every child, so the reference job runs
    # where the measured processes run
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        return _measure(workload, seed, seconds, trace, directory, begun)
    finally:
        os.sched_setaffinity(0, cpus)


def _measure(workload: Workload, seed: int, seconds: float, trace: bool, directory: Path,
             begun: float) -> Tuple[dict, dict]:
    runner = Runner(directory, begun + RUN_BUDGET_S)
    program = runner.probe()
    failures: Counter = Counter()
    attempted = 0
    cells: Dict[str, Dict[str, int]] = {}
    setup: List[float] = []
    walls: Dict[bool, List[float]] = {False: [], True: []}
    # untraced times in reference seconds: each divided by the reference job's
    # time sampled right before it, times the nominal reference time
    scaled: Dict[str, List[float]] = {"wall_s": [], "setup_s": []}
    peaks: List[float] = []
    layers: List[Dict[str, float]] = []
    modes = (False, True) if trace else (False,)
    loop_start = time.perf_counter()
    iteration = 0
    while True:
        # every command of every iteration gets its own relabeling, so a run's
        # median spans many of them and depends little on any one
        documents = workload.inputs(seed, iteration, directory)
        paths = list(documents)
        command_inputs = paths if workload.facets else [None] * len(workload.commands)
        cells = cells or {path.name: counts for path, counts in documents.items()}
        # set-up samples spread over the run see the same machine as the iterations
        for _ in range(SETUP_SAMPLES_PER_ITERATION):
            wall, ok = runner.setup_once(paths)
            setup.append(wall)
            scaled["setup_s"].append(wall * REFERENCE_NOMINAL_S / runner.reference[-1])
            attempted += 1
            failures.update([] if ok else ["setup"])
        for traced in modes:
            first = len(runner.reference)
            outcomes = [runner.invoke(c, p, traced) for c, p in zip(workload.commands, command_inputs)]
            attempted += len(outcomes)
            failures.update(o.failure for o in outcomes if o.failure)
            walls[traced].append(sum(o.wall_s for o in outcomes))
            if not traced:
                peaks.append(max(o.rss_mb for o in outcomes))
                reference = statistics.fmean(runner.reference[first:])
                scaled["wall_s"].append(walls[False][-1] * REFERENCE_NOMINAL_S / reference)
            if traced and all(o.spans for o in outcomes):
                layers.append(layer_totals([o.spans for o in outcomes]))
        iteration += 1
        now = time.perf_counter()
        per_iteration = (now - loop_start) / iteration
        # end within half an iteration of the requested length, and in budget
        if now - loop_start + per_iteration / 2 >= seconds or now + per_iteration >= runner.deadline:
            break

    failed = sum(failures.values())
    if trace:
        untraced = statistics.median(walls[False])
        metrics = {}
        for name, unit in PER_LAYER.items():
            values = [layer.get(name, 0.0) for layer in layers] or [0.0]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        metrics["trace.overhead_s"]["value"] = statistics.median(walls[True]) - untraced
    else:
        measured = {**scaled, "peak_rss_mb": peaks}
        metrics = {name: {"value": statistics.median(measured[name]), "unit": unit} for name, unit in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    details = {
        "workload": workload.name,
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "trace": int(trace),
        "iterations": iteration,
        "run_s": time.perf_counter() - begun,
        "fail_ratio": failed / attempted,
        "failures": dict(failures),
        "samples": {
            "wall_s": summary_of(walls[False]),
            "setup_s": summary_of(setup),
            "peak_rss_mb": summary_of(peaks),
            "reference_s": summary_of(runner.reference),
            "scaled_wall_s": summary_of(scaled["wall_s"]),
            "scaled_setup_s": summary_of(scaled["setup_s"]),
            **({"traced_wall_s": summary_of(walls[True])} if trace else {}),
        },
        **({"targets": {name: target_of(name) for name in PER_LAYER}} if trace else {}),
        "provenance": {
            "git_revision": _git_revision(),
            "source_sha256": _source_digest(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "kernel_is_compiled": program["is_compiled"],
            "input_cells": cells,
        },
    }
    return result, details


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must lie in (0, {MAX_SECONDS:g}]")
    if not (SRC / "steenrod_kit" / "cli.py").is_file():
        print(f"error: no steenrod_kit sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        result, details = measure(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace), directory)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
