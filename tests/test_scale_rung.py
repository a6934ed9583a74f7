"""Smoke test of ``tools/scale_rung.py`` on RP², the smallest rung."""

import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _files():
    return {p for p in ROOT.rglob("*") if p.is_file() and not {"__pycache__", ".pytest_cache", ".hypothesis", ".git"} & set(p.parts)}


def test_scale_rung_times_each_command_in_its_own_process():
    before = _files()
    start = time.perf_counter()
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "scale_rung.py"), "--n", "2"],
                         capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert run.returncode == 0, run.stdout + run.stderr
    rows = [json.loads(line) for line in run.stdout.splitlines()]
    assert [r["command"] for r in rows] == ["info", "sq --i 1 --p 1", "homology --ring f2"]
    for r in rows:
        assert r["space"] == "rp2" and r["exit"] == 0 and r["process_exit"] == 0
        assert r["wall_s"] > 0 and r["peak_rss_mb"] > 0 and not {"gc_s", "collections"} & set(r)
        # the whole python -m process includes the interpreter start and the import
        assert r["process_wall_s"] > r["wall_s"] and r["process_peak_rss_mb"] > 0 and "process_mismatch" not in r
    assert "cells per dimension: {0: 13, 1: 36, 2: 24}" in rows[0]["output"]
    assert rows[1]["output"] == "Sq^1: H^1 -> H^2  columns = [[1]]\n"
    assert rows[2]["output"] == "H_0 = F2^1\nH_1 = F2^1\nH_2 = F2^1\n"
    assert _files() == before  # the document went to a temporary directory
    assert elapsed < 2.0
