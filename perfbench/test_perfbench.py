"""The benchmark's own tests: count-type layer metrics repeat exactly, and
samples are scaled by the reference ticks around them.

A later change may claim a gain from a count (say, fewer canonical_form
calls) only when the count is identical on every run of one seed.  Each
workload runs traced twice, in fresh processes with different hash seeds,
and every ``count`` and ``ratio`` metric must match.  It takes a few
minutes:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import calibrate

HERE = Path(__file__).resolve().parent


def traced_counts(workload: str, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True, cwd=HERE.parent, env=env,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] in ("count", "ratio")
    }


@pytest.mark.parametrize("workload", ["closure-cold", "block-restriction", "decide-mix"])
def test_counts_repeat_across_runs(workload):
    first = traced_counts(workload, "1")
    assert first["canonical.canonical_form.calls"] > 0
    assert traced_counts(workload, "2") == first


def test_span_takes_its_ticks_and_the_nearest_on_each_side():
    ticker = calibrate.Ticker(0.1, 2)
    ticker.ticks = [(0.0, 0.01, 0.004), (1.0, 1.01, 0.006), (2.0, 2.01, 0.008)]
    spent, unit_s = ticker.inside(0.5, 1.5)
    assert spent == pytest.approx(0.01)
    assert unit_s == pytest.approx(0.006)
    spent, unit_s = ticker.inside(0.02, 0.5)
    assert spent == 0
    assert unit_s == pytest.approx(0.005)
    nominal = calibrate.to_nominal(1.0, 2 * calibrate.NOMINAL_UNIT_S)
    assert nominal == pytest.approx(0.5)


def test_ticker_ticks_while_running():
    with calibrate.Ticker(0.01, 1) as ticker:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(ticker.ticks) >= 3
    assert all(u > 0 for _, _, u in ticker.ticks)
