"""Smoke tests of the command-line scripts under ``scripts/``.

Each script runs in a fresh interpreter on the smallest useful settings;
the tests check that it exits 0 and writes the files it documents.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_pvalue_accuracy_writes_one_row_per_setting_and_run(tmp_path):
    out = tmp_path / "accuracy.csv"
    done = run_script("pvalue_accuracy.py", "--runs", "1", "--permutations", "50", "--output", str(out))
    assert done.returncode == 0, done.stderr
    header, *rows = out.read_text(encoding="utf-8").splitlines()
    assert header.startswith("n1,n2,edge_average,")
    assert len(rows) == 4
    assert all(len(row.split(",")) == len(header.split(",")) for row in rows)


def test_run_power_study_writes_a_csv_and_json_per_variant(tmp_path):
    done = run_script("run_power_study.py", "--replicates", "2", "--scenarios", "S1",
                      "--outdir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    for tag in ("S1_balanced", "S1_unbalanced"):
        assert (tmp_path / f"{tag}.csv").read_text(encoding="utf-8").strip()
        assert json.loads((tmp_path / f"{tag}.json").read_text(encoding="utf-8"))["config"]
