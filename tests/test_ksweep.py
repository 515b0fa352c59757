"""tools/ksweep.py: a small sweep reports one measured row per k."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_small_sweep_reports_every_k(tmp_path):
    out = tmp_path / "ksweep.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ksweep.py"), "--n-x", "256",
         "--ks", "1,2", "--runs", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(out.read_text())
    assert report["data"]["fom"]["n_x"] == "256"
    one, two = report["rows"]
    assert (one["k"], two["k"]) == (1, 2)
    # 300 training columns of 256 points; two sectors of 0.15 rad overlap
    # each hold a little more than half of them
    assert one["full_bytes"] == two["full_bytes"] == 8 * 256 * 300
    assert one["largest_block_bytes"] == one["full_bytes"]
    assert one["full_bytes"] / 2 < two["largest_block_bytes"] < one["full_bytes"]
    assert one["printed_ratio"] == 1.0
    assert two["printed_ratio"] == round(
        two["full_bytes"] / two["largest_block_bytes"], 2)
    for row in (one, two):
        assert row["traced_peak_mb"] > row["largest_block_bytes"] / 1e6
        assert row["vmhwm_minus_floor_mb"] >= 0.0
        assert row["import_floor_mb"] > 0.0
        assert len(row["train_s_runs"]) == 1 and row["train_s"] > 0.0
    assert set(report["measured_reduction"]) == {"k1_to_k2"}
    assert report["measured_reduction"]["k1_to_k2"]["printed"] == two["printed_ratio"]
