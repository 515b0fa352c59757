"""tools/parity.py: a tree matches itself, and a differing file says how."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_a_tree_is_identical_to_itself():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "parity.py"), str(ROOT), str(ROOT),
         "readme-burgers-r4"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    # four items per command, six commands, and at least eight files
    assert len(lines) >= 32
    assert all(line.endswith(": identical") for line in lines), proc.stdout
    assert ("readme-burgers-r4  evaluate writes reports/bin_report.csv, "
            "reports/error_report.csv, reports/profiles.csv: identical") in lines
    assert ("readme-burgers-r4  svdreport writes reports/svd_report.csv: "
            "identical") in lines


def test_differing_files_report_how_they_differ(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "parity", ROOT / "tools" / "parity.py")
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("x,y\n1.0,2.0\n")
    b.write_text("x,y\n1.0,2.5\n")
    assert parity._detail(a, b) == "max abs 5.000e-01, max rel 2.000e-01"
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    a.write_bytes(b"\x00\x01\x02\x03")
    b.write_bytes(b"\x00\x01\x07\x03")
    assert parity._detail(a, b) == "first differing byte at offset 2"
