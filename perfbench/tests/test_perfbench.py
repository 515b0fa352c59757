"""Tests of the benchmark itself: workload seeds, the tracer and its counts.

They use the smallest workload with a cut-down search grid, so they run in
a few seconds alongside the package's own tests.
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import ddrom  # noqa: E402
from ddrom.cli import parse_config  # noqa: E402
from harness import Pipeline  # noqa: E402
from tracing import Tracer, layer_metrics, layer_self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNTS = ("opinf.solves", "rom.roll_steps", "regsearch.candidates", "pod.calls")


def _small_search():
    """The Burgers per-subdomain workload with a 3x3 grid (81 candidates)."""
    base = WORKLOADS["burgers64-k2-rk4-persub"]
    grid = "1e-06, 0.0001, 0.01"
    search = {**base.sections["regsearch"], "lambda_linear": grid, "lambda_quadratic": grid}
    return dataclasses.replace(
        base, name="burgers-small", sections={**base.sections, "regsearch": search}
    )


def _traced_run(tmp_path: Path, tag: str):
    pipe = Pipeline(_small_search(), 7, tmp_path / tag, ROOT / "src")
    assert ddrom.cli.main(["gen", "--config", str(pipe.config)]) == 0
    tracer = Tracer(memory=True)
    with tracer.installed(ddrom):
        roots, _ = pipe.traced_iteration(tracer)
    assert pipe.checks.failed == 0, pipe.checks.problems
    return tracer, roots


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_generator_values_not_sizes(name):
    w = WORKLOADS[name]
    a = parse_config(w.config_text(1, "work"))
    b = parse_config(w.config_text(2, "work"))
    va, vb = float(a["fom"].pop(w.perturbed)), float(b["fom"].pop(w.perturbed))
    assert va != vb
    nominal = float(w.fom[w.perturbed])
    assert abs(va / nominal - 1.0) <= w.spread and abs(vb / nominal - 1.0) <= w.spread
    assert a == b  # every size, grid and weight is the same
    assert w.config_text(1, "work") == w.config_text(1, "work")


def test_layer_counts_repeat_across_runs(tmp_path):
    first = layer_metrics(*_traced_run(tmp_path, "a"))
    second = layer_metrics(*_traced_run(tmp_path, "b"))
    for name in COUNTS:
        assert first[name] == second[name], name
    # 81 candidates, each fitting both subdomains; 9 weight pairs per subdomain
    assert first["regsearch.candidates"] == 81
    assert first["opinf.solves"] == 2 * 81
    assert first["opinf.distinct_fit_ratio"] == pytest.approx(18 / 162)
    assert first["rom.roll_steps"] > 0


def test_self_times_add_up_to_command_time(tmp_path):
    tracer, roots = _traced_run(tmp_path, "c")
    assert [r.name for r in roots] == ["cli.train", "cli.predict", "cli.evaluate"]
    selfs = layer_self_times(tracer, roots)
    assert selfs["cli"] > 0.0
    assert {"core", "pod", "opinf", "rom", "regsearch", "metrics"} <= selfs.keys()
    command_time = sum(r.duration for r in roots)
    assert sum(selfs.values()) == pytest.approx(command_time, rel=1e-9, abs=1e-9)
    assert min(selfs.values()) >= 0.0


def test_tracer_wraps_names_imported_by_value_and_restores_them():
    originals = (ddrom.cli.load_snapshots, ddrom.regsearch.roll_reduced, ddrom.rom.recombine)
    tracer = Tracer(memory=False)
    tracer.install(ddrom)
    try:
        wrapped = (ddrom.cli.load_snapshots, ddrom.regsearch.roll_reduced, ddrom.rom.recombine)
        assert all(w is not o for w, o in zip(wrapped, originals))
    finally:
        tracer.uninstall()
    assert (ddrom.cli.load_snapshots, ddrom.regsearch.roll_reduced, ddrom.rom.recombine) == originals


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "pulse512-k4-search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
