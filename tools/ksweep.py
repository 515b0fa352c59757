"""Measure `train`'s memory and time against the subdomain count k.

    python3 tools/ksweep.py [--ks 1,2,4,8] [--n-x N] [--runs N] [--out FILE]

The ddrom under this checkout's ``src/`` is measured, on the data of the
ring40k-k4-fixed benchmark workload at ``SEED`` (its n_x replaced by
``--n-x`` if given), made once by ``gen``.  Every k trains with that
workload's r, overlap and regression weights; k = 1 is ``topology =
single``.  How each k is measured is ``PROTOCOL``.  The JSON written to
``--out`` (or printed) holds one row per k and, for each k > 1, the traced,
resident and printed reductions against k = 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from ddrom.cli import parse_config, serialize_config  # noqa: E402
from perfbench.child import peak_rss_bytes  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

WORKLOAD = "ring40k-k4-fixed"
SEED = 2
BLAS_THREADS = "2"
MB = 1e6
PROTOCOL = (
    "for each k one fresh interpreter, BLAS at 2 threads as in perfbench, "
    "runs train in process 2 + runs times: first untraced, reading VmHWM "
    "before and after (the difference is the resident peak above the import "
    "floor of ddrom.cli; this run's stdout gives the block bytes and the "
    "ratio train prints), then once under tracemalloc (the traced peak), "
    "then runs times from a collected heap (train_s is their median)"
)
TRAIN_LINE = re.compile(r"training matrix: (\d+) bytes full, (\d+) bytes "
                        r"largest subdomain \(x([0-9.]+) reduction\)")


def _child(cfg: str, runs: int) -> None:
    """Measure ``train`` on ``cfg`` in this fresh process; print JSON."""
    import tracemalloc

    from ddrom.cli import main

    argv = ["train", "--config", cfg]

    def train():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if main(argv) != 0:
                raise SystemExit(f"train failed on {cfg}")
        return out.getvalue()

    floor = peak_rss_bytes()
    stdout = train()
    vmhwm = peak_rss_bytes()
    gc.collect()
    tracemalloc.start()
    train()
    traced = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    times = []
    for _ in range(runs):
        gc.collect()
        t0 = time.perf_counter()
        train()
        times.append(time.perf_counter() - t0)
    json.dump({"floor": floor, "vmhwm": vmhwm, "traced": traced,
               "times": times, "stdout": stdout}, sys.stdout)


def config(work: Path, k: int, n_x: int | None) -> str:
    """The workload's config at ``SEED`` split into ``k`` sectors (one
    domain for k = 1), writing its model and reports under ``work/k{k}``."""
    cfg = parse_config(WORKLOADS[WORKLOAD].config_text(SEED, str(work)))
    if n_x is not None:
        cfg["fom"]["n_x"] = str(n_x)
    cfg["paths"]["artifact"] = str(work / f"k{k}" / "model.bin")
    cfg["paths"]["output_dir"] = str(work / f"k{k}" / "reports")
    if k == 1:
        cfg["decomposition"] = {"topology": "single", "k": "1", "overlap": "0"}
    else:
        cfg["decomposition"]["k"] = str(k)
    return serialize_config(cfg)


def _run(args: list[str]) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(args)} failed:\n{proc.stdout}{proc.stderr}")
    return proc.stdout


def sweep(ks, n_x: int | None, runs: int, work: Path) -> dict:
    """One row per k and the reductions against k = 1 (if swept)."""
    rows = []
    for k in ks:
        cfg = work / f"k{k}.cfg"
        cfg.write_text(config(work, k, n_x))
        if not rows:  # every k reads the same snapshot file
            _run(["-m", "ddrom.cli", "gen", "--config", str(cfg)])
        got = json.loads(_run([__file__, "--child", str(cfg), str(runs)]))
        match = TRAIN_LINE.search(got["stdout"])
        rows.append({
            "k": k,
            "full_bytes": int(match[1]),
            "largest_block_bytes": int(match[2]),
            "printed_ratio": float(match[3]),
            "traced_peak_mb": got["traced"] / MB,
            "vmhwm_mb": got["vmhwm"] / MB,
            "import_floor_mb": got["floor"] / MB,
            "vmhwm_minus_floor_mb": (got["vmhwm"] - got["floor"]) / MB,
            "train_s_runs": got["times"],
            "train_s": statistics.median(got["times"]),
        })
    base = next((row for row in rows if row["k"] == 1), None)
    reductions = {
        f"k1_to_k{row['k']}": {
            "traced": base["traced_peak_mb"] / row["traced_peak_mb"],
            "resident": base["vmhwm_minus_floor_mb"] / row["vmhwm_minus_floor_mb"],
            "printed": row["printed_ratio"] / base["printed_ratio"],
        }
        for row in rows if base is not None and row is not base
    }
    return {"rows": rows, "measured_reduction": reductions}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args[:1] == ["--child"]:
        _child(args[1], int(args[2]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ks", default="1,2,4,8")
    parser.add_argument("--n-x", type=int, default=None)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--out", type=Path, default=None)
    opts = parser.parse_args(args)
    ks = [int(k) for k in opts.ks.split(",")]
    with tempfile.TemporaryDirectory(prefix="ddrom-ksweep-") as tmp:
        result = sweep(ks, opts.n_x, opts.runs, Path(tmp))
    sections = parse_config(config(Path("."), 2, opts.n_x))
    report = {
        "what": "train's largest block, traced peak, resident peak and time "
                "against the subdomain count k",
        "command": "python3 tools/ksweep.py " + " ".join(args),
        "host": f"{os.cpu_count()} cores, {platform.system()}, Python "
                f"{platform.python_version()}, numpy {numpy.__version__}, scipy "
                f"{scipy.__version__}, BLAS threads {BLAS_THREADS}",
        "data": {"workload": WORKLOAD, "seed": SEED, "fom": sections["fom"],
                 "time": sections["time"], "pod": sections["pod"],
                 "opinf": sections["opinf"],
                 "overlap": sections["decomposition"]["overlap"]},
        "protocol": PROTOCOL,
        **result,
    }
    text = json.dumps(report, indent=1) + "\n"
    if opts.out is None:
        sys.stdout.write(text)
    else:
        opts.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
