"""Say whether two source trees of ddrom write the same outputs.

    python3 tools/parity.py PARENT_ROOT CHANGE_ROOT [CONFIG ...]

Each root is a checkout that holds ``src/``; a parent commit can be
unpacked with ``git archive HEAD | tar -x -C DIR``.  For every config named
in ``CONFIGS`` (or only those given), each tree runs ``gen``, ``decompose``,
``svdreport``, ``train``, ``regsearch`` (searched configs only),
``predict`` and ``evaluate`` in one fresh interpreter with its own ``src``
on ``PYTHONPATH``.  The configs are written, and differing snapshot files
read, with the ddrom of the checkout that holds this script.

One line is printed per item: each written file's SHA-256, and each
command's stdout, stderr, exit code and the files it wrote (those whose
modification time it set, so a command that rewrites another's file with
the same bytes is still seen).  Stdout is compared with the work
directory and the resident-memory figure masked.  A line reads
``identical`` or ``differs``; a differing snapshot file or numeric CSV also
gets its largest absolute and relative difference, and any other differing
file its first differing byte.  The exit status is 0 only when every item
is identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from ddrom.cli import parse_config, serialize_config  # noqa: E402
from ddrom.core import load_snapshots  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

WORK = "@WORK@"  # stands for each tree's own work directory
SEED = 1
COMMANDS = ("gen", "decompose", "svdreport", "train", "regsearch", "predict",
            "evaluate")

README_BURGERS = f"""\
[paths]
snapshots = {WORK}/snaps.bin
artifact = {WORK}/model.bin
prediction = {WORK}/pred.bin
output_dir = {WORK}/reports

[time]
n_train = 25

[fom]
kind = burgers
n_x = 64
nu = 0.02
dt = 0.0001
n_steps = 3000
stride = 100

[preprocess]
scaling = max_abs

[decomposition]
topology = annular
k = 2
overlap = 0.4

[pod]
r = 4

[opinf]
form = discrete
lambda_linear = 1e-8
lambda_quadratic = 1e-6
"""

# one domain, std_dev scaling and the reciprocal transform, whose predict
# runs the inverse kernel
PULSE_RECIPROCAL = f"""\
[paths]
snapshots = {WORK}/snaps.bin
artifact = {WORK}/model.bin
prediction = {WORK}/pred.bin
output_dir = {WORK}/reports

[time]
n_train = 150

[fom]
kind = rotating_pulse
n_x = 600
n_pulses = 2
wave_speed = 1.0
length = 1.0
pulse_width = 0.2
dt = {1.0 / 1280.0!r}
n_steps = 2000
stride = 10

[preprocess]
scaling = std_dev
transforms = reciprocal

[decomposition]
topology = single
k = 1
overlap = 0.0

[pod]
r = 3

[opinf]
form = discrete
lambda_linear = 1e-3
lambda_quadratic = 1e-1
"""


# the only route through the damped_sine generator and the interval
# decomposition and weights; its field is constant in time, so every
# command that fits the scaling refuses its zero scale
DAMPED_SINE_INTERVAL = f"""\
[paths]
snapshots = {WORK}/snaps.bin
artifact = {WORK}/model.bin
prediction = {WORK}/pred.bin
output_dir = {WORK}/reports

[time]
n_train = 20

[fom]
kind = damped_sine
n_x = 200
decay = 3.0
frequency = 20.0
dt = 0.01
n_steps = 30
stride = 1

[preprocess]
scaling = max_abs

[decomposition]
topology = interval
k = 3
overlap = 0.1

[pod]
r = 1

[opinf]
form = discrete
lambda_linear = 1e-8
lambda_quadratic = 1e-6
"""


def _with(text: str, section: str, key: str, value: str) -> str:
    cfg = parse_config(text)
    cfg.setdefault(section, {})[key] = value
    return serialize_config(cfg)


def _without(text: str, section: str) -> str:
    cfg = parse_config(text)
    del cfg[section]
    return serialize_config(cfg)


def _energy(text: str, energy: str) -> str:
    """``text`` with its [pod] mode count replaced by an energy target."""
    cfg = parse_config(text)
    cfg["pod"] = {"energy": energy}
    return serialize_config(cfg)


CONFIGS = {
    **{name: w.config_text(SEED, WORK) for name, w in WORKLOADS.items()},
    "burgers64-k2-rk4-persub-scheme4": _with(
        WORKLOADS["burgers64-k2-rk4-persub"].config_text(SEED, WORK),
        "opinf", "derivative_scheme", "4"),
    # a constant term on every candidate: divergences mid-batch mask b too
    "burgers64-k2-rk4-persub-constant": _with(
        WORKLOADS["burgers64-k2-rk4-persub"].config_text(SEED, WORK),
        "opinf", "constant", "true"),
    # energy-mode POD: each subdomain's r follows from its spectrum
    "pulse512-k4-search-energy": _energy(
        WORKLOADS["pulse512-k4-search"].config_text(SEED, WORK), "0.9999"),
    "pulse600-single-std-reciprocal": PULSE_RECIPROCAL,
    "readme-burgers-r4": README_BURGERS,
    "readme-burgers-r5-over-budget": README_BURGERS.replace("r = 4", "r = 5"),
    "readme-burgers-r4-constant": _with(README_BURGERS, "opinf", "constant", "true"),
    "readme-burgers-energy": _energy(README_BURGERS, "0.9999"),
    # every [decomposition] key at its default: one domain
    "readme-burgers-r4-default-topology": _without(README_BURGERS, "decomposition"),
    # predict starts from [paths] ic and evaluate compares with [paths] truth
    "readme-burgers-r4-ic-truth": _with(
        _with(README_BURGERS, "paths", "ic", f"{WORK}/snaps.bin"),
        "paths", "truth", f"{WORK}/snaps.bin"),
    "damped-sine-interval": DAMPED_SINE_INTERVAL,
}

# runs inside each tree's interpreter: every command in turn, in-process,
# noting the files whose mtime it set; every mtime is zeroed before each
# command, so a rewrite of the same bytes still counts as a write
_CHILD = """\
import contextlib, io, json, os, sys
from pathlib import Path
from ddrom.cli import main
def files():
    return sorted(p for p in Path(".").rglob("*") if p.is_file())
runs = []
for command in sys.argv[2:]:
    for path in files():
        os.utime(path, ns=(0, 0))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([command, "--config", sys.argv[1]])
        except Exception as exc:
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code = "raised"
    written = [p.as_posix() for p in files() if p.stat().st_mtime_ns != 0]
    runs.append([command, out.getvalue(), err.getvalue(), code, written])
json.dump(runs, sys.stdout)
"""


def _run_tree(root: Path, text: str, work: Path) -> tuple[dict, dict]:
    """Each command's (stdout, stderr, exit code, files it wrote) and each
    written file."""
    work.mkdir(parents=True)
    cfg = work / "run.cfg"
    cfg.write_text(text.replace(WORK, str(work)))
    commands = [c for c in COMMANDS
                if c != "regsearch" or "regsearch" in parse_config(text)]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(cfg), *commands],
                          cwd=work, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{root}: the interpreter failed:\n{proc.stderr}")
    runs = {}
    for command, out, err, code, written in json.loads(proc.stdout):
        out = out.replace(str(work), "<work>")
        out = re.sub(r"peak resident memory [0-9.]+ MB",
                     "peak resident memory <masked> MB", out)
        runs[command] = (out, err.replace(str(work), "<work>"), code,
                         ", ".join(written) or "nothing")
    files = {p.relative_to(work).as_posix(): p
             for p in sorted(work.rglob("*")) if p.is_file() and p != cfg}
    return runs, files


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _gaps(a: np.ndarray, b: np.ndarray) -> str:
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore"):
        diff = np.where(same, 0.0, np.abs(a - b))
        scale = np.maximum(np.abs(a), np.abs(b))
        rel = np.where(diff > 0.0, diff / scale, 0.0)
    return f"max abs {np.nanmax(diff):.3e}, max rel {np.nanmax(rel):.3e}"


def _csv_gaps(a: Path, b: Path) -> str | None:
    with open(a, newline="") as fa, open(b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if [len(row) for row in rows_a] != [len(row) for row in rows_b]:
        return "different row or column counts"
    if rows_a[0] != rows_b[0]:
        return "different headers"
    try:
        cells = [(float(x), float(y))
                 for ra, rb in zip(rows_a[1:], rows_b[1:])
                 for x, y in zip(ra, rb) if x != y]
    except ValueError:  # a text cell differs
        return None
    return _gaps(*np.array(cells).T) if cells else "same values"


def _detail(a: Path, b: Path) -> str:
    """How two differing files differ."""
    if a.suffix == ".csv":
        gaps = _csv_gaps(a, b)
        if gaps is not None:
            return gaps
    else:
        try:
            x, y = load_snapshots(a).data, load_snapshots(b).data
        except ValueError:  # not a snapshot file: a model artifact
            pass
        else:
            if x.shape != y.shape:
                return f"shapes {x.shape} and {y.shape}"
            return _gaps(x, y)
    da, db = a.read_bytes(), b.read_bytes()
    at = next((i for i, (x, y) in enumerate(zip(da, db)) if x != y),
              min(len(da), len(db)))
    return f"first differing byte at offset {at}"


def compare(name: str, parent: Path, change: Path, work: Path) -> bool:
    """Print one line per item of config ``name``; True if all identical."""
    text = CONFIGS[name]
    runs_a, files_a = _run_tree(parent, text, work / "parent")
    runs_b, files_b = _run_tree(change, text, work / "change")
    items = []
    for command, (out_a, err_a, code_a, writes_a) in runs_a.items():
        out_b, err_b, code_b, writes_b = runs_b[command]
        items.append((f"{command} stdout", "" if out_a == out_b else None))
        items.append((f"{command} stderr", "" if err_a == err_b else None))
        if code_a == code_b:
            items.append((f"{command} exit code {code_a}", ""))
        else:
            items.append((f"{command} exit code",
                          f"parent {code_a}, change {code_b}"))
        if writes_a == writes_b:
            items.append((f"{command} writes {writes_a}", ""))
        else:
            items.append((f"{command} writes",
                          f"parent {writes_a}; change {writes_b}"))
    for rel in sorted(files_a.keys() | files_b.keys()):
        if rel not in files_a or rel not in files_b:
            side = "parent" if rel in files_a else "change"
            items.append((rel, f"written by the {side} only"))
        elif _sha256(files_a[rel]) == _sha256(files_b[rel]):
            items.append((rel, ""))
        else:
            items.append((rel, _detail(files_a[rel], files_b[rel])))
    for item, detail in items:
        verdict = "identical" if detail == "" else "differs"
        if detail:
            verdict += f" ({detail})"
        print(f"{name}  {item}: {verdict}", flush=True)
    return all(detail == "" for _, detail in items)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) < 2 or any(n not in CONFIGS for n in args[2:]):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        print("configs: " + ", ".join(CONFIGS), file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in args[:2])
    ok = True
    for name in args[2:] or CONFIGS:
        with tempfile.TemporaryDirectory(prefix="ddrom-parity-") as tmp:
            ok = compare(name, parent, change, Path(tmp)) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
