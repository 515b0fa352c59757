"""Runs one workload's pipeline and measures it.

Command times are taken in this process, around ``ddrom.cli.main``, after a
warm-up iteration, so interpreter start-up and imports stay out of them.
Each timed call starts from a collected heap, commands are interleaved
(train, then predict and evaluate alternately), and sub-second commands
repeat ``reps`` times per iteration.  Set-up time and resident memory come
from fresh child processes.  Traced iterations (spans, tracemalloc) are
never the ones timed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import ddrom
import ddrom.cli
from tracing import MB, Tracer, layer_metrics

COMMANDS = ("train", "predict", "evaluate")
SETUP_REPS = 3  # fresh `ddrom gen` processes behind setup_s
CHILD = Path(__file__).resolve().parent / "child.py"


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def quartiles(values) -> list[float]:
    if len(values) < 2:
        return [median(values)] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def tail(values) -> list | None:
    """[p, value] for the highest of p99, p95, p90, p75 with ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return [p, statistics.quantiles(values, n=100)[p - 1]]
    return None


def host_probe(repeats: int = 5) -> float:
    """Median time of a fixed reference kernel (BLAS matmul plus a Python loop).

    The first repetition, which starts the BLAS thread pool, is dropped.
    """
    a = np.random.default_rng(0).standard_normal((192, 192))
    times = []
    for _ in range(repeats + 1):
        t0 = time.perf_counter()
        b = a
        for _ in range(20):
            b = a @ b
            b /= np.abs(b).max()
        acc = 0
        for i in range(100_000):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return median(times[1:])


def file_digest(path: Path) -> str:
    h = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 22), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class Checks:
    """Counts operations and the ones that failed a check."""

    tolerance: float
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    seen: dict = field(default_factory=dict)
    pred_rel_err: float | None = None
    chosen: str | None = None

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def same(self, key: str, value) -> bool:
        """True when ``value`` matches the first value seen under ``key``."""
        first = self.seen.setdefault(key, value)
        return first == value


class Pipeline:
    """One workload's config and files in a private work directory."""

    def __init__(self, workload, seed: int, workdir: Path, src: Path):
        self.workload = workload
        self.workdir = workdir
        self.src = src
        workdir.mkdir(parents=True, exist_ok=True)
        self.config = workdir / "run.cfg"
        self.config.write_text(workload.config_text(seed, str(workdir)))
        self.checks = Checks(workload.tolerance)

    # -- one command --------------------------------------------------------

    def call(self, command: str, tracer: Tracer | None = None) -> float:
        """Run one command in this process; returns its wall time."""
        gc.collect()
        out = io.StringIO()
        span = None
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            if tracer is not None:
                span = tracer.begin(f"cli.{command}")
            try:
                code = ddrom.cli.main([command, "--config", str(self.config)])
            except Exception as exc:  # a crash is a failed operation, not a crashed run
                code = f"{type(exc).__name__}: {exc}"
            finally:
                if span is not None:
                    tracer.end(span)
            elapsed = time.perf_counter() - t0
        self.check(command, code, out.getvalue())
        return elapsed

    def child(self, command: str) -> tuple[float, float]:
        """Run one command in a fresh interpreter; returns (wall s, peak RSS MB)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.src), env.get("PYTHONPATH", "")) if p
        )
        rss_file = self.workdir / f"{command}.rss"
        argv = [sys.executable, str(CHILD), str(rss_file), command, "--config", str(self.config)]
        with open(self.workdir / f"{command}.stderr", "wb") as err:
            t0 = time.perf_counter()
            code = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=err).returncode
            elapsed = time.perf_counter() - t0
        self.check(command, code, None)
        rss = int(rss_file.read_text()) / MB if code == 0 else 0.0
        return elapsed, rss

    # -- correctness ----------------------------------------------------------

    def check(self, command: str, code, stdout: str | None) -> None:
        c = self.checks
        c.attempted += 1
        if code != 0:
            c.fail(f"{command} exited with {code}")
            return
        if command == "gen":
            if not c.same("snapshots", file_digest(self.workdir / "snapshots.bin")):
                c.fail("gen wrote different snapshot bytes")
        elif command == "train":
            if not c.same("artifact", file_digest(self.workdir / "model.bin")):
                c.fail("train wrote different artifact bytes")
            if stdout is not None and self.workload.searched:
                chosen = next(
                    (line for line in stdout.splitlines() if line.startswith("regularization:")),
                    None,
                )
                if chosen is None or not c.same("chosen", chosen):
                    c.fail(f"search chose {chosen!r}")
                c.chosen = chosen
        elif command == "predict":
            if not c.same("prediction", file_digest(self.workdir / "prediction.bin")):
                c.fail("predict wrote different prediction bytes")
        elif command == "evaluate":
            report = (self.workdir / "reports" / "error_report.csv").read_text()
            err = float(report.splitlines()[1].split(",")[2])
            c.pred_rel_err = err
            if not 0.0 < err <= c.tolerance:
                c.fail(f"prediction error {err:.3e} outside (0, {c.tolerance:g}]")

    # -- phases ---------------------------------------------------------------

    def setup(self) -> list[float]:
        """Fresh ``ddrom gen`` processes: start-up, import, generator, write."""
        return [self.child("gen")[0] for _ in range(SETUP_REPS)]

    def traced_iteration(self, tracer: Tracer) -> tuple[list, float]:
        """train, predict, evaluate once under the tracer; returns (root spans, wall s)."""
        first = len(tracer.spans)
        t0 = time.perf_counter()
        for command in COMMANDS:
            self.call(command, tracer)
        wall = time.perf_counter() - t0
        roots = [s for s in tracer.spans[first:] if s.parent is None]
        return roots, wall

    def plain_iteration(self) -> dict:
        times = {"train": [self.call("train")], "predict": [], "evaluate": []}
        for _ in range(self.workload.reps):
            times["predict"].append(self.call("predict"))
            times["evaluate"].append(self.call("evaluate"))
        return times

    def flush(self) -> None:
        """Write the work files to disk now, so the kernel's delayed writeback
        of the 128 MB snapshot file does not land inside the timed loop."""
        for path in self.workdir.rglob("*"):
            if path.is_file():
                with open(path, "rb") as fh:
                    os.fsync(fh.fileno())

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def _done(start: float, seconds: float, walls: list[float]) -> bool:
    """Stop once less than half of a typical iteration still fits in ``seconds``."""
    left = seconds - (time.perf_counter() - start)
    return left < 0.5 * median(walls)


def _pipeline_s(it: dict) -> float:
    return it["train"][0] + median(it["predict"]) + median(it["evaluate"])


def measure(pipe: Pipeline, seconds: float) -> tuple[dict, dict]:
    """The untraced run: every end-to-end metric, plus diagnostics."""
    diag = {"probe_before_s": host_probe()}
    setups = pipe.setup()

    tracer = Tracer(memory=True)
    with tracer.installed(ddrom):
        roots, _ = pipe.traced_iteration(tracer)  # also the warm-up
    peaks = {s.name.split(".", 1)[1]: s.peak_bytes / MB for s in roots}
    diag["spans"] = {"memory": tracer.to_json()}
    del tracer, roots

    pipe.flush()
    iterations, walls = [], []
    start = time.perf_counter()
    while not pipe.checks.failed:
        t0 = time.perf_counter()
        iterations.append(pipe.plain_iteration())
        walls.append(time.perf_counter() - t0)
        if _done(start, seconds, walls):
            break
    samples = {c: [t for it in iterations for t in it[c]] for c in COMMANDS}
    samples["pipeline"] = [_pipeline_s(it) for it in iterations]

    rss = {c: pipe.child(c)[1] for c in COMMANDS}
    diag["probe_after_s"] = host_probe()

    metrics = {
        "setup_s": (median(setups), "s"),
        **{f"{c}_s": (median(samples[c]), "s") for c in (*COMMANDS, "pipeline")},
        **{f"{c}_peak_mb": (peaks.get(c, 0.0), "MB") for c in COMMANDS},
        **{f"{c}_rss_mb": (rss[c], "MB") for c in COMMANDS},
        "pred_rel_err": (pipe.checks.pred_rel_err or 0.0, "1"),
    }
    diag["iterations"] = len(iterations)
    diag["setup_samples_s"] = setups
    diag["quartiles_s"] = {c: quartiles(v) for c, v in samples.items()}
    diag["tail_s"] = {c: tail(v) for c, v in samples.items()}
    diag["samples"] = {c: len(v) for c, v in samples.items()}
    return metrics, diag


def measure_traced(pipe: Pipeline, seconds: float) -> tuple[dict, dict]:
    """The traced run: per-layer metrics.

    Times and counts are medians over span-only iterations, which alternate
    with untraced ones; the difference of their median wall times is the
    tracing overhead.  Per-layer peaks come from one iteration under
    tracemalloc, which slows small-array code too much to time with it on.
    """
    diag = {"probe_before_s": host_probe()}
    spans = Tracer(memory=False)
    with spans.installed(ddrom):
        gen = spans.begin("cli.gen")
        try:
            code = ddrom.cli.main(["gen", "--config", str(pipe.config)])
        finally:
            spans.end(gen)
    pipe.check("gen", code, None)
    simulate_s = sum(s.duration for s in spans.spans if s.name == "fomlab.simulate")
    timed = [spans.to_json()]

    memory = Tracer(memory=True)
    with memory.installed(ddrom):
        roots, _ = pipe.traced_iteration(memory)  # also the warm-up
    peaks = {n: v for n, v in layer_metrics(memory, roots).items() if n.endswith("peak_mb")}
    memory_json = memory.to_json()
    del memory, roots

    pipe.flush()
    plain, traced, per_iteration = [], [], []
    start = time.perf_counter()
    while not pipe.checks.failed:
        # a fresh tracer per iteration, kept only as text, so the spans do not
        # slow the garbage collections of the untraced iteration that follows
        spans = Tracer(memory=False)
        with spans.installed(ddrom):
            roots, wall = pipe.traced_iteration(spans)
        traced.append(wall)
        per_iteration.append(layer_metrics(spans, roots))
        timed.append(spans.to_json())
        del spans, roots
        t0 = time.perf_counter()
        for command in COMMANDS:
            pipe.call(command)
        plain.append(time.perf_counter() - t0)
        if _done(start, seconds, [a + b for a, b in zip(traced, plain)]):
            break
    diag["probe_after_s"] = host_probe()

    names = per_iteration[0].keys() if per_iteration else ()
    layers = {n: median([m[n] for m in per_iteration]) for n in names}
    layers.update(peaks)
    layers["fomlab.simulate_s"] = simulate_s
    layers["trace.overhead_s"] = median(traced) - median(plain)
    metrics = {n: (v, _unit(n)) for n, v in layers.items()}
    diag["iterations"] = len(per_iteration)
    diag["traced_s"] = traced
    diag["untraced_s"] = plain
    diag["spans"] = {"memory": memory_json, "timed": f"[{', '.join(timed)}]"}
    return metrics, diag


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_us_per_step"):
        return "us"
    if name.endswith("_ratio"):
        return "1"
    return "count"


def run(workload, seed: int, seconds: float, trace: bool, root: Path) -> tuple[dict, dict]:
    """Measure ``workload`` and return (result line, diagnostics line)."""
    tag = f"{workload.name}-trace{int(trace)}"
    workdir = root / "perfbench" / "_work" / f"{tag}-seed{seed}-{os.getpid()}"
    pipe = Pipeline(workload, seed, workdir, root / "src")
    try:
        metrics, diag = (measure_traced if trace else measure)(pipe, seconds)
    finally:
        pipe.cleanup()
    out_dir = root / "perfbench" / "_out"
    out_dir.mkdir(parents=True, exist_ok=True)
    spans_path = out_dir / f"spans-{tag}.json"
    passes = diag.pop("spans")
    spans_path.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in passes.items()) + "}\n")

    checks = pipe.checks
    result = {
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {n: {"value": float(v), "unit": u} for n, (v, u) in metrics.items()},
    }
    diag = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "perturbed": {workload.perturbed: workload.fom_values(seed)[workload.perturbed]},
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "chosen": checks.chosen,
        "problems": checks.problems,
        "spans_file": str(spans_path.relative_to(root)),
        **diag,
    }
    return result, diag
