"""Spans around ddrom's public functions, recorded from outside the program.

:class:`Tracer` replaces module attributes with wrappers that record one
span per call: name, start, end, parent, the tracemalloc peak above the
level at entry, and a few call attributes (bytes read or written, rollout
steps, ...).  Functions that a module imported by value are wrapped at that
name as well, since a call through the importing module's own global would
otherwise bypass the wrapper.  Spans stay in memory and are kept as JSON
text via :meth:`Tracer.to_json`; ``harness.run`` writes that text to
``perfbench/_out`` once the run is over.

Nothing under ``src/`` knows about this module: :meth:`Tracer.install`
patches the attributes and :meth:`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

MB = 1e6


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    entry_bytes: int = 0
    high_bytes: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def peak_bytes(self) -> int:
        """Largest traced allocation total during the span, above its entry level."""
        return max(self.high_bytes - self.entry_bytes, 0)


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _fit_key(data, rhs, blocks) -> str:
    h = hashlib.blake2b(digest_size=16)
    for arr in (data, rhs):
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    h.update(repr([(int(e), float(lam)) for e, lam in blocks]).encode())
    return h.hexdigest()


def _targets(ddrom):
    """(module, attribute, span name, attribute recorder) for every wrapped call.

    Recorders read positional arguments, as ddrom's own callers pass them.
    The second group lists names imported by value into another module.
    """
    core, preprocess, decomp, pod = ddrom.core, ddrom.preprocess, ddrom.decomp, ddrom.pod
    opinf, rom, regsearch, metrics = ddrom.opinf, ddrom.rom, ddrom.regsearch, ddrom.metrics
    cli, fomlab = ddrom.cli, ddrom.fomlab

    def read(args, result, span):
        span.attrs["bytes"] = _file_bytes(args[0])

    def written(args, result, span):
        span.attrs["bytes"] = _file_bytes(args[1])

    def roll(args, result, span):
        span.attrs["steps"] = int(args[4])

    def solve(args, result, span):
        span.attrs["key"] = _fit_key(*args[:3])

    def searched(args, result, span):
        span.attrs["candidates"] = len(result.trials)
        span.attrs["bounded"] = sum(1 for t in result.trials if t.bounded)

    return [
        (core, "load_snapshots", "core.load", read),
        (core, "save_snapshots", "core.save", written),
        (preprocess, "transform_variables", "preprocess.transform", None),
        (preprocess, "center_scale", "preprocess.center_scale", None),
        (preprocess, "apply_record", "preprocess.apply_record", None),
        (preprocess, "invert_record", "preprocess.invert_record", None),
        (decomp, "decompose_interval", "decomp.decompose", None),
        (decomp, "decompose_sectors", "decomp.decompose", None),
        (decomp, "blending_weights", "decomp.weights", None),
        (decomp, "recombine", "decomp.recombine", None),
        (pod, "compute_basis", "pod.basis", None),
        (pod, "singular_spectrum", "pod.spectrum", None),
        (opinf, "estimate_time_derivatives", "opinf.derivatives", None),
        (opinf, "infer_discrete", "opinf.infer", None),
        (opinf, "infer_continuous", "opinf.infer", None),
        (opinf, "solve_tikhonov", "opinf.solve", solve),
        (rom, "roll_reduced", "rom.roll", roll),
        (rom, "predict_full", "rom.predict", None),
        (rom, "save_rom", "rom.save", None),
        (rom, "load_rom", "rom.load", None),
        (regsearch, "search", "regsearch.search", searched),
        (metrics, "error_report", "metrics.error_report", None),
        (metrics, "pointwise_error_bins", "metrics.bins", None),
        (metrics, "line_probe", "metrics.probe", None),
        (fomlab, "simulate", "fomlab.simulate", None),
        # imported by value
        (cli, "load_snapshots", "core.load", read),
        (cli, "save_snapshots", "core.save", written),
        (regsearch, "infer_discrete", "opinf.infer", None),
        (regsearch, "infer_continuous", "opinf.infer", None),
        (regsearch, "roll_reduced", "rom.roll", roll),
        (rom, "recombine", "decomp.recombine", None),
        (rom, "blending_weights", "decomp.weights", None),
    ]


class Tracer:
    """Records spans for the calls made between :meth:`install` and :meth:`uninstall`.

    With ``memory`` set, tracemalloc runs while a root span is open and each
    span records its own peak: at every span boundary the current tracemalloc
    peak is folded into all open spans and the peak is reset.
    """

    def __init__(self, memory: bool = True):
        self.memory = memory
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._saved: list[tuple] = []

    # -- span bookkeeping ---------------------------------------------------

    def _fold_peak(self) -> int:
        current, peak = tracemalloc.get_traced_memory()
        for s in self._open:
            s.high_bytes = max(s.high_bytes, peak)
        tracemalloc.reset_peak()
        return current

    def begin(self, name: str) -> Span:
        if self.memory and not self._open:
            tracemalloc.start()
        entry = self._fold_peak() if self.memory else 0
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), name, parent, 0.0, entry_bytes=entry, high_bytes=entry)
        self.spans.append(span)
        self._open.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self.memory:
            self._fold_peak()
        popped = self._open.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if self.memory and not self._open:
            tracemalloc.stop()

    def wrap(self, fn, name: str, record=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["raised"] = type(exc).__name__
                step = getattr(exc, "step", None)
                if step is not None:
                    span.attrs["diverged_step"] = int(step)
                raise
            finally:
                self.end(span)
            if record is not None:
                record(args, result, span)
            return result

        return traced

    # -- patching -----------------------------------------------------------

    def install(self, ddrom) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name, record in _targets(ddrom):
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, record))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- results ------------------------------------------------------------

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                out.setdefault(s.parent, []).append(s)
        return out

    def self_times(self) -> dict[int, float]:
        """Duration of each span minus the time its direct children cover."""
        kids = self.children()
        return {
            s.id: s.duration - sum(c.duration for c in kids.get(s.id, ()))
            for s in self.spans
        }

    @contextmanager
    def installed(self, ddrom):
        self.install(ddrom)
        try:
            yield self
        finally:
            self.uninstall()

    def to_json(self) -> str:
        """The spans as JSON text.

        A string is not tracked by the garbage collector, so keeping spans
        in this form does not slow the collections of the calls timed later.
        """
        return json.dumps([asdict(s) for s in self.spans])


def _subtree(spans: list[Span], root: Span) -> list[Span]:
    """``root`` and every span below it; spans are stored in start order."""
    inside = {root.id}
    out = [root]
    for s in spans[root.id + 1 :]:
        if s.parent in inside:
            inside.add(s.id)
            out.append(s)
    return out


def layer_self_times(tracer: Tracer, roots: list[Span]) -> dict[str, float]:
    """Self time per layer (the span name's first part) over the subtrees of ``roots``.

    The values add up to the roots' total duration: every instant of a root
    span belongs to exactly one span's self time.
    """
    selfs = tracer.self_times()
    out: dict[str, float] = {}
    for root in roots:
        for s in _subtree(tracer.spans, root):
            layer = s.name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + selfs[s.id]
    return out


def layer_metrics(tracer: Tracer, roots: list[Span]) -> dict[str, float]:
    """Per-layer figures over the subtrees of ``roots`` (one pipeline iteration)."""
    selfs = tracer.self_times()
    spans = [s for r in roots for s in _subtree(tracer.spans, r)]
    layer_self = layer_self_times(tracer, roots)

    def named(prefix):
        return [s for s in spans if s.name == prefix or s.name.startswith(prefix + ".")]

    def total(items, attr=None):
        if attr is None:
            return sum(s.duration for s in items)
        return sum(s.attrs.get(attr, 0) for s in items)

    def self_total(items):
        return sum(selfs[s.id] for s in items)

    def peak(items):
        return max((s.peak_bytes for s in items), default=0) / MB

    def ratio(a, b):
        return a / b if b else 0.0

    loads, saves = named("core.load"), named("core.save")
    solves, rolls = named("opinf.solve"), named("rom.roll")
    searches = named("regsearch.search")
    roll_s = total(rolls)
    roll_steps = sum(
        s.attrs.get("diverged_step", s.attrs.get("steps", 0)) for s in rolls
    )
    candidates = total(searches, "candidates")
    return {
        "core.load_s": total(loads),
        "core.save_s": total(saves),
        "core.read_mb": total(loads, "bytes") / MB,
        "core.write_mb": total(saves, "bytes") / MB,
        "preprocess.self_s": layer_self.get("preprocess", 0.0),
        "preprocess.peak_mb": peak(named("preprocess")),
        "pod.basis_s": total(named("pod.basis")),
        "pod.spectrum_s": total(named("pod.spectrum")),
        "pod.calls": float(len(named("pod"))),
        "pod.peak_mb": peak(named("pod")),
        "decomp.recombine_s": total(named("decomp.recombine")),
        "decomp.peak_mb": peak(named("decomp")),
        "rom.predict_self_s": self_total(named("rom.predict")),
        "rom.predict_peak_mb": peak(named("rom.predict")),
        "rom.artifact_s": total(named("rom.save")) + total(named("rom.load")),
        "opinf.solves": float(len(solves)),
        "opinf.solve_s": total(solves),
        "opinf.distinct_fit_ratio": ratio(len({s.attrs.get("key") for s in solves}), len(solves)),
        "rom.roll_s": roll_s,
        "rom.roll_steps": float(roll_steps),
        "rom.roll_us_per_step": ratio(roll_s * 1e6, roll_steps),
        "rom.diverged_ratio": ratio(sum(1 for s in rolls if "diverged_step" in s.attrs), len(rolls)),
        "regsearch.self_s": layer_self.get("regsearch", 0.0),
        "regsearch.candidates": float(candidates),
        "regsearch.bounded_ratio": ratio(total(searches, "bounded"), candidates),
        "metrics.self_s": layer_self.get("metrics", 0.0),
        "metrics.peak_mb": peak(named("metrics")),
        "cli.self_s": layer_self.get("cli", 0.0),
    }
