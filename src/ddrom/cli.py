"""Command-line pipeline front end.

Commands read one structured config file (bracketed sections, key = value
lines) and write snapshot files, model artifacts, and CSV reports.  Every
command is deterministic given its config: outputs carry no clocks and no
hidden random state, so rerunning a command reproduces its files byte for
byte.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import sys
import typing
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import decomp, fomlab, metrics, opinf, pod, preprocess, regsearch, rom
from .core import SnapshotFile, load_initial_state, save_snapshots
from .core import load_snapshots  # noqa: F401  perfbench/tracing.py wraps cli.load_snapshots

__all__ = [
    "main",
    "parse_config",
    "serialize_config",
    "load_config",
    "snapshot_matrix_bytes",
    "ERROR_REPORT_HEADER",
    "SVD_REPORT_HEADER",
    "TRAINDUMP_HEADER",
    "bin_report_header",
    "profile_header",
    "regsearch_header",
    "decompose_header",
]

ERROR_REPORT_HEADER = ("variable", "training_error", "prediction_error")
SVD_REPORT_HEADER = ("subdomain", "index", "singular_value", "cumulative_energy")
TRAINDUMP_HEADER = ("subdomain", "n_points", "rows", "r", "coefficients", "residual")

COMMANDS = ("gen", "decompose", "svdreport", "train", "regsearch", "predict", "evaluate")


class PipelineError(RuntimeError):
    pass


@contextmanager
def _stage(name: str):
    """Attach the pipeline stage name to any error raised inside it."""
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(f"{name}: {exc}") from exc


class _Staged:
    """A chunk source whose errors while a chunk is made carry stage
    ``name`` (errors of the code that takes the chunks do not)."""

    def __init__(self, name: str, source):
        self.name, self.source, self.header = name, source, source.header

    def chunks(self, start: int, stop: int):
        with _stage(self.name):
            yield from self.source.chunks(start, stop)


# ---------------------------------------------------------------------------
# config file handling


def parse_config(text: str) -> dict[str, dict[str, str]]:
    """Parse bracketed sections of key = value lines into nested dicts."""
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"bad config: {exc}") from exc
    return {section: dict(cp[section]) for section in cp.sections()}


def serialize_config(sections: dict[str, dict[str, str]]) -> str:
    out = io.StringIO()
    for name, keys in sections.items():
        out.write(f"[{name}]\n")
        for key, value in keys.items():
            out.write(f"{key} = {value}\n")
        out.write("\n")
    return out.getvalue()


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.split(",") if tok.strip())


def _str_list(raw: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


_REQUIRED = object()  # a key with no default

# every key of every config section: (type, default).  FomSpec and RegGrid
# hold the defaults of [fom] and [regsearch]; only keys the file sets reach them.
_CONFIG = {
    "paths": {
        "snapshots": (Path, _REQUIRED), "artifact": (Path, _REQUIRED),
        "prediction": (Path, _REQUIRED), "output_dir": (Path, Path(".")),
        "ic": (str, None), "truth": (str, None),
    },
    "time": {"n_train": (int, None), "steps": (int, None)},
    "fom": {
        key: (cast, _REQUIRED)
        for key, cast in typing.get_type_hints(fomlab.FomSpec).items()
    },
    "preprocess": {"scaling": (str, "max_abs"), "transforms": (_str_list, None)},
    "decomposition": {
        "topology": (str, "single"), "k": (int, 1), "overlap": (float, 0.0),
    },
    "pod": {"r": (int, None), "energy": (float, None)},
    "opinf": {
        "form": (str, "discrete"), "derivative_scheme": (int, 2),
        "lambda_linear": (float, None), "lambda_quadratic": (float, None),
        "constant": (_bool, False),
    },
    "regsearch": {
        "enabled": (_bool, False), "mode": (str, _REQUIRED),
        "lambda_linear": (_float_list, _REQUIRED),
        "lambda_quadratic": (_float_list, _REQUIRED),
        "t_reg_steps": (int, _REQUIRED), "kappa": (float, _REQUIRED),
        "allow_large_k": (_bool, _REQUIRED),
    },
    "metrics": {
        "variable": (str, None), "probe": (_int_list, None),
        "thresholds": (_float_list, metrics.DEFAULT_THRESHOLDS),
        "probe_instants": (_int_list, None),
    },
}


def load_config(path) -> dict[str, dict[str, str]]:
    """The config file's sections, refusing any section or key that no
    command reads."""
    cfg = parse_config(Path(path).read_text())
    for section, keys in cfg.items():
        if section not in _CONFIG:
            raise ValueError(f"unknown config section [{section}]")
        for key in keys:
            if key not in _CONFIG[section]:
                raise ValueError(f"unknown [{section}] key {key!r}")
    return cfg


def _get(cfg, section: str, key: str):
    """A config value, cast to its type, or its default if the file omits it."""
    cast, default = _CONFIG[section][key]
    try:
        raw = cfg[section][key]
    except KeyError:
        if default is _REQUIRED:
            raise ValueError(f"config is missing [{section}] {key}") from None
        return default
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config [{section}] {key}: {exc}") from exc


# ---------------------------------------------------------------------------
# CSV helpers


def _write_csv(path: Path, header, rows) -> None:
    """Cells are written as ``str`` gives them, which for Python and numpy
    float64 values is the shortest round-trip repr."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _pct(x: float) -> str:
    return f"{x * 100.0:g}".replace(".", "p")


def bin_report_header(thresholds) -> tuple[str, ...]:
    thresholds = tuple(thresholds)
    cols = [f"re_le_{_pct(thresholds[0])}pct"]
    for a, b in zip(thresholds, thresholds[1:]):
        cols.append(f"re_{_pct(a)}_to_{_pct(b)}pct")
    cols.append(f"re_gt_{_pct(thresholds[-1])}pct")
    return ("time", *cols)


def profile_header(times) -> tuple[str, ...]:
    return ("coordinate", *(f"t_{repr(float(t))}" for t in times))


def regsearch_header(mode: str) -> tuple[str, ...]:
    if mode == "per_subdomain":
        return (
            "trial",
            "subdomain",
            "lambda_linear",
            "lambda_quadratic",
            "training_error",
            "bounded",
        )
    return ("lambda_linear", "lambda_quadratic", "training_error", "bounded")


def decompose_header(k: int) -> tuple[str, ...]:
    return (
        "point",
        *(f"member_{i}" for i in range(k)),
        *(f"weight_{i}" for i in range(k)),
    )


def _peak_rss_bytes() -> int | None:
    """This process's resident high-water mark, as the OS measured it, or
    None where the OS reports none (the resource module is POSIX only)."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # bytes on macOS, KiB elsewhere
    return peak if sys.platform == "darwin" else 1024 * peak


def snapshot_matrix_bytes(rows: int, columns: int) -> int:
    """Bytes needed to hold a dense float64 snapshot matrix."""
    return int(rows) * int(columns) * 8


# ---------------------------------------------------------------------------
# shared pipeline pieces


def _snapshot_file(cfg) -> tuple:
    """The snapshot file's path and the config's training split for it."""
    return _get(cfg, "paths", "snapshots"), _get(cfg, "time", "n_train")


def _layout_text(layout) -> str:
    return (f"n_s={layout.n_s}, n_x={layout.n_x}, "
            f"variables {layout.variable_names}")


def _geometry_text(geometry) -> str:
    kind = "periodic" if geometry.periodic else "non-periodic"
    x = geometry.coords[:, 0]
    return (f"{kind}, n_x={geometry.n_x}, dim={geometry.dim}, "
            f"first coordinate {x[0]:g} to {x[-1]:g}")


def _check_pairing(what: str, head, against: str, other) -> None:
    """Refuse ``head`` (a file header or a model) whose layout or geometry
    differs from ``other``'s, naming the two ``what`` and ``against``."""
    for part, text in (("layout", _layout_text), ("geometry", _geometry_text)):
        mine, theirs = getattr(head, part), getattr(other, part)
        if mine != theirs:
            raise ValueError(f"{what} {part} ({text(mine)}) does not match "
                             f"{against} ({text(theirs)})")


def _build_decomposition(cfg, geometry):
    topology, k, overlap = (_get(cfg, "decomposition", key)
                            for key in ("topology", "k", "overlap"))
    return decomp.decompose(topology, geometry, k, overlap)


def _fit_scaling(cfg, source: preprocess.BlockSource) -> preprocess.ScalingRecord:
    return source.fit(
        _get(cfg, "preprocess", "scaling"), _get(cfg, "preprocess", "transforms")
    )


def _project_blocks(cfg, source, dec):
    """Each subdomain's POD basis and reduced training data, one block at a
    time."""
    r, energy = _get(cfg, "pod", "r"), _get(cfg, "pod", "energy")
    if (r is None) == (energy is None):
        raise ValueError("config must set exactly one of [pod] r and [pod] energy")
    bases = []
    for block in source.blocks(dec.dof_indices):
        # the block is factored in place and dropped before the next is read
        bases.append(pod.compute_basis(block, r=r, energy=energy, overwrite_m=True))
        del block
    return bases, [basis.coordinates for basis in bases]


def _check_budget(training: opinf.ReducedTraining):
    """Refuse a subdomain with more coefficients than regression equations:
    n_train - 1 for the discrete form, n_train for the continuous one."""
    n_eq = training.inputs[0].shape[1]
    for i, d in enumerate(training.coefficients):
        if d > n_eq:
            neighbors = [None] * len(training.adjacency[i])
            largest = opinf.max_reduced_dimension(
                n_eq, neighbors, include_constant=training.include_constant
            )
            if training.form == "discrete":
                available = f"the discrete form has only n_train - 1 = {n_eq} equations"
            else:
                available = f"only n_train={n_eq} columns are available"
            raise ValueError(
                f"subdomain {i}: r={training.reduced[i].shape[0]} needs d(r)={d} "
                f"coefficients but {available}; largest admissible r is {largest}"
            )


# relative spread of the training time steps accepted as one uniform step;
# rounded sample times k * h spread their steps by about n_t * 1e-16
DT_RTOL = 1e-9


def _time_step(time) -> float:
    """The uniform step of the training columns (1.0 for a single column).

    The regression and its rollouts assume one step throughout, so unequal
    spacing is refused.
    """
    gaps = np.diff(time.timestamps[: time.n_train])
    if gaps.size == 0:
        return 1.0
    dt = float(gaps[0])
    if np.abs(gaps - dt).max() > DT_RTOL * dt:
        raise ValueError(
            f"non-uniform time grid: training steps range from "
            f"{gaps.min():g} to {gaps.max():g}"
        )
    return dt


def _derivative_scheme(cfg) -> int:
    scheme = _get(cfg, "opinf", "derivative_scheme")
    if scheme not in (2, 4):
        raise ValueError(f"[opinf] derivative_scheme must be 2 or 4, got {scheme}")
    return scheme


def _fixed_lambdas(cfg):
    ll, lq = _get(cfg, "opinf", "lambda_linear"), _get(cfg, "opinf", "lambda_quadratic")
    if (ll is None) != (lq is None):
        raise ValueError(
            "config must set both [opinf] lambda_linear and lambda_quadratic"
        )
    return None if ll is None else (ll, lq)


def _search_grid(cfg) -> regsearch.RegGrid:
    """The search grid of the [regsearch] keys the file sets; RegGrid
    fills in the rest."""
    keys = [key for key in cfg.get("regsearch", {}) if key != "enabled"]
    return regsearch.RegGrid(**{key: _get(cfg, "regsearch", key) for key in keys})


@dataclass(frozen=True)
class _Trained:
    """What the train and regsearch commands read of a training run."""

    model: rom.CoupledRom
    training: opinf.ReducedTraining
    grid: regsearch.RegGrid
    search: regsearch.RegResult | None


def _choice_text(result: regsearch.RegResult) -> str:
    """The chosen weight pairs, the bounded flag and the training error."""
    pairs = ", ".join(f"({ll:g}, {lq:g})" for ll, lq in result.chosen)
    flag = "bounded" if result.bounded else "UNBOUNDED"
    return f"{pairs} ({flag}, training error {result.training_error:.6e})"


def _train_pipeline(cfg) -> _Trained:
    """Everything shared by the train and regsearch commands, up to the
    assembled model with its chosen regularization weights."""
    form = _get(cfg, "opinf", "form")
    scheme = _derivative_scheme(cfg)
    include_constant = _get(cfg, "opinf", "constant")
    fixed = _fixed_lambdas(cfg)
    use_search = _get(cfg, "regsearch", "enabled")
    if use_search and fixed is not None:
        raise PipelineError(
            "config: set either fixed [opinf] lambdas or [regsearch] enabled, not both"
        )
    if not use_search and fixed is None:
        raise PipelineError(
            "config: set fixed [opinf] lambdas or enable [regsearch]"
        )
    with _stage("regsearch"):
        grid = _search_grid(cfg)  # checked on every path, used by the search only
    with _stage("load"):
        source = preprocess.BlockSource(*_snapshot_file(cfg))
    head = source.header
    with source:
        with _stage("load"):
            dt = _time_step(head.time)
        with _stage("preprocess"):
            record = _fit_scaling(cfg, source)
        with _stage("decompose"):
            dec = _build_decomposition(cfg, head.geometry)
        with _stage("pod"):
            bases, reduced = _project_blocks(cfg, source, dec)
    with _stage("derivatives"):
        derivatives = None
        if form == "continuous":
            derivatives = [
                opinf.estimate_time_derivatives(q, dt, scheme) for q in reduced
            ]
        training = opinf.ReducedTraining(
            reduced=reduced,
            adjacency=[set(s) for s in dec.adjacency],
            form=form,
            dt=dt,
            derivatives=derivatives,
            include_constant=include_constant,
        )
    with _stage("pod"):
        _check_budget(training)
    result = None
    if use_search:
        with _stage("regsearch"):
            result = regsearch.search(training, grid)
            operators = result.operators
    else:
        with _stage("infer"):
            operators = training.fit([fixed] * training.k)
    with _stage("model"):
        model = rom.CoupledRom(
            layout=head.layout,
            geometry=head.geometry,
            decomposition=dec,
            bases=bases,
            operators=operators,
            scaling=record,
            form=form,
            dt=dt,
        )
    return _Trained(model=model, training=training, grid=grid, search=result)


# ---------------------------------------------------------------------------
# commands


def cmd_gen(cfg) -> int:
    values = {key: _get(cfg, "fom", key) for key in cfg.get("fom", {})}
    with _stage("config"):
        spec = fomlab.FomSpec(**values)
    with _stage("simulate"):
        sset = fomlab.simulate(spec, _get(cfg, "time", "n_train"))
    with _stage("write"):
        out = _get(cfg, "paths", "snapshots")
        out.parent.mkdir(parents=True, exist_ok=True)
        save_snapshots(sset, out)
    print(f"wrote {out} ({sset.layout.n_s} variables, {sset.layout.n_x} points, "
          f"{sset.n_t} snapshots)")
    return 0


def cmd_decompose(cfg) -> int:
    # the geometry comes from the header; the data is only scanned for
    # non-finite values, through the read buffer
    with _stage("load"), SnapshotFile(*_snapshot_file(cfg)) as snap:
        snap.check_finite(0, snap.header.time.n_t)
    geometry = snap.header.geometry
    with _stage("decompose"):
        dec = _build_decomposition(cfg, geometry)
        weights = decomp.blending_weights(dec, geometry)
    out_dir = _output_dir(cfg)
    member = np.zeros((dec.k, dec.n_x), dtype=int)
    for i, idx in enumerate(dec.dof_indices):
        member[i, idx] = 1
    rows = (
        [p, *m, *w]
        for p, (m, w) in enumerate(zip(member.T.tolist(), weights.T.tolist()))
    )
    path = out_dir / "decomposition.csv"
    _write_csv(path, decompose_header(dec.k), rows)
    print(f"wrote {path} (k={dec.k}, sizes {list(dec.subdomain_sizes())})")
    return 0


def cmd_svdreport(cfg) -> int:
    with _stage("load"):
        source = preprocess.BlockSource(*_snapshot_file(cfg))
    with _stage("svd"), source:
        _fit_scaling(cfg, source)
        dec = _build_decomposition(cfg, source.header.geometry)
        spectra = []
        for block in source.blocks(dec.dof_indices):
            spectra.append(pod.singular_spectrum(block, overwrite_m=True))
            del block  # factored in place, as in train; dropped before the next
    rows = []
    for i, sigma in enumerate(spectra):
        energy = pod.cumulative_energy(sigma)
        for j, s in enumerate(sigma):
            rows.append([i, j, float(s), float(energy[j])])
    out_dir = _output_dir(cfg)
    path = out_dir / "svd_report.csv"
    _write_csv(path, SVD_REPORT_HEADER, rows)
    print(f"wrote {path}")
    return 0


def cmd_train(cfg) -> int:
    run = _train_pipeline(cfg)
    model, training = run.model, run.training
    dec = model.decomposition
    residuals = training.residuals(model.operators)

    with _stage("write"):
        artifact = _get(cfg, "paths", "artifact")
        artifact.parent.mkdir(parents=True, exist_ok=True)
        rom.save_rom(model, artifact)

        out_dir = _output_dir(cfg)
        dump_rows = [
            [i, dec.dof_indices[i].size, basis.rows, basis.r, d, residual]
            for i, (basis, d, residual) in enumerate(
                zip(model.bases, training.coefficients, residuals)
            )
        ]
        _write_csv(out_dir / "traindump.csv", TRAINDUMP_HEADER, dump_rows)

    m = training.n_columns
    full_bytes = snapshot_matrix_bytes(model.layout.n, m)
    sizes = [model.layout.n_s * idx.size for idx in dec.dof_indices]
    largest = max(sizes)
    largest_bytes = snapshot_matrix_bytes(largest, m)
    for row in dump_rows:
        print(
            f"subdomain {row[0]}: n_i={row[1]} rows={row[2]} r={row[3]} "
            f"d(r)={row[4]} residual={row[5]:.6e}"
        )
    if run.search is not None:
        print(f"regularization: {_choice_text(run.search)}")
    peak = _peak_rss_bytes()
    measured = "" if peak is None else f"; peak resident memory {peak / 1e6:.1f} MB"
    print(f"training matrix: {full_bytes} bytes full, {largest_bytes} bytes "
          f"largest subdomain (x{full_bytes / largest_bytes:.2f} reduction)"
          f"{measured}")
    print(f"wrote {artifact}")
    return 0


def cmd_regsearch(cfg) -> int:
    if not _get(cfg, "regsearch", "enabled"):
        raise PipelineError("config: [regsearch] enabled must be true")
    run = _train_pipeline(cfg)
    result, mode = run.search, run.grid.mode
    out_dir = _output_dir(cfg)
    rows = []
    for t_idx, trial in enumerate(result.trials):
        bounded = "true" if trial.bounded else "false"
        if mode == "per_subdomain":
            for i, (ll, lq) in enumerate(trial.candidate):
                rows.append([t_idx, i, ll, lq, trial.error, bounded])
        else:
            ll, lq = trial.candidate[0]
            rows.append([ll, lq, trial.error, bounded])
    path = out_dir / "regsearch_trials.csv"
    _write_csv(path, regsearch_header(mode), rows)
    print(f"chose {_choice_text(result)}")
    print(f"wrote {path}")
    return 0


def cmd_predict(cfg) -> int:
    with _stage("load"):
        model = rom.load_rom(_get(cfg, "paths", "artifact"))
        ic_path = _get(cfg, "paths", "ic")
        if ic_path:  # the config's training split is the snapshot file's
            head, initial = load_initial_state(ic_path)
        else:
            head, initial = load_initial_state(*_snapshot_file(cfg))
        _check_pairing("initial-condition", head, "the model", model)
    steps = _get(cfg, "time", "steps")
    if steps is None:
        steps = head.time.n_t - 1
    with _stage("integrate"):
        prediction = rom.Prediction(model, initial, steps, t_start=head.time.t_init)
    del head, initial  # the initial file's header and state are not written
    with _stage("write"):
        out = _get(cfg, "paths", "prediction")
        out.parent.mkdir(parents=True, exist_ok=True)
        # lifted, blended and unscaled one column chunk at a time as it is
        # written; a failure after the file is opened removes it
        save_snapshots(_Staged("integrate", prediction), out)
    print(f"wrote {out} ({steps} steps of {model.dt:g})")
    return 0


def cmd_evaluate(cfg) -> int:
    # two passes over each file: the finiteness check (which also takes the
    # bins' floor from the truth) and one lockstep pass for every metric
    with ExitStack() as files:
        with _stage("load"):
            truth_path = _get(cfg, "paths", "truth")
            if truth_path is None:
                truth_path = _get(cfg, "paths", "snapshots")
            truth = files.enter_context(
                SnapshotFile(truth_path, _get(cfg, "time", "n_train"))
            )
            t_head = truth.header
            peaks = truth.check_finite(0, t_head.time.n_t)
            approx = files.enter_context(
                SnapshotFile(_get(cfg, "paths", "prediction"))
            )
            a_head = approx.header
            approx.check_finite(0, a_head.time.n_t)
            _check_pairing("prediction", a_head, "the truth", t_head)
            shapes = [(f.n, f.header.time.n_t) for f in (truth, approx)]
            if shapes[0] != shapes[1]:
                raise ValueError(
                    f"dimension mismatch: truth {shapes[0]} vs "
                    f"prediction {shapes[1]}"
                )
            t_true, t_pred = t_head.time.timestamps, a_head.time.timestamps
            if np.abs(t_pred - t_true).max() > DT_RTOL * _time_step(t_head.time):
                raise ValueError(
                    f"prediction times t = {t_pred[0]:g} to {t_pred[-1]:g} do not "
                    f"match the truth's t = {t_true[0]:g} to {t_true[-1]:g}"
                )

        with _stage("metrics"):
            variable = _get(cfg, "metrics", "variable")
            v_idx = 0 if variable is None else t_head.layout.variable_index(variable)
            thresholds = _get(cfg, "metrics", "thresholds")
            report, bins = metrics.compare(
                truth, approx, v_idx, thresholds, peaks[v_idx]
            )
            probe = _get(cfg, "metrics", "probe")
            if probe is None:
                probe = tuple(range(t_head.layout.n_x))
            instants = _get(cfg, "metrics", "probe_instants")
            if instants is None:
                last_train = t_head.time.n_train - 1
                instants = tuple(sorted({last_train, t_head.time.n_t - 1}))
            profile = metrics.line_probe(approx, v_idx, probe, instants)

    out_dir = _output_dir(cfg)
    with _stage("metrics"):
        rows = []
        for v, name in enumerate(report.variables):
            pred = report.prediction[v]
            rows.append(
                [name, report.training[v], "" if pred is None else pred]
            )
        _write_csv(out_dir / "error_report.csv", ERROR_REPORT_HEADER, rows)
        bin_rows = np.column_stack([bins.times, bins.fractions]).tolist()
        _write_csv(out_dir / "bin_report.csv", bin_report_header(thresholds), bin_rows)
        times = [float(t_head.time.timestamps[i]) for i in instants]
        prof_rows = np.column_stack([profile.coordinate, profile.values]).tolist()
        _write_csv(out_dir / "profiles.csv", profile_header(times), prof_rows)

    for v, name in enumerate(report.variables):
        pred = report.prediction[v]
        tail = "" if pred is None else f", prediction {pred:.6e}"
        print(f"{name}: training {report.training[v]:.6e}{tail}")
    print(f"wrote reports to {out_dir}")
    return 0


def _output_dir(cfg) -> Path:
    path = _get(cfg, "paths", "output_dir")
    path.mkdir(parents=True, exist_ok=True)
    return path


_HANDLERS = {
    "gen": cmd_gen,
    "decompose": cmd_decompose,
    "svdreport": cmd_svdreport,
    "train": cmd_train,
    "regsearch": cmd_regsearch,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddrom",
        description="Snapshot-driven reduced-order modeling pipeline",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the config file")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    handler = _HANDLERS[args.command]
    try:
        return handler(cfg)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
