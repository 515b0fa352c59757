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
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import decomp, fomlab, metrics, opinf, pod, preprocess, regsearch, rom
from .core import (
    SnapshotFile,
    TimeGrid,
    load_initial_state,
    load_snapshots,
    save_snapshots,
)

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
        "topology": (str, "single"), "k": (int, _REQUIRED),
        "overlap": (float, _REQUIRED),
    },
    "pod": {"r": (int, None), "energy": (float, None), "method": (str, "svd")},
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


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


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


def _train_time(cfg, time: TimeGrid) -> TimeGrid:
    """``time`` with the config's training split, if it sets one; refuses
    ``n_train > n_t``."""
    n_train = _get(cfg, "time", "n_train")
    return time if n_train is None else time.with_train_count(n_train)


def _build_decomposition(cfg, geometry):
    topology = _get(cfg, "decomposition", "topology")
    if topology == "single":
        return decomp.Decomposition.single(geometry.n_x)
    k = _get(cfg, "decomposition", "k")
    overlap = _get(cfg, "decomposition", "overlap")
    if topology == "interval":
        return decomp.decompose_interval(geometry, k, overlap)
    if topology == "annular":
        return decomp.decompose_sectors(geometry, k, overlap)
    raise ValueError(f"unknown topology {topology!r}")


def _open_blocks(cfg, path) -> preprocess.BlockSource:
    """The block source of a snapshot file, with the config's training split."""
    return preprocess.BlockSource(path, _get(cfg, "time", "n_train"))


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
    method = _get(cfg, "pod", "method")
    bases, reduced = [], []
    for block in source.blocks(dec.dof_indices):
        basis = pod.compute_basis(block, r=r, energy=energy, method=method)
        bases.append(basis)
        reduced.append(basis.basis.T @ block)
        del block  # before the next block is read
    return bases, reduced


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
        source = _open_blocks(cfg, _get(cfg, "paths", "snapshots"))
    with source:
        with _stage("load"):
            dt = _time_step(source.time)
        with _stage("preprocess"):
            record = _fit_scaling(cfg, source)
        with _stage("decompose"):
            dec = _build_decomposition(cfg, source.geometry)
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
            layout=source.layout,
            geometry=source.geometry,
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
        sset = fomlab.simulate(spec)
        sset = sset.with_data(sset.data, _train_time(cfg, sset.time).n_train)
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
    with _stage("load"), SnapshotFile(_get(cfg, "paths", "snapshots")) as snap:
        snap.check_finite(0, snap.header.time.n_t)
        _train_time(cfg, snap.header.time)
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
        for p, (m, w) in enumerate(zip(member.T, weights.weights.T))
    )
    path = out_dir / "decomposition.csv"
    _write_csv(path, decompose_header(dec.k), rows)
    print(f"wrote {path} (k={dec.k}, sizes {list(dec.subdomain_sizes())})")
    return 0


def _svd_rows(cfg, source: preprocess.BlockSource):
    _fit_scaling(cfg, source)
    dec = _build_decomposition(cfg, source.geometry)
    method = _get(cfg, "pod", "method")
    spectra = []
    for block in source.blocks(dec.dof_indices):  # no enumerate, as above
        spectra.append(pod.singular_spectrum(block, method=method))
        del block  # before the next block is read
    rows = []
    for i, sigma in enumerate(spectra):
        energy = np.cumsum(sigma**2)
        total = energy[-1] if energy[-1] > 0 else 1.0
        for j, s in enumerate(sigma):
            rows.append([i, j, float(s), float(energy[j] / total)])
    return rows


def cmd_svdreport(cfg) -> int:
    with _stage("load"):
        source = _open_blocks(cfg, _get(cfg, "paths", "snapshots"))
    with _stage("svd"), source:
        rows = _svd_rows(cfg, source)
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
    if mode == "per_subdomain":
        for t_idx, trial in enumerate(result.trials):
            for i, (ll, lq) in enumerate(trial.candidate):
                rows.append([t_idx, i, ll, lq, trial.error, trial.bounded])
    else:
        for trial in result.trials:
            ll, lq = trial.candidate[0]
            rows.append([ll, lq, trial.error, trial.bounded])
    path = out_dir / "regsearch_trials.csv"
    _write_csv(path, regsearch_header(mode), rows)
    print(f"chose {_choice_text(result)}")
    print(f"wrote {path}")
    return 0


def cmd_predict(cfg) -> int:
    with _stage("load"):
        model = rom.load_rom(_get(cfg, "paths", "artifact"))
        ic_path = _get(cfg, "paths", "ic")
        head, initial = load_initial_state(ic_path or _get(cfg, "paths", "snapshots"))
        if not ic_path:
            _train_time(cfg, head.time)  # refuses n_train > n_t
        if head.layout != model.layout:
            raise ValueError(
                f"initial-condition layout (n_s={head.layout.n_s}, "
                f"n_x={head.layout.n_x}, variables {head.layout.variable_names}) "
                f"does not match the model (n_s={model.layout.n_s}, "
                f"n_x={model.layout.n_x}, variables {model.layout.variable_names})"
            )
    steps = _get(cfg, "time", "steps")
    if steps is None:
        steps = head.time.n_t - 1
    with _stage("integrate"):
        trajectory = rom.predict_full(model, initial, steps, t_start=head.time.t_init)
    with _stage("write"):
        out = _get(cfg, "paths", "prediction")
        out.parent.mkdir(parents=True, exist_ok=True)
        save_snapshots(trajectory, out)
    print(f"wrote {out} ({steps} steps of {model.dt:g})")
    return 0


def cmd_evaluate(cfg) -> int:
    with _stage("load"):
        truth_path = _get(cfg, "paths", "truth")
        if truth_path is None:
            truth_path = _get(cfg, "paths", "snapshots")
        truth = load_snapshots(truth_path)
        truth = truth.with_data(truth.data, _train_time(cfg, truth.time).n_train)
        approx = load_snapshots(_get(cfg, "paths", "prediction"))
        if truth.data.shape != approx.data.shape:
            raise ValueError(
                f"dimension mismatch: truth {truth.data.shape} vs "
                f"prediction {approx.data.shape}"
            )
        t_true, t_pred = truth.time.timestamps, approx.time.timestamps
        if np.abs(t_pred - t_true).max() > DT_RTOL * _time_step(truth.time):
            raise ValueError(
                f"prediction times t = {t_pred[0]:g} to {t_pred[-1]:g} do not "
                f"match the truth's t = {t_true[0]:g} to {t_true[-1]:g}"
            )
    out_dir = _output_dir(cfg)

    with _stage("metrics"):
        report = metrics.error_report(truth, approx)
        rows = []
        for v, name in enumerate(report.variables):
            pred = report.prediction[v]
            rows.append(
                [name, report.training[v], "" if pred is None else pred]
            )
        _write_csv(out_dir / "error_report.csv", ERROR_REPORT_HEADER, rows)

        variable = _get(cfg, "metrics", "variable")
        v_idx = 0 if variable is None else truth.layout.variable_index(variable)
        thresholds = _get(cfg, "metrics", "thresholds")
        bins = metrics.pointwise_error_bins(truth, approx, v_idx, thresholds)
        bin_rows = [
            [t, *fr.tolist()] for t, fr in zip(bins.times, bins.fractions)
        ]
        _write_csv(out_dir / "bin_report.csv", bin_report_header(thresholds), bin_rows)

        probe = _get(cfg, "metrics", "probe")
        if probe is None:
            probe = tuple(range(truth.layout.n_x))
        instants = _get(cfg, "metrics", "probe_instants")
        if instants is None:
            last_train = truth.time.n_train - 1
            instants = tuple(
                sorted({last_train, truth.n_t - 1})
            )
        profile = metrics.line_probe(approx, v_idx, probe, instants)
        times = [float(truth.time.timestamps[i]) for i in instants]
        prof_rows = [
            [float(profile.coordinate[p]), *profile.values[p]]
            for p in range(len(probe))
        ]
        _write_csv(out_dir / "profiles.csv", profile_header(times), prof_rows)

    with _stage("svd"), _open_blocks(cfg, truth_path) as source:
        svd_rows = _svd_rows(cfg, source)
        _write_csv(out_dir / "svd_report.csv", SVD_REPORT_HEADER, svd_rows)

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
