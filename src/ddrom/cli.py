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
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import decomp, fomlab, metrics, opinf, pod, preprocess, regsearch, rom
from .core import (
    Geometry,
    StateLayout,
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


def load_config(path) -> dict[str, dict[str, str]]:
    return parse_config(Path(path).read_text())


_MISSING = object()


def _get(cfg, section: str, key: str, cast=str, default=_MISSING):
    try:
        raw = cfg[section][key]
    except KeyError:
        if default is _MISSING:
            raise ValueError(f"config is missing [{section}] {key}") from None
        return default
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config [{section}] {key}: {exc}") from exc


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


def _path(cfg, key: str, default=_MISSING) -> Path:
    return Path(_get(cfg, "paths", key, str, default))


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


def snapshot_matrix_bytes(rows: int, columns: int) -> int:
    """Bytes needed to hold a dense float64 snapshot matrix."""
    return int(rows) * int(columns) * 8


# ---------------------------------------------------------------------------
# shared pipeline pieces


def _load_set(cfg):
    sset = load_snapshots(_path(cfg, "snapshots"))
    n_train = _get(cfg, "time", "n_train", int, default=None)
    if n_train is not None:
        sset = sset.with_data(sset.data, n_train=n_train)
    return sset


def _build_decomposition(cfg, geometry):
    topology = _get(cfg, "decomposition", "topology", str, default="single")
    if topology == "single":
        return decomp.Decomposition.single(geometry.n_x)
    k = _get(cfg, "decomposition", "k", int)
    overlap = _get(cfg, "decomposition", "overlap", float)
    if topology == "interval":
        return decomp.decompose_interval(geometry, k, overlap)
    if topology == "annular":
        return decomp.decompose_sectors(geometry, k, overlap)
    raise ValueError(f"unknown topology {topology!r}")


def _preprocess(cfg, sset):
    kind = _get(cfg, "preprocess", "scaling", str, default="max_abs")
    transforms = _get(cfg, "preprocess", "transforms", _str_list, default=None)
    transformed = preprocess.transform_variables(sset, transforms)
    return preprocess.center_scale(transformed, kind=kind, transforms=transforms)


def _training_matrices(scaled, dec):
    m = scaled.time.n_train
    # rows and training columns in one step, so no block keeps the full
    # rows x n_t copy behind it alive
    rows = scaled.layout.point_rows
    return [scaled.data[rows(idx), :m] for idx in dec.dof_indices]


def _compute_bases(cfg, matrices):
    r = _get(cfg, "pod", "r", int, default=None)
    energy = _get(cfg, "pod", "energy", float, default=None)
    if (r is None) == (energy is None):
        raise ValueError("config must set exactly one of [pod] r and [pod] energy")
    method = _get(cfg, "pod", "method", str, default="svd")
    block = _get(cfg, "pod", "block", int, default=64)
    return [
        pod.compute_basis(
            mat, r=r, energy=energy, method=method, subdomain_id=i, block=block
        )
        for i, mat in enumerate(matrices)
    ]


def _coefficient_counts(dec, bases, include_constant: bool) -> list[int]:
    """d(r) of each subdomain: own, quadratic, neighbor and constant columns."""
    dims = [b.r for b in bases]
    return [
        opinf.coefficient_count(
            basis.r, [dims[j] for j in sorted(dec.adjacency[i])],
            include_constant=include_constant,
        )
        for i, basis in enumerate(bases)
    ]


def _check_budget(dec, bases, n_train: int, include_constant: bool):
    counts = _coefficient_counts(dec, bases, include_constant)
    for i, (basis, d) in enumerate(zip(bases, counts)):
        if d > n_train:
            neighbors = [None] * len(dec.adjacency[i])
            largest = opinf.max_reduced_dimension(
                n_train, neighbors, include_constant=include_constant
            )
            raise ValueError(
                f"subdomain {i}: r={basis.r} needs d(r)={d} coefficients but "
                f"only n_train={n_train} columns are available; largest "
                f"admissible r is {largest}"
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
    scheme = _get(cfg, "opinf", "derivative_scheme", int, default=2)
    if scheme not in (2, 4):
        raise ValueError(f"[opinf] derivative_scheme must be 2 or 4, got {scheme}")
    return scheme


def _fixed_lambdas(cfg):
    ll = _get(cfg, "opinf", "lambda_linear", float, default=None)
    lq = _get(cfg, "opinf", "lambda_quadratic", float, default=None)
    if (ll is None) != (lq is None):
        raise ValueError(
            "config must set both [opinf] lambda_linear and lambda_quadratic"
        )
    return None if ll is None else (ll, lq)


def _search_grid(cfg):
    kwargs = {}
    ll = _get(cfg, "regsearch", "lambda_linear", _float_list, default=None)
    lq = _get(cfg, "regsearch", "lambda_quadratic", _float_list, default=None)
    if ll is not None:
        kwargs["lambda_linear"] = ll
    if lq is not None:
        kwargs["lambda_quadratic"] = lq
    kwargs["mode"] = _get(cfg, "regsearch", "mode", str, default="global")
    t_reg = _get(cfg, "regsearch", "t_reg_steps", int, default=None)
    if t_reg is not None:
        kwargs["t_reg_steps"] = t_reg
    kwargs["bound_factor"] = _get(cfg, "regsearch", "kappa", float, default=1.2)
    if _get(cfg, "regsearch", "allow_large_k", _bool, default=False):
        kwargs["allow_large_k"] = True
    return regsearch.RegGrid(**kwargs)


def _regsearch_enabled(cfg) -> bool:
    return _get(cfg, "regsearch", "enabled", _bool, default=False)


@dataclass(frozen=True)
class _Trained:
    """What the train and regsearch commands read of a training run."""

    layout: StateLayout
    geometry: Geometry
    record: preprocess.ScalingRecord
    decomposition: decomp.Decomposition
    bases: list
    training: regsearch.ReducedTraining
    operators: list
    search: regsearch.RegResult | None


def _train_pipeline(cfg, threads: int) -> _Trained:
    """Everything shared by the train and regsearch commands, up to and
    including the choice of regularization weights."""
    form = _get(cfg, "opinf", "form", str, default="discrete")
    scheme = _derivative_scheme(cfg)
    include_constant = _get(cfg, "opinf", "constant", _bool, default=False)
    fixed = _fixed_lambdas(cfg)
    use_search = _regsearch_enabled(cfg)
    if use_search and fixed is not None:
        raise PipelineError(
            "config: set either fixed [opinf] lambdas or [regsearch] enabled, not both"
        )
    if not use_search and fixed is None:
        raise PipelineError(
            "config: set fixed [opinf] lambdas or enable [regsearch]"
        )
    with _stage("load"):
        sset = _load_set(cfg)
        dt = _time_step(sset.time)
    with _stage("preprocess"):
        scaled, record = _preprocess(cfg, sset)
    with _stage("decompose"):
        dec = _build_decomposition(cfg, sset.geometry)
    with _stage("pod"):
        matrices = _training_matrices(scaled, dec)
        bases = _compute_bases(cfg, matrices)
        _check_budget(dec, bases, scaled.time.n_train, include_constant)
        reduced = [b.basis.T @ mat for b, mat in zip(bases, matrices)]
    with _stage("derivatives"):
        derivatives = None
        if form == "continuous":
            derivatives = [
                opinf.estimate_time_derivatives(q, dt, scheme) for q in reduced
            ]
        training = regsearch.ReducedTraining(
            reduced=reduced,
            adjacency=[set(s) for s in dec.adjacency],
            form=form,
            dt=dt,
            derivatives=derivatives,
            include_constant=include_constant,
        )
    result = None
    if use_search:
        with _stage("regsearch"):
            grid = _search_grid(cfg)
            result = regsearch.search(training, grid, max_workers=max(threads, 1))
            operators = result.operators
    else:
        with _stage("infer"):
            operators = training.fit(
                opinf.RegressionConfig(
                    form=form,
                    lambda_linear=fixed[0],
                    lambda_quadratic=fixed[1],
                    include_constant=include_constant,
                )
            )
    return _Trained(
        layout=sset.layout,
        geometry=sset.geometry,
        record=record,
        decomposition=dec,
        bases=bases,
        training=training,
        operators=operators,
        search=result,
    )


# ---------------------------------------------------------------------------
# commands


def cmd_gen(cfg, args) -> int:
    with _stage("config"):
        fields = {}
        section = cfg.get("fom", {})
        spec_casts = {
            "kind": str,
            "n_x": int,
            "length": float,
            "nu": float,
            "amplitude": float,
            "wave_speed": float,
            "n_pulses": int,
            "pulse_width": float,
            "decay": float,
            "frequency": float,
            "dt": float,
            "n_steps": int,
            "stride": int,
        }
        for key in section:
            if key not in spec_casts:
                raise ValueError(f"unknown [fom] key {key!r}")
            fields[key] = spec_casts[key](section[key])
        spec = fomlab.FomSpec(**fields)
    with _stage("simulate"):
        sset = fomlab.simulate(spec)
        n_train = _get(cfg, "time", "n_train", int, default=None)
        if n_train is not None:
            sset = sset.with_data(sset.data, n_train=n_train)
    with _stage("write"):
        out = _path(cfg, "snapshots")
        out.parent.mkdir(parents=True, exist_ok=True)
        save_snapshots(sset, out)
    print(f"wrote {out} ({sset.layout.n_s} variables, {sset.layout.n_x} points, "
          f"{sset.n_t} snapshots)")
    return 0


def cmd_decompose(cfg, args) -> int:
    with _stage("load"):
        sset = _load_set(cfg)
    with _stage("decompose"):
        dec = _build_decomposition(cfg, sset.geometry)
        weights = decomp.blending_weights(dec, sset.geometry)
    out_dir = _output_dir(cfg, args)
    member = np.zeros((dec.k, dec.n_x), dtype=int)
    for i, idx in enumerate(dec.dof_indices):
        member[i, idx] = 1
    rows = []
    for p in range(dec.n_x):
        rows.append(
            [p, *member[:, p].tolist(), *(weights.weights[:, p].tolist())]
        )
    path = out_dir / "decomposition.csv"
    _write_csv(path, decompose_header(dec.k), rows)
    print(f"wrote {path} (k={dec.k}, sizes {list(dec.subdomain_sizes())})")
    return 0


def _svd_rows(cfg, sset):
    scaled, _ = _preprocess(cfg, sset)
    dec = _build_decomposition(cfg, sset.geometry)
    method = _get(cfg, "pod", "method", str, default="svd")
    block = _get(cfg, "pod", "block", int, default=64)
    rows = []
    for i, mat in enumerate(_training_matrices(scaled, dec)):
        sigma = pod.singular_spectrum(mat, method=method, block=block)
        energy = np.cumsum(sigma**2)
        total = energy[-1] if energy[-1] > 0 else 1.0
        for j, s in enumerate(sigma):
            rows.append([i, j, float(s), float(energy[j] / total)])
    return rows


def cmd_svdreport(cfg, args) -> int:
    with _stage("load"):
        sset = _load_set(cfg)
    with _stage("svd"):
        rows = _svd_rows(cfg, sset)
    out_dir = _output_dir(cfg, args)
    path = out_dir / "svd_report.csv"
    _write_csv(path, SVD_REPORT_HEADER, rows)
    print(f"wrote {path}")
    return 0


def cmd_train(cfg, args) -> int:
    run = _train_pipeline(cfg, args.threads or 1)
    training, dec, bases = run.training, run.decomposition, run.bases
    residuals = training.residuals(run.operators)

    with _stage("write"):
        model = rom.CoupledRom(
            layout=run.layout,
            geometry=run.geometry,
            decomposition=dec,
            bases=bases,
            operators=run.operators,
            scaling=run.record,
            form=training.form,
            dt=training.dt,
        )
        artifact = _path(cfg, "artifact")
        artifact.parent.mkdir(parents=True, exist_ok=True)
        rom.save_rom(model, artifact)

        out_dir = _output_dir(cfg, args)
        counts = _coefficient_counts(dec, bases, training.include_constant)
        dump_rows = [
            [i, dec.dof_indices[i].size, basis.rows, basis.r, counts[i], residuals[i]]
            for i, basis in enumerate(bases)
        ]
        _write_csv(out_dir / "traindump.csv", TRAINDUMP_HEADER, dump_rows)

    m = training.n_columns
    full_bytes = snapshot_matrix_bytes(run.layout.n, m)
    sizes = [run.layout.n_s * idx.size for idx in dec.dof_indices]
    largest = max(sizes)
    largest_bytes = snapshot_matrix_bytes(largest, m)
    for row in dump_rows:
        print(
            f"subdomain {row[0]}: n_i={row[1]} rows={row[2]} r={row[3]} "
            f"d(r)={row[4]} residual={row[5]:.6e}"
        )
    result = run.search
    if result is not None:
        pairs = ", ".join(f"({ll:g}, {lq:g})" for ll, lq in result.chosen)
        flag = "bounded" if result.bounded else "UNBOUNDED"
        print(f"regularization: {pairs} ({flag}, training error {result.training_error:.6e})")
    print(f"training matrix: {full_bytes} bytes full, {largest_bytes} bytes "
          f"largest subdomain (x{full_bytes / largest_bytes:.2f} reduction)")
    print(f"wrote {artifact}")
    return 0


def cmd_regsearch(cfg, args) -> int:
    if not _regsearch_enabled(cfg):
        raise PipelineError("config: [regsearch] enabled must be true")
    result = _train_pipeline(cfg, args.threads or 1).search
    mode = _get(cfg, "regsearch", "mode", str, default="global")
    out_dir = _output_dir(cfg, args)
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
    pairs = ", ".join(f"({ll:g}, {lq:g})" for ll, lq in result.chosen)
    flag = "bounded" if result.bounded else "UNBOUNDED"
    print(f"chose {pairs} ({flag}, training error {result.training_error:.6e})")
    print(f"wrote {path}")
    return 0


def cmd_predict(cfg, args) -> int:
    with _stage("load"):
        model = rom.load_rom(_path(cfg, "artifact"))
        ic_path = _get(cfg, "paths", "ic", str, default=None)
        head, initial = load_initial_state(ic_path or _path(cfg, "snapshots"))
        n_train = _get(cfg, "time", "n_train", int, default=None)
        if not ic_path and n_train is not None:
            head.time.with_train_count(n_train)  # refuses n_train > n_t
        if head.layout != model.layout:
            raise ValueError(
                f"initial-condition layout (n_s={head.layout.n_s}, "
                f"n_x={head.layout.n_x}, variables {head.layout.variable_names}) "
                f"does not match the model (n_s={model.layout.n_s}, "
                f"n_x={model.layout.n_x}, variables {model.layout.variable_names})"
            )
    steps = args.steps
    if steps is None:
        steps = _get(cfg, "time", "steps", int, default=None)
    if steps is None:
        steps = head.time.n_t - 1
    with _stage("integrate"):
        trajectory = rom.predict_full(model, initial, steps, t_start=head.time.t_init)
    with _stage("write"):
        out = _path(cfg, "prediction")
        out.parent.mkdir(parents=True, exist_ok=True)
        save_snapshots(trajectory, out)
    print(f"wrote {out} ({steps} steps of {model.dt:g})")
    return 0


def cmd_evaluate(cfg, args) -> int:
    with _stage("load"):
        truth_path = _get(cfg, "paths", "truth", str, default=None)
        if truth_path is None:
            truth = _load_set(cfg)
        else:
            truth = load_snapshots(truth_path)
            n_train = _get(cfg, "time", "n_train", int, default=None)
            if n_train is not None:
                truth = truth.with_data(truth.data, n_train=n_train)
        approx = load_snapshots(_path(cfg, "prediction"))
        if truth.data.shape != approx.data.shape:
            raise ValueError(
                f"dimension mismatch: truth {truth.data.shape} vs "
                f"prediction {approx.data.shape}"
            )
    out_dir = _output_dir(cfg, args)

    with _stage("metrics"):
        report = metrics.error_report(truth, approx)
        rows = []
        for v, name in enumerate(report.variables):
            pred = report.prediction[v]
            rows.append(
                [name, report.training[v], "" if pred is None else pred]
            )
        _write_csv(out_dir / "error_report.csv", ERROR_REPORT_HEADER, rows)

        variable = _get(cfg, "metrics", "variable", str, default=None)
        v_idx = 0 if variable is None else truth.layout.variable_index(variable)
        thresholds = _get(
            cfg, "metrics", "thresholds", _float_list,
            default=metrics.DEFAULT_THRESHOLDS,
        )
        bins = metrics.pointwise_error_bins(truth, approx, v_idx, thresholds)
        bin_rows = [
            [t, *fr.tolist()] for t, fr in zip(bins.times, bins.fractions)
        ]
        _write_csv(out_dir / "bin_report.csv", bin_report_header(thresholds), bin_rows)

        probe = _get(cfg, "metrics", "probe", _int_list, default=None)
        if probe is None:
            probe = tuple(range(truth.layout.n_x))
        instants = _get(cfg, "metrics", "probe_instants", _int_list, default=None)
        if instants is None:
            last_train = truth.time.n_train - 1
            instants = tuple(
                sorted({last_train, truth.n_t - 1})
            )
        for idx in instants:
            if not 0 <= idx < truth.n_t:
                raise ValueError(f"probe instant {idx} out of range")
        profile = metrics.line_probe(approx, v_idx, np.asarray(probe, dtype=int))
        times = [float(truth.time.timestamps[i]) for i in instants]
        prof_rows = [
            [float(profile.coordinate[p]), *(profile.values[p, i] for i in instants)]
            for p in range(len(probe))
        ]
        _write_csv(out_dir / "profiles.csv", profile_header(times), prof_rows)

    with _stage("svd"):
        _write_csv(out_dir / "svd_report.csv", SVD_REPORT_HEADER, _svd_rows(cfg, truth))

    for v, name in enumerate(report.variables):
        pred = report.prediction[v]
        tail = "" if pred is None else f", prediction {pred:.6e}"
        print(f"{name}: training {report.training[v]:.6e}{tail}")
    print(f"wrote reports to {out_dir}")
    return 0


def _output_dir(cfg, args) -> Path:
    out = getattr(args, "output", None)
    if out is None:
        out = _get(cfg, "paths", "output_dir", str, default=".")
    path = Path(out)
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
    parser.add_argument("--output", help="directory for CSV outputs")
    parser.add_argument("--steps", type=int, help="prediction steps")
    parser.add_argument("--threads", type=int, help="worker threads")
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
        return handler(cfg, args)
    except PipelineError as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
