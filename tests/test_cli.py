import csv
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ddrom import cli, core, rom
from ddrom.core import (
    Geometry,
    SnapshotSet,
    StateLayout,
    TimeGrid,
    load_snapshots,
    save_snapshots,
)
from ddrom.rom import load_rom


BASE_CONFIG = """\
[paths]
snapshots = {dir}/snaps.bin
artifact = {dir}/model.bin
prediction = {dir}/pred.bin
output_dir = {dir}/out

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


@pytest.fixture
def workdir(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE_CONFIG.format(dir=tmp_path))
    return tmp_path, cfg


README = Path(__file__).resolve().parents[1] / "README.md"


def run(cmd, cfg):
    return cli.main([cmd, "--config", str(cfg)])


class TestConfigHandling:
    def test_parse_round_trip(self):
        sections = cli.parse_config(BASE_CONFIG.format(dir="/x"))
        text = cli.serialize_config(sections)
        assert cli.parse_config(text) == sections

    def test_unknown_syntax(self):
        with pytest.raises(ValueError, match="bad config"):
            cli.parse_config("no sections here\n")

    def test_keys_are_case_sensitive(self):
        sections = cli.parse_config("[A]\nKey = 1\nkey = 2\n")
        assert sections["A"] == {"Key": "1", "key": "2"}

    def test_missing_key_names_section_and_key(self, workdir, capsys):
        tmp, cfg = workdir
        text = cfg.read_text().replace(f"snapshots = {tmp}/snaps.bin\n", "")
        cfg.write_text(text)
        code = run("decompose", cfg)
        assert code == 1
        assert "config is missing [paths] snapshots" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, message", [
        ("n_train = 25", "ntrain = 300", "unknown [time] key 'ntrain'"),
        ("scaling = max_abs", "scalling = std_dev",
         "unknown [preprocess] key 'scalling'"),
        ("[pod]", "[pods]", "unknown config section [pods]"),
        ("r = 4", "r = 4\nmethod = svd", "unknown [pod] key 'method'"),
    ])
    def test_unknown_section_or_key_is_refused(self, workdir, capsys, old, new,
                                               message):
        tmp, cfg = workdir
        cfg.write_text(cfg.read_text().replace(old, new))
        assert run("gen", cfg) == 1
        assert message in capsys.readouterr().err

    def test_readme_names_every_key_in_its_section(self):
        reference = README.read_text().split("## Configuration reference")[1]
        reference = reference.split("\n## ")[0]
        paragraphs = dict(
            part.split("]`", 1) for part in reference.split("\n`[")[1:]
        )
        assert set(paragraphs) == set(cli._CONFIG)
        for section, keys in cli._CONFIG.items():
            missing = [key for key in keys
                       if not re.search(rf"`{key}(`| =)", paragraphs[section])]
            assert not missing, f"README [{section}] misses {missing}"

    def test_readme_flags_are_the_parser_options(self):
        line = next(line for line in README.read_text().splitlines()
                    if line.startswith("Flags:"))
        options = {opt for action in cli._build_parser()._actions
                   for opt in action.option_strings}
        assert set(re.findall(r"--[\w-]+", line)) == options - {"-h", "--help"}
        assert options - {"-h", "--help"} == {"--config"}


class TestFormatting:
    @staticmethod
    def _written_row(path, row):
        cli._write_csv(path, ("a",) * len(row), [row])
        with open(path, newline="") as fh:
            return list(csv.reader(fh))[1]

    def test_floats_use_repr(self, tmp_path):
        row = self._written_row(tmp_path / "f.csv",
                                [0.1, np.float64(1.0) / 3.0, np.float64(1e-8)])
        assert row == ["0.1", "0.3333333333333333", "1e-08"]

    def test_numpy_and_python_floats_write_the_same_bytes(self, tmp_path):
        # evaluate writes rows of Python floats (ndarray.tolist()) where it
        # once wrote numpy float64 scalars; both must give the same cells
        rng = np.random.default_rng(5)
        edges = [0.0, -0.0, 1e16, -1e16, 1e-05, 5e-324, -5e-324, np.inf,
                 -np.inf, np.nan, 0.1, 1.0 / 3.0, 2.0 ** 53, 1e15, 1e-4]
        random = (rng.standard_normal(3000)
                  * 10.0 ** rng.uniform(-310.0, 308.0, 3000))
        values = np.concatenate([edges, random]).reshape(-1, 5)
        scalars, floats = tmp_path / "scalars.csv", tmp_path / "floats.csv"
        cli._write_csv(scalars, ("a",) * 5, [list(row) for row in values])
        cli._write_csv(floats, ("a",) * 5, values.tolist())
        assert isinstance(values[0][0], np.float64)
        assert scalars.read_bytes() == floats.read_bytes()

    def test_bools_and_ints(self, tmp_path):
        # bool cells reach the writer as "true"/"false", set by their command
        row = self._written_row(tmp_path / "b.csv",
                                [np.int64(7), 0, "true", "false"])
        assert row == ["7", "0", "true", "false"]

    def test_written_cells_are_repr_and_lowercase_bools(self, workdir,
                                                        monkeypatch):
        tmp, cfg = workdir
        assert run("gen", cfg) == 0
        text = cfg.read_text().replace("lambda_linear = 1e-8\n", "")
        cfg.write_text(text.replace("lambda_quadratic = 1e-6\n", "") + (
            "\n[regsearch]\nenabled = true\nmode = per_subdomain\n"
            "lambda_linear = 1e-08, 1\nlambda_quadratic = 1e-06, 1\n"))
        written = {}
        write_csv = cli._write_csv

        def recorded(path, header, rows):
            written[path.name] = rows = list(rows)
            write_csv(path, header, rows)

        monkeypatch.setattr(cli, "_write_csv", recorded)
        assert run("regsearch", cfg) == 0
        with open(tmp / "out" / "regsearch_trials.csv", newline="") as fh:
            cells = list(csv.reader(fh))[1:]
        rows = written["regsearch_trials.csv"]
        # (2 x 2 weight pairs) ** 2 subdomains, one row per subdomain
        assert len(cells) == len(rows) == 32
        assert {row[-1] for row in cells} == {"true", "false"}
        for row, values in zip(cells, rows):
            assert row[:2] == [str(int(v)) for v in values[:2]]
            assert row[2:5] == [repr(float(v)) for v in values[2:5]]

    def test_bin_header_for_default_thresholds(self):
        header = cli.bin_report_header((0.05, 0.10, 0.20))
        assert header == ("time", "re_le_5pct", "re_5_to_10pct",
                          "re_10_to_20pct", "re_gt_20pct")

    def test_snapshot_matrix_bytes(self):
        assert cli.snapshot_matrix_bytes(10, 4) == 320


class TestPipeline:
    def test_full_run(self, workdir, capsys):
        tmp, cfg = workdir
        for cmd in ("gen", "decompose", "svdreport", "train", "predict",
                    "evaluate"):
            assert run(cmd, cfg) == 0, capsys.readouterr().err
        out = tmp / "out"
        for name in ("decomposition.csv", "svd_report.csv", "traindump.csv",
                     "error_report.csv", "bin_report.csv", "profiles.csv"):
            assert (out / name).exists()
        assert (tmp / "model.bin").exists()
        assert (tmp / "pred.bin").exists()

    def test_train_prints_memory_summary(self, workdir, capsys):
        tmp, cfg = workdir
        run("gen", cfg)
        run("train", cfg)
        text = capsys.readouterr().out
        assert "bytes full" in text
        assert "largest subdomain" in text
        assert "d(r)=" in text
        peak = float(text.split("peak resident memory ")[1].split(" MB")[0])
        assert peak > 0.0

    def test_reports_have_documented_headers(self, workdir):
        tmp, cfg = workdir
        for cmd in ("gen", "svdreport", "train", "predict", "evaluate"):
            run(cmd, cfg)
        with open(tmp / "out" / "error_report.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert tuple(header) == cli.ERROR_REPORT_HEADER
        with open(tmp / "out" / "svd_report.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert tuple(header) == cli.SVD_REPORT_HEADER
        with open(tmp / "out" / "bin_report.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert tuple(header) == cli.bin_report_header((0.05, 0.10, 0.20))
        with open(tmp / "out" / "profiles.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header[0] == "coordinate"

    @pytest.mark.parametrize("select", ["r = 4", "energy = 0.9999"])
    def test_svd_report_is_the_stored_spectrum(self, workdir, select):
        """svdreport's spectrum is the one train stores, bit for bit, and in
        energy mode its first row reaching the target is train's last mode."""
        tmp, cfg = workdir
        cfg.write_text(cfg.read_text().replace("r = 4\n", select + "\n"))
        for cmd in ("gen", "svdreport", "train"):
            assert run(cmd, cfg) == 0
        with open(tmp / "out" / "svd_report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for i, basis in enumerate(load_rom(tmp / "model.bin").bases):
            mine = [row for row in rows if int(row["subdomain"]) == i]
            sigma = [float(row["singular_value"]) for row in mine]
            np.testing.assert_array_equal(sigma, basis.singular_values)
            if select.startswith("energy"):
                energy = [float(row["cumulative_energy"]) for row in mine]
                first = next(j for j, e in enumerate(energy) if e >= 0.9999)
                assert first == basis.r - 1

    def test_prediction_matches_training_grid(self, workdir):
        tmp, cfg = workdir
        run("gen", cfg)
        run("train", cfg)
        run("predict", cfg)
        truth = load_snapshots(tmp / "snaps.bin")
        pred = load_snapshots(tmp / "pred.bin")
        assert pred.data.shape == truth.data.shape
        np.testing.assert_allclose(pred.time.timestamps,
                                   truth.time.timestamps, atol=1e-12)

    def test_steps_key_sets_the_prediction_length(self, workdir):
        tmp, cfg = workdir
        run("gen", cfg)
        run("train", cfg)
        cfg.write_text(cfg.read_text().replace("n_train = 25\n",
                                               "n_train = 25\nsteps = 7\n"))
        assert run("predict", cfg) == 0
        pred = load_snapshots(tmp / "pred.bin")
        assert pred.n_t == 8

    def test_decompose_csv_covers_every_point(self, workdir):
        tmp, cfg = workdir
        run("gen", cfg)
        run("decompose", cfg)
        with open(tmp / "out" / "decomposition.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == cli.decompose_header(2)
        assert len(rows) - 1 == 64
        # weights sum to one on every row
        for row in rows[1:]:
            assert abs(float(row[3]) + float(row[4]) - 1.0) <= 1e-12

    def test_decompose_peak_stays_below_the_snapshot_matrix(self, tmp_path):
        """decompose takes the geometry from the file's header and only
        scans the data through the read buffer, so its traced peak stays
        far below the snapshot matrix."""
        n_x, n_t = 20_000, 100
        sset = SnapshotSet(
            StateLayout(n_s=1, n_x=n_x, variable_names=("u",)),
            Geometry.circle(n_x),
            TimeGrid(0.01 * np.arange(n_t), n_train=80),
            np.random.default_rng(118).standard_normal((n_x, n_t)),
        )
        save_snapshots(sset, tmp_path / "snaps.bin")
        matrix = sset.data.nbytes
        del sset
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"[paths]\nsnapshots = {tmp_path}/snaps.bin\n"
            f"output_dir = {tmp_path}/out\n\n[time]\nn_train = 80\n\n"
            "[decomposition]\ntopology = annular\nk = 4\noverlap = 0.1\n"
        )
        tracemalloc.start()
        try:
            assert run("decompose", cfg) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        with open(tmp_path / "out" / "decomposition.csv", newline="") as fh:
            assert sum(1 for _ in fh) == n_x + 1
        assert peak < matrix / 2, f"peak {peak / 1e6:.1f} MB"


class TestStreamedPredict:
    """predict writes its file one column chunk at a time: 64 rows of
    float64 make one column 512 bytes, so small read sizes split the 31
    columns, one chunk straddling the training split at column 25."""

    @pytest.fixture
    def trained(self, workdir):
        tmp, cfg = workdir
        assert run("gen", cfg) == 0
        assert run("train", cfg) == 0
        return tmp, cfg

    def test_prediction_bytes_do_not_depend_on_the_chunk_width(
            self, trained, monkeypatch):
        tmp, cfg = trained
        written = []
        for width in (1, 2, 3, 31):
            monkeypatch.setattr(core, "_SCAN_BYTES", 8 * 64 * width)
            assert run("predict", cfg) == 0
            written.append((tmp / "pred.bin").read_bytes())
        assert all(raw == written[0] for raw in written)

    def test_a_failure_while_lifting_leaves_no_prediction(
            self, trained, monkeypatch, capsys):
        tmp, cfg = trained
        assert run("predict", cfg) == 0  # a stale prediction to remove
        chunks = rom.Prediction.chunks

        def fail_after_one_chunk(self, start, stop):
            yield next(chunks(self, start, stop))
            raise ValueError("non-finite data")

        monkeypatch.setattr(core, "_SCAN_BYTES", 8 * 64 * 4)
        monkeypatch.setattr(rom.Prediction, "chunks", fail_after_one_chunk)
        capsys.readouterr()
        assert run("predict", cfg) == 1
        assert capsys.readouterr().err == (
            "error: predict: integrate: non-finite data\n")
        assert not (tmp / "pred.bin").exists()

    def test_a_failed_write_leaves_no_prediction(self, trained, monkeypatch,
                                                 capsys):
        tmp, cfg = trained
        array = core._Writer.array
        calls = []

        def fail_on_the_second_chunk(self, arr, order="C"):
            if order == "F":
                calls.append(1)
                if len(calls) == 2:
                    raise OSError("disk full")
            array(self, arr, order)

        monkeypatch.setattr(core, "_SCAN_BYTES", 8 * 64 * 4)
        monkeypatch.setattr(core._Writer, "array", fail_on_the_second_chunk)
        assert run("predict", cfg) == 1
        assert capsys.readouterr().err == "error: predict: write: disk full\n"
        assert not (tmp / "pred.bin").exists()

    def test_a_divergence_leaves_an_old_prediction(self, trained, capsys):
        # the rollout fails before the output is opened
        tmp, cfg = trained
        assert run("predict", cfg) == 0
        before = (tmp / "pred.bin").read_bytes()
        cfg.write_text(cfg.read_text().replace("n_train = 25\n",
                                               "n_train = 25\nsteps = -1\n"))
        assert run("predict", cfg) == 1
        assert "predict: integrate: steps must be nonnegative" in (
            capsys.readouterr().err)
        assert (tmp / "pred.bin").read_bytes() == before


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        files = ("snaps.bin", "model.bin", "pred.bin", "out/error_report.csv",
                 "out/bin_report.csv", "out/svd_report.csv",
                 "out/profiles.csv", "out/traindump.csv")
        snapshots = []
        for run_dir in ("a", "b"):
            base = tmp_path / run_dir
            base.mkdir()
            cfg = base / "run.cfg"
            cfg.write_text(BASE_CONFIG.format(dir=base))
            for cmd in ("gen", "svdreport", "train", "predict", "evaluate"):
                assert run(cmd, cfg) == 0
            snapshots.append({f: (base / f).read_bytes() for f in files})
        assert snapshots[0] == snapshots[1]


# README's Commands table names the binary files by what they hold
_BINARIES = {"predicted snapshot file": "pred.bin",
             "snapshot file": "snaps.bin", "model artifact": "model.bin"}


def readme_writes():
    """Each command's outputs as README's Commands table lists them, as
    paths in the work directory of README's run.cfg."""
    table = README.read_text().split("## Commands\n\n")[1].split("\n\n")[0]
    writes = {}
    for line in table.splitlines()[2:]:
        command, _, cell = (c.strip() for c in line.strip("|").split("|"))
        names = {f"reports/{n}" for n in re.findall(r"`([\w.]+\.csv)`", cell)}
        rest = re.sub(r"`[\w.]+\.csv`( \([^)]*\))?", "", cell)
        for phrase, name in _BINARIES.items():
            if phrase in rest:
                names.add(name)
                rest = rest.replace(phrase, "")
        assert rest.strip(" ,") == "", cell
        writes[command.strip("`")] = names
    return writes


class TestOneWriterPerFile:
    def test_every_file_has_the_one_writer_readme_names(self, tmp_path):
        text = README.read_text().split("```ini\n# run.cfg\n")[1]
        text = text.split("```")[0].replace("work/", f"{tmp_path}/")
        cfg, searched = tmp_path / "run.cfg", tmp_path / "search.cfg"
        cfg.write_text(text)
        searched.write_text(
            text.replace("lambda_linear = 1e-8\n", "")
            .replace("lambda_quadratic = 1e-6\n", "")
            + "\n[regsearch]\nenabled = true\nlambda_linear = 1e-8, 1e-6\n"
            "lambda_quadratic = 1e-6, 1e-4\n"
        )
        writers = {}
        for command in cli.COMMANDS:
            # a write sets the mtime, also one that rewrites the same bytes
            for path in tmp_path.rglob("*"):
                if path.is_file():
                    os.utime(path, ns=(0, 0))
            assert run(command, searched if command == "regsearch" else cfg) == 0
            for path in tmp_path.rglob("*"):
                if path.is_file() and path.stat().st_mtime_ns != 0:
                    name = path.relative_to(tmp_path).as_posix()
                    writers.setdefault(name, []).append(command)
        assert {n: w for n, w in writers.items() if len(w) > 1} == {}
        written = {c: {n for n, w in writers.items() if w == [c]}
                   for c in cli.COMMANDS}
        assert written == readme_writes()

    def test_constant_in_time_truth_gets_exactly_the_three_reports(
            self, tmp_path, capsys):
        # svdreport refuses the constant field's zero scale; evaluate reads
        # neither [preprocess] nor [decomposition]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"[paths]\nsnapshots = {tmp_path}/snaps.bin\n"
            f"prediction = {tmp_path}/pred.bin\noutput_dir = {tmp_path}/out\n\n"
            "[time]\nn_train = 20\n\n"
            "[fom]\nkind = damped_sine\nn_x = 200\ndt = 0.01\nn_steps = 30\n"
            "stride = 1\n\n[preprocess]\nscaling = max_abs\n\n"
            "[decomposition]\ntopology = interval\nk = 3\noverlap = 0.1\n"
        )
        assert run("gen", cfg) == 0
        assert run("svdreport", cfg) == 1
        assert "svdreport: svd: zero scale" in capsys.readouterr().err
        truth = load_snapshots(tmp_path / "snaps.bin")
        save_snapshots(SnapshotSet(truth.layout, truth.geometry, truth.time,
                                   truth.data * 1.001), tmp_path / "pred.bin")
        assert run("evaluate", cfg) == 0, capsys.readouterr().err
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "bin_report.csv", "error_report.csv", "profiles.csv"]


class TestErrorReporting:
    def test_missing_snapshots_names_the_stage(self, workdir, capsys):
        tmp, cfg = workdir
        code = run("train", cfg)
        err = capsys.readouterr().err
        assert code == 1
        assert "train: load:" in err

    def test_fixed_and_search_weights_conflict(self, workdir, capsys):
        tmp, cfg = workdir
        run("gen", cfg)
        cfg.write_text(cfg.read_text() + "\n[regsearch]\nenabled = true\n")
        code = run("train", cfg)
        err = capsys.readouterr().err
        assert code == 1
        assert "not both" in err

    def test_no_weights_at_all(self, workdir, capsys):
        tmp, cfg = workdir
        run("gen", cfg)
        text = cfg.read_text().replace("lambda_linear = 1e-8\n", "")
        text = text.replace("lambda_quadratic = 1e-6\n", "")
        cfg.write_text(text)
        code = run("train", cfg)
        err = capsys.readouterr().err
        assert code == 1
        assert "regsearch" in err

    def test_unknown_topology(self, workdir, capsys):
        tmp, cfg = workdir
        run("gen", cfg)
        cfg.write_text(cfg.read_text().replace("topology = annular",
                                               "topology = voronoi"))
        code = run("decompose", cfg)
        err = capsys.readouterr().err
        assert code == 1
        assert "decompose" in err and "voronoi" in err

    @pytest.mark.parametrize("k, overlap", [("4", "0.0"), ("1", "-3")])
    def test_single_topology_refuses_subdomains_and_overlap(
            self, workdir, capsys, k, overlap):
        tmp, cfg = workdir
        assert run("gen", cfg) == 0
        cfg.write_text(cfg.read_text().replace(
            "topology = annular\nk = 2\noverlap = 0.4",
            f"topology = single\nk = {k}\noverlap = {overlap}"))
        capsys.readouterr()
        message = ("topology = single has one subdomain and no overlap, "
                   f"not k = {k}, overlap = {float(overlap):g}")
        for command in ("decompose", "svdreport", "train"):
            assert run(command, cfg) == 1
            assert message in capsys.readouterr().err
        assert not (tmp / "model.bin").exists()

    def test_a_split_into_one_subdomain_names_single(self, workdir, capsys):
        tmp, cfg = workdir
        assert run("gen", cfg) == 0
        cfg.write_text(cfg.read_text().replace("k = 2", "k = 1"))
        capsys.readouterr()
        assert run("train", cfg) == 1
        assert ("train: decompose: topology = annular needs at least two "
                "subdomains; for one, use topology = single"
                in capsys.readouterr().err)

    def test_no_decomposition_section_trains_one_domain(self, workdir):
        tmp, cfg = workdir
        assert run("gen", cfg) == 0
        cfg.write_text(cfg.read_text().replace(
            "[decomposition]\ntopology = annular\nk = 2\noverlap = 0.4\n", ""))
        assert "[decomposition]" not in cfg.read_text()
        assert run("train", cfg) == 0
        model = load_rom(tmp / "model.bin")
        assert model.decomposition.topology == "single" and model.k == 1

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["gen", "--config", str(tmp_path / "nope.cfg")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_oversized_r_mentions_the_budget(self, workdir, capsys):
        # k = 2, r = 12: d(r) = 12 own + 78 quadratic + 12 neighbor = 102
        tmp, cfg = workdir
        run("gen", cfg)
        capsys.readouterr()
        cfg.write_text(cfg.read_text().replace("r = 4", "r = 12"))
        code = run("train", cfg)
        err = capsys.readouterr().err
        assert code == 1
        assert err == (
            "error: train: pod: subdomain 0: r=12 needs d(r)=102 coefficients "
            "but the discrete form has only n_train - 1 = 24 equations; "
            "largest admissible r is 4\n"
        )

    def test_discrete_budget_counts_equations_not_columns(self, workdir, capsys):
        # r = 5: d(r) = 5 + 15 + 5 = 25 coefficients, 24 discrete equations
        tmp, cfg = workdir
        assert run("gen", cfg) == 0
        cfg.write_text(cfg.read_text().replace("r = 4", "r = 5"))
        assert run("train", cfg) == 1
        err = capsys.readouterr().err
        assert ("needs d(r)=25 coefficients but the discrete form has only "
                "n_train - 1 = 24 equations; largest admissible r is 4") in err

    def test_continuous_budget_admits_d_equal_to_n_train(self, workdir, capsys):
        tmp, cfg = workdir
        assert run("gen", cfg) == 0
        cfg.write_text(cfg.read_text().replace("r = 4", "r = 5")
                       .replace("form = discrete", "form = continuous"))
        assert run("train", cfg) == 0
        assert "d(r)=25 residual" in capsys.readouterr().out

    @pytest.mark.parametrize("line, message", [
        ("kappa = -1", "kappa must be positive"),
        ("mode = nonsense", "unknown search mode"),
    ])
    def test_search_keys_are_checked_on_the_fixed_weight_path(
            self, workdir, capsys, line, message):
        tmp, cfg = workdir
        assert run("gen", cfg) == 0
        cfg.write_text(cfg.read_text() + f"\n[regsearch]\nenabled = false\n{line}\n")
        assert run("train", cfg) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("cmd, stage", [
        ("gen", "simulate"), ("decompose", "load"), ("svdreport", "load"),
        ("train", "load"), ("predict", "load"), ("evaluate", "load"),
    ])
    def test_n_train_above_the_column_count_is_refused(self, workdir, capsys,
                                                       cmd, stage):
        # the generated file holds 31 columns
        tmp, cfg = workdir
        assert run("gen", cfg) == 0
        assert run("train", cfg) == 0
        cfg.write_text(cfg.read_text().replace("n_train = 25", "n_train = 40"))
        capsys.readouterr()
        assert run(cmd, cfg) == 1
        assert capsys.readouterr().err == (
            f"error: {cmd}: {stage}: n_train must lie in [1, n_t]\n"
        )

    def test_n_train_does_not_apply_to_an_ic_file(self, workdir):
        tmp, cfg = workdir
        assert run("gen", cfg) == 0
        assert run("train", cfg) == 0
        (tmp / "ic.bin").write_bytes((tmp / "snaps.bin").read_bytes())
        cfg.write_text(cfg.read_text().replace("n_train = 25", "n_train = 40")
                       .replace("[paths]\n", f"[paths]\nic = {tmp}/ic.bin\n"))
        assert run("predict", cfg) == 0

    def test_ic_with_another_layout_of_the_same_length(self, workdir, capsys):
        tmp, cfg = workdir
        assert run("gen", cfg) == 0
        assert run("train", cfg) == 0
        ic = SnapshotSet(
            StateLayout(n_s=2, n_x=32, variable_names=("a", "b")),
            Geometry.circle(32), TimeGrid([0.0, 0.01]), np.zeros((64, 2)),
        )
        save_snapshots(ic, tmp / "ic.bin")
        cfg.write_text(cfg.read_text().replace(
            "[paths]\n", f"[paths]\nic = {tmp}/ic.bin\n"))
        code = run("predict", cfg)
        err = capsys.readouterr().err
        assert code == 1
        assert "does not match the model" in err and "n_s=2" in err

    def test_prediction_from_a_separate_ic_file(self, workdir):
        tmp, cfg = workdir
        assert run("gen", cfg) == 0
        assert run("train", cfg) == 0
        assert run("predict", cfg) == 0
        expected = (tmp / "pred.bin").read_bytes()
        (tmp / "ic.bin").write_bytes((tmp / "snaps.bin").read_bytes())
        cfg.write_text(cfg.read_text().replace(
            "[paths]\n", f"[paths]\nic = {tmp}/ic.bin\n"))
        assert run("predict", cfg) == 0
        assert (tmp / "pred.bin").read_bytes() == expected

    def test_non_finite_snapshot_column_is_refused(self, workdir, capsys):
        tmp, cfg = workdir
        assert run("gen", cfg) == 0
        assert run("train", cfg) == 0
        raw = bytearray((tmp / "snaps.bin").read_bytes())
        raw[-8:] = np.array([np.nan]).tobytes()
        (tmp / "snaps.bin").write_bytes(bytes(raw))
        code = run("predict", cfg)
        assert code == 1
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("column, stage", [(0, "preprocess"), (30, "load")])
    def test_non_finite_training_or_prediction_column_fails_train(
            self, workdir, capsys, column, stage):
        # 64 points, 31 columns of which the first 25 train
        tmp, cfg = workdir
        assert run("gen", cfg) == 0
        raw = bytearray((tmp / "snaps.bin").read_bytes())
        at = len(raw) - 8 * 64 * (31 - column) + 8 * 63
        raw[at:at + 8] = np.array([np.nan]).tobytes()
        (tmp / "snaps.bin").write_bytes(bytes(raw))
        code = run("train", cfg)
        err = capsys.readouterr().err
        assert code == 1
        assert f"train: {stage}: non-finite data" in err

    def test_empty_truth_path_fails_evaluate(self, workdir, capsys):
        # only a missing key falls back to the training snapshots
        tmp, cfg = workdir
        for cmd in ("gen", "train", "predict"):
            assert run(cmd, cfg) == 0
        cfg.write_text(cfg.read_text().replace("[paths]\n", "[paths]\ntruth =\n"))
        code = run("evaluate", cfg)
        assert code == 1
        assert "evaluate: load:" in capsys.readouterr().err

    def test_prediction_on_another_time_grid_fails_evaluate(self, workdir,
                                                            capsys):
        tmp, cfg = workdir
        assert run("gen", cfg) == 0
        assert run("train", cfg) == 0
        sset = load_snapshots(tmp / "snaps.bin")
        shifted = TimeGrid(sset.time.timestamps + 5.0, sset.time.n_train)
        save_snapshots(SnapshotSet(sset.layout, sset.geometry, shifted,
                                   sset.data), tmp / "ic.bin")
        cfg.write_text(cfg.read_text().replace(
            "[paths]\n", f"[paths]\nic = {tmp}/ic.bin\n"))
        assert run("predict", cfg) == 0
        code = run("evaluate", cfg)
        err = capsys.readouterr().err
        assert code == 1
        assert "evaluate: load: prediction times t = 5 to" in err

    def test_prediction_of_other_variables_fails_evaluate(self, workdir,
                                                          capsys):
        tmp, cfg = workdir
        for cmd in ("gen", "train", "predict"):
            assert run(cmd, cfg) == 0
        pred = load_snapshots(tmp / "pred.bin")
        renamed = StateLayout(n_s=1, n_x=64, variable_names=("pressure",))
        save_snapshots(SnapshotSet(renamed, pred.geometry, pred.time,
                                   pred.data), tmp / "pred.bin")
        code = run("evaluate", cfg)
        err = capsys.readouterr().err
        assert code == 1
        assert err == (
            "error: evaluate: load: prediction layout (n_s=1, n_x=64, "
            "variables ('pressure',)) does not match the truth (n_s=1, "
            "n_x=64, variables ('u',))\n"
        )
        assert not (tmp / "out" / "error_report.csv").exists()

    def test_prediction_on_another_geometry_fails_evaluate(self, workdir,
                                                           capsys):
        tmp, cfg = workdir
        for cmd in ("gen", "train", "predict"):
            assert run(cmd, cfg) == 0
        pred = load_snapshots(tmp / "pred.bin")
        save_snapshots(SnapshotSet(pred.layout, Geometry.interval(64, 5.0),
                                   pred.time, pred.data), tmp / "pred.bin")
        code = run("evaluate", cfg)
        err = capsys.readouterr().err
        assert code == 1
        assert err == (
            "error: evaluate: load: prediction geometry (non-periodic, "
            "n_x=64, dim=1, first coordinate 5 to 1) does not match the "
            "truth (periodic, n_x=64, dim=1, first coordinate 0 to 0.984375)\n"
        )
        assert not (tmp / "out" / "profiles.csv").exists()

    def test_ic_on_another_geometry_fails_predict(self, workdir, capsys):
        tmp, cfg = workdir
        assert run("gen", cfg) == 0
        assert run("train", cfg) == 0
        sset = load_snapshots(tmp / "snaps.bin")
        save_snapshots(SnapshotSet(sset.layout, Geometry.interval(64, 5.0),
                                   sset.time, sset.data), tmp / "ic.bin")
        cfg.write_text(cfg.read_text().replace(
            "[paths]\n", f"[paths]\nic = {tmp}/ic.bin\n"))
        code = run("predict", cfg)
        err = capsys.readouterr().err
        assert code == 1
        assert err == (
            "error: predict: load: initial-condition geometry (non-periodic, "
            "n_x=64, dim=1, first coordinate 5 to 1) does not match the "
            "model (periodic, n_x=64, dim=1, first coordinate 0 to 0.984375)\n"
        )
        assert not (tmp / "pred.bin").exists()

    def test_non_uniform_time_grid_is_refused(self, workdir, capsys):
        tmp, cfg = workdir
        assert run("gen", cfg) == 0
        sset = load_snapshots(tmp / "snaps.bin")
        # steps of 0.01 up to column 10, then 0.02
        stamps = np.cumsum(np.where(np.arange(sset.n_t) < 10, 0.01, 0.02))
        save_snapshots(SnapshotSet(sset.layout, sset.geometry,
                                   TimeGrid(stamps, sset.time.n_train),
                                   sset.data), tmp / "snaps.bin")
        code = run("train", cfg)
        err = capsys.readouterr().err
        assert code == 1
        assert "train: load: non-uniform time grid" in err

    def test_derivative_scheme_is_checked_on_every_path(self, workdir, capsys):
        tmp, cfg = workdir
        assert run("gen", cfg) == 0
        fixed = cfg.read_text()
        searched = fixed.replace("lambda_linear = 1e-8\n", "").replace(
            "lambda_quadratic = 1e-6\n", "") + (
            "\n[regsearch]\nenabled = true\n"
            "lambda_linear = 1e-08\nlambda_quadratic = 1e-06\n")
        for text in (searched, fixed):
            for form in ("discrete", "continuous"):
                cfg.write_text(text.replace(
                    "form = discrete\n",
                    f"form = {form}\nderivative_scheme = 3\n"))
                code = run("train", cfg)
                err = capsys.readouterr().err
                assert code == 1
                assert "derivative_scheme must be 2 or 4" in err


class TestConstantTerm:
    # k = 2, r = 4: d(r) = 4 own + 10 quadratic + 4 neighbor = 18, and
    # n_train = 19 gives the discrete form 18 equations
    def test_budget_counts_the_constant_column(self, workdir, capsys):
        tmp, cfg = workdir
        assert run("gen", cfg) == 0
        cfg.write_text(cfg.read_text().replace("n_train = 25", "n_train = 19"))
        assert run("train", cfg) == 0
        capsys.readouterr()
        cfg.write_text(cfg.read_text() + "constant = true\n")
        code = run("train", cfg)
        err = capsys.readouterr().err
        assert code == 1
        assert "d(r)=19" in err and "n_train - 1 = 18" in err

    def test_searched_model_keeps_the_constant(self, workdir):
        tmp, cfg = workdir
        assert run("gen", cfg) == 0
        text = cfg.read_text().replace("lambda_linear = 1e-8\n", "")
        text = text.replace("lambda_quadratic = 1e-6\n", "constant = true\n")
        cfg.write_text(text + (
            "\n[regsearch]\nenabled = true\n"
            "lambda_linear = 1e-08, 0.0001\nlambda_quadratic = 1e-06, 0.01\n"))
        assert run("train", cfg) == 0
        model = load_rom(tmp / "model.bin")
        assert all(op.constant is not None for op in model.operators)
        with open(tmp / "out" / "traindump.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(row["coefficients"]) for row in rows] == [19, 19]
