import csv
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ddrom import cli
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

    def test_missing_key_names_section_and_key(self, workdir):
        tmp, cfg = workdir
        text = cfg.read_text().replace("k = 2\n", "")
        cfg.write_text(text)
        assert run("gen", cfg) == 0
        code = run("decompose", cfg)
        assert code == 1

    @pytest.mark.parametrize("old, new, message", [
        ("n_train = 25", "ntrain = 300", "unknown [time] key 'ntrain'"),
        ("scaling = max_abs", "scalling = std_dev",
         "unknown [preprocess] key 'scalling'"),
        ("[pod]", "[pods]", "unknown config section [pods]"),
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
    def test_floats_use_repr(self):
        assert cli._fmt(0.1) == "0.1"
        assert cli._fmt(np.float64(1.0) / 3.0) == "0.3333333333333333"

    def test_bools_and_ints(self):
        assert cli._fmt(True) == "true"
        assert cli._fmt(False) == "false"
        assert cli._fmt(np.int64(7)) == "7"

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
        for cmd in ("gen", "train", "predict", "evaluate"):
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
            for cmd in ("gen", "train", "predict", "evaluate"):
                assert run(cmd, cfg) == 0
            snapshots.append({f: (base / f).read_bytes() for f in files})
        assert snapshots[0] == snapshots[1]


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
