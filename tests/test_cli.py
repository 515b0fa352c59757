import csv

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


def run(cmd, cfg, *extra):
    return cli.main([cmd, "--config", str(cfg), *extra])


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

    def test_steps_flag_overrides(self, workdir):
        tmp, cfg = workdir
        run("gen", cfg)
        run("train", cfg)
        assert run("predict", cfg, "--steps", "7") == 0
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
        tmp, cfg = workdir
        run("gen", cfg)
        cfg.write_text(cfg.read_text().replace("r = 4", "r = 12"))
        code = run("train", cfg)
        err = capsys.readouterr().err
        assert code == 1
        assert "d(r)=" in err and "n_train" in err

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
    # k = 2, r = 4: d(r) = 4 own + 10 quadratic + 4 neighbor = 18
    def test_budget_counts_the_constant_column(self, workdir, capsys):
        tmp, cfg = workdir
        assert run("gen", cfg) == 0
        cfg.write_text(cfg.read_text().replace("n_train = 25", "n_train = 18"))
        assert run("train", cfg) == 0
        capsys.readouterr()
        cfg.write_text(cfg.read_text() + "constant = true\n")
        code = run("train", cfg)
        err = capsys.readouterr().err
        assert code == 1
        assert "d(r)=19" in err and "n_train=18" in err

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
