"""Acceptance gate: one test per shipped guarantee.

Each test pins the tolerance it promises; measured accuracy and timing
numbers are echoed into the terminal summary so CI logs carry them even on
green runs.
"""

import csv
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as la

from ddrom import cli
from ddrom.core import Geometry, SnapshotSet, StateLayout, TimeGrid, save_snapshots
from ddrom.decomp import (
    Decomposition,
    annular_sector_fraction,
    blending_weights,
    decompose_interval,
    decompose_sectors,
    recombine,
)
from ddrom.fomlab import FomSpec, rhs_burgers, simulate
from ddrom.metrics import error_report
from ddrom.opinf import (
    RegressionConfig,
    RomOperators,
    coefficient_count,
    compress_quadratic,
    infer_continuous,
    infer_discrete,
    max_reduced_dimension,
    quadratic_dim,
    solve_tikhonov,
)
from ddrom.pod import (
    PodBasis,
    compute_basis,
    energy_rank,
    retained_energy,
    singular_spectrum,
)
from ddrom.preprocess import ScalingRecord, center_scale
from ddrom.regsearch import RegGrid, ReducedTraining, search
from ddrom.rom import CoupledRom, integrate, predict_full, roll_reduced


def spectral_matrix(rng, rows, cols, sigma):
    u, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    w, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
    return u @ np.diag(sigma) @ w.T


def test_c01_partition_of_unity_random_overlaps(ci_log):
    """Blending weights sum to one everywhere, both topologies, 50 random
    admissible overlaps for each subdomain count."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    interval = Geometry.interval(257)
    circle = Geometry.circle(256)
    worst = 0.0
    for k in (2, 3, 4, 8):
        for _ in range(50):
            span = rng.uniform(6.0 / 256.0, 0.9 / k)
            dec = decompose_interval(interval, k, span)
            w = blending_weights(dec, interval).weights
            worst = max(worst, np.abs(w.sum(axis=0) - 1.0).max())

            angle = rng.uniform(6.0 * 2.0 * np.pi / 256.0, 0.9 * 2.0 * np.pi / k)
            dec = decompose_sectors(circle, k, angle)
            w = blending_weights(dec, circle).weights
            worst = max(worst, np.abs(w.sum(axis=0) - 1.0).max())
    elapsed = time.perf_counter() - t0
    ci_log(f"partition of unity: worst deviation {worst:.3e}, {elapsed:.2f}s")
    assert worst <= 1e-13
    assert elapsed < 5.0


def test_c02_recombination_reproduces_damped_sinusoid(ci_log):
    """Exact subdomain restrictions of a damped sinusoid reassemble to the
    original field at machine precision."""
    spec = FomSpec(kind="damped_sine", n_x=1000, decay=3.0, frequency=20.0,
                   n_steps=0, stride=1)
    sset = simulate(spec)
    field = sset.data[:, 0]
    dec = decompose_interval(sset.geometry, 3, 0.08)
    weights = blending_weights(dec, sset.geometry)
    parts = []
    for idx in dec.dof_indices:
        f = np.zeros_like(field)
        f[idx] = field[idx]
        parts.append(f)
    err = np.abs(recombine(parts, weights) - field).max()
    ci_log(f"recombination: max abs error {err:.3e}")
    assert err <= 1e-13


def test_c03_pod_orthonormality_truncation_and_gram_route(ci_log):
    """On 100 random tall matrices the basis is orthonormal, the truncation
    error equals the tail energy, and the Gram-matrix route matches the
    direct SVD projector whenever the retained spectrum is well separated."""
    rng = np.random.default_rng(103)
    worst_ortho = worst_tail = worst_proj = 0.0
    for trial in range(100):
        rows = int(rng.integers(30, 80))
        cols = int(rng.integers(8, 17))
        r = int(rng.integers(2, cols - 1))
        # spectrum with a 20x drop after mode r: sigma_r / sigma_{r+1} > 10
        lead = np.geomspace(1.0, 0.3, r)
        tail = np.geomspace(0.3 / 20.0, 1e-3, cols - r)
        sigma = np.concatenate([lead, tail])
        m = spectral_matrix(rng, rows, cols, sigma)

        basis = compute_basis(m, r=r)
        gram = basis.basis.T @ basis.basis
        worst_ortho = max(worst_ortho,
                          np.abs(gram - np.eye(r)).max())

        resid = m - basis.basis @ (basis.basis.T @ m)
        tail_energy = float(np.sum(sigma[r:] ** 2))
        worst_tail = max(
            worst_tail,
            abs(np.linalg.norm(resid) ** 2 - tail_energy) / tail_energy,
        )

        snap = compute_basis(m, r=r, method="snapshots")
        p_gap = np.abs(
            snap.basis @ snap.basis.T - basis.basis @ basis.basis.T
        ).max()
        worst_proj = max(worst_proj, p_gap)
    ci_log(
        f"pod: orthonormality {worst_ortho:.3e}, tail-energy mismatch "
        f"{worst_tail:.3e}, projector gap {worst_proj:.3e}"
    )
    assert worst_ortho <= 1e-10
    assert worst_tail <= 1e-8
    assert worst_proj <= 1e-8


def test_c04_ridge_solver_matches_normal_equations(ci_log):
    """Block-weighted ridge solutions agree with the normal-equations oracle
    on 100 random systems."""
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        rows = int(rng.integers(20, 60))
        cols = int(rng.integers(5, 16))
        data = rng.standard_normal((rows, cols))
        rhs = rng.standard_normal((rows, int(rng.integers(1, 4))))
        blocks, left = [], cols
        while left > 0:
            extent = int(rng.integers(1, left + 1)) if left > 1 else left
            blocks.append((extent, float(10.0 ** rng.uniform(-4, 2))))
            left -= extent
        x = solve_tikhonov(data, rhs, blocks)
        lam = np.concatenate([np.full(n, l) for n, l in blocks])
        oracle = np.linalg.solve(data.T @ data + np.diag(lam), data.T @ rhs)
        worst = max(worst, np.abs(x - oracle).max() / np.abs(oracle).max())
    ci_log(f"ridge vs normal equations: worst relative gap {worst:.3e}")
    assert worst <= 1e-8


def test_c05_planted_operator_recovery(ci_log):
    """Unregularized regression recovers planted quadratic operators from a
    persistently exciting trajectory (discrete) and from exact supplied
    derivatives (continuous)."""
    rng = np.random.default_rng(105)
    r = 6

    t0 = time.perf_counter()
    linear = np.zeros((r, r))
    for b, (radius, theta) in enumerate([(0.995, 0.7), (0.99, 1.1),
                                         (0.985, 1.7)]):
        c, s = radius * np.cos(theta), radius * np.sin(theta)
        linear[2 * b:2 * b + 2, 2 * b:2 * b + 2] = [[c, -s], [s, c]]
    quadratic = 0.01 * rng.standard_normal((r, quadratic_dim(r)))
    planted = RomOperators(linear=linear, quadratic=quadratic, coupling={},
                           form="discrete")
    q = np.empty((r, 241))
    q[:, 0] = 0.5 * rng.standard_normal(r)
    for s_ in range(240):
        q[:, s_ + 1] = planted.apply(q[:, s_], [q[:, s_]])
    config = RegressionConfig(form="discrete", lambda_linear=0.0,
                              lambda_quadratic=0.0)
    learned, = infer_discrete([q], [set()], config)
    err_discrete = max(
        np.abs(learned.linear - linear).max() / np.abs(linear).max(),
        np.abs(learned.quadratic - quadratic).max() / np.abs(quadratic).max(),
    )
    t_discrete = time.perf_counter() - t0

    t0 = time.perf_counter()
    linear_c = rng.standard_normal((r, r))
    quadratic_c = 0.1 * rng.standard_normal((r, quadratic_dim(r)))
    states = rng.standard_normal((r, 80))
    derivatives = linear_c @ states + quadratic_c @ compress_quadratic(states)
    config_c = RegressionConfig(form="continuous", lambda_linear=0.0,
                                lambda_quadratic=0.0)
    learned_c, = infer_continuous([states], [derivatives], [set()], config_c)
    err_continuous = max(
        np.abs(learned_c.linear - linear_c).max() / np.abs(linear_c).max(),
        np.abs(learned_c.quadratic - quadratic_c).max()
        / np.abs(quadratic_c).max(),
    )
    t_continuous = time.perf_counter() - t0

    ci_log(
        f"planted recovery: discrete {err_discrete:.3e} ({t_discrete:.2f}s), "
        f"continuous {err_continuous:.3e} ({t_continuous:.2f}s)"
    )
    assert err_discrete <= 1e-8
    assert t_discrete < 10.0
    assert err_continuous <= 1e-6
    assert t_continuous < 10.0


def test_c06_regression_residual_not_above_intrusive_projection(ci_log):
    """The least-squares fit cannot lose to the intrusively projected
    operators on the very data it minimizes over."""
    spec = FomSpec(kind="burgers", n_x=256, nu=0.01, dt=1e-4, n_steps=20000,
                   stride=100)
    sset = simulate(spec)
    basis = compute_basis(sset.data, r=10)
    reduced = basis.basis.T @ sset.data
    derivatives = basis.basis.T @ np.column_stack(
        [rhs_burgers(spec, sset.data[:, j]) for j in range(sset.n_t)]
    )

    config = RegressionConfig(form="continuous", lambda_linear=0.0,
                              lambda_quadratic=0.0)
    fitted, = infer_continuous([reduced], [derivatives], [set()], config)
    from ddrom.fomlab import galerkin_operators

    projected = galerkin_operators(spec, basis)
    resid_fit = np.linalg.norm(
        fitted.apply(reduced, [reduced]) - derivatives)
    resid_proj = np.linalg.norm(
        projected.apply(reduced, [reduced]) - derivatives)
    ci_log(
        f"residuals: regression {resid_fit:.6e} <= projection "
        f"{resid_proj:.6e} (margin {resid_proj - resid_fit:.3e})"
    )
    assert resid_fit <= resid_proj * (1.0 + 1e-10)


def test_c07_single_domain_burgers_rom_accuracy(ci_log):
    """A single-domain model trained on a viscous Burgers run reproduces
    the training window and holds up over a 30% longer horizon."""
    t0 = time.perf_counter()
    spec = FomSpec(kind="burgers", n_x=256, nu=0.01, dt=1e-4, n_steps=26000,
                   stride=100)
    raw = simulate(spec)
    sset = raw.with_data(raw.data, n_train=201)
    scaled, record = center_scale(sset)
    train = scaled.data[:, :201]
    sigma = singular_spectrum(train)
    r = min(energy_rank(sigma, 1.0 - 1e-5), max_reduced_dimension(201))
    retained = retained_energy(sigma, r)
    assert retained >= 0.999
    basis = compute_basis(train, r=r)
    reduced = basis.basis.T @ train
    config = RegressionConfig(form="discrete", lambda_linear=1e-12,
                              lambda_quadratic=1e-12)
    operators = infer_discrete([reduced], [set()], config)
    rom = CoupledRom(
        layout=sset.layout, geometry=sset.geometry,
        decomposition=Decomposition.single(spec.n_x), bases=[basis],
        operators=operators, scaling=record, form="discrete",
        dt=spec.dt * spec.stride,
    )
    prediction = predict_full(rom, sset.data[:, 0], steps=sset.n_t - 1)
    report = error_report(sset, prediction)
    elapsed = time.perf_counter() - t0
    ci_log(
        f"single-domain burgers: r={r} (retained {retained:.6f}), training "
        f"{report.training[0]:.3e}, prediction {report.prediction[0]:.3e}, "
        f"{elapsed:.1f}s"
    )
    assert report.training[0] <= 1e-4
    assert report.prediction[0] <= 1e-2
    assert elapsed < 60.0


def test_c08_four_sector_rotating_pulse_rom_accuracy(ci_log):
    """Four coupled sector models track a two-pulse rotating wave through
    training plus one further rotation; the single-domain error is logged
    alongside for comparison."""
    spec = FomSpec(kind="rotating_pulse", n_x=512, n_pulses=2,
                   pulse_width=0.05, wave_speed=1.0, length=1.0,
                   dt=1.0 / 1280.0, n_steps=3200, stride=10)
    raw = simulate(spec)
    sset = raw.with_data(raw.data, n_train=193)
    scaled, record = center_scale(sset)
    dt_snap = spec.dt * spec.stride
    grid = RegGrid(lambda_linear=tuple(np.logspace(-10, 0, 6)),
                   lambda_quadratic=tuple(np.logspace(-10, 0, 6)))

    # one rotation spans L / c = 1.0, i.e. 128 snapshot columns
    assert sset.n_t - 193 == 128

    overlap = 2.0 * (2.0 * np.pi / spec.n_x)
    dec = decompose_sectors(sset.geometry, 4, overlap)
    r = max_reduced_dimension(193, [None, None])
    bases, reduced = [], []
    for i in range(4):
        block = scaled.data[dec.dof_indices[i]][:, :193]
        basis = compute_basis(block, r=r)
        bases.append(basis)
        reduced.append(basis.basis.T @ block)
    training = ReducedTraining(
        reduced=reduced, adjacency=[set(s) for s in dec.adjacency],
        form="discrete",
    )
    result = search(training, grid)
    rom = CoupledRom(
        layout=sset.layout, geometry=sset.geometry, decomposition=dec,
        bases=bases, operators=result.operators, scaling=record,
        form="discrete", dt=dt_snap,
    )
    prediction = predict_full(rom, sset.data[:, 0], steps=sset.n_t - 1)
    report = error_report(sset, prediction)

    # single-domain counterpart on the same data, for the log
    sd_r = max_reduced_dimension(193)
    sd_basis = compute_basis(scaled.data[:, :193], r=sd_r)
    sd_training = ReducedTraining(
        reduced=[sd_basis.basis.T @ scaled.data[:, :193]],
        adjacency=[set()], form="discrete",
    )
    sd_result = search(sd_training, grid)
    sd_rom = CoupledRom(
        layout=sset.layout, geometry=sset.geometry,
        decomposition=Decomposition.single(spec.n_x), bases=[sd_basis],
        operators=sd_result.operators, scaling=record, form="discrete",
        dt=dt_snap,
    )
    sd_report = error_report(sset, predict_full(sd_rom, sset.data[:, 0],
                                                steps=sset.n_t - 1))

    ci_log(
        f"rotating pulse, four sectors (r={r}, chosen {result.chosen[0]}): "
        f"training {report.training[0]:.3e}, prediction "
        f"{report.prediction[0]:.3e}"
    )
    ci_log(
        f"rotating pulse, single domain (r={sd_r}): training "
        f"{sd_report.training[0]:.3e}, prediction {sd_report.prediction[0]:.3e}"
    )
    assert result.bounded
    assert report.training[0] <= 1e-2
    assert report.prediction[0] <= 5e-2


def test_c09_coupling_off_and_single_subdomain_equivalence(ci_log):
    """Zeroed coupling splits the coupled run into independent single-domain
    runs, and a one-subdomain model follows the plain rollout bit for bit."""
    rng = np.random.default_rng(109)
    r = 3

    def make_ops(form, coupling):
        return RomOperators(
            linear=0.4 * rng.standard_normal((r, r)),
            quadratic=0.02 * rng.standard_normal((r, quadratic_dim(r))),
            coupling=coupling,
            form=form,
        )

    # coupling off, two subdomains, discrete
    ops = [make_ops("discrete", {1: np.zeros((r, r))}),
           make_ops("discrete", {0: np.zeros((r, r))})]
    init = [rng.standard_normal(r), rng.standard_normal(r)]
    coupled = roll_reduced(ops, "discrete", 0.1, init, 30)
    worst = 0.0
    for i in range(2):
        solo = RomOperators(linear=ops[i].linear, quadratic=ops[i].quadratic,
                            coupling={}, form="discrete")
        alone, = roll_reduced([solo], "discrete", 0.1, [init[i]], 30)
        worst = max(worst, np.abs(coupled[i] - alone).max())

    # one-subdomain continuous model against the bare integrator
    solo_ops = make_ops("continuous", {})
    q0 = rng.standard_normal(r)
    direct, = roll_reduced([solo_ops], "continuous", 0.05, [q0], 40)
    layout_rows = 12
    basis_mat, _ = np.linalg.qr(rng.standard_normal((layout_rows, r)))
    rom = CoupledRom(
        layout=StateLayout(n_s=1, n_x=layout_rows, variable_names=("u",)),
        geometry=Geometry.interval(layout_rows),
        decomposition=Decomposition.single(layout_rows),
        bases=[PodBasis(basis=basis_mat,
                        singular_values=np.geomspace(1, 0.1, r))],
        operators=[solo_ops],
        scaling=ScalingRecord(np.zeros(layout_rows), np.array([1.0]),
                              "max_abs", ("identity",)),
        form="continuous", dt=0.05,
    )
    via_rom, = integrate(rom, [q0], 40)
    identical = np.array_equal(via_rom, direct)
    ci_log(
        f"equivalences: coupling-off max gap {worst:.3e}, single-subdomain "
        f"path bit-identical: {identical}"
    )
    assert worst <= 1e-12
    assert identical


def test_c10_training_budget_worked_values(ci_log):
    """The training-column budget admits 24 modes for 375 columns with two
    same-size neighbors, and one more without neighbors."""
    assert coefficient_count(24, (24, 24)) == 372
    assert coefficient_count(25, (25, 25)) == 400
    assert max_reduced_dimension(375, [None, None]) == 24
    assert max_reduced_dimension(375, ()) == 25
    ci_log("budget: d(24)=372 <= 375 < d(25)=400; max r 24 (coupled) / 25")


def test_c11_memory_reduction_factor_bracket(ci_log):
    """Splitting a production-scale snapshot matrix into four overlapping
    sectors cuts the largest resident block by a factor a bit above 3."""
    t0 = time.perf_counter()
    n, n_t = 75_675_600, 375
    fraction = annular_sector_fraction(4, np.pi / 9.0)
    full = cli.snapshot_matrix_bytes(n, n_t)
    sector_rows = int(round(n * fraction))
    largest = cli.snapshot_matrix_bytes(sector_rows, n_t)
    factor = full / largest
    elapsed = time.perf_counter() - t0
    ci_log(
        f"memory: full {full / 1e9:.1f} GB, largest sector "
        f"{largest / 1e9:.1f} GB, reduction {factor:.3f}x"
    )
    assert 3.0 <= factor <= 3.6
    assert elapsed < 1.0


def test_c12_rk4_fourth_order_convergence(ci_log):
    """Halving the step shrinks the fixed-horizon error of a linear system
    by at least 14x."""
    rng = np.random.default_rng(112)
    r = 3
    a = rng.standard_normal((r, r))
    a = a - a.T - 0.5 * np.eye(r)
    ops = RomOperators(linear=a, quadratic=np.zeros((r, quadratic_dim(r))),
                       coupling={}, form="continuous")
    q0 = rng.standard_normal(r)
    exact = la.expm(a) @ q0

    def final_error(dt):
        steps = int(round(1.0 / dt))
        traj, = roll_reduced([ops], "continuous", dt, [q0], steps)
        return np.abs(traj[:, -1] - exact).max()

    ratio = final_error(0.02) / final_error(0.01)
    ci_log(f"rk4 convergence: error ratio {ratio:.1f} on dt halving")
    assert ratio >= 14.0


ACCEPTANCE_CONFIG = """\
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


def test_c13_cli_determinism_and_report_headers(tmp_path, ci_log):
    """Two identically seeded pipeline runs write byte-identical artifacts,
    and the evaluation reports carry exactly the documented columns."""
    outputs = []
    for name in ("a", "b"):
        base = tmp_path / name
        base.mkdir()
        cfg = base / "run.cfg"
        cfg.write_text(ACCEPTANCE_CONFIG.format(dir=base))
        for command in ("gen", "train", "predict", "evaluate"):
            code = cli.main([command, "--config", str(cfg)])
            assert code == 0
        files = ("snaps.bin", "model.bin", "pred.bin",
                 "out/error_report.csv", "out/bin_report.csv",
                 "out/svd_report.csv", "out/profiles.csv")
        outputs.append({f: (base / f).read_bytes() for f in files})
    assert outputs[0] == outputs[1]

    out = tmp_path / "a" / "out"
    with open(out / "error_report.csv", newline="") as fh:
        assert tuple(next(csv.reader(fh))) == (
            "variable", "training_error", "prediction_error")
    with open(out / "svd_report.csv", newline="") as fh:
        assert tuple(next(csv.reader(fh))) == (
            "subdomain", "index", "singular_value", "cumulative_energy")
    with open(out / "bin_report.csv", newline="") as fh:
        assert tuple(next(csv.reader(fh))) == (
            "time", "re_le_5pct", "re_5_to_10pct", "re_10_to_20pct",
            "re_gt_20pct")
    with open(out / "profiles.csv", newline="") as fh:
        assert next(csv.reader(fh))[0] == "coordinate"
    ci_log("cli determinism: two seeded runs byte-identical, headers match")


@pytest.mark.parametrize("k", [2, 8])
def test_c14_predict_peak_is_one_output_plus_subdomain_blocks(k, ci_log):
    """Prediction holds one full-size output and a few lifted subdomain
    blocks at a time, never one full-size field per subdomain, so its traced
    peak cannot grow with k."""
    n_x, r, steps = 20_000, 4, 99
    rng = np.random.default_rng(114)
    geometry = Geometry.circle(n_x)
    dec = decompose_sectors(geometry, k, 0.1)
    bases, operators = [], []
    for i in range(k):
        basis, _ = np.linalg.qr(rng.standard_normal((dec.dof_indices[i].size, r)))
        bases.append(PodBasis(basis=basis, singular_values=np.geomspace(1, 0.1, r)))
        operators.append(RomOperators(
            linear=0.99 * np.eye(r), quadratic=np.zeros((r, quadratic_dim(r))),
            coupling={j: np.zeros((r, r)) for j in dec.adjacency[i]},
            form="discrete"))
    rom = CoupledRom(
        layout=StateLayout(n_s=1, n_x=n_x, variable_names=("u",)),
        geometry=geometry, decomposition=dec, bases=bases, operators=operators,
        scaling=ScalingRecord(rng.standard_normal(n_x), np.array([2.0]),
                              "max_abs", ("identity",)),
        form="discrete", dt=0.01,
    )
    initial = rng.standard_normal(n_x)

    tracemalloc.start()
    try:
        prediction = predict_full(rom, initial, steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    output = prediction.data.nbytes
    block = max(idx.size for idx in dec.dof_indices) * (steps + 1) * 8
    ci_log(
        f"predict memory k={k}: peak {peak / 1e6:.1f} MB, output "
        f"{output / 1e6:.1f} MB, largest block {block / 1e6:.2f} MB"
    )
    assert peak <= output + 3 * block


TRAIN_MEMORY_CONFIG = """\
[paths]
snapshots = {dir}/snaps.bin
artifact = {dir}/model.bin
output_dir = {dir}/out

[decomposition]
topology = annular
k = {k}
overlap = 0.1

[pod]
r = 4

[opinf]
form = discrete
lambda_linear = 1e-6
lambda_quadratic = 1e-3
"""


@pytest.mark.parametrize("k", [2, 8])
def test_c15_train_peak_is_a_few_subdomain_blocks(k, tmp_path, ci_log):
    """Training reads one subdomain's training block at a time from the
    snapshot file, so its traced peak is a few of the largest blocks plus
    full-length vectors, never the snapshot matrix or a copy of it."""
    n_x, n_t, n_train = 20_000, 100, 80
    rng = np.random.default_rng(115)
    sset = SnapshotSet(
        StateLayout(n_s=1, n_x=n_x, variable_names=("u",)), Geometry.circle(n_x),
        TimeGrid(0.01 * np.arange(n_t), n_train=n_train),
        rng.standard_normal((n_x, n_t)),
    )
    save_snapshots(sset, tmp_path / "snaps.bin")
    del sset
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TRAIN_MEMORY_CONFIG.format(dir=tmp_path, k=k))
    dec = decompose_sectors(Geometry.circle(n_x), k, 0.1)
    block = max(idx.size for idx in dec.dof_indices) * n_train * 8

    tracemalloc.start()
    try:
        assert cli.main(["train", "--config", str(cfg)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # full-length vectors: the mean field and its running sum, the point
    # coordinates and angles, the subdomains' point and row indices; the
    # read buffer (at most 4 MiB), alive beside a block only while that
    # block is read, stays under the block term at these sizes
    vectors = 16 * n_x * 8
    ci_log(
        f"train memory k={k}: peak {peak / 1e6:.1f} MB, largest block "
        f"{block / 1e6:.2f} MB, bound 4 blocks + {vectors / 1e6:.2f} MB"
    )
    assert peak <= 4 * block + vectors
