import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given, settings
from hypothesis import strategies as st

from ddrom.opinf import (
    ReducedTraining,
    RegressionConfig,
    RomOperators,
    build_data_matrix,
    coefficient_count,
    compress_quadratic,
    estimate_time_derivatives,
    infer_continuous,
    infer_discrete,
    max_reduced_dimension,
    quadratic_dim,
    solve_tikhonov,
)


def test_quadratic_dim():
    assert quadratic_dim(1) == 1
    assert quadratic_dim(6) == 21
    assert quadratic_dim(24) == 300


def test_compress_worked_example():
    np.testing.assert_array_equal(compress_quadratic(np.array([2.0, 3.0])),
                                  [4.0, 6.0, 9.0])


def test_compress_matrix_input():
    q = np.array([[2.0, 1.0], [3.0, -1.0]])
    out = compress_quadratic(q)
    np.testing.assert_array_equal(out[:, 0], [4.0, 6.0, 9.0])
    np.testing.assert_array_equal(out[:, 1], [1.0, -1.0, 1.0])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=8))
def test_compress_matches_outer_product(vals):
    q = np.asarray(vals)
    r = q.size
    oracle = np.outer(q, q)[np.triu_indices(r)]
    np.testing.assert_allclose(compress_quadratic(q), oracle, atol=1e-12)


class TestDataMatrix:
    def test_column_blocks_in_order(self):
        own = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])  # r=2, m=3
        nbr = np.array([[7.0, 8.0, 9.0]])  # neighbor dim 1
        d = build_data_matrix(own, [nbr], include_constant=True)
        assert d.shape == (3, 2 + 3 + 1 + 1)
        np.testing.assert_array_equal(d[:, :2], own.T)
        np.testing.assert_array_equal(d[:, 2:5], compress_quadratic(own).T)
        np.testing.assert_array_equal(d[:, 5], nbr[0])
        np.testing.assert_array_equal(d[:, 6], 1.0)

    def test_no_neighbors_no_constant(self):
        own = np.ones((3, 4))
        d = build_data_matrix(own, [], include_constant=False)
        assert d.shape == (4, 3 + 6)


class TestTikhonov:
    def normal_equations(self, data, rhs, blocks):
        lam = np.concatenate([np.full(n, l) for n, l in blocks])
        lhs = data.T @ data + np.diag(lam)
        return np.linalg.solve(lhs, data.T @ rhs)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(20)
        data = rng.standard_normal((30, 8))
        rhs = rng.standard_normal((30, 2))
        blocks = [(3, 1e-3), (4, 1e-1), (1, 1e-3)]
        x = solve_tikhonov(data, rhs, blocks)
        oracle = self.normal_equations(data, rhs, blocks)
        assert np.abs(x - oracle).max() / np.abs(oracle).max() <= 1e-8

    def test_zero_penalty_is_plain_least_squares(self):
        rng = np.random.default_rng(21)
        data = rng.standard_normal((25, 5))
        rhs = rng.standard_normal((25, 1))
        x = solve_tikhonov(data, rhs, [(5, 0.0)])
        oracle, *_ = np.linalg.lstsq(data, rhs, rcond=None)
        np.testing.assert_allclose(x, oracle, atol=1e-10)

    def test_rank_deficient_gives_minimum_norm(self):
        rng = np.random.default_rng(22)
        base = rng.standard_normal((20, 3))
        data = np.hstack([base, base[:, :1]])  # duplicated column
        rhs = base @ np.array([[1.0], [2.0], [3.0]])
        x = solve_tikhonov(data, rhs, [(4, 0.0)])
        oracle = np.linalg.pinv(data) @ rhs
        np.testing.assert_allclose(x, oracle, atol=1e-8)

    def test_heavy_penalty_shrinks_solution(self):
        rng = np.random.default_rng(23)
        data = rng.standard_normal((40, 6))
        rhs = rng.standard_normal((40, 1))
        light = solve_tikhonov(data, rhs, [(6, 1e-8)])
        heavy = solve_tikhonov(data, rhs, [(6, 1e6)])
        assert np.linalg.norm(heavy) < 1e-3 * np.linalg.norm(light)

    def test_blocks_must_tile_columns(self):
        with pytest.raises(ValueError):
            solve_tikhonov(np.ones((4, 3)), np.ones((4, 1)), [(2, 0.1)])

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            solve_tikhonov(np.ones((4, 3)), np.ones((4, 1)), [(3, -1.0)])

    @staticmethod
    def stacked_lstsq(data, rhs, blocks):
        """The stacked system solved by scipy's lstsq, gelsd driver."""
        lam = np.concatenate([np.full(n, l) for n, l in blocks])
        stacked = np.vstack([data, np.diag(np.sqrt(lam))])
        padded = np.vstack([rhs, np.zeros((data.shape[1], rhs.shape[1]))])
        return la.lstsq(stacked, padded, lapack_driver="gelsd")[0]

    @pytest.mark.parametrize("nrhs", [1, 4])
    @pytest.mark.parametrize("rows, cols, blocks, deficient", [
        (30, 8, [(3, 1e-3), (4, 1e-1), (1, 1e-3)], False),  # tall
        (5, 9, [(4, 1e-2), (5, 10.0)], False),  # wide: rows < columns
        (20, 6, [(2, 0.0), (4, 0.0)], True),  # zero weight, rank deficient
        (12, 7, [(3, 0.0), (4, 1e-4)], True),  # one zero block
    ])
    def test_equals_stacked_lstsq_bit_for_bit(self, rows, cols, blocks,
                                              deficient, nrhs):
        rng = np.random.default_rng(rows * 100 + cols + nrhs)
        data = rng.standard_normal((rows, cols))
        if deficient:
            data[:, -1] = data[:, 0]
            assert np.linalg.matrix_rank(data) < cols
        rhs = rng.standard_normal((rows, nrhs))
        x = solve_tikhonov(data, rhs, blocks)
        np.testing.assert_array_equal(x, self.stacked_lstsq(data, rhs, blocks))

    def test_no_columns_gives_an_empty_solution(self):
        x = solve_tikhonov(np.ones((4, 0)), np.ones((4, 2)), [])
        assert x.shape == (0, 2)

    @pytest.mark.parametrize("where", ["data", "rhs"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_refused(self, where, bad):
        args = {"data": np.ones((4, 3)), "rhs": np.ones((4, 2))}
        args[where][1, 1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_tikhonov(args["data"], args["rhs"], [(3, 0.1)])


class TestTimeDerivatives:
    def test_order2_exact_on_parabola(self):
        t = 0.25 * np.arange(7)
        q = np.vstack([1.0 + 2.0 * t + 3.0 * t**2])
        d = estimate_time_derivatives(q, 0.25, scheme=2)
        np.testing.assert_allclose(d[0], 2.0 + 6.0 * t, atol=1e-10)

    def test_order4_exact_on_quartic(self):
        t = 0.1 * np.arange(9)
        q = np.vstack([t**4 - 2.0 * t**3 + t])
        d = estimate_time_derivatives(q, 0.1, scheme=4)
        np.testing.assert_allclose(d[0], 4.0 * t**3 - 6.0 * t**2 + 1.0,
                                   atol=1e-9)

    @pytest.mark.parametrize("scheme,expected", [(2, 3.5), (4, 12.0)])
    def test_convergence_rate(self, scheme, expected):
        def worst(dt):
            t = np.arange(0.0, 1.0 + dt / 2, dt)
            q = np.sin(t)[None, :]
            d = estimate_time_derivatives(q, dt, scheme=scheme)
            return np.abs(d - np.cos(t)).max()

        ratio = worst(0.02) / worst(0.01)
        assert ratio >= expected

    def test_minimum_columns(self):
        with pytest.raises(ValueError):
            estimate_time_derivatives(np.ones((1, 2)), 0.1, scheme=2)
        with pytest.raises(ValueError):
            estimate_time_derivatives(np.ones((1, 4)), 0.1, scheme=4)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            estimate_time_derivatives(np.ones((1, 8)), 0.1, scheme=3)


def plant_discrete(rng, r=3, k=2, steps=80, coupling_scale=0.05):
    """Coupled quadratic maps with rotation-dominated linear parts, plus a
    trajectory long enough to excite every regression direction."""
    ops = []
    for i in range(k):
        theta = 0.5 + 0.3 * i
        rot = 0.97 * np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        linear = np.zeros((r, r))
        linear[:2, :2] = rot
        for j in range(2, r):
            linear[j, j] = 0.9 - 0.05 * j
        quadratic = 0.02 * rng.standard_normal((r, quadratic_dim(r)))
        coupling = {
            j: coupling_scale * rng.standard_normal((r, r))
            for j in range(k)
            if j != i
        }
        ops.append(
            RomOperators(linear=linear, quadratic=quadratic, coupling=coupling,
                         form="discrete")
        )
    states = [rng.standard_normal(r) for _ in range(k)]
    trajs = [np.empty((r, steps + 1)) for _ in range(k)]
    for i in range(k):
        trajs[i][:, 0] = states[i]
    for s in range(steps):
        nxt = [
            ops[i].apply(trajs[i][:, s], [trajs[j][:, s] for j in range(k)])
            for i in range(k)
        ]
        for i in range(k):
            trajs[i][:, s + 1] = nxt[i]
    return ops, trajs


def relative_gap(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


class TestInference:
    def test_discrete_recovers_planted_operators(self):
        rng = np.random.default_rng(30)
        true_ops, trajs = plant_discrete(rng)
        adjacency = [{1}, {0}]
        config = RegressionConfig(form="discrete", lambda_linear=0.0,
                                  lambda_quadratic=0.0)
        learned = infer_discrete(trajs, adjacency, config)
        for got, want in zip(learned, true_ops):
            assert relative_gap(got.linear, want.linear) <= 1e-8
            assert relative_gap(got.quadratic, want.quadratic) <= 1e-8
            for j, mat in want.coupling.items():
                assert relative_gap(got.coupling[j], mat) <= 1e-8

    def test_continuous_recovers_with_exact_derivatives(self):
        rng = np.random.default_rng(31)
        r, k, m = 4, 2, 60
        true_ops = []
        for i in range(k):
            true_ops.append(
                RomOperators(
                    linear=rng.standard_normal((r, r)),
                    quadratic=0.1 * rng.standard_normal((r, quadratic_dim(r))),
                    coupling={1 - i: 0.3 * rng.standard_normal((r, r))},
                    form="continuous",
                )
            )
        reduced = [rng.standard_normal((r, m)) for _ in range(k)]
        derivatives = [
            true_ops[i].apply(reduced[i], [reduced[j] for j in range(k)])
            for i in range(k)
        ]
        config = RegressionConfig(form="continuous", lambda_linear=0.0,
                                  lambda_quadratic=0.0)
        learned = infer_continuous(reduced, derivatives, adjacency=[{1}, {0}],
                                   config=config)
        for got, want in zip(learned, true_ops):
            assert relative_gap(got.linear, want.linear) <= 1e-10
            assert relative_gap(got.quadratic, want.quadratic) <= 1e-10
            assert relative_gap(got.coupling[list(want.coupling)[0]],
                                want.coupling[list(want.coupling)[0]]) <= 1e-10

    def test_constant_term_recovered(self):
        rng = np.random.default_rng(32)
        r, m = 3, 50
        linear = rng.standard_normal((r, r))
        quadratic = 0.1 * rng.standard_normal((r, quadratic_dim(r)))
        constant = rng.standard_normal(r)
        reduced = [rng.standard_normal((r, m))]
        derivs = [linear @ reduced[0]
                  + quadratic @ compress_quadratic(reduced[0])
                  + constant[:, None]]
        config = RegressionConfig(form="continuous", lambda_linear=0.0,
                                  lambda_quadratic=0.0, include_constant=True)
        learned, = infer_continuous(reduced, derivs, adjacency=[set()],
                                    config=config)
        np.testing.assert_allclose(learned.constant, constant, atol=1e-9)

    def test_decoupled_data_yields_near_zero_coupling(self):
        # neighbor columns all zero: the ridge drives coupling blocks to zero
        rng = np.random.default_rng(33)
        true_ops, trajs = plant_discrete(rng, k=2, coupling_scale=0.0)
        trajs[1] = np.zeros_like(trajs[1])
        config = RegressionConfig(form="discrete", lambda_linear=1e-10,
                                  lambda_quadratic=1e-10)
        learned = infer_discrete(trajs, [{1}, {0}], config)
        assert np.abs(learned[0].coupling[1]).max() <= 1e-6

    def test_single_domain_matches_single_domain_oracle(self):
        rng = np.random.default_rng(34)
        _, trajs = plant_discrete(rng, k=1, coupling_scale=0.0)
        config = RegressionConfig(form="discrete", lambda_linear=1e-6,
                                  lambda_quadratic=1e-6)
        learned, = infer_discrete(trajs, [set()], config)
        # direct oracle on the stacked system
        d = build_data_matrix(trajs[0][:, :-1], [], include_constant=False)
        r = trajs[0].shape[0]
        x = solve_tikhonov(d, trajs[0][:, 1:].T,
                           [(r, 1e-6), (quadratic_dim(r), 1e-6)])
        np.testing.assert_allclose(learned.linear, x[:r].T, atol=1e-12)
        np.testing.assert_allclose(learned.quadratic, x[r:].T, atol=1e-12)

    def test_discrete_needs_two_columns(self):
        config = RegressionConfig(form="discrete", lambda_linear=0.0,
                                  lambda_quadratic=0.0)
        with pytest.raises(ValueError, match="two snapshot columns"):
            infer_discrete([np.ones((2, 1))], [set()], config)

    def test_per_subdomain_config_form_must_match(self):
        rng = np.random.default_rng(35)
        _, trajs = plant_discrete(rng)
        configs = [
            RegressionConfig(form="discrete", lambda_linear=0.0,
                             lambda_quadratic=0.0),
            RegressionConfig(form="continuous", lambda_linear=0.0,
                             lambda_quadratic=0.0),
        ]
        with pytest.raises(ValueError):
            infer_discrete(trajs, [{1}, {0}], configs)


class TestReducedTraining:
    @pytest.mark.parametrize("adjacency", [[{0}, {0}], [{1}, {2}], [{1}, {-1}]])
    def test_bad_adjacency_entry_is_refused_at_construction(self, adjacency):
        trajs = [np.ones((2, 5)), np.ones((2, 5))]
        with pytest.raises(ValueError, match="bad adjacency entry"):
            ReducedTraining(reduced=trajs, adjacency=adjacency)

    @pytest.mark.parametrize("derivatives", [[np.ones((2, 4))],
                                             [np.ones((2, 5))] * 2])
    def test_misshaped_derivatives_are_refused_at_construction(self, derivatives):
        with pytest.raises(ValueError, match="derivative"):
            ReducedTraining(reduced=[np.ones((2, 5))], adjacency=[set()],
                            form="continuous", derivatives=derivatives)

    def test_coefficients_are_the_data_matrix_widths(self):
        rng = np.random.default_rng(36)
        trajs = [rng.standard_normal((r, 30)) for r in (3, 2, 4)]
        training = ReducedTraining(reduced=trajs, adjacency=[{1, 2}, {0}, {0}],
                                   include_constant=True)
        assert training.coefficients == [
            coefficient_count(3, (2, 4), include_constant=True),
            coefficient_count(2, (3,), include_constant=True),
            coefficient_count(4, (3,), include_constant=True),
        ]
        assert [d.shape for d in training.data] == [
            (29, d) for d in training.coefficients
        ]

    def test_configs_must_agree_on_the_constant(self):
        rng = np.random.default_rng(38)
        _, trajs = plant_discrete(rng)
        configs = [
            RegressionConfig(form="discrete", include_constant=True),
            RegressionConfig(form="discrete", include_constant=False),
        ]
        with pytest.raises(ValueError, match="include_constant"):
            infer_discrete(trajs, [{1}, {0}], configs)


class TestBudget:
    def test_coefficient_count(self):
        # r + r(r+1)/2 + sum of neighbor dims
        assert coefficient_count(6, ()) == 27
        assert coefficient_count(6, (6, 6)) == 39
        assert coefficient_count(6, (6, 6), include_constant=True) == 40

    def test_none_neighbor_dims_mean_same_r(self):
        assert coefficient_count(24, (None, None)) == 372

    def test_budget_worked_values(self):
        assert max_reduced_dimension(375, [None, None]) == 24
        assert coefficient_count(25, (25, 25)) == 400  # just over budget
        assert max_reduced_dimension(375, ()) == 25
        # d(24) = 372 fills 372 columns exactly; the constant makes it 373
        assert max_reduced_dimension(372, [None, None]) == 24
        assert max_reduced_dimension(372, [None, None], include_constant=True) == 23

    def test_budget_edge_cases(self):
        with pytest.raises(ValueError):
            max_reduced_dimension(0, (None,))
        # one training column cannot even support r=1 with a neighbor
        assert max_reduced_dimension(1, (None,)) == 0


def test_operators_apply_matrix_and_vector_agree():
    rng = np.random.default_rng(36)
    r = 3
    ops = RomOperators(
        linear=rng.standard_normal((r, r)),
        quadratic=rng.standard_normal((r, quadratic_dim(r))),
        coupling={1: rng.standard_normal((r, 2))},
        form="discrete",
        constant=rng.standard_normal(r),
    )
    own = rng.standard_normal((r, 5))
    nbr = rng.standard_normal((2, 5))
    batch = ops.apply(own, {1: nbr})
    for c in range(5):
        single = ops.apply(own[:, c], {1: nbr[:, c]})
        np.testing.assert_allclose(batch[:, c], single, atol=1e-13)


def test_operators_leave_the_callers_coupling_dict_alone():
    given = {1: np.array([[1, 2], [3, 4]])}
    ops = RomOperators(linear=np.eye(2), quadratic=np.zeros((2, 3)),
                       coupling=given)
    assert ops.coupling is not given
    assert list(given) == [1] and given[1].dtype.kind == "i"
    np.testing.assert_array_equal(given[1], [[1, 2], [3, 4]])
    assert ops.coupling[1].dtype == np.float64
