import itertools

import numpy as np
import pytest

from ddrom import opinf, regsearch
from ddrom.regsearch import MAX_CANDIDATES, RegGrid, ReducedTraining, search
from ddrom.opinf import RomOperators, quadratic_dim
from ddrom.rom import (
    DivergenceError,
    _candidate_bytes,
    _roll_candidates,
    _stacked_operators,
    roll_reduced,
)


def rotation_trajectory(radius, m, r=2, theta=0.6, seed=0):
    """Trajectory of a pure rotation-and-stretch map, plus the map itself."""
    c, s = np.cos(theta), np.sin(theta)
    a = radius * np.array([[c, -s], [s, c]])
    rng = np.random.default_rng(seed)
    q = np.empty((r, m))
    q[:, 0] = rng.standard_normal(r)
    for j in range(m - 1):
        q[:, j + 1] = a @ q[:, j]
    return q, a


def training_for(trajs, **kwargs):
    k = len(trajs)
    if k == 1:
        adjacency = [set()]
    else:
        adjacency = [{(i - 1) % k, (i + 1) % k} - {i} for i in range(k)]
    return ReducedTraining(reduced=list(trajs), adjacency=adjacency,
                           form="discrete", **kwargs)


class TestFitAndResiduals:
    @pytest.mark.parametrize("form", ["discrete", "continuous"])
    def test_planted_linear_model_leaves_no_residual(self, form):
        q, a = rotation_trajectory(0.95, 40)
        # continuous targets: any linear image of the states is fitted exactly
        derivatives = [a @ q] if form == "continuous" else None
        training = ReducedTraining(reduced=[q], adjacency=[set()], form=form,
                                   dt=0.1, derivatives=derivatives)
        exact = training.fit([(0.0, 0.0)])
        np.testing.assert_allclose(exact[0].linear, a, atol=1e-8)
        assert training.residuals(exact)[0] <= 1e-10
        heavy = training.fit([(1e2, 1e2)])
        assert training.residuals(heavy)[0] > 1e-3


class TestConstantTerm:
    @pytest.mark.parametrize("mode", ["global", "per_subdomain"])
    def test_searched_model_keeps_its_constant(self, mode):
        q, _ = rotation_trajectory(0.95, 40)
        training = training_for([q, q[::-1]], include_constant=True)
        grid = RegGrid(lambda_linear=(1e-8, 1e-2), lambda_quadratic=(1e-8,),
                       mode=mode)
        result = search(training, grid)
        assert all(op.constant is not None for op in result.operators)

    def test_no_constant_by_default(self):
        q, _ = rotation_trajectory(0.95, 40)
        result = search(training_for([q]), RegGrid(lambda_linear=(1e-8,),
                                                   lambda_quadratic=(1e-8,)))
        assert result.operators[0].constant is None


class TestGlobalSearch:
    def test_light_weights_win_on_stable_data(self):
        q, _ = rotation_trajectory(0.95, 40)
        grid = RegGrid(lambda_linear=(1e-10, 1e2),
                       lambda_quadratic=(1e-10,))
        result = search(training_for([q]), grid)
        assert result.chosen == ((1e-10, 1e-10),)
        assert result.bounded
        assert result.training_error <= 1e-8
        assert len(result.trials) == 2

    def test_unstable_fit_is_screened_out(self):
        # growing data: the unregularized fit reproduces the unstable map and
        # trips the excursion bound on the extended rollout; the heavy ridge
        # candidate survives
        q, _ = rotation_trajectory(1.05, 41)
        grid = RegGrid(lambda_linear=(1e-12, 1e6),
                       lambda_quadratic=(1e-12,))
        result = search(training_for([q]), grid)
        assert result.bounded
        assert result.chosen[0][0] == 1e6
        light = result.trials[0]
        assert not light.bounded

    def test_nothing_bounded_falls_back_to_heaviest(self):
        q, _ = rotation_trajectory(1.05, 41)
        grid = RegGrid(lambda_linear=(1e-14, 1e-12),
                       lambda_quadratic=(1e-14,))
        result = search(training_for([q]), grid)
        assert not result.bounded
        # last candidate carries the heaviest weights by construction
        assert result.chosen == result.trials[-1].candidate

    def test_operators_are_returned_for_the_choice(self):
        q, a = rotation_trajectory(0.9, 30)
        grid = RegGrid(lambda_linear=(1e-12,), lambda_quadratic=(1e-12,))
        result = search(training_for([q]), grid)
        assert np.abs(result.operators[0].linear - a).max() <= 1e-6


class TestPerSubdomainSearch:
    def test_candidate_space_is_the_product(self):
        q0, _ = rotation_trajectory(0.9, 30, seed=1)
        q1, _ = rotation_trajectory(0.9, 30, seed=2)
        grid = RegGrid(lambda_linear=(1e-10, 1e-2), lambda_quadratic=(1e-8,),
                       mode="per_subdomain")
        result = search(training_for([q0, q1]), grid)
        assert len(result.trials) == 4
        assert len(result.chosen) == 2

    def test_no_worse_than_global_on_the_same_grid(self):
        q0, _ = rotation_trajectory(0.9, 30, seed=1)
        q1, _ = rotation_trajectory(0.85, 30, seed=2)
        pairs = dict(lambda_linear=(1e-10, 1e-4, 1e0),
                     lambda_quadratic=(1e-10,))
        per = search(training_for([q0, q1]),
                     RegGrid(mode="per_subdomain", **pairs))
        glob = search(training_for([q0, q1]), RegGrid(mode="global", **pairs))
        assert per.training_error <= glob.training_error + 1e-12

    def test_large_k_needs_explicit_opt_in(self):
        # 4 pairs over 7 subdomains is 4**7 = 16384 > MAX_CANDIDATES
        trajs = [rotation_trajectory(0.9, 20, seed=i)[0] for i in range(7)]
        grid = RegGrid(lambda_linear=(1e-8, 1e-4), lambda_quadratic=(1e-8, 1e-4),
                       mode="per_subdomain")
        assert 4**7 > MAX_CANDIDATES
        with pytest.raises(ValueError, match="16384 candidates.*allow_large_k"):
            search(training_for(trajs), grid)

    @pytest.mark.parametrize("n_pairs", [1, 2])
    def test_large_k_within_the_budget_runs_without_opt_in(self, n_pairs):
        trajs = [rotation_trajectory(0.9, 20, seed=i)[0] for i in range(7)]
        grid = RegGrid(lambda_linear=(1e-8, 1e-4)[:n_pairs],
                       lambda_quadratic=(1e-8,), mode="per_subdomain")
        result = search(training_for(trajs), grid)
        assert len(result.trials) == n_pairs**7

    # 101 * 101 = 10201 pairs; 11**4 = 14641 per-subdomain candidates
    @pytest.mark.parametrize("mode, n_linear, n_quadratic",
                             [("global", 101, 101), ("per_subdomain", 11, 1)])
    def test_budget_is_refused_before_any_fit(self, mode, n_linear, n_quadratic,
                                              monkeypatch):
        def no_fit(self, configs):
            raise AssertionError("a candidate was fitted before the refusal")

        monkeypatch.setattr(ReducedTraining, "fit", no_fit)
        grid = RegGrid(lambda_linear=tuple(np.logspace(-6.0, 4.0, n_linear)),
                       lambda_quadratic=tuple(np.logspace(-6.0, 4.0, n_quadratic)),
                       mode=mode)
        trajs = [rotation_trajectory(0.9, 20, seed=i)[0] for i in range(4)]
        with pytest.raises(ValueError, match="allow_large_k"):
            search(training_for(trajs), grid)

    def test_large_k_allowed_when_asked(self, monkeypatch):
        monkeypatch.setattr(regsearch, "MAX_CANDIDATES", 3)
        trajs = [rotation_trajectory(0.9, 20, seed=i)[0] for i in range(2)]
        pairs = dict(lambda_linear=(1e-8, 1e-4), lambda_quadratic=(1e-8,),
                     mode="per_subdomain")
        with pytest.raises(ValueError, match="allow_large_k"):
            search(training_for(trajs), RegGrid(**pairs))
        result = search(training_for(trajs), RegGrid(allow_large_k=True, **pairs))
        assert len(result.trials) == 4


class TestSearchMechanics:
    def test_rollout_must_cover_training(self):
        q, _ = rotation_trajectory(0.9, 30)
        grid = RegGrid(lambda_linear=(1e-8,), lambda_quadratic=(1e-8,),
                       t_reg_steps=10)
        with pytest.raises(ValueError):
            search(training_for([q]), grid)

    def test_candidates_must_increase(self):
        with pytest.raises(ValueError):
            RegGrid(lambda_linear=(1e-4, 1e-4))
        with pytest.raises(ValueError):
            RegGrid(lambda_quadratic=(1.0, 0.1))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            RegGrid(mode="downhill")

    def test_tie_breaks_to_the_earliest_candidate(self):
        # two identical pairs cannot exist, but two pairs can give the same
        # trained model when the data ignores the quadratic block; assert the
        # earlier candidate is kept on exact ties
        q, _ = rotation_trajectory(0.9, 25, seed=6)
        grid = RegGrid(lambda_linear=(1e-9,), lambda_quadratic=(1e-9, 1e-8))
        result = search(training_for([q]), grid)
        errs = [t.error for t in result.trials]
        best = min(range(len(errs)), key=lambda i: (errs[i], i))
        assert result.chosen == result.trials[best].candidate

    def test_continuous_search_needs_a_positive_dt(self):
        q, a = rotation_trajectory(0.95, 40)
        training = ReducedTraining(reduced=[q], adjacency=[set()],
                                   form="continuous", derivatives=[a @ q])
        assert training.residuals(training.fit([(0.0, 0.0)]))[0] <= 1e-10
        grid = RegGrid(lambda_linear=(1e-8,), lambda_quadratic=(1e-8,))
        with pytest.raises(ValueError, match="continuous search needs a positive dt"):
            search(training, grid)

    def test_data_matrices_are_built_once_per_subdomain(self, monkeypatch):
        # continuous form, two coupled subdomains, per-subdomain 2x2 grid:
        # 16 candidates, 32 fits, and one data matrix per subdomain
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        build = opinf.build_data_matrix
        monkeypatch.setattr(opinf, "build_data_matrix", counted)
        trajs = [rotation_trajectory(0.9, 30, seed=i) for i in range(2)]
        training = ReducedTraining(
            reduced=[q for q, _ in trajs], adjacency=[{1}, {0}],
            form="continuous", dt=0.1,
            derivatives=[(a - np.eye(2)) @ q for q, a in trajs],
        )
        grid = RegGrid(lambda_linear=(1e-8, 1e-2), lambda_quadratic=(1e-8, 1e-2),
                       mode="per_subdomain")
        result = search(training, grid)
        assert len(result.trials) == 16
        assert len(calls) == training.k

    def test_continuous_form_requires_derivatives(self):
        q, _ = rotation_trajectory(0.9, 25)
        with pytest.raises(ValueError, match="derivative"):
            ReducedTraining(reduced=[q], adjacency=[set()],
                            form="continuous", dt=0.1)


def noisy_growth_training(form):
    """Two coupled subdomains of noisy growing rotations: over 100 steps
    the grid below holds diverging, unbounded and bounded candidates."""
    rng = np.random.default_rng(0)
    trajs = []
    for i in range(2):
        q, _ = rotation_trajectory(1.05, 30, seed=i)
        trajs.append(q + 0.05 * rng.standard_normal(q.shape) * np.abs(q).max())
    if form == "discrete":
        return training_for(trajs)
    return ReducedTraining(reduced=trajs, adjacency=[{1}, {0}], form=form,
                           dt=0.1, derivatives=[0.05 * q for q in trajs])


GROWTH_GRID = RegGrid(lambda_linear=(1e-12, 1e-1, 1e1),
                      lambda_quadratic=(1e-12, 1e2), mode="per_subdomain",
                      t_reg_steps=100)


def growth_fits(training):
    pairs = [(ll, lq) for ll in GROWTH_GRID.lambda_linear
             for lq in GROWTH_GRID.lambda_quadratic]
    return [training.fit(c) for c in itertools.product(pairs, repeat=2)]


class TestBatchedRollout:
    @pytest.mark.parametrize("form", ["discrete", "continuous"])
    def test_each_candidate_rolls_as_it_would_alone(self, form):
        training = noisy_growth_training(form)
        fits = growth_fits(training)
        init = [q[:, 0] for q in training.reduced]
        args = (form, training.dt, init, GROWTH_GRID.t_reg_steps)
        rolled, diverged = _roll_candidates(fits, *args)
        if form == "discrete":
            assert 0 < np.count_nonzero(diverged) < len(fits)
        for c, ops in enumerate(fits):
            batch = [traj[c] for traj in rolled]
            if not diverged[c]:
                for got, want in zip(batch, roll_reduced(ops, *args)):
                    np.testing.assert_array_equal(got, want)
                continue
            with pytest.raises(DivergenceError) as alone:
                roll_reduced(ops, *args)
            assert alone.value.step == diverged[c]
            # filled up to the step before
            before = roll_reduced(ops, *args[:-1], int(diverged[c]) - 1)
            for got, want in zip(batch, before):
                np.testing.assert_array_equal(got[:, : want.shape[1]], want)

    def test_a_diverging_candidate_leaves_its_neighbours_unchanged(self):
        training = noisy_growth_training("discrete")
        fits = growth_fits(training)
        init = [q[:, 0] for q in training.reduced]
        steps = GROWTH_GRID.t_reg_steps
        _, diverged = _roll_candidates(fits, "discrete", None, init, steps)
        bad = int(np.flatnonzero(diverged)[0])
        good = [c for c in range(len(fits)) if not diverged[c]][:2]
        batch = [fits[good[0]], fits[bad], fits[good[1]]]
        rolled, steps_hit = _roll_candidates(batch, "discrete", None, init, steps)
        with pytest.raises(DivergenceError) as alone:
            roll_reduced(fits[bad], "discrete", None, init, steps)
        assert 1 < alone.value.step < steps
        np.testing.assert_array_equal(steps_hit, [0, alone.value.step, 0])
        for row, c in ((0, good[0]), (2, good[1])):
            want = roll_reduced(fits[c], "discrete", None, init, steps)
            for traj, w in zip(rolled, want):
                np.testing.assert_array_equal(traj[row], w)

    def test_the_batch_budget_is_what_the_stack_allocates(self):
        # unequal r_i: H pads every subdomain to r_max
        rs, steps = (2, 5, 3), 40
        parts = [slice(0, 2), slice(2, 7), slice(7, 10)]
        init = [np.full(r, 0.1) for r in rs]
        candidates = [
            [RomOperators(linear=w * np.eye(r),
                          quadratic=np.zeros((r, quadratic_dim(r))),
                          coupling={j: np.ones((r, rs[j])) for j in (i - 1, i + 1)
                                    if 0 <= j < 3},
                          form="discrete")
             for i, r in enumerate(rs)]
            for w in (0.1, 0.2, 0.3)
        ]
        a, h, *_ = _stacked_operators(candidates, parts)
        rolled, _ = _roll_candidates(candidates, "discrete", None, init, steps)
        trajectory = sum(t.nbytes for t in rolled)
        assert trajectory == 3 * 10 * (steps + 1) * 8
        assert 3 * _candidate_bytes(init, steps) == a.nbytes + h.nbytes + trajectory

    @pytest.mark.parametrize("setting, value, sizes", [
        # 36 candidates: batches of 5 end with a batch of one
        ("BATCH_SIZE", 5, [5] * 7 + [1]),
        ("BATCH_SIZE", 32, [32, 4]),
        # each candidate stacks 432 floats (4 x 4 A, 2 x 2 x 3 H, 4 x 101
        # trajectory): 7 fit in 25000 bytes
        ("BATCH_BYTES", 25_000, [7] * 5 + [1]),
    ])
    def test_batch_size_does_not_change_the_result(self, setting, value, sizes,
                                                   monkeypatch):
        training = noisy_growth_training("discrete")
        monkeypatch.setattr(regsearch, "BATCH_SIZE", 1)
        one = search(training, GROWTH_GRID)
        seen = []

        def spy(candidates, *args):
            seen.append(len(candidates))
            return _roll_candidates(candidates, *args)

        monkeypatch.setattr(regsearch, "BATCH_SIZE", 32)
        monkeypatch.setattr(regsearch, setting, value)
        monkeypatch.setattr(regsearch, "_roll_candidates", spy)
        batched = search(training, GROWTH_GRID)
        assert seen == sizes
        assert len(one.trials) == 36
        assert {np.isinf(t.error) for t in one.trials} == {True, False}
        assert {t.bounded for t in one.trials} == {True, False}
        assert batched == one
        for got, want in zip(batched.operators, one.operators):
            for name in ("linear", "quadratic", "constant"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
            assert got.coupling.keys() == want.coupling.keys()
            for j in got.coupling:
                np.testing.assert_array_equal(got.coupling[j], want.coupling[j])
