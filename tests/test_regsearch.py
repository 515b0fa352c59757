import numpy as np
import pytest

from ddrom.opinf import RegressionConfig
from ddrom.regsearch import RegGrid, ReducedTraining, search


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
        exact = training.fit(RegressionConfig(form=form))
        np.testing.assert_allclose(exact[0].linear, a, atol=1e-8)
        assert training.residuals(exact)[0] <= 1e-10
        heavy = training.fit(RegressionConfig(
            form=form, lambda_linear=1e2, lambda_quadratic=1e2))
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
        trajs = [rotation_trajectory(0.9, 20, seed=i)[0] for i in range(7)]
        grid = RegGrid(lambda_linear=(1e-8, 1e-4), lambda_quadratic=(1e-8,),
                       mode="per_subdomain")
        with pytest.raises(ValueError, match="allow_large_k"):
            search(training_for(trajs), grid)

    def test_large_k_allowed_when_asked(self):
        trajs = [rotation_trajectory(0.9, 20, seed=i)[0] for i in range(7)]
        grid = RegGrid(lambda_linear=(1e-8,), lambda_quadratic=(1e-8,),
                       mode="per_subdomain", allow_large_k=True)
        result = search(training_for(trajs), grid)
        assert len(result.trials) == 1


class TestSearchMechanics:
    def test_threaded_equals_serial(self):
        q0, _ = rotation_trajectory(0.95, 35, seed=4)
        q1, _ = rotation_trajectory(0.9, 35, seed=5)
        grid = RegGrid(lambda_linear=(1e-10, 1e-4, 1e0),
                       lambda_quadratic=(1e-10, 1e-4))
        serial = search(training_for([q0, q1]), grid, max_workers=1)
        threaded = search(training_for([q0, q1]), grid, max_workers=4)
        assert serial.chosen == threaded.chosen
        assert serial.training_error == threaded.training_error
        assert [t.candidate for t in serial.trials] == \
               [t.candidate for t in threaded.trials]

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

    def test_continuous_form_requires_derivatives(self):
        q, _ = rotation_trajectory(0.9, 25)
        with pytest.raises(ValueError, match="derivative"):
            ReducedTraining(reduced=[q], adjacency=[set()],
                            form="continuous", dt=0.1)
