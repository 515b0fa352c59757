"""Grid search over ridge weights with a boundedness screen.

Every candidate weight pair is used to fit operators, the resulting model
is rolled out past the training horizon, and the candidate is kept only if
every reduced coordinate stays inside an excursion bound derived from the
training data.  Among bounded candidates the one with the smallest squared
training misfit wins; ties keep the earliest grid position, and if nothing
is bounded the heaviest weights are returned flagged unbounded.
"""

from __future__ import annotations

import itertools
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .opinf import RegressionConfig, infer_continuous, infer_discrete
from .rom import DivergenceError, roll_reduced

__all__ = [
    "RegGrid",
    "Trial",
    "RegResult",
    "ReducedTraining",
    "default_candidates",
    "search",
]

# per-subdomain searches over more subdomains are refused unless allowed:
# the candidate count grows as (grid size)**k
MAX_SUBDOMAINS = 6


def default_candidates() -> tuple[float, ...]:
    """Eleven log-spaced weights from 1e-6 to 1e4."""
    return tuple(np.logspace(-6.0, 4.0, 11))


@dataclass(frozen=True)
class RegGrid:
    """Candidate weights and rollout policy for the search.

    ``t_reg_steps`` is how far each candidate model is rolled from the
    training initial state (default: the training horizon plus 30%);
    ``bound_factor`` is the allowed excursion of each reduced coordinate
    relative to its largest training magnitude.
    """

    lambda_linear: tuple[float, ...] = field(default_factory=default_candidates)
    lambda_quadratic: tuple[float, ...] = field(default_factory=default_candidates)
    mode: str = "global"
    t_reg_steps: int | None = None
    bound_factor: float = 1.2
    allow_large_k: bool = False

    def __post_init__(self):
        for name in ("lambda_linear", "lambda_quadratic"):
            values = tuple(float(v) for v in getattr(self, name))
            if not values:
                raise ValueError(f"{name} candidate list is empty")
            if any(not np.isfinite(v) or v < 0.0 for v in values):
                raise ValueError(f"{name} candidates must be finite and >= 0")
            if any(b <= a for a, b in zip(values, values[1:])):
                raise ValueError(f"{name} candidates must be strictly increasing")
            object.__setattr__(self, name, values)
        if self.mode not in ("global", "per_subdomain"):
            raise ValueError(f"unknown search mode {self.mode!r}")
        if self.t_reg_steps is not None and self.t_reg_steps < 1:
            raise ValueError("t_reg_steps must be positive")
        if not np.isfinite(self.bound_factor) or self.bound_factor <= 0.0:
            raise ValueError("bound_factor must be positive")


@dataclass(frozen=True)
class Trial:
    """One evaluated candidate: per-subdomain weight pairs, its squared
    training misfit, and whether the rollout stayed bounded."""

    candidate: tuple[tuple[float, float], ...]
    error: float
    bounded: bool


@dataclass(frozen=True)
class RegResult:
    chosen: tuple[tuple[float, float], ...]
    training_error: float
    bounded: bool
    trials: tuple[Trial, ...]
    operators: list = field(compare=False, repr=False)


@dataclass
class ReducedTraining:
    """Projected training data of every subdomain, and the one place that
    fits operators to it.

    ``derivatives`` (continuous form only) are the time derivatives the
    fit targets; ``include_constant`` fits every model with a constant term.
    """

    reduced: list
    adjacency: list
    form: str = "discrete"
    dt: float | None = None
    derivatives: list | None = None
    include_constant: bool = False

    def __post_init__(self):
        if self.form not in ("continuous", "discrete"):
            raise ValueError(f"unknown form {self.form!r}")
        if self.form == "continuous":
            if self.dt is None or self.dt <= 0.0:
                raise ValueError("continuous search needs a positive dt")
            if self.derivatives is None:
                raise ValueError("continuous search needs time derivatives")
        self.reduced = [np.asarray(q, dtype=np.float64) for q in self.reduced]
        cols = {q.shape[1] for q in self.reduced}
        if len(cols) != 1:
            raise ValueError("all subdomains must share the snapshot count")
        if next(iter(cols)) < 2:
            raise ValueError("need at least two training columns")

    @property
    def k(self) -> int:
        return len(self.reduced)

    @property
    def n_columns(self) -> int:
        return self.reduced[0].shape[1]

    def fit(self, configs):
        """Operators of every subdomain from one shared regression config
        or one config per subdomain."""
        if self.form == "discrete":
            return infer_discrete(self.reduced, self.adjacency, configs)
        return infer_continuous(
            self.reduced, self.derivatives, self.adjacency, configs
        )

    def residuals(self, operators) -> list[float]:
        """Frobenius norm of each subdomain's misfit on the training data:
        next snapshots (discrete form) or time derivatives (continuous)."""
        out = []
        for i, ops in enumerate(operators):
            if self.form == "discrete":
                pred = ops.apply(
                    self.reduced[i][:, :-1], [q[:, :-1] for q in self.reduced]
                )
                target = self.reduced[i][:, 1:]
            else:
                pred = ops.apply(self.reduced[i], self.reduced)
                target = self.derivatives[i]
            out.append(float(np.linalg.norm(pred - target)))
        return out


def _evaluate(training, pairs, t_reg, bounds, init):
    configs = [
        RegressionConfig(
            form=training.form,
            lambda_linear=ll,
            lambda_quadratic=lq,
            include_constant=training.include_constant,
        )
        for ll, lq in pairs
    ]
    operators = training.fit(configs)
    dt = training.dt if training.dt is not None else 1.0
    try:
        rolled = roll_reduced(operators, training.form, dt, init, t_reg)
    except DivergenceError:
        return np.inf, False, operators
    m = training.n_columns
    bounded = all(
        np.all(np.abs(traj).max(axis=1) <= cap)
        for traj, cap in zip(rolled, bounds)
    )
    error = 0.0
    for traj, ref in zip(rolled, training.reduced):
        diff = traj[:, :m] - ref
        error += float(np.sum(diff * diff))
    return error, bounded, operators


def search(
    training: ReducedTraining, grid: RegGrid, max_workers: int = 1
) -> RegResult:
    """Pick ridge weights by rollout screening and training misfit.

    In ``global`` mode one weight pair is shared by all subdomains; in
    ``per_subdomain`` mode the candidate space is the product of pair
    choices over subdomains, which grows fast: more than
    ``MAX_SUBDOMAINS`` subdomains is refused unless
    ``grid.allow_large_k`` is set.
    """
    k = training.k
    m = training.n_columns
    t_reg = grid.t_reg_steps
    if t_reg is None:
        t_reg = int(np.ceil(1.3 * (m - 1)))
    if t_reg < m - 1:
        raise ValueError("t_reg_steps must cover the training horizon")

    pair_list = [
        (ll, lq) for ll in grid.lambda_linear for lq in grid.lambda_quadratic
    ]
    if grid.mode == "global":
        candidates = [tuple([p] * k) for p in pair_list]
    else:
        if k > MAX_SUBDOMAINS and not grid.allow_large_k:
            raise ValueError(
                f"per-subdomain search over k={k} subdomains needs "
                f"{len(pair_list)}^{k} trials; pass allow_large_k to proceed"
            )
        candidates = [tuple(c) for c in itertools.product(pair_list, repeat=k)]
    if len(candidates) > 10_000:
        warnings.warn(
            f"regularization search will evaluate {len(candidates)} candidates",
            stacklevel=2,
        )

    bounds = [
        grid.bound_factor * np.abs(q).max(axis=1) for q in training.reduced
    ]
    init = [q[:, 0] for q in training.reduced]

    def run(pairs):
        return _evaluate(training, pairs, t_reg, bounds, init)

    if max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            outcomes = list(pool.map(run, candidates))
    else:
        outcomes = [run(pairs) for pairs in candidates]

    trials = tuple(
        Trial(candidate=c, error=err, bounded=ok)
        for c, (err, ok, _) in zip(candidates, outcomes)
    )
    best, best_ops = None, None
    for t, (_, _, ops) in zip(trials, outcomes):
        if t.bounded and (best is None or t.error < best.error):
            best, best_ops = t, ops
    if best is None:
        # nothing bounded: fall back to the heaviest weights, flagged
        best, best_ops = trials[-1], outcomes[-1][2]
    return RegResult(
        chosen=best.candidate,
        training_error=best.error,
        bounded=best.bounded,
        trials=trials,
        operators=best_ops,
    )
