"""Grid search over ridge weights with a boundedness screen.

Every candidate weight pair is used to fit operators, the resulting model
is rolled out past the training horizon, and the candidate is kept only if
every reduced coordinate stays inside an excursion bound derived from the
training data.  Candidates are fitted and rolled in batches, each batch in
one stacked rollout.  Among bounded candidates the one with the smallest
squared training misfit wins; ties keep the earliest grid position, and if
nothing is bounded the heaviest weights are returned flagged unbounded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .opinf import ReducedTraining
# perfbench/tracing.py wraps regsearch.infer_discrete and infer_continuous
from .opinf import infer_continuous, infer_discrete  # noqa: F401
from .rom import _candidate_bytes, _roll_candidates
from .rom import roll_reduced  # noqa: F401  perfbench/tracing.py wraps it here

__all__ = [
    "RegGrid",
    "Trial",
    "RegResult",
    "default_candidates",
    "search",
]

# searches over more candidates are refused unless ``allow_large_k`` is set:
# per subdomain, the count grows as (weight pairs)**k
MAX_CANDIDATES = 10_000

# candidates are fitted and rolled together in batches of at most
# BATCH_SIZE, fewer where their stacked operators and trajectories would
# take more than BATCH_BYTES; one batch is held at a time.  Batching saves
# the per-step call overhead, which large models amortize on their own.
BATCH_SIZE = 32
BATCH_BYTES = 1 << 20


def default_candidates() -> tuple[float, ...]:
    """Eleven log-spaced weights from 1e-6 to 1e4."""
    return tuple(np.logspace(-6.0, 4.0, 11))


@dataclass(frozen=True)
class RegGrid:
    """Candidate weights and rollout policy for the search.

    ``t_reg_steps`` is how far each candidate model is rolled from the
    training initial state (default: the training horizon plus 30%);
    ``kappa`` is the allowed excursion of each reduced coordinate
    relative to its largest training magnitude.  ``allow_large_k`` lets a
    search evaluate more than ``MAX_CANDIDATES`` candidates.
    """

    lambda_linear: tuple[float, ...] = field(default_factory=default_candidates)
    lambda_quadratic: tuple[float, ...] = field(default_factory=default_candidates)
    mode: str = "global"
    t_reg_steps: int | None = None
    kappa: float = 1.2
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
        if not np.isfinite(self.kappa) or self.kappa <= 0.0:
            raise ValueError("kappa must be positive")


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


def _evaluate(training, batch, t_reg, bounds, init):
    """Fit a batch of candidates and roll them together; one
    ``(error, bounded, operators)`` per candidate."""
    fits = [training.fit(pairs) for pairs in batch]
    rolled, diverged = _roll_candidates(fits, training.form, training.dt, init,
                                        t_reg)
    m = training.n_columns
    results = []
    for c, operators in enumerate(fits):
        if diverged[c]:
            results.append((np.inf, False, operators))
            continue
        trajs = [traj[c] for traj in rolled]
        bounded = all(
            np.all(np.abs(traj).max(axis=1) <= cap)
            for traj, cap in zip(trajs, bounds)
        )
        error = 0.0
        for traj, ref in zip(trajs, training.reduced):
            diff = traj[:, :m] - ref
            error += float(np.sum(diff * diff))
        results.append((error, bounded, operators))
    return results


def search(training: ReducedTraining, grid: RegGrid) -> RegResult:
    """Pick ridge weights by rollout screening and training misfit.

    In ``global`` mode one weight pair is shared by all subdomains; in
    ``per_subdomain`` mode the candidate space is the product of pair
    choices over subdomains, which grows fast.  A search over more than
    ``MAX_CANDIDATES`` candidates is refused, before any fit, unless
    ``grid.allow_large_k`` is set.
    """
    if training.form == "continuous" and (training.dt is None or training.dt <= 0.0):
        raise ValueError("continuous search needs a positive dt")
    k = training.k
    m = training.n_columns
    t_reg = grid.t_reg_steps
    if t_reg is None:
        t_reg = int(np.ceil(1.3 * (m - 1)))
    if t_reg < m - 1:
        raise ValueError("t_reg_steps must cover the training horizon")

    pairs = [(ll, lq) for ll in grid.lambda_linear for lq in grid.lambda_quadratic]
    count = len(pairs) if grid.mode == "global" else len(pairs) ** k
    if count > MAX_CANDIDATES and not grid.allow_large_k:
        raise ValueError(
            f"{grid.mode} search over k={k} subdomains needs {count} candidates, "
            f"more than {MAX_CANDIDATES}; pass allow_large_k to proceed"
        )
    if grid.mode == "global":
        candidates = (tuple([p] * k) for p in pairs)
    else:
        candidates = itertools.product(pairs, repeat=k)

    bounds = [grid.kappa * np.abs(q).max(axis=1) for q in training.reduced]
    init = [q[:, 0] for q in training.reduced]
    size = max(1, min(BATCH_SIZE, BATCH_BYTES // _candidate_bytes(init, t_reg)))
    trials = []
    best, best_ops = None, None
    for batch in iter(lambda: tuple(itertools.islice(candidates, size)), ()):
        results = _evaluate(training, batch, t_reg, bounds, init)
        for candidate, (error, bounded, ops) in zip(batch, results):
            trials.append(Trial(candidate=candidate, error=error, bounded=bounded))
            if bounded and (best is None or error < best.error):
                best, best_ops = trials[-1], ops
        del results  # freed before the next batch is fitted
    if best is None:
        # nothing bounded: fall back to the heaviest weights, flagged
        best, best_ops = trials[-1], ops
    return RegResult(
        chosen=best.candidate,
        training_error=best.error,
        bounded=best.bounded,
        trials=tuple(trials),
        operators=best_ops,
    )
