"""Regression of reduced operators from projected snapshot data.

Given reduced trajectories, the model form is linear + quadratic in a
subdomain's own coordinates plus linear coupling to each neighbor's
coordinates.  The quadratic term uses compressed products (each distinct
pair once), so the regression needs r + r(r+1)/2 + sum of neighbor
dimensions coefficients per equation.  Operators are found column-block by
column-block from one ridge-regularized least-squares problem per
subdomain; the continuous-time route fits time derivatives, the fully
discrete route fits the next snapshot.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np
import scipy.linalg as la

__all__ = [
    "RomOperators",
    "RegressionConfig",
    "compress_quadratic",
    "quadratic_dim",
    "build_data_matrix",
    "solve_tikhonov",
    "estimate_time_derivatives",
    "infer_continuous",
    "infer_discrete",
    "max_reduced_dimension",
    "coefficient_count",
]

FORMS = ("continuous", "discrete")


@dataclass
class RomOperators:
    """Learned operators of one subdomain's reduced model.

    ``linear`` acts on the subdomain's own coordinates, ``quadratic`` on
    their compressed pairwise products, and ``coupling[j]`` on neighbor
    j's coordinates.  ``form`` records whether the model maps states to
    time derivatives ("continuous") or directly to the next state
    ("discrete").
    """

    linear: np.ndarray
    quadratic: np.ndarray
    coupling: dict[int, np.ndarray] = field(default_factory=dict)
    form: str = "discrete"
    constant: np.ndarray | None = None

    def __post_init__(self):
        a = np.asarray(self.linear, dtype=np.float64)
        h = np.asarray(self.quadratic, dtype=np.float64)
        if self.form not in FORMS:
            raise ValueError(f"unknown form {self.form!r}")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("linear operator must be square")
        r = a.shape[0]
        if h.shape != (r, quadratic_dim(r)):
            raise ValueError(
                f"quadratic operator must have shape ({r}, {quadratic_dim(r)})"
            )
        for j, block in self.coupling.items():
            block = np.asarray(block, dtype=np.float64)
            if block.ndim != 2 or block.shape[0] != r:
                raise ValueError(f"coupling block for neighbor {j} has bad shape")
            self.coupling[j] = block
        if self.constant is not None:
            c = np.asarray(self.constant, dtype=np.float64)
            if c.shape != (r,):
                raise ValueError("constant term must be a length-r vector")
            self.constant = c
        values = [a, h, *self.coupling.values()]
        if self.constant is not None:
            values.append(self.constant)
        if not all(np.all(np.isfinite(v)) for v in values):
            raise ValueError("operator entries must be finite")
        self.linear = a
        self.quadratic = h

    @property
    def r(self) -> int:
        return self.linear.shape[0]

    def apply(self, own: np.ndarray, neighbors) -> np.ndarray:
        """Model right-hand side (or one-step map) at the given states.

        ``own`` is a vector (r,) or matrix (r, m); ``neighbors`` is
        indexable by neighbor id and holds states of matching kind.
        """
        out = self.linear @ own + self.quadratic @ compress_quadratic(own)
        for j in sorted(self.coupling):
            out = out + self.coupling[j] @ neighbors[j]
        if self.constant is not None:
            out = out + (self.constant if own.ndim == 1 else self.constant[:, None])
        return out


@dataclass(frozen=True)
class RegressionConfig:
    """Knobs of one operator regression."""

    form: str = "discrete"
    lambda_linear: float = 0.0
    lambda_quadratic: float = 0.0
    include_constant: bool = False

    def __post_init__(self):
        if self.form not in FORMS:
            raise ValueError(f"unknown form {self.form!r}")
        for lam in (self.lambda_linear, self.lambda_quadratic):
            if not np.isfinite(lam) or lam < 0.0:
                raise ValueError("regularization weights must be finite and >= 0")


@lru_cache(maxsize=None)
def _pair_indices(r: int):
    ia, ib = np.triu_indices(r)
    return ia, ib


def quadratic_dim(r: int) -> int:
    """Number of distinct pairwise products of r coordinates."""
    return r * (r + 1) // 2


def compress_quadratic(states: np.ndarray) -> np.ndarray:
    """Distinct pairwise products of the rows of ``states``.

    Products are ordered first by the lower index then the higher
    (v0*v0, v0*v1, ..., v0*v_last, v1*v1, ...), each pair exactly once
    with unit coefficient.  Works on a vector (r,) or a matrix (r, m)
    column by column.
    """
    states = np.asarray(states, dtype=np.float64)
    if states.ndim not in (1, 2):
        raise ValueError("expected a vector or matrix of states")
    ia, ib = _pair_indices(states.shape[0])
    return states[ia] * states[ib]


def build_data_matrix(
    own: np.ndarray, neighbors=(), include_constant: bool = False
) -> np.ndarray:
    """Regression data matrix: one row per snapshot.

    Columns are the subdomain's own coordinates, then their compressed
    products, then each neighbor's coordinates (callers pass neighbors in
    ascending id order), then optionally a column of ones.
    """
    own = np.asarray(own, dtype=np.float64)
    if own.ndim != 2:
        raise ValueError("own states must be a (r, m) matrix")
    blocks = [own, compress_quadratic(own)]
    for nb in neighbors:
        nb = np.asarray(nb, dtype=np.float64)
        if nb.ndim != 2 or nb.shape[1] != own.shape[1]:
            raise ValueError("neighbor states must share the snapshot count")
        blocks.append(nb)
    if include_constant:
        blocks.append(np.ones((1, own.shape[1])))
    return np.concatenate(blocks, axis=0).T


def solve_tikhonov(data: np.ndarray, rhs: np.ndarray, blocks) -> np.ndarray:
    """Ridge-regularized least squares with per-column-block weights.

    Minimizes ||data @ X - rhs||_F^2 + sum_b lambda_b ||X_b||_F^2, where
    ``blocks`` is a list of (extent, lambda_b) pairs tiling the columns of
    ``data``.  Solved through an orthogonal factorization of the augmented
    stacked system; when a block weight is zero and the problem is rank
    deficient, the minimum-norm solution is returned.
    """
    data = np.asarray(data, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    if data.ndim != 2 or rhs.ndim != 2 or data.shape[0] != rhs.shape[0]:
        raise ValueError("data and rhs must be matrices with matching rows")
    d = data.shape[1]
    sqrt_lam = np.empty(d)
    at = 0
    for extent, lam in blocks:
        extent = int(extent)
        if extent < 0 or at + extent > d:
            raise ValueError("blocks do not tile the data matrix columns")
        if not np.isfinite(lam) or lam < 0.0:
            raise ValueError("regularization weights must be finite and >= 0")
        sqrt_lam[at : at + extent] = np.sqrt(lam)
        at += extent
    if at != d:
        raise ValueError("blocks do not tile the data matrix columns")

    stacked = np.vstack([data, np.diag(sqrt_lam)])
    padded = np.vstack([rhs, np.zeros((d, rhs.shape[1]))])
    solution, *_ = la.lstsq(stacked, padded, lapack_driver="gelsd")
    return solution


# per scheme: the divisor (a factor of dt), the central stencil as (column
# offset, weight) pairs, and for each leading column j = 0, 1, ... its
# one-sided weights of columns 0, 1, ...; the trailing columns use the
# leading stencils mirrored, with negated weights
_STENCILS = {
    2: (2.0, ((1, 1.0), (-1, -1.0)), ((-3.0, 4.0, -1.0),)),
    4: (
        12.0,
        ((2, -1.0), (1, 8.0), (-1, -8.0), (-2, 1.0)),
        ((-25.0, 48.0, -36.0, 16.0, -3.0), (-3.0, -10.0, 18.0, -6.0, 1.0)),
    ),
}


def estimate_time_derivatives(
    states: np.ndarray, dt: float, scheme: int = 2
) -> np.ndarray:
    """Finite-difference time derivatives of uniformly sampled columns.

    Central differences of the requested order inside, one-sided stencils
    of the same order at the ends.
    """
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 2:
        raise ValueError("expected a (r, m) matrix")
    if not np.isfinite(dt) or dt <= 0.0:
        raise ValueError("dt must be positive")
    if scheme not in _STENCILS:
        raise ValueError("derivative scheme must be order 2 or 4")
    factor, central, leading = _STENCILS[scheme]
    m, h, width = states.shape[1], len(leading), len(leading[0])
    if m < width:
        raise ValueError(
            f"order-{scheme} differences need at least {width} columns"
        )
    out = np.empty_like(states)
    # terms are added in the order listed, starting from the first
    out[:, h : m - h] = reduce(
        operator.add, (w * states[:, h + o : m - h + o] for o, w in central)
    )
    for j, weights in enumerate(leading):
        out[:, j] = reduce(
            operator.add, (w * states[:, c] for c, w in enumerate(weights))
        )
        out[:, m - 1 - j] = reduce(
            operator.add, (-w * states[:, m - 1 - c] for c, w in enumerate(weights))
        )
    out /= factor * dt
    return out


def _check_training_inputs(reduced, adjacency):
    if len(reduced) != len(adjacency):
        raise ValueError("need one adjacency set per subdomain")
    k = len(reduced)
    for i, nbrs in enumerate(adjacency):
        for j in nbrs:
            if j == i or not 0 <= j < k:
                raise ValueError("bad adjacency entry")
    cols = {np.asarray(q).shape[1] for q in reduced}
    if len(cols) != 1:
        raise ValueError("all subdomains must share the snapshot count")


def _per_subdomain_configs(config, k: int, form: str):
    """Allow one shared config or one per subdomain."""
    configs = list(config) if isinstance(config, (list, tuple)) else [config] * k
    if len(configs) != k:
        raise ValueError("need one regression config per subdomain")
    for c in configs:
        if c.form != form:
            raise ValueError(f"config.form must be {form!r}")
    return configs


def _fit(inputs, targets, adjacency, config, form: str):
    """Operators of every subdomain: ``inputs[i]`` (r_i, n) states map to
    ``targets[i]`` (r_i, n), with coupling to each neighbor's inputs."""
    configs = _per_subdomain_configs(config, len(inputs), form)
    out = []
    for i, (own, cfg) in enumerate(zip(inputs, configs)):
        nbrs = sorted(adjacency[i])
        nbr_states = [inputs[j] for j in nbrs]
        r = own.shape[0]
        s = quadratic_dim(r)
        data = build_data_matrix(own, nbr_states, include_constant=cfg.include_constant)
        blocks = [(r, cfg.lambda_linear), (s, cfg.lambda_quadratic)]
        n_coupled = sum(nb.shape[0] for nb in nbr_states)
        if n_coupled:
            # coupling columns share the linear weight
            blocks.append((n_coupled, cfg.lambda_linear))
        if cfg.include_constant:
            blocks.append((1, cfg.lambda_linear))
        solution = solve_tikhonov(data, targets[i].T, blocks)

        coupling = {}
        at = r + s
        for j, nb in zip(nbrs, nbr_states):
            coupling[j] = solution[at : at + nb.shape[0]].T
            at += nb.shape[0]
        out.append(
            RomOperators(
                linear=solution[:r].T,
                quadratic=solution[r : r + s].T,
                coupling=coupling,
                form=form,
                constant=solution[at].copy() if cfg.include_constant else None,
            )
        )
    return out


def infer_continuous(reduced, derivatives, adjacency, config: RegressionConfig):
    """Fit continuous-time operators: states map to time derivatives.

    ``reduced`` and ``derivatives`` hold one (r_i, m) matrix per
    subdomain; ``adjacency`` lists each subdomain's neighbors.
    """
    _check_training_inputs(reduced, adjacency)
    if len(derivatives) != len(reduced):
        raise ValueError("need one derivative matrix per subdomain")
    states = [np.asarray(q, dtype=np.float64) for q in reduced]
    targets = [np.asarray(dq, dtype=np.float64) for dq in derivatives]
    if any(dq.shape != q.shape for q, dq in zip(states, targets)):
        raise ValueError("derivatives must match the reduced states in shape")
    return _fit(states, targets, adjacency, config, "continuous")


def infer_discrete(reduced, adjacency, config: RegressionConfig):
    """Fit fully discrete operators: each snapshot maps to the next one.

    Data columns are snapshots 0..m-2 and targets are snapshots 1..m-1 of
    the same trajectory, so no time derivatives are needed.
    """
    _check_training_inputs(reduced, adjacency)
    states = [np.asarray(q, dtype=np.float64) for q in reduced]
    if states[0].shape[1] < 2:
        raise ValueError("discrete inference needs at least two snapshot columns")
    return _fit(
        [q[:, :-1] for q in states], [q[:, 1:] for q in states],
        adjacency, config, "discrete",
    )


def coefficient_count(r: int, neighbor_dims=(), include_constant: bool = False) -> int:
    """Coefficients per reduced equation at dimension r.

    ``neighbor_dims`` entries are neighbor dimensions; ``None`` means the
    neighbor is reduced to the same r.  A constant term adds one column.
    """
    total = r + quadratic_dim(r) + int(include_constant)
    for dim in neighbor_dims:
        total += r if dim is None else int(dim)
    return total


def max_reduced_dimension(
    n_train: int, neighbor_dims=(), include_constant: bool = False
) -> int:
    """Largest r whose coefficient count fits the training column budget.

    The regression for one subdomain has n_train equations and
    r + r(r+1)/2 + sum of neighbor dimensions (+1 with a constant term)
    unknowns per reduced coordinate; this returns the largest r keeping
    unknowns <= equations.
    """
    if n_train < 1:
        raise ValueError("n_train must be positive")
    r = 0
    while coefficient_count(r + 1, neighbor_dims, include_constant) <= n_train:
        r += 1
    return r
