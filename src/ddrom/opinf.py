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
    "ReducedTraining",
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
        # a new dict, so the caller's mapping is left as it was given
        coupling = {}
        for j, block in self.coupling.items():
            block = np.asarray(block, dtype=np.float64)
            if block.ndim != 2 or block.shape[0] != r:
                raise ValueError(f"coupling block for neighbor {j} has bad shape")
            coupling[j] = block
        self.coupling = coupling
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


# lstsq's default cutoff: singular values below eps times the largest are zero
_EPS = float(np.finfo(np.float64).eps)


@lru_cache(maxsize=256)
def _gelsd_workspace(m: int, n: int, nrhs: int) -> tuple[int, int]:
    """``dgelsd``'s work and integer work sizes for an (m, n) system with
    ``nrhs`` right-hand sides."""
    work, iwork, info = la.lapack.dgelsd_lwork(m, n, nrhs, _EPS)
    if info != 0:
        raise ValueError(f"dgelsd workspace query failed: {info}")
    return int(work), int(iwork)


def solve_tikhonov(data: np.ndarray, rhs: np.ndarray, blocks) -> np.ndarray:
    """Ridge-regularized least squares with per-column-block weights.

    Minimizes ||data @ X - rhs||_F^2 + sum_b lambda_b ||X_b||_F^2, where
    ``blocks`` is a list of (extent, lambda_b) pairs tiling the columns of
    ``data``.  Solved by LAPACK's ``dgelsd`` (the SVD route of
    ``scipy.linalg.lstsq``, same bits) on the augmented stacked system
    ``[data; diag(sqrt(lambda))] X = [rhs; 0]``; when a block weight is zero
    and the problem is rank deficient, the minimum-norm solution is
    returned.  Non-finite data or rhs raises ValueError.
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

    if not (np.isfinite(data).all() and np.isfinite(rhs).all()):
        raise ValueError("data and rhs must not contain infs or NaNs")
    m, nrhs = rhs.shape
    if d == 0:  # LAPACK takes no zero-sized problem
        return np.zeros((0, nrhs))
    # column-major, so LAPACK factors and solves in these buffers
    stacked = np.zeros((m + d, d), order="F")
    stacked[:m] = data
    np.fill_diagonal(stacked[m:], sqrt_lam)
    padded = np.zeros((m + d, nrhs), order="F")
    padded[:m] = rhs
    lwork, liwork = _gelsd_workspace(m + d, d, nrhs)
    x, _, _, info = la.lapack.dgelsd(stacked, padded, lwork, liwork, _EPS,
                                     True, True)
    if info > 0:
        raise la.LinAlgError("SVD did not converge in Linear Least Squares")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgelsd")
    return x[:d]



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


@dataclass
class ReducedTraining:
    """Projected training data of every subdomain, as one regression
    problem per subdomain.

    ``reduced`` holds one (r_i, m) matrix per subdomain and ``adjacency``
    each subdomain's neighbors.  The discrete form maps columns 0..m-2 to
    columns 1..m-1; the continuous form maps the states to
    ``derivatives``.  Inputs are checked, and each subdomain's data matrix
    is built, once here; every fit and residual reads them.  ``dt`` is the
    step a search rolls continuous models with; ``include_constant`` fits
    every model with a constant term.
    """

    reduced: list
    adjacency: list
    form: str = "discrete"
    dt: float | None = None
    derivatives: list | None = None
    include_constant: bool = False
    inputs: list = field(init=False, repr=False)
    targets: list = field(init=False, repr=False)
    data: list = field(init=False, repr=False)

    def __post_init__(self):
        if self.form not in FORMS:
            raise ValueError(f"unknown form {self.form!r}")
        k = len(self.reduced)
        if len(self.adjacency) != k:
            raise ValueError("need one adjacency set per subdomain")
        for i, nbrs in enumerate(self.adjacency):
            if any(j == i or not 0 <= j < k for j in nbrs):
                raise ValueError("bad adjacency entry")
        self.reduced = [np.asarray(q, dtype=np.float64) for q in self.reduced]
        if len({q.shape[1] for q in self.reduced}) != 1:
            raise ValueError("all subdomains must share the snapshot count")
        if self.form == "discrete":
            if self.n_columns < 2:
                raise ValueError("discrete form needs at least two snapshot columns")
            self.inputs = [q[:, :-1] for q in self.reduced]
            self.targets = [q[:, 1:] for q in self.reduced]
        else:
            if self.derivatives is None or len(self.derivatives) != k:
                raise ValueError("need one derivative matrix per subdomain")
            self.derivatives = [np.asarray(d, np.float64) for d in self.derivatives]
            if any(d.shape != q.shape for q, d in zip(self.reduced, self.derivatives)):
                raise ValueError("derivatives must match the reduced states in shape")
            self.inputs, self.targets = self.reduced, self.derivatives
        self.data = [
            build_data_matrix(
                own, [self.inputs[j] for j in sorted(nbrs)], self.include_constant
            )
            for own, nbrs in zip(self.inputs, self.adjacency)
        ]

    @property
    def k(self) -> int:
        return len(self.reduced)

    @property
    def n_columns(self) -> int:
        return self.reduced[0].shape[1]

    @property
    def coefficients(self) -> list[int]:
        """d(r) of each subdomain: own, quadratic, neighbor and constant columns."""
        return [d.shape[1] for d in self.data]

    def fit(self, pairs):
        """Operators of every subdomain, from one (lambda_linear,
        lambda_quadratic) weight pair per subdomain."""
        pairs = list(pairs)
        if len(pairs) != self.k:
            raise ValueError("need one weight pair per subdomain")
        out = []
        for i, (ll, lq) in enumerate(pairs):
            r = self.reduced[i].shape[0]
            s = quadratic_dim(r)
            # the coupling and constant columns share the linear weight
            blocks = [(r, ll), (s, lq), (self.data[i].shape[1] - r - s, ll)]
            solution = solve_tikhonov(self.data[i], self.targets[i].T, blocks)
            coupling, at = {}, r + s
            for j in sorted(self.adjacency[i]):
                coupling[j] = solution[at : at + self.reduced[j].shape[0]].T
                at += self.reduced[j].shape[0]
            out.append(
                RomOperators(
                    linear=solution[:r].T,
                    quadratic=solution[r : r + s].T,
                    coupling=coupling,
                    form=self.form,
                    constant=solution[at].copy() if self.include_constant else None,
                )
            )
        return out

    def residuals(self, operators) -> list[float]:
        """Frobenius norm of each subdomain's misfit on the training data:
        next snapshots (discrete form) or time derivatives (continuous)."""
        return [
            float(np.linalg.norm(ops.apply(own, self.inputs) - target))
            for ops, own, target in zip(operators, self.inputs, self.targets)
        ]


def _infer(form, reduced, adjacency, config, derivatives=None):
    """Operators from one regression config, or one per subdomain."""
    k = len(reduced)
    configs = list(config) if isinstance(config, (list, tuple)) else [config] * k
    if len(configs) != k:
        raise ValueError("need one regression config per subdomain")
    if any(c.form != form for c in configs):
        raise ValueError(f"config.form must be {form!r}")
    if len({c.include_constant for c in configs}) > 1:
        raise ValueError("regression configs must agree on include_constant")
    training = ReducedTraining(
        reduced, adjacency, form, derivatives=derivatives,
        include_constant=any(c.include_constant for c in configs),
    )
    return training.fit([(c.lambda_linear, c.lambda_quadratic) for c in configs])


def infer_continuous(reduced, derivatives, adjacency, config: RegressionConfig):
    """Fit continuous-time operators: states map to time derivatives.

    ``reduced`` and ``derivatives`` hold one (r_i, m) matrix per
    subdomain; ``adjacency`` lists each subdomain's neighbors.
    """
    return _infer("continuous", reduced, adjacency, config, derivatives)


def infer_discrete(reduced, adjacency, config: RegressionConfig):
    """Fit fully discrete operators: each snapshot maps to the next one.

    Data columns are snapshots 0..m-2 and targets are snapshots 1..m-1 of
    the same trajectory, so no time derivatives are needed.
    """
    return _infer("discrete", reduced, adjacency, config)


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
