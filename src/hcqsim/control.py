"""Linear state-space control core.

Implements least-squares identification of the plant x(t+1) = A x(t) +
B u(t) from observed trajectories, exhaustive receding-horizon bandwidth
allocation over a discretized share simplex under a quadratic
performance/effort criterion, and a spectral-radius stability check.

The allocation is condensed (Maciejowski, Predictive Control with
Constraints, 2002): with u held over the horizon, the horizon cost of every
candidate is c(x) + 2 u' g(x) + u' P u, where g and c are an affine and a
quadratic map of x with fixed matrices. MpcController builds the feasible
share grid, those matrices and each candidate's constant once; a decision
takes one product for g(x) and c(x) and one m x K product over the K
candidates.

State convention: the first m components of x are per-class backlog
fractions, the rest are per-class utilizations. Control u holds per-class
bandwidth shares constrained to 0 <= u_i <= 1 with sum(u) <= 1.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import neg
from typing import Optional, Sequence

import numpy as np

# Relative/absolute slack for treating two candidate costs as tied; the
# tie-break then picks the lexicographically smallest share vector.
COST_TIE_REL = 1e-9
COST_TIE_ABS = 1e-12

# Stability margin: stable means spectral radius < 1 - STABILITY_EPS.
STABILITY_EPS = 1e-9


class IdentifiabilityError(ValueError):
    """Regressor matrix lacks full column rank."""

    def __init__(self, deficient_columns):
        self.deficient_columns = tuple(deficient_columns)
        cols = ", ".join(self.deficient_columns)
        super().__init__(f"regressor is rank deficient; dependent columns: {cols}")


class InfeasibleControlSetError(ValueError):
    """Box-and-simplex control set has no feasible grid point."""


def _as_vector(x, n: int, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float).reshape(-1)
    if v.shape != (n,):
        raise ValueError(f"{name} must have length {n}, got shape {np.asarray(x).shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    return v


@dataclass(frozen=True)
class BoxBounds:
    """Componentwise box lo <= x <= hi."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("box bounds lo/hi length mismatch")
        for a, b in zip(self.lo, self.hi):
            if not (math.isfinite(a) and math.isfinite(b)) or a > b:
                raise ValueError(f"invalid box bound pair ({a}, {b})")

    @staticmethod
    def unit(n: int) -> "BoxBounds":
        return BoxBounds((0.0,) * n, (1.0,) * n)


@dataclass(frozen=True)
class ControlBounds:
    """Box-bounded simplex: lo <= u <= hi componentwise and sum(u) <= 1."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("control bounds lo/hi length mismatch")
        for a, b in zip(self.lo, self.hi):
            if a < 0.0 or b > 1.0 or a > b:
                raise ValueError(f"control bounds must satisfy 0 <= lo <= hi <= 1, got ({a}, {b})")
        # The simplex's box is the unit box, where lo - tol is -tol and
        # hi + tol is 1 + tol for every component.
        object.__setattr__(self, "_unit_box", all(a == 0.0 for a in self.lo)
                           and all(b == 1.0 for b in self.hi))

    @staticmethod
    def simplex(m: int) -> "ControlBounds":
        return ControlBounds((0.0,) * m, (1.0,) * m)

    def contains(self, u, tol: float = 0.0) -> bool:
        """Whether u lies in the set widened by tol. A tuple is checked as it
        stands; anything else is flattened to floats first. NaN is outside."""
        if type(u) is not tuple:
            u = tuple(np.asarray(u, dtype=float).reshape(-1).tolist())
        if len(u) != len(self.lo):
            return False
        if self._unit_box:
            # Every component within [-tol, 1 + tol]; a NaN, which min and
            # max may pass over, makes the sum NaN.
            if u and not (-tol <= min(u) and max(u) <= 1.0 + tol):
                return False
        else:
            for v, lo, hi in zip(u, self.lo, self.hi):
                if not lo - tol <= v <= hi + tol:
                    return False
        return sum(u) <= 1.0 + tol


@dataclass
class StateSpaceModel:
    """Plant matrices plus the constraint sets they operate under."""

    A: np.ndarray
    B: np.ndarray
    state_bounds: Optional[BoxBounds] = None
    control_bounds: Optional[ControlBounds] = None

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.B = np.asarray(self.B, dtype=float)
        if self.A.ndim != 2 or self.A.shape[0] != self.A.shape[1]:
            raise ValueError(f"A must be square, got shape {self.A.shape}")
        if self.B.ndim != 2 or self.B.shape[0] != self.A.shape[0]:
            raise ValueError(f"B must be {self.A.shape[0]} x m, got shape {self.B.shape}")
        if not (np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.B))):
            raise ValueError("model matrices must be finite")
        if self.state_bounds is None:
            self.state_bounds = BoxBounds.unit(self.n)
        if self.control_bounds is None:
            self.control_bounds = ControlBounds.simplex(self.m)
        if len(self.state_bounds.lo) != self.n:
            raise ValueError("state bounds dimension mismatch")
        if len(self.control_bounds.lo) != self.m:
            raise ValueError("control bounds dimension mismatch")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


def _check_symmetric(M: np.ndarray, name: str) -> np.ndarray:
    scale = max(1.0, float(np.abs(M).max()))
    if np.abs(M - M.T).max() > 1e-9 * scale:
        raise ValueError(f"{name} must be symmetric")
    return 0.5 * (M + M.T)


@dataclass
class CostWeights:
    """Quadratic criterion: state-deviation penalty Q (PSD), control-effort
    penalty R (PD, verified by Cholesky), and the target state x_ref."""

    Q: np.ndarray
    R: np.ndarray
    x_ref: np.ndarray

    def __post_init__(self):
        self.Q = _check_symmetric(np.asarray(self.Q, dtype=float), "Q")
        self.R = _check_symmetric(np.asarray(self.R, dtype=float), "R")
        self.x_ref = np.asarray(self.x_ref, dtype=float).reshape(-1)
        if self.Q.shape[0] != self.x_ref.shape[0]:
            raise ValueError("Q and x_ref dimensions disagree")
        q_eigs = np.linalg.eigvalsh(self.Q)
        if q_eigs.min() < -1e-10 * max(1.0, q_eigs.max()):
            raise ValueError("Q must be positive semidefinite")
        try:
            np.linalg.cholesky(self.R)
        except np.linalg.LinAlgError:
            raise ValueError("R must be positive definite") from None

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    @property
    def m(self) -> int:
        return self.R.shape[0]


@dataclass(frozen=True)
class ControlDecision:
    """Shares and dequeue order for one epoch; LinkSimulator.apply_decision checks them."""

    u: tuple[float, ...]
    priority_order: tuple[int, ...]


def structural_model(k: int, drain: float,
                     control_bounds: Optional[ControlBounds] = None) -> StateSpaceModel:
    """The link's own k-class plant: a share u_i drains drain * u_i of class
    i's backlog fraction (drain = bytes per epoch / queue bytes) and is its
    next utilization, so A = [I 0; 0 0] and B = [-drain I; I]. np.diag keeps
    every off-diagonal +0.0, which save_model_csv prints as 0."""
    A = np.diag([1.0] * k + [0.0] * k)
    B = np.vstack([np.diag([-drain] * k), np.eye(k)])
    return StateSpaceModel(A, B, control_bounds=control_bounds)


def identify_model(
    trace: Sequence[tuple],
    n: int,
    m: int,
    control_bounds: Optional[ControlBounds] = None,
) -> tuple[StateSpaceModel, float]:
    """Least-squares fit of (A, B) to a trajectory of (x_t, u_t) pairs.

    Minimizes sum_t ||x_{t+1} - A x_t - B u_t||^2 and returns the model
    together with the per-component residual RMS. Raises
    IdentifiabilityError naming the dependent regressor columns when the
    stacked [x_t, u_t] matrix is rank deficient.
    """
    if len(trace) < n + m + 1:
        raise ValueError(f"trace too short: need at least {n + m + 1} pairs, got {len(trace)}")
    xs = np.array([_as_vector(p[0], n, "x_t") for p in trace])
    us = np.array([_as_vector(p[1], m, "u_t") for p in trace])
    Z = np.hstack([xs[:-1], us[:-1]])
    Y = xs[1:]
    rank = np.linalg.matrix_rank(Z)
    if rank < n + m:
        names = [f"x{i}" for i in range(n)] + [f"u{i}" for i in range(m)]
        kept: list[int] = []
        deficient = []
        for j in range(n + m):
            cand = Z[:, kept + [j]]
            if np.linalg.matrix_rank(cand) > len(kept):
                kept.append(j)
            else:
                deficient.append(names[j])
        raise IdentifiabilityError(deficient)
    theta, *_ = np.linalg.lstsq(Z, Y, rcond=None)
    A = theta[:n].T
    B = theta[n:].T
    resid = Z @ theta - Y
    residual_rms = float(np.sqrt(np.mean(resid * resid)))
    model = StateSpaceModel(A, B, control_bounds=control_bounds)
    return model, residual_rms


# The most share vectors a controller may enumerate. MpcController holds
# every one: its int64 levels, U and 2U take 24 bytes per share, so a
# million vectors of nine shares take about 220 MB.
MAX_GRID_POINTS = 1_000_000


def check_grid_size(m: int, grid: int) -> None:
    """Refuse a grid whose share vectors number more than MAX_GRID_POINTS.
    _feasible_levels builds every point of the simplex grid, K = C(grid - 1
    + m, m) of them, before any other bound prunes one."""
    count = math.comb(grid - 1 + m, m)
    if count > MAX_GRID_POINTS:
        raise ValueError(f"{m} shares on a grid of {grid} levels give K = C({grid - 1 + m}, {m}) "
                         f"= {count:,} share vectors, more than the {MAX_GRID_POINTS:,} a "
                         f"controller may enumerate")


# The longest horizon a controller may plan over. MpcController.__init__
# sums a few n x n products per step and keeps none of them: at n = 18,
# m = 9 the longest horizon takes about 15 ms, against 3 steps in every
# canned config.
MAX_HORIZON = 1_000


def check_horizon(horizon: int) -> None:
    """Refuse a horizon below 1 or above MAX_HORIZON."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if horizon > MAX_HORIZON:
        raise ValueError(f"horizon {horizon:,} is more than the {MAX_HORIZON:,} steps a "
                         f"controller may plan over")


def _feasible_levels(bounds: ControlBounds, grid: int) -> np.ndarray:
    """Integer levels (u_i = level_i / (grid-1)) of the grid points inside the
    bounded simplex: an m x K array, one column per point, the columns in
    lexicographic order."""
    denom = grid - 1
    steps = np.arange(grid)
    levels = np.zeros((0, 1), dtype=np.int64)  # the one empty prefix
    sums = np.zeros(1, dtype=np.int64)
    for lo, hi in zip(bounds.lo, bounds.hi):
        allowed = steps[(lo - 1e-12 <= steps / denom) & (steps / denom <= hi + 1e-12)]
        # Each prefix, in order, extends by the allowed levels that keep
        # sum(u) <= 1 exactly, in level units, smallest first.
        counts = np.searchsorted(allowed, denom - sums, side="right")
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        new = allowed[np.arange(len(starts)) - starts]
        levels = np.vstack([np.repeat(levels, counts, axis=1), new])
        sums = np.repeat(sums, counts) + new
    return levels


def _descending(values: np.ndarray) -> list[int]:
    """Indices of values by descending value, ties by index: a stable sort of
    the indices by negated value. CPython's sort only asks whether a later
    item's key is less than an earlier one's, so this is the order of the
    key (-value, index) on every input, ties, -0.0 and NaN included."""
    return sorted(range(len(values)), key=list(map(neg, values.tolist())).__getitem__)


@dataclass(frozen=True)
class StabilityResult:
    spectral_radius: float
    stable: bool


def spectral_radius(M) -> float:
    """Largest eigenvalue modulus of the square, finite, non-empty matrix M."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix must be finite")
    if A.shape[0] == 0:
        raise ValueError("matrix must be non-empty")
    return float(np.abs(np.linalg.eigvals(A)).max())


def check_stability(model: StateSpaceModel) -> StabilityResult:
    """Spectral radius of A and the stability verdict rho < 1 - STABILITY_EPS."""
    rho = spectral_radius(model.A)
    return StabilityResult(spectral_radius=rho, stable=rho < 1.0 - STABILITY_EPS)


def save_model_csv(model: StateSpaceModel, path) -> None:
    """Row-major CSV with `# A n x n` / `# B n x m` section headers, each
    value as "%.17g"."""
    with open(path, "w", newline="") as fh:
        for name, M in (("A", model.A), ("B", model.B)):
            rows, cols = M.shape
            fh.write(f"# {name} {rows} x {cols}\n")
            line = ",".join(["%.17g"] * cols) + "\n"
            fh.write("".join(line % tuple(row) for row in M.tolist()))


class MpcController:
    """Receding-horizon controller over the feasible share grid, condensed.

    With u held constant over the horizon H, the predicted state is
    x_h = A^h x + G_h u with G_h = sum_{j<h} A^j B (G_0 = 0), and the
    horizon cost sum_{h<H} (x_h - x_ref)' Q (x_h - x_ref) + u' R u is

        cost(u) = c(x) + 2 u' g(x) + u' P u,

    where, with E the stack of A^0 .. A^{H-1}, E_ref that of H copies of
    x_ref, Qb the block diagonal of H copies of Q and GQ the row of the
    G_h' Q, both maps of x are fixed matrices (Borrelli, Bemporad & Morari,
    Predictive Control for Linear and Hybrid Systems, 2017):

        g(x) = F x - f,             F = GQ E,   f = GQ E_ref,
        c(x) = x'Y x - 2 y'x + r,   Y = E'Qb E, y = E'Qb E_ref,
                                    r = E_ref' Qb E_ref,

    and P = sum_h G_h' Q G_h + H R. Everything that does not depend on x is
    built once here, summed over h without stacking: the level tuples of
    the feasible grid (u_i = level_i / (grid-1), lexicographic order), U
    (m x K, one column per candidate), 2U (doubling is exact), each
    candidate's constant k = u'P u - f' 2U, and one (m + n + 1) x n matrix
    stacking [F; Y; y'].

    A decision makes one product z = [F; Y; y'] x, then the K costs less c,
    s = z[:m]' 2U + k, in place. c(x) = x' z[m:m+n] - 2 z[-1] + r serves
    only the tie band: s <= s_min + COST_TIE_ABS + COST_TIE_REL |s_min + c|,
    which is the band on the full costs in exact arithmetic. What a decision
    costs: about 16 us at 18 x 9 with K = 715 (grid 5) and 15 us at 4 x 2
    with K = 861 (grid 41), horizon 3, on a 2-vCPU x86 host (best of 25
    blocks of 500 decisions; the shared host's speed moves by up to about
    1.9x), mostly the fixed overhead of fourteen numpy calls (eight, and two
    per horizon step) and two scalar reads; the m x K product is about 1 us
    of it. A decision allocates no array of its own: z, the K costs, the tie
    mask and the rollout's two states are arrays made here and written in
    place by the out= forms of the same calls. The checks stay off the numpy
    path: x is checked by its shape, and for finiteness through the scalar
    c(x) (a non-finite x makes c non-finite). c is a vdot, which, unlike
    matmul, does not warn when a huge finite x overflows it. The priority
    order is one stable sort of the class indices by negated backlog.

    The first decision that chooses a candidate checks its shares with
    ControlBounds.contains and, if they pass, keeps the share tuple and its
    column B u*; a later choice of it reads both. Shares that fail raise
    AssertionError on every call that chooses them and are never kept. So
    the cache holds one entry per distinct candidate a run chooses, about
    250 bytes at 4 x 2 and 650 at 18 x 9, at most K of them.

    The grid, 2U, u'P u and the priority rollout keep their order of
    operations, and with them their bits: the rollout is H plain steps
    A x_h + B u*, with B u* formed once per candidate, because predicted
    backlogs tie exactly and no band absorbs a changed last bit of one.
    The costs are equal to c + 2 u'g + u'P u only in exact arithmetic, so
    a decision can differ from that arithmetic only where some candidate's
    cost lies within rounding of the tie band's edge.

    Costs within COST_TIE_REL/COST_TIE_ABS of the minimum full cost count
    as tied and the first tied candidate, the lexicographically smallest
    share vector, wins. The priority order ranks classes by descending
    predicted backlog (first m state components) after H plain steps
    A x + B u* under the chosen shares, ties broken by class index.
    """

    def __init__(self, model: StateSpaceModel, weights: CostWeights, horizon: int, grid: int):
        check_horizon(horizon)
        if grid < 2:
            raise ValueError(f"grid must be >= 2, got {grid}")
        if weights.n != model.n or weights.m != model.m:
            raise ValueError("weights dimensions do not match model")
        n, m = model.n, model.m
        if n < m:
            raise ValueError(f"the priority order needs m={m} backlog states, "
                             f"the model has n={n}")
        check_grid_size(m, grid)
        levels = _feasible_levels(model.control_bounds, grid)
        if levels.shape[1] == 0:
            raise InfeasibleControlSetError(
                f"no feasible grid point in control set lo={model.control_bounds.lo} "
                f"hi={model.control_bounds.hi} with sum(u) <= 1"
            )
        self.model = model
        self.weights = weights
        self.horizon = horizon
        self.grid = grid
        self._U = levels / (grid - 1)  # m x K
        self._U2 = 2.0 * self._U  # 2 u' g(x) as one product; doubling is exact

        # Sums over h of the blocks of P, F = GQ E, Y = E'Qb E and of the
        # G_h and A^h that f and y take.
        A, B, Q = model.A, model.B, weights.Q
        Ah, G = np.eye(n), np.zeros((n, m))  # A^h, G_h
        P = horizon * weights.R
        F, Y = np.zeros((m, n)), np.zeros((n, n))
        A_sum, G_sum = np.zeros((n, n)), np.zeros((n, m))
        for _ in range(horizon):
            GQ = G.T @ Q
            P = P + GQ @ G
            F += GQ @ Ah
            Y += Ah.T @ Q @ Ah
            A_sum += Ah
            G_sum += G
            G = G + Ah @ B
            Ah = A @ Ah
        Qx_ref = Q @ weights.x_ref
        quad = np.einsum("ik,ij,jk->k", self._U, P, self._U)
        self._k = quad - (G_sum.T @ Qx_ref) @ self._U2  # u'P u - f' 2U
        self._r = horizon * float(weights.x_ref @ Qx_ref)
        self._stack = np.vstack([F, Y, A_sum.T @ Qx_ref])  # [F; Y; y'], (m + n + 1) x n

        # A decision's work arrays, written in place by every call: z with
        # its g and c views, the costs, the tie mask and the two states the
        # priority rollout alternates between.
        self._z = np.empty(m + n + 1)
        self._zg, self._zy = self._z[:m], self._z[m:m + n]
        self._cost = np.empty(levels.shape[1])
        self._tie = np.empty(levels.shape[1], dtype=bool)
        self._xh = (np.empty(n), np.empty(n))
        # Per chosen candidate, its share tuple and B u, made by the first
        # decision that chooses it once its shares pass the control set.
        self._chosen: dict[int, tuple[tuple[float, ...], np.ndarray]] = {}

    @property
    def m(self) -> int:
        return self.model.m

    def decide(self, x, epoch_index: int) -> ControlDecision:
        model = self.model
        n, m = model.n, model.m
        if type(x) is not np.ndarray or x.shape != (n,):
            x = _as_vector(x, n, "x")
        z, cost, tie = self._z, self._cost, self._tie
        np.matmul(self._stack, x, out=z)
        c = float(np.vdot(x, self._zy)) - 2.0 * z.item(-1) + self._r
        if not math.isfinite(c):
            _as_vector(x, n, "x")  # a non-finite x is refused; a huge finite one goes on
        np.matmul(self._zg, self._U2, out=cost)
        np.add(cost, self._k, out=cost)
        s_min = cost.item(cost.argmin())  # NaN where some cost is, as min() gives
        np.less_equal(cost, s_min + COST_TIE_ABS + COST_TIE_REL * abs(s_min + c), out=tie)
        best = int(tie.argmax())  # first tied index == lexicographic smallest u
        chosen = self._chosen.get(best)
        if chosen is None:
            u = self._U[:, best]
            shares = tuple(u.tolist())
            if not model.control_bounds.contains(shares, tol=1e-12):
                raise AssertionError(f"allocated shares violate the control set: {shares}")
            chosen = self._chosen[best] = (shares, model.B @ u)
        shares, bu = chosen

        A, (xh, spare) = model.A, self._xh
        np.matmul(A, x, out=xh)
        np.add(xh, bu, out=xh)
        for _ in range(1, self.horizon):
            np.matmul(A, xh, out=spare)
            np.add(spare, bu, out=spare)
            xh, spare = spare, xh
        return ControlDecision(u=shares, priority_order=tuple(_descending(xh[:m])))


class ExcitationController:
    """Seeded random feasible shares; used to excite the plant for
    identification warmup.

    Cubed weights make the allocation spiky: single classes regularly get
    most of the link, so queues visit both their draining and growing
    regimes instead of sitting clipped at full.
    """

    def __init__(self, m: int, seed: int):
        self.m = m
        self._rng = random.Random(f"excite/{seed}")

    def decide(self, x, epoch_index: int) -> ControlDecision:
        raw = [self._rng.random() ** 3 + 1e-6 for _ in range(self.m)]
        total = sum(raw)
        budget = self._rng.uniform(0.2, 1.0)
        u = tuple(budget * r / total for r in raw)
        order = list(range(self.m))
        self._rng.shuffle(order)
        return ControlDecision(u=u, priority_order=tuple(order))


class FixedShareController:
    """Constant shares and priority order, mainly for tests and baselines."""

    def __init__(self, u, priority_order=None):
        self.u = tuple(float(v) for v in u)
        self.m = len(self.u)
        if priority_order is None:
            priority_order = tuple(range(self.m))
        self.priority_order = tuple(priority_order)

    def decide(self, x, epoch_index: int) -> ControlDecision:
        return ControlDecision(u=self.u, priority_order=self.priority_order)
