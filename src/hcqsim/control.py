"""Linear state-space control core.

Implements the plant step x(t+1) = A x(t) + B u(t), least-squares
identification of (A, B) from observed trajectories, the quadratic
performance/effort criterion, exhaustive receding-horizon bandwidth
allocation over a discretized share simplex, and a power-iteration
spectral-radius stability check.

The allocation is condensed (Maciejowski, Predictive Control with
Constraints, 2002): with u held over the horizon, the horizon cost of every
candidate is c(x) + 2 u' g(x) + u' P u. MpcController builds the feasible
share grid, P and each candidate's u' P u once; a decision computes c(x)
and g(x) and takes one m x K product over the K candidates.

State convention: the first m components of x are per-class backlog
fractions, the rest are per-class utilizations. Control u holds per-class
bandwidth shares constrained to 0 <= u_i <= 1 with sum(u) <= 1.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# Relative/absolute slack for treating two candidate costs as tied; the
# tie-break then picks the lexicographically smallest share vector.
COST_TIE_REL = 1e-9
COST_TIE_ABS = 1e-12

# Stability margin: stable means spectral radius < 1 - STABILITY_EPS.
STABILITY_EPS = 1e-9
POWER_ITER_TOL = 1e-10
POWER_ITER_CAP = 10_000


class IdentifiabilityError(ValueError):
    """Regressor matrix lacks full column rank."""

    def __init__(self, deficient_columns):
        self.deficient_columns = tuple(deficient_columns)
        cols = ", ".join(self.deficient_columns)
        super().__init__(f"regressor is rank deficient; dependent columns: {cols}")


class InfeasibleControlSetError(ValueError):
    """Box-and-simplex control set has no feasible grid point."""


class PowerIterationError(RuntimeError):
    """Power iteration failed to converge within the iteration cap."""

    def __init__(self, estimate, iterations):
        self.estimate = estimate
        self.iterations = iterations
        super().__init__(
            f"power iteration did not converge after {iterations} iterations; "
            f"last estimate {estimate:.12g}"
        )


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

    def contains(self, x, tol: float = 0.0) -> bool:
        v = np.asarray(x, dtype=float).reshape(-1)
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return bool(np.all(v >= lo - tol) and np.all(v <= hi + tol))


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

    @staticmethod
    def simplex(m: int) -> "ControlBounds":
        return ControlBounds((0.0,) * m, (1.0,) * m)

    def contains(self, u, tol: float = 0.0) -> bool:
        v = np.asarray(u, dtype=float).reshape(-1)
        if v.shape != (len(self.lo),):
            return False
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return bool(
            np.all(v >= lo - tol)
            and np.all(v <= hi + tol)
            and float(v.sum()) <= 1.0 + tol
        )


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
    """Shares and dequeue order for one control epoch."""

    u: tuple[float, ...]
    priority_order: tuple[int, ...]
    epoch_index: int

    def __post_init__(self):
        if sorted(self.priority_order) != list(range(len(self.priority_order))):
            raise ValueError(f"priority_order is not a permutation: {self.priority_order}")


def step_state(model: StateSpaceModel, x, u) -> np.ndarray:
    """One plant step A x + B u; no projection onto the state box."""
    xv = _as_vector(x, model.n, "x")
    uv = _as_vector(u, model.m, "u")
    return model.A @ xv + model.B @ uv


def identify_model(
    trace: Sequence[tuple],
    n: int,
    m: int,
    state_bounds: Optional[BoxBounds] = None,
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
    model = StateSpaceModel(A, B, state_bounds, control_bounds)
    return model, residual_rms


def evaluate_cost(weights: CostWeights, trajectory: Sequence[tuple], horizon: int) -> float:
    """sum_{t < horizon} (x_t - x_ref)' Q (x_t - x_ref) + u_t' R u_t."""
    if horizon < 0 or horizon > len(trajectory):
        raise ValueError(f"horizon {horizon} outside trajectory length {len(trajectory)}")
    total = 0.0
    for t in range(horizon):
        x = _as_vector(trajectory[t][0], weights.n, "x_t")
        u = _as_vector(trajectory[t][1], weights.m, "u_t")
        d = x - weights.x_ref
        total += float(d @ weights.Q @ d) + float(u @ weights.R @ u)
    return total


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


def allocate_control(
    model: StateSpaceModel,
    weights: CostWeights,
    x,
    horizon: int,
    grid: int,
    epoch_index: int = 0,
) -> ControlDecision:
    """One decision of a freshly built MpcController; see MpcController."""
    return MpcController(model, weights, horizon, grid).decide(x, epoch_index)


@dataclass(frozen=True)
class StabilityResult:
    spectral_radius: float
    stable: bool
    iterations: int


def spectral_radius(M, tol: float = POWER_ITER_TOL, max_iter: int = POWER_ITER_CAP) -> tuple[float, int]:
    """Spectral radius via power iteration.

    Each step projects M onto the two-dimensional Krylov basis {v, Mv} and
    takes the dominant eigenvalue modulus of the projected 2x2 block
    (closed-form quadratic), which also converges for complex-conjugate
    dominant pairs. Convergence: successive estimates within tol.
    """
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix must be finite")
    n = A.shape[0]
    if n == 0:
        raise ValueError("matrix must be non-empty")
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    prev = math.inf
    restarts = 0
    for it in range(1, max_iter + 1):
        w = A @ v
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            # Krylov sequence died: for a generic start this means all
            # eigenvalues are zero.
            if prev == 0.0 or restarts >= 2:
                return 0.0, it
            restarts += 1
            prev = 0.0
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
            continue
        alpha = float(v @ w)
        r = w - alpha * v
        nr = float(np.linalg.norm(r))
        if nr <= 1e-14 * nw:
            est = abs(alpha)  # v is (numerically) an eigenvector
        else:
            q2 = r / nr
            mq2 = A @ q2
            t11 = alpha
            t12 = float(v @ mq2)
            t21 = nr
            t22 = float(q2 @ mq2)
            tr = t11 + t22
            det = t11 * t22 - t12 * t21
            disc = 0.25 * tr * tr - det
            if disc >= 0.0:
                s = math.sqrt(disc)
                est = max(abs(0.5 * tr + s), abs(0.5 * tr - s))
            else:
                est = math.sqrt(det)  # complex pair: |lambda|^2 = det
        if abs(est - prev) <= tol * max(1.0, est):
            return est, it
        prev = est
        v = w / nw
    raise PowerIterationError(prev, max_iter)


def check_stability(model: StateSpaceModel, gain=None) -> StabilityResult:
    """Spectral radius of A (or A - B K with feedback gain K) and the
    stability verdict rho < 1 - STABILITY_EPS."""
    M = model.A
    if gain is not None:
        Km = np.asarray(gain, dtype=float)
        if Km.shape != (model.m, model.n):
            raise ValueError(f"gain must be {model.m} x {model.n}, got {Km.shape}")
        M = model.A - model.B @ Km
    rho, iters = spectral_radius(M)
    return StabilityResult(spectral_radius=rho, stable=rho < 1.0 - STABILITY_EPS, iterations=iters)


def save_model_csv(model: StateSpaceModel, path) -> None:
    """Row-major CSV with `# A n x n` / `# B n x m` section headers."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# A {model.n} x {model.n}\n")
        for row in model.A:
            fh.write(",".join("%.17g" % v for v in row) + "\n")
        fh.write(f"# B {model.n} x {model.m}\n")
        for row in model.B:
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def load_model_csv(path) -> StateSpaceModel:
    sections: dict[str, list[list[float]]] = {}
    dims: dict[str, tuple[int, int]] = {}
    current = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) != 4 or parts[2] != "x":
                    raise ValueError(f"malformed model CSV header {line!r} in {path}")
                current = parts[0]
                dims[current] = (int(parts[1]), int(parts[3]))
                sections[current] = []
            else:
                if current is None:
                    raise ValueError(f"model CSV data before any header in {path}")
                sections[current].append([float(v) for v in line.split(",")])
    for name in ("A", "B"):
        if name not in sections:
            raise ValueError(f"model CSV missing section {name} in {path}")
        rows, cols = dims[name]
        mat = sections[name]
        if len(mat) != rows or any(len(r) != cols for r in mat):
            raise ValueError(f"model CSV section {name} does not match declared {rows} x {cols}")
    return StateSpaceModel(np.array(sections["A"]), np.array(sections["B"]))


class MpcController:
    """Receding-horizon controller over the feasible share grid, condensed.

    With u held constant over the horizon H, the predicted state is
    x_h = A^h x + G_h u with G_h = sum_{j<h} A^j B (G_0 = 0), and the
    horizon cost sum_{h<H} (x_h - x_ref)' Q (x_h - x_ref) + u' R u is

        cost(u) = c(x) + 2 u' g(x) + u' P u,

    where e_h = A^h x - x_ref, c(x) = sum_h e_h' Q e_h,
    g(x) = sum_h G_h' Q e_h and P = sum_h G_h' Q G_h + H R.

    Everything that does not depend on x is built once here: the level
    tuples of the feasible grid (u_i = level_i / (grid-1), lexicographic
    order), U (m x K, one column per candidate), quad_k = u_k' P u_k, and
    the stacked maps x -> (e_0 .. e_{H-1}) and x -> g. A decision is then a
    few small products plus one m x K product.

    Costs within COST_TIE_REL/COST_TIE_ABS of the minimum full cost count
    as tied and the first tied candidate, the lexicographically smallest
    share vector, wins. The priority order ranks classes by descending
    predicted backlog (first m state components) after H plain steps
    A x + B u* under the chosen shares, ties broken by class index.
    """

    def __init__(self, model: StateSpaceModel, weights: CostWeights, horizon: int, grid: int):
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        if grid < 2:
            raise ValueError(f"grid must be >= 2, got {grid}")
        if weights.n != model.n or weights.m != model.m:
            raise ValueError("weights dimensions do not match model")
        if model.n < model.m:
            raise ValueError(f"the priority order needs m={model.m} backlog states, "
                             f"the model has n={model.n}")
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

        A, B, Q = model.A, model.B, weights.Q
        powers = [np.eye(model.n)]  # A^h
        gains = [np.zeros((model.n, model.m))]  # G_h
        for _ in range(1, horizon):
            gains.append(gains[-1] + powers[-1] @ B)
            powers.append(A @ powers[-1])
        P = horizon * weights.R
        for G in gains:
            P = P + G.T @ Q @ G
        self._quad = np.einsum("ik,ij,jk->k", self._U, P, self._U)
        self._E = np.vstack(powers)  # (H n) x n: x -> stacked A^h x
        self._E_ref = np.tile(weights.x_ref, horizon)
        self._GQ = np.hstack([G.T @ Q for G in gains])  # m x (H n): e -> g

    @property
    def m(self) -> int:
        return self.model.m

    def decide(self, x, epoch_index: int) -> ControlDecision:
        model = self.model
        xv = _as_vector(x, model.n, "x")
        e = self._E @ xv - self._E_ref
        eh = e.reshape(self.horizon, model.n)
        c = float(np.einsum("hi,ij,hj->", eh, self.weights.Q, eh))
        g = self._GQ @ e
        cost = c + 2.0 * (g @ self._U) + self._quad
        c_min = float(cost.min())
        tie = cost <= c_min + COST_TIE_ABS + COST_TIE_REL * abs(c_min)
        best = int(np.argmax(tie))  # first tied index == lexicographic smallest u
        u = self._U[:, best]
        u_star = tuple(u.tolist())

        xh = xv
        for _ in range(self.horizon):
            xh = model.A @ xh + model.B @ u
        backlog_end = xh[: model.m]
        order = sorted(range(model.m), key=lambda i: (-backlog_end[i], i))
        decision = ControlDecision(u=u_star, priority_order=tuple(order), epoch_index=epoch_index)
        if not model.control_bounds.contains(decision.u, tol=1e-12):
            raise AssertionError(f"allocated shares violate the control set: {decision.u}")
        return decision


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
        return ControlDecision(u=u, priority_order=tuple(order), epoch_index=epoch_index)


class FixedShareController:
    """Constant shares and priority order, mainly for tests and baselines."""

    def __init__(self, u, priority_order=None):
        self.u = tuple(float(v) for v in u)
        self.m = len(self.u)
        if priority_order is None:
            priority_order = tuple(range(self.m))
        self.priority_order = tuple(priority_order)

    def decide(self, x, epoch_index: int) -> ControlDecision:
        return ControlDecision(u=self.u, priority_order=self.priority_order, epoch_index=epoch_index)
