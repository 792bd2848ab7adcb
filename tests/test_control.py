import functools
import itertools
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hcqsim.control import (
    COST_TIE_ABS,
    COST_TIE_REL,
    BoxBounds,
    ControlBounds,
    CostWeights,
    ExcitationController,
    IdentifiabilityError,
    InfeasibleControlSetError,
    MAX_GRID_POINTS,
    MAX_HORIZON,
    MpcController,
    StateSpaceModel,
    _descending,
    _feasible_levels,
    check_grid_size,
    check_stability,
    identify_model,
    save_model_csv,
    spectral_radius,
    structural_model,
)
from hcqsim.config import load_config, parse_config
from hcqsim.runner import build_trace, run_closed, run_scenario
from hcqsim.scenarios import S1_SEED, s1_config

from test_acceptance import DEMO_CONFIG, nine_class_config, nine_class_dict

# ---------------------------------------------------------------- oracles


def naive_matmul_step(A, B, x, u):
    """Independent plain-python A x + B u."""
    n = len(A)
    out = []
    for i in range(n):
        acc = 0.0
        for j in range(len(x)):
            acc += A[i][j] * x[j]
        for j in range(len(u)):
            acc += B[i][j] * u[j]
        out.append(acc)
    return out


@functools.cache
def condensed_maps(ctrl):
    """(E, E_ref, GQ, U, quad) of the condensed horizon cost, built from the
    controller's model, weights, horizon and grid alone: E stacks A^0 ..
    A^{H-1}, E_ref stacks H copies of x_ref, GQ is the row of the G_h' Q
    (G_h = sum_{j<h} A^j B), U holds the feasible grid's share vectors as
    columns and quad each one's u' P u, P = sum_h G_h' Q G_h + H R."""
    model, weights, horizon, grid = ctrl.model, ctrl.weights, ctrl.horizon, ctrl.grid
    A, B, Q = model.A, model.B, weights.Q
    powers = [np.eye(model.n)]
    gains = [np.zeros((model.n, model.m))]
    for _ in range(1, horizon):
        gains.append(gains[-1] + powers[-1] @ B)
        powers.append(A @ powers[-1])
    P = horizon * weights.R
    for G in gains:
        P = P + G.T @ Q @ G
    U = _feasible_levels(model.control_bounds, grid) / (grid - 1)
    return (np.vstack(powers), np.tile(weights.x_ref, horizon),
            np.hstack([G.T @ Q for G in gains]), U, np.einsum("ik,ij,jk->k", U, P, U))


def horizon_costs(ctrl, x):
    """Every candidate's horizon cost c + 2 (g U) + quad, with e = E x - E_ref,
    c = e' Qb e and g = GQ e, in candidate order."""
    model = ctrl.model
    E, E_ref, GQ, U, quad = condensed_maps(ctrl)
    xv = np.asarray(x, dtype=float).reshape(-1)
    e = E @ xv - E_ref
    eh = e.reshape(ctrl.horizon, model.n)
    c = float(np.einsum("hi,ij,hj->", eh, ctrl.weights.Q, eh))
    g = GQ @ e
    return c + 2.0 * (g @ U) + quad


def read_model_csv(path):
    """(A, B) from the CSV save_model_csv writes: a `# NAME rows x cols`
    line before each matrix's rows."""
    mats = {}
    for block in path.read_text().split("# ")[1:]:
        head, *rows = block.strip().split("\n")
        name, n_rows, _, n_cols = head.split()
        values = [[float(v) for v in row.split(",")] for row in rows]
        mats[name] = np.array(values).reshape(int(n_rows), int(n_cols))
    return mats["A"], mats["B"]


def brute_force_costs(model, weights, x, horizon, grid):
    """Exhaustive plain-python enumeration over the share grid: every
    feasible (levels, u, horizon cost) in lexicographic level order."""
    m = model.m
    denom = grid - 1
    A = model.A.tolist()
    B = model.B.tolist()
    Q = weights.Q.tolist()
    R = weights.R.tolist()
    x_ref = weights.x_ref.tolist()
    lo, hi = model.control_bounds.lo, model.control_bounds.hi
    candidates = []
    for levels in itertools.product(range(grid), repeat=m):
        if sum(levels) > denom:
            continue
        u = [lv / denom for lv in levels]
        if any(u[i] < lo[i] - 1e-12 or u[i] > hi[i] + 1e-12 for i in range(m)):
            continue
        xs = list(x)
        total = 0.0
        for _ in range(horizon):
            d = [xs[i] - x_ref[i] for i in range(len(xs))]
            for i in range(len(d)):
                for j in range(len(d)):
                    total += d[i] * Q[i][j] * d[j]
            for i in range(m):
                for j in range(m):
                    total += u[i] * R[i][j] * u[j]
            xs = naive_matmul_step(A, B, xs, u)
        candidates.append((levels, u, total))
    return candidates


def brute_force_allocate(model, weights, x, horizon, grid):
    """The brute-force argmin with the documented tie-break (tolerance band,
    lexicographic smallest)."""
    candidates = brute_force_costs(model, weights, x, horizon, grid)
    if not candidates:
        raise ValueError("infeasible")
    c_min = min(c[2] for c in candidates)
    tol = COST_TIE_ABS + COST_TIE_REL * abs(c_min)
    ties = [c for c in candidates if c[2] <= c_min + tol]
    best = min(ties, key=lambda c: c[0])
    return tuple(best[1])


def eigval_oracle(M):
    """Characteristic-roots oracle via numpy's QR-based eigvals."""
    return float(np.abs(np.linalg.eigvals(M)).max())


def random_weights(rng, n, m):
    Mq = rng.standard_normal((n, n))
    Q = Mq.T @ Mq
    Mr = rng.standard_normal((m, m))
    R = Mr.T @ Mr + 0.1 * np.eye(m)
    x_ref = rng.standard_normal(n)
    return CostWeights(Q=Q, R=R, x_ref=x_ref)


def random_stable_model(rng, n, m, radius=0.9):
    A = rng.standard_normal((n, n))
    rho = eigval_oracle(A)
    if rho > 0:
        A *= radius / rho
    B = rng.standard_normal((n, m))
    return StateSpaceModel(A, B, state_bounds=BoxBounds((-1e9,) * n, (1e9,) * n))


# ---------------------------------------------------------------- plant step


class TestStepState:
    """The plant step A x + B u as MpcController rolls it out for the
    priority order: H steps under the chosen shares, then the classes by
    descending predicted backlog."""

    def test_identity_dynamics(self):
        # A = I, B = 0: the predicted backlog is the observed one.
        model = StateSpaceModel(np.eye(4), np.zeros((4, 2)))
        w = CostWeights(Q=np.eye(4), R=np.eye(2), x_ref=np.zeros(4))
        ctrl = MpcController(model, w, horizon=3, grid=5)
        assert ctrl.decide(np.array([0.2, 0.7, 0.0, 0.0]), 0).priority_order == (1, 0)
        assert ctrl.decide(np.array([0.5, 0.5, 0.0, 0.0]), 0).priority_order == (0, 1)

    def test_hand_arithmetic(self):
        # u = (0, 1) is the one feasible share vector. From backlog (2, 0),
        # x1 = 0.5 x + B u has backlog (1, 1), a tie broken by class index,
        # and x2 has (0.5, 1.5).
        B = np.vstack([np.eye(2), np.zeros((2, 2))])
        model = StateSpaceModel(0.5 * np.eye(4), B,
                                control_bounds=ControlBounds((0.0, 1.0), (0.0, 1.0)))
        w = CostWeights(Q=np.eye(4), R=np.eye(2), x_ref=np.zeros(4))
        x = np.array([2.0, 0.0, 0.0, 0.0])
        one, two = (MpcController(model, w, horizon=h, grid=2).decide(x, 0) for h in (1, 2))
        assert one.u == two.u == (0.0, 1.0)
        assert (one.priority_order, two.priority_order) == ((0, 1), (1, 0))

    def test_matches_naive_matmul_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            model = random_stable_model(rng, 4, 2)
            ctrl = MpcController(model, random_weights(rng, 4, 2), horizon=3, grid=5)
            x = rng.standard_normal(4)
            d = ctrl.decide(x, 0)
            xs = x.tolist()
            for _ in range(3):
                xs = naive_matmul_step(model.A.tolist(), model.B.tolist(), xs, list(d.u))
            ranked = [xs[i] for i in d.priority_order]
            assert all(a >= b - 1e-12 for a, b in zip(ranked, ranked[1:]))

    def test_dimension_mismatch(self):
        # A state or share vector of the wrong length is refused where the
        # plant step is fitted and where it is rolled out.
        model = StateSpaceModel(np.eye(2), np.zeros((2, 1)))
        good = [(np.zeros(2), np.zeros(1))] * 10
        for bad in ((np.zeros(3), np.zeros(1)), (np.zeros(2), np.zeros(2))):
            with pytest.raises(ValueError, match="must have length"):
                identify_model([bad] + good, 2, 1)
        ctrl = MpcController(model, CostWeights(Q=np.eye(2), R=np.eye(1), x_ref=np.zeros(2)),
                             horizon=1, grid=3)
        with pytest.raises(ValueError, match="x must have length 2"):
            ctrl.decide([1.0, 2.0, 3.0], 0)


# ---------------------------------------------------------------- structural


class TestStructuralModel:
    def test_s1_link_gives_the_typed_matrices(self):
        # s1's plant, written out bit for bit: +0.0 off the diagonal, never
        # -0.0, so s1's pinned closed/model.csv prints 0 there.
        link = s1_config().link
        model = structural_model(2, link.bytes_per_epoch / link.queue_capacity_bytes)
        drain = 0.20833333333333334  # 625,000 bytes per epoch over 3,000,000
        A = np.array([[1.0, 0.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 0.0]])
        B = np.array([[-drain, 0.0],
                      [0.0, -drain],
                      [1.0, 0.0],
                      [0.0, 1.0]])
        assert model.A.tobytes() == A.tobytes()
        assert model.B.tobytes() == B.tobytes()
        for M in (model.A, model.B):
            assert not np.any(np.signbit(M) & (M == 0.0))
        s1_model = s1_config().controller.model
        assert s1_model.A.tobytes() == A.tobytes() and s1_model.B.tobytes() == B.tobytes()

    def test_nine_classes_shapes(self):
        bounds = ControlBounds((0.0,) * 9, (0.5,) * 9)
        model = structural_model(9, 0.25, bounds)
        assert (model.A.shape, model.B.shape) == ((18, 18), (18, 9))
        assert model.control_bounds == bounds
        np.testing.assert_array_equal(model.A, np.diag([1.0] * 9 + [0.0] * 9))
        np.testing.assert_array_equal(model.B, np.vstack([-0.25 * np.eye(9), np.eye(9)]))
        assert structural_model(9, 0.25).control_bounds == ControlBounds.simplex(9)

    @pytest.mark.parametrize("seed", range(5))
    def test_nine_class_closed_drops_nothing(self, seed):
        # The nine-class workload with its identified model swapped for the
        # structural one, closed and open on one trace. The identified model
        # drops 61.1% at seed 0; open drops nothing on these seeds.
        raw = nine_class_dict(seed)
        controller = raw["controller"]
        del controller["warmup_epochs"], controller["excitation_seed"]
        controller["model"] = "structural"
        raw["mode"] = "both"
        result = run_scenario(parse_config(raw))
        dropped = result.closed_metrics.dropped_bytes()
        assert dropped == 0
        assert dropped <= result.open_metrics.dropped_bytes()


# ---------------------------------------------------------------- identify


def simulate_pairs(model, T, rng, noise=0.0):
    x = rng.standard_normal(model.n) * 0.1
    pairs = []
    for _ in range(T):
        u = rng.uniform(-1.0, 1.0, model.m)
        pairs.append((x.copy(), u.copy()))
        x = model.A @ x + model.B @ u
        if noise:
            x = x + rng.normal(0.0, noise, model.n)
    return pairs


class TestIdentify:
    def test_generate_then_recover(self):
        rng = np.random.default_rng(3)
        for n, m in ((2, 1), (3, 2), (4, 4)):
            true = random_stable_model(rng, n, m)
            pairs = simulate_pairs(true, 10 * (n + m), rng)
            model, residual = identify_model(pairs, n, m)
            assert np.abs(model.A - true.A).max() < 1e-8
            assert np.abs(model.B - true.B).max() < 1e-8
            assert residual < 1e-8

    def test_zero_trace_not_identifiable(self):
        pairs = [(np.zeros(2), np.zeros(1))] * 20
        with pytest.raises(IdentifiabilityError) as err:
            identify_model(pairs, 2, 1)
        assert "x0" in str(err.value)

    def test_deficient_columns_named(self):
        # u0 is always zero: only that column should be reported.
        rng = np.random.default_rng(4)
        true = random_stable_model(rng, 2, 2)
        pairs = []
        x = rng.standard_normal(2)
        for _ in range(30):
            u = np.array([0.0, rng.uniform(-1, 1)])
            pairs.append((x.copy(), u.copy()))
            x = true.A @ x + true.B @ u
        with pytest.raises(IdentifiabilityError) as err:
            identify_model(pairs, 2, 2)
        assert err.value.deficient_columns == ("u0",)

    def test_noise_residual_calibrated(self):
        # Monte-Carlo residual check: RMS residual must sit near the
        # injected noise level.
        rng = np.random.default_rng(5)
        sigma = 0.01
        true = random_stable_model(rng, 3, 2)
        pairs = simulate_pairs(true, 1000, rng, noise=sigma)
        _, residual = identify_model(pairs, 3, 2)
        assert 0.5 * sigma <= residual <= 2.0 * sigma

    def test_too_short_trace(self):
        rng = np.random.default_rng(6)
        true = random_stable_model(rng, 2, 2)
        pairs = simulate_pairs(true, 4, rng)
        with pytest.raises(ValueError):
            identify_model(pairs, 2, 2)


# ---------------------------------------------------------------- cost


class TestEvaluateCost:
    """MpcController's condensed horizon cost c(x) + 2 u' g(x) + u' P u of
    every candidate, against the criterion summed term by term."""

    def test_reference_trajectory_is_free(self):
        # B = 0 holds x at x_ref, so zero shares cost nothing.
        model = StateSpaceModel(np.eye(2), np.zeros((2, 2)))
        w = CostWeights(Q=np.eye(2), R=np.eye(2), x_ref=np.array([0.5, 0.5]))
        ctrl = MpcController(model, w, horizon=5, grid=3)
        assert horizon_costs(ctrl, [0.5, 0.5])[0] == 0.0

    def test_hand_arithmetic(self):
        # Horizon 1 from x = (1, 0): x'Q x + u'R u, so 2 under u = (0, 1).
        model = StateSpaceModel(np.eye(2), np.eye(2))
        w = CostWeights(Q=np.eye(2), R=np.eye(2), x_ref=np.zeros(2))
        ctrl = MpcController(model, w, horizon=1, grid=2)
        assert ctrl._U.T.tolist() == [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
        assert horizon_costs(ctrl, [1.0, 0.0]).tolist() == [1.0, 2.0, 2.0]

    def test_matches_term_by_term_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            model = random_stable_model(rng, 3, 2)
            w = random_weights(rng, 3, 2)
            x = rng.standard_normal(3)
            ctrl = MpcController(model, w, horizon=6, grid=5)
            want = [cost for _, _, cost in brute_force_costs(model, w, x.tolist(), 6, 5)]
            np.testing.assert_allclose(horizon_costs(ctrl, x), want, rtol=1e-9, atol=1e-12)

    def test_nonnegative_and_positive_off_reference(self):
        # Every nonzero share vector pays at least H u'R u > 0.
        rng = np.random.default_rng(8)
        w = CostWeights(Q=np.eye(2), R=np.eye(2), x_ref=np.zeros(2))
        for _ in range(20):
            model = StateSpaceModel(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
            costs = horizon_costs(MpcController(model, w, horizon=2, grid=5),
                                  rng.standard_normal(2))
            assert costs[0] >= 0.0 and (costs[1:] > 0.0).all()

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            CostWeights(Q=np.array([[0.0, 1.0], [0.0, 0.0]]), R=np.eye(2), x_ref=np.zeros(2))
        with pytest.raises(ValueError):
            CostWeights(Q=np.eye(2), R=-np.eye(2), x_ref=np.zeros(2))
        with pytest.raises(ValueError):
            CostWeights(Q=-np.eye(2), R=np.eye(2), x_ref=np.zeros(2))


# ---------------------------------------------------------------- allocate


class TestAllocateControl:
    def test_useless_control_stays_zero(self):
        # B = 0: shares cannot move the state, PD R forces zero effort.
        model = StateSpaceModel(0.5 * np.eye(4), np.zeros((4, 2)))
        w = CostWeights(Q=np.eye(4), R=np.eye(2), x_ref=np.array([0.0, 0.0, 0.4, 0.4]))
        d = MpcController(model, w, 3, 11).decide(np.array([0.5, 0.5, 0.2, 0.2]), 0)
        assert d.u == (0.0, 0.0)

    def test_symmetric_instance_symmetric_shares(self):
        # Constructed so the unconstrained optimum (0.3, 0.3) is a grid
        # point: cost = const + u'(2R + Q)u - 2 x_ref' Q u with A = 0,
        # B = I, horizon 2.
        model = StateSpaceModel(np.zeros((2, 2)), np.eye(2))
        w = CostWeights(Q=np.eye(2), R=0.5 * np.eye(2), x_ref=np.array([0.6, 0.6]))
        d = MpcController(model, w, 2, 11).decide(np.zeros(2), 0)
        assert d.u[0] == d.u[1] == pytest.approx(0.3)

    def test_equals_brute_force_on_toy_model(self):
        rng = np.random.default_rng(9)
        model = random_stable_model(rng, 2, 2)
        w = random_weights(rng, 2, 2)
        x = rng.standard_normal(2)
        d = MpcController(model, w, 3, 11).decide(x, 0)
        assert d.u == brute_force_allocate(model, w, x, horizon=3, grid=11)

    def test_feasible_on_every_call(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            n, m = 4, 2
            model = random_stable_model(rng, n, m)
            w = random_weights(rng, n, m)
            d = MpcController(model, w, 2, 7).decide(rng.standard_normal(n), 0)
            assert all(0.0 <= v <= 1.0 for v in d.u)
            assert sum(d.u) <= 1.0 + 1e-12
            assert sorted(d.priority_order) == list(range(m))

    def test_scale_invariance_of_argmin(self):
        rng = np.random.default_rng(11)
        for lam in (0.5, 3.0, 1e3):
            model = random_stable_model(rng, 2, 2)
            w = random_weights(rng, 2, 2)
            scaled = CostWeights(Q=lam * w.Q, R=lam * w.R, x_ref=w.x_ref)
            x = rng.standard_normal(2)
            assert MpcController(model, w, 3, 11).decide(x, 0).u == \
                MpcController(model, scaled, 3, 11).decide(x, 0).u

    def test_priority_sorts_by_predicted_backlog(self):
        # Identity dynamics, no control effect: backlog order is just the
        # initial backlog order.
        model = StateSpaceModel(np.eye(4), np.zeros((4, 2)))
        w = CostWeights(Q=np.eye(4), R=np.eye(2), x_ref=np.zeros(4))
        d = MpcController(model, w, 2, 5).decide(np.array([0.2, 0.9, 0.0, 0.0]), 0)
        assert d.priority_order == (1, 0)
        # ties broken by class index
        d = MpcController(model, w, 2, 5).decide(np.array([0.4, 0.4, 0.0, 0.0]), 0)
        assert d.priority_order == (0, 1)

    def test_infeasible_control_set(self):
        bounds = ControlBounds((0.8, 0.8), (1.0, 1.0))  # lo sums above 1
        model = StateSpaceModel(np.eye(2), np.eye(2), control_bounds=bounds)
        w = CostWeights(Q=np.eye(2), R=np.eye(2), x_ref=np.zeros(2))
        with pytest.raises(InfeasibleControlSetError):
            MpcController(model, w, 1, 11).decide(np.zeros(2), 0)

    def test_bad_arguments(self):
        model = StateSpaceModel(np.eye(2), np.eye(2))
        w = CostWeights(Q=np.eye(2), R=np.eye(2), x_ref=np.zeros(2))
        with pytest.raises(ValueError):
            MpcController(model, w, 0, 11).decide(np.zeros(2), 0)
        with pytest.raises(ValueError):
            MpcController(model, w, 1, 1).decide(np.zeros(2), 0)
        # fewer states than shares: no backlog state for the priority order
        narrow = StateSpaceModel(np.eye(1), np.ones((1, 2)))
        w1 = CostWeights(Q=np.eye(1), R=np.eye(2), x_ref=np.zeros(1))
        with pytest.raises(ValueError, match="backlog states"):
            MpcController(narrow, w1, horizon=1, grid=3)


# ------------------------------------------------- condensed controller

# The brute force sums in another order than the controller; a candidate
# this close (relative to the minimum) to the edge of the tie band may fall
# on either side of it.
REASSOCIATION_SLACK = 1e-12


def assert_in_oracle_band(decision, model, weights, x, horizon, grid):
    """The chosen u lies in the brute-force tie band widened by the slack,
    and no lexicographically smaller candidate lies in the band narrowed by
    it; the priority order sorts the oracle's horizon-end backlog."""
    candidates = brute_force_costs(model, weights, x, horizon, grid)
    c_min = min(c[2] for c in candidates)
    band = COST_TIE_ABS + COST_TIE_REL * abs(c_min)
    slack = REASSOCIATION_SLACK * max(1.0, abs(c_min))
    k = [tuple(c[1]) for c in candidates].index(decision.u)
    assert candidates[k][2] <= c_min + band + slack
    earlier = [c[0] for c in candidates[:k] if c[2] <= c_min + band - slack]
    assert not earlier, f"{earlier[0]} ties the minimum and precedes {candidates[k][0]}"
    xs = list(x)
    for _ in range(horizon):
        xs = naive_matmul_step(model.A.tolist(), model.B.tolist(), xs, decision.u)
    backlog = xs[: model.m]
    scale = 1e-9 * max(1.0, max(abs(v) for v in backlog))
    for a, b in zip(decision.priority_order, decision.priority_order[1:]):
        assert backlog[a] >= backlog[b] - scale


QUARTERS = st.integers(-4, 4).map(lambda v: v / 4)


def quarter_matrix(rows, cols):
    return st.lists(QUARTERS, min_size=rows * cols, max_size=rows * cols).map(
        lambda v: np.array(v, dtype=float).reshape(rows, cols))


@st.composite
def controller_cases(draw):
    """Small models with box-bounded shares (lo > 0), weighted toward ties:
    quarter-integer entries, B = 0, identical classes whose shares compete
    for the whole link, zero backlog, and share effects so small that some
    or all candidates fall inside the tie band."""
    m = draw(st.integers(1, 4))
    horizon = draw(st.integers(1, 4))
    grid = draw(st.integers(3, 11))
    kind = draw(st.sampled_from(["generic", "zero_b", "identical", "near_tie"]))
    if kind == "identical":
        # Every class wants full utilization; when m does not divide the
        # level total the best splits are permutations of one another.
        n = 2 * m
        a, b1 = draw(QUARTERS), draw(QUARTERS)
        b2, q = (draw(st.integers(1, 4)) / 4 for _ in range(2))
        A = a * np.eye(n)
        B = np.zeros((n, m))
        for i in range(m):
            B[i, i], B[m + i, i] = b1, b2
        Q = q * np.eye(n)
        R = draw(st.integers(1, 4)) / 64 * np.eye(m)
        x_ref = np.repeat([0.0, 1.0], m)
        x = np.repeat([abs(draw(QUARTERS)), abs(draw(QUARTERS))], m)
        lo = (draw(st.integers(1, 10)) / 100,) * m
        hi = (max(lo[0], draw(st.integers(50, 100)) / 100),) * m
    else:
        n = draw(st.integers(m, 4))  # the first m states are backlogs
        A = draw(quarter_matrix(n, n)) / n
        B = np.zeros((n, m)) if kind == "zero_b" else draw(quarter_matrix(n, m))
        Mq = draw(quarter_matrix(n, n))
        Mr = draw(quarter_matrix(m, m))
        Q = Mq.T @ Mq
        R = (Mr.T @ Mr + 0.25 * np.eye(m)) / 16
        x_ref = draw(quarter_matrix(1, n))[0]
        x = draw(quarter_matrix(1, n))[0]
        if kind == "near_tie":
            # shares move the cost by ~1e-11..1e-8 of c(x), around the
            # relative tie band
            scale = 10.0 ** -draw(st.integers(6, 9))
            B, R, x = scale * B, scale * R, 4 * x + 1
        lo = tuple(draw(st.integers(1, 10)) / 100 for _ in range(m))
        hi = tuple(max(v, draw(st.integers(25, 100)) / 100) for v in lo)
    if draw(st.booleans()):
        x[:m] = 0.0  # zero backlog
    model = StateSpaceModel(A, B, control_bounds=ControlBounds(lo, hi))
    return model, CostWeights(Q=Q, R=R, x_ref=x_ref), x, horizon, grid


class TestCondensedController:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(controller_cases())
    def test_matches_brute_force_band(self, case):
        model, weights, x, horizon, grid = case
        if not brute_force_costs(model, weights, x, horizon, grid):
            with pytest.raises(InfeasibleControlSetError):
                MpcController(model, weights, horizon, grid)
            return
        decision = MpcController(model, weights, horizon, grid).decide(x, 0)
        assert_in_oracle_band(decision, model, weights, x, horizon, grid)

    def test_nine_classes_grid_5(self):
        rng = np.random.default_rng(1402)
        n, m, horizon, grid = 18, 9, 3, 5
        model = random_stable_model(rng, n, m)
        weights = random_weights(rng, n, m)
        controller = MpcController(model, weights, horizon, grid)
        states = [rng.uniform(0.0, 1.0, n), np.zeros(n),
                  np.concatenate([np.zeros(m), rng.uniform(0.0, 1.0, m)])]
        for x in states:
            decision = controller.decide(x, 0)
            assert_in_oracle_band(decision, model, weights, x, horizon, grid)


# ------------------------------------------------- decide, bit for bit


def reference_decide(ctrl, x):
    """(u, priority_order) by the decision formula written out step by step:
    cost = c + 2 (g U) + quad, the tie band, and H plain steps A x + B u."""
    model = ctrl.model
    xv = np.asarray(x, dtype=float).reshape(-1)
    cost = horizon_costs(ctrl, xv)
    c_min = float(cost.min())
    tie = cost <= c_min + COST_TIE_ABS + COST_TIE_REL * abs(c_min)
    u = condensed_maps(ctrl)[3][:, int(np.argmax(tie))]
    xh = xv
    for _ in range(ctrl.horizon):
        xh = model.A @ xh + model.B @ u
    backlog_end = xh[: model.m]
    order = sorted(range(model.m), key=lambda i: (-backlog_end[i], i))
    return tuple(u.tolist()), tuple(order)


def drain_model(m):
    """The s1 plant for m classes: a share u_i drains 5/24 * u_i of class i's
    backlog per epoch and is its next utilization."""
    return structural_model(m, 5 / 24)


def bit_identity_controllers():
    """The s1 controller (m = 2, grid 41) and two of nine-class shape (18 x 9,
    grid 5): the s1 plant for nine classes and a random stable model."""
    s1 = s1_config().controller
    nine_w = CostWeights(Q=np.diag([4.0] * 9 + [1.0] * 9), R=0.01 * np.eye(9),
                         x_ref=np.array([0.0] * 9 + [0.1] * 9))
    rng = np.random.default_rng(1402)
    return {
        "s1": MpcController(s1.model, s1.weights, s1.horizon, s1.grid),
        "nine-drain": MpcController(drain_model(9), nine_w, 3, 5),
        "nine-random": MpcController(random_stable_model(rng, 18, 9), nine_w, 3, 5),
    }


BIT_IDENTITY = bit_identity_controllers()


@st.composite
def closed_loop_states(draw):
    """Nine backlogs and nine utilizations, of which a controller of fewer
    classes takes the first. Backlogs in [0, 1], often on the 1/64 lattice
    where the s1 plant's horizon-end backlogs tie exactly, and often all
    zero or all equal; utilizations in [0, 1.2]."""
    m = 9
    level = st.one_of(st.integers(0, 64).map(lambda k: k / 64), st.floats(0.0, 1.0))
    backlog = draw(st.lists(level, min_size=m, max_size=m))
    tie = draw(st.sampled_from(["none", "zero", "equal"]))
    if tie == "zero":
        backlog = [0.0] * m
    elif tie == "equal":
        backlog = [backlog[0]] * m
    return backlog, draw(st.lists(st.floats(0.0, 1.2), min_size=m, max_size=m))


# Under the nine-drain controller this state chooses u* = (0 x5, 1/4 x4),
# and the predicted backlogs of classes 4 and 8 tie in exact arithmetic:
# H plain steps A x_h + B u* rank 8 first, A^H x + sum_h A^h B u* ranks 4
# first.
NINE_DRAIN_TIE = ([0.0] * 4 + [0.203125] * 4 + [0.359375], [0.0] * 9)


class TestDecideBitIdentity:
    @pytest.mark.parametrize("name", sorted(BIT_IDENTITY))
    @settings(max_examples=300, deadline=None, derandomize=True)
    @example(state=NINE_DRAIN_TIE)
    @given(state=closed_loop_states())
    def test_same_bits_as_reference(self, name, state):
        ctrl = BIT_IDENTITY[name]
        m, n = ctrl.model.m, ctrl.model.n
        backlog, util = state
        x = np.array(backlog[:m] + util[:n - m])
        d = ctrl.decide(x, 7)
        u, order = reference_decide(ctrl, x)
        assert [v.hex() for v in d.u] == [v.hex() for v in u]
        assert d.priority_order == order

    @pytest.mark.parametrize("name", sorted(BIT_IDENTITY))
    def test_huge_finite_state_still_decides(self, name):
        # c(x) overflows to inf; x is finite, so the decision goes on as the
        # formula gives it.
        ctrl = BIT_IDENTITY[name]
        x = np.full(ctrl.model.n, 1e200)
        d = ctrl.decide(x, 0)
        assert (d.u, d.priority_order) == reference_decide(ctrl, x)

    def test_array_like_state_decides_as_its_vector(self):
        ctrl = BIT_IDENTITY["s1"]
        x = [0.5, 0.25, 0.1, 0.9]
        want = ctrl.decide(np.array(x), 0)
        for same in (x, tuple(x), np.array([x]), np.array(x, dtype=np.float32).astype(float)):
            assert ctrl.decide(same, 0) == want

    # An infinite x meets 0 * inf in the first product, which numpy reports
    # as a RuntimeWarning before decide refuses x.
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_bad_state_rejected(self):
        ctrl = BIT_IDENTITY["s1"]
        for x in (np.zeros(3), np.zeros(5), [0.0] * 5):
            with pytest.raises(ValueError, match="x must have length 4"):
                ctrl.decide(x, 0)
        for v in (np.nan, np.inf, -np.inf):
            for i in (0, 3):
                x = np.zeros(4)
                x[i] = v
                with pytest.raises(ValueError, match="x must be finite"):
                    ctrl.decide(x, 0)
                with pytest.raises(ValueError, match="x must be finite"):
                    ctrl.decide(x.tolist(), 0)


class TestDecideReuse:
    """A controller computes each decision in arrays it allocated once and
    keeps each chosen candidate's shares and B u; no decision depends on
    the ones before it."""

    @pytest.mark.parametrize("name", sorted(BIT_IDENTITY))
    def test_interleaved_states_decide_as_a_fresh_controller(self, name):
        shared = BIT_IDENTITY[name]
        model, w = shared.model, shared.weights
        rng = np.random.default_rng(24)
        states = [rng.uniform(0.0, 1.2, model.n) for _ in range(12)]
        states[3][: model.m] = 0.0
        fresh = [MpcController(model, w, shared.horizon, shared.grid).decide(x, 0)
                 for x in states]
        one = MpcController(model, w, shared.horizon, shared.grid)
        for i in [0, 1, 0, 2, 3, 1, 3, 3, *range(12), *range(11, -1, -1)]:
            d = one.decide(states[i].copy(), i)
            assert [v.hex() for v in d.u] == [v.hex() for v in fresh[i].u]
            assert d.priority_order == fresh[i].priority_order

    def test_steady_decisions_allocate_less_than_one_cost_vector(self):
        # m = 2 at grid 41: K = 861 costs of 8 bytes each. The costs and the
        # tie mask are written in place, so a decision's peak allocation
        # stays below one such vector.
        ctrl = BIT_IDENTITY["s1"]
        K = ctrl._U.shape[1]
        assert K == 861
        rng = np.random.default_rng(7)
        states = [rng.uniform(0.0, 1.0, ctrl.model.n) for _ in range(40)]
        for x in states:
            ctrl.decide(x, 0)
        peaks = []
        tracemalloc.start()
        try:
            for x in states:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                ctrl.decide(x, 0)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        assert max(peaks) < 8 * K

    def test_shares_outside_the_control_set_fail_every_call(self):
        # The control set narrowed after the grid was built: the chosen
        # shares leave it, and the failed check is not kept.
        s1 = s1_config().controller
        x = np.array([0.9, 0.9, 0.5, 0.5])
        assert max(BIT_IDENTITY["s1"].decide(x, 0).u) > 0.1
        ctrl = MpcController(StateSpaceModel(s1.model.A, s1.model.B), s1.weights,
                             s1.horizon, s1.grid)
        ctrl.model.control_bounds = ControlBounds((0.0, 0.0), (0.1, 0.1))
        for _ in range(3):
            with pytest.raises(AssertionError, match="allocated shares violate the control set"):
                ctrl.decide(x, 0)


@dataclass(eq=False)
class ControllerInputs:
    """What reference_decide reads of a controller."""

    model: StateSpaceModel
    weights: CostWeights
    horizon: int
    grid: int


CANNED_CLOSED = {"s1": lambda: s1_config(S1_SEED), "demo": lambda: load_config(DEMO_CONFIG),
                 "nine-class": nine_class_config}


class TestCannedRunsReplay:
    @pytest.mark.parametrize("name", ["s1", "demo", "nine-class"])
    def test_every_epoch_decides_as_the_reference(self, name):
        # Each epoch's observed state, through the step-by-step formula,
        # gives the shares and ranks the closed run recorded for it.
        cfg = CANNED_CLOSED[name]()
        m, model, _ = run_closed(cfg, build_trace(cfg), cfg.classes())
        cc = cfg.controller
        inputs = ControllerInputs(model, cc.weights, cc.horizon, cc.grid)
        assert m.n_epochs == len(m.shares) == len(m.ranks) > 0
        for e, (shares, ranks) in enumerate(zip(m.shares, m.ranks)):
            u, order = reference_decide(inputs, m.observed_state(e))
            assert shares == u, e
            assert ranks == tuple(order.index(i) for i in range(len(order))), e


# Values that order or compare unlike plain numbers: signed zeros, NaN and
# the infinities, next to ties and ordinary floats.
ODD_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, np.nan, np.inf, -np.inf, 5e-324, 1e-300]),
    st.floats(allow_nan=True, allow_infinity=True),
)


class TestDescendingOrder:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(ODD_FLOATS, st.integers(-3, 3).map(float)), max_size=12))
    def test_same_order_as_the_tuple_key(self, values):
        # The priority sort of the parent: descending value, ties by index.
        want = sorted(range(len(values)), key=lambda i: (-values[i], i))
        assert _descending(np.array(values, dtype=float)) == want

    def test_ties_by_index(self):
        assert _descending(np.array([0.5, 1.0, 0.5, -0.0, 0.0, 1.0])) == [1, 5, 0, 2, 3, 4]


def reference_contains(bounds, u, tol=0.0):
    """ControlBounds.contains as one loop over the components."""
    if type(u) is not tuple:
        u = tuple(np.asarray(u, dtype=float).reshape(-1).tolist())
    if len(u) != len(bounds.lo):
        return False
    for v, lo, hi in zip(u, bounds.lo, bounds.hi):
        if not lo - tol <= v <= hi + tol:
            return False
    return sum(u) <= 1.0 + tol


@st.composite
def bounds_and_shares(draw):
    """A control set (the simplex, or a box in [0, 1] with edges on a 1/8
    lattice) and shares near its edges, at a tolerance of the ones in use,
    zero, a tiny or a negative one, or NaN."""
    m = draw(st.integers(0, 5))
    if draw(st.booleans()):
        bounds = ControlBounds.simplex(m)
    else:
        pairs = [sorted(draw(st.lists(st.integers(0, 8), min_size=2, max_size=2)))
                 for _ in range(m)]
        bounds = ControlBounds(tuple(a / 8 for a, _ in pairs), tuple(b / 8 for _, b in pairs))
    tol = draw(st.sampled_from([0.0, 1e-12, 1e-9, 2.0 ** -20, -1e-9, np.nan]))
    edge = st.sampled_from([-tol, 1.0 + tol, 0.5 + tol, 1.0 / m if m else 1.0])
    near = edge.flatmap(lambda v: st.sampled_from(
        [v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)]))
    component = st.one_of(ODD_FLOATS, near, st.integers(0, 1))
    length = draw(st.sampled_from([m, m, m, m + 1, max(m - 1, 0)]))
    return bounds, tuple(draw(st.lists(component, min_size=length, max_size=length))), tol


class TestControlBoundsContains:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(bounds_and_shares())
    def test_same_verdict_as_one_loop(self, case):
        bounds, u, tol = case
        assert bounds.contains(u, tol=tol) == reference_contains(bounds, u, tol=tol)
        assert bounds.contains(list(u), tol=tol) == reference_contains(bounds, list(u), tol=tol)

    def test_non_finite_outside(self):
        s = ControlBounds.simplex(2)
        for v in (np.nan, np.inf, -np.inf):
            assert not s.contains((v, 0.1))
            assert not s.contains((0.1, v), tol=1e-9)
            assert not s.contains(np.array([0.1, v]), tol=1.0)

    def test_wrong_length_outside(self):
        s = ControlBounds.simplex(2)
        assert s.contains((0.5, 0.5))
        assert not s.contains((0.5,))
        assert not s.contains((0.2, 0.2, 0.2))
        assert not s.contains(())
        assert not s.contains(np.zeros(3))

    def test_2d_array_is_flattened(self):
        s = ControlBounds.simplex(2)
        assert s.contains(np.array([[0.25, 0.5]]))
        assert s.contains(np.array([[0.25], [0.5]]))
        assert not s.contains(np.array([[0.75, 0.5]]))
        assert not s.contains(np.array([[0.25, 0.5], [0.0, 0.0]]))

    def test_box_edges_at_tol(self):
        b = ControlBounds((0.25, 0.0), (0.5, 0.5))
        tol = 1e-9
        lo, hi = 0.25 - tol, 0.5 + tol
        assert b.contains((lo, 0.0), tol=tol)
        assert not b.contains((np.nextafter(lo, -1.0), 0.0), tol=tol)
        assert b.contains((0.25, hi), tol=tol)
        assert not b.contains((0.25, np.nextafter(hi, 2.0)), tol=tol)
        assert not b.contains((lo, 0.0))
        assert not b.contains((0.25, hi))

    def test_sum_at_one_plus_tol(self):
        s = ControlBounds.simplex(2)
        tol = 2.0 ** -20  # 0.5 + tol and 1 + tol are exact
        assert s.contains((0.5, 0.5 + tol), tol=tol)
        over = np.nextafter(1.0 + tol, 2.0) - 0.5  # 0.5 + over is the next float
        assert not s.contains((0.5, over), tol=tol)
        assert not s.contains((0.5, 0.5 + tol))


# ---------------------------------------------------------------- stability


def brute_force_levels(bounds, grid):
    """Level tuples of the grid inside the box, sum <= grid-1, by filtering
    the full product (lexicographic)."""
    d = grid - 1
    per = [[j for j in range(grid) if lo - 1e-12 <= j / d <= hi + 1e-12]
           for lo, hi in zip(bounds.lo, bounds.hi)]
    return [list(t) for t in itertools.product(*per) if sum(t) <= d]


class TestFeasibleLevels:
    @pytest.mark.parametrize("m, grid", [(1, 2), (1, 7), (2, 41), (3, 11), (4, 6), (5, 5)])
    def test_simplex_matches_product_filter(self, m, grid):
        levels = _feasible_levels(ControlBounds.simplex(m), grid)
        assert levels.shape[0] == m
        assert levels.T.tolist() == brute_force_levels(ControlBounds.simplex(m), grid)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(1, 4).flatmap(lambda m: st.tuples(
        st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=m, max_size=m),
        st.integers(2, 12))))
    def test_boxes_match_product_filter(self, case):
        # Random boxes, off the grid or on it (to within the 1e-12 slack).
        pairs, grid = case
        bounds = ControlBounds(tuple(min(p) for p in pairs), tuple(max(p) for p in pairs))
        levels = _feasible_levels(bounds, grid)
        assert levels.T.tolist() == brute_force_levels(bounds, grid)

    @pytest.mark.parametrize("lo, hi, grid", [
        ((0.6, 0.6), (1.0, 1.0), 11),   # the box lies above the simplex
        ((0.3, 0.0), (0.36, 1.0), 3),   # no grid level in the first component's range
    ])
    def test_empty(self, lo, hi, grid):
        levels = _feasible_levels(ControlBounds(lo, hi), grid)
        assert levels.shape == (2, 0)
        assert brute_force_levels(ControlBounds(lo, hi), grid) == []

    @pytest.mark.parametrize("m, grid", [(2, 41), (9, 5), (3, 21), (9, 11), (9, 13), (9, 15)])
    def test_grid_sizes_within_the_budget(self, m, grid):
        # K = C(grid - 1 + m, m): s1 861, nine-class 715, demo 1,771, the
        # default grid at nine shares 92,378, then 293,930 and 817,190.
        assert math.comb(grid - 1 + m, m) <= MAX_GRID_POINTS
        check_grid_size(m, grid)

    def test_controller_refuses_a_huge_grid_before_building_it(self, monkeypatch):
        # Nine shares at grid 41 would be 2,054,455,634 candidates; the
        # grid is never built.
        def refused(bounds, grid):
            raise AssertionError("the grid was built")

        monkeypatch.setattr("hcqsim.control._feasible_levels", refused)
        m, n = 9, 18
        model = StateSpaceModel(0.5 * np.eye(n), np.zeros((n, m)))
        weights = CostWeights(Q=np.eye(n), R=np.eye(m), x_ref=np.zeros(n))
        with pytest.raises(ValueError, match=r"K = C\(49, 9\) = 2,054,455,634 share vectors, "
                                             r"more than the 1,000,000"):
            MpcController(model, weights, horizon=3, grid=41)
        with pytest.raises(ValueError, match=r"K = C\(25, 9\) = 2,042,975 share vectors"):
            MpcController(model, weights, horizon=3, grid=17)

    def test_controller_refuses_a_long_horizon_before_building_anything(self, monkeypatch):
        # A horizon of a trillion steps is refused before the grid or any
        # horizon matrix is made.
        def refused(bounds, grid):
            raise AssertionError("the grid was built")

        monkeypatch.setattr("hcqsim.control._feasible_levels", refused)
        model = StateSpaceModel(0.5 * np.eye(4), np.zeros((4, 2)))
        weights = CostWeights(Q=np.eye(4), R=np.eye(2), x_ref=np.zeros(4))
        for horizon in (MAX_HORIZON + 1, 10**12):
            with pytest.raises(ValueError, match=f"horizon {horizon:,} is more than the "
                                                 f"{MAX_HORIZON:,} steps"):
                MpcController(model, weights, horizon=horizon, grid=5)

    def test_on_grid_bounds_keep_their_level(self):
        bounds = ControlBounds((0.1, 0.2), (0.3, 0.7))
        levels = _feasible_levels(bounds, 11)
        assert levels.T.tolist() == brute_force_levels(bounds, 11)
        assert levels[:, 0].tolist() == [1, 2] and levels[:, -1].tolist() == [3, 7]


class TestStability:
    def test_half_identity(self):
        model = StateSpaceModel(0.5 * np.eye(3), np.zeros((3, 1)))
        res = check_stability(model)
        assert abs(res.spectral_radius - 0.5) < 1e-10
        assert res.stable

    def test_identity_marginal(self):
        model = StateSpaceModel(np.eye(3), np.zeros((3, 1)))
        res = check_stability(model)
        assert res.spectral_radius == pytest.approx(1.0, abs=1e-9)
        assert not res.stable
        model = StateSpaceModel(np.diag([1.2, 0.3]), np.eye(2),
                                state_bounds=BoxBounds((-10, -10), (10, 10)))
        assert not check_stability(model).stable

    def test_rotation_complex_pair(self):
        A = np.array([[0.0, -0.9], [0.9, 0.0]])
        assert spectral_radius(A) == pytest.approx(0.9, abs=1e-8)

    def test_nilpotent(self):
        assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(0.0, abs=1e-10)

    def test_matches_eigvals_oracle_random(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            A = rng.standard_normal((4, 4))
            assert spectral_radius(A) == pytest.approx(eigval_oracle(A), abs=1e-12, rel=0)

    @pytest.mark.parametrize("M, match", [
        (np.ones((2, 3)), "square"), (np.ones(3), "square"),
        (np.array([[np.nan]]), "finite"), (np.zeros((0, 0)), "non-empty"),
    ])
    def test_input_checks(self, M, match):
        with pytest.raises(ValueError, match=match):
            spectral_radius(M)



# ---------------------------------------------------------------- misc


class TestModelCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        model = StateSpaceModel(rng.standard_normal((3, 3)), rng.standard_normal((3, 2)))
        path = tmp_path / "model.csv"
        save_model_csv(model, path)
        A, B = read_model_csv(path)
        np.testing.assert_array_equal(A, model.A)
        np.testing.assert_array_equal(B, model.B)


class TestControllers:
    def test_excitation_feasible_and_deterministic(self):
        a = ExcitationController(3, seed=5)
        b = ExcitationController(3, seed=5)
        for e in range(20):
            da = a.decide(np.zeros(6), e)
            db = b.decide(np.zeros(6), e)
            assert da.u == db.u and da.priority_order == db.priority_order
            assert sum(da.u) <= 1.0 + 1e-12 and all(v >= 0 for v in da.u)
