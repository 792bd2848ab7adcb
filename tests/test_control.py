import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hcqsim.control import (
    COST_TIE_ABS,
    COST_TIE_REL,
    BoxBounds,
    ControlBounds,
    ControlDecision,
    CostWeights,
    ExcitationController,
    IdentifiabilityError,
    InfeasibleControlSetError,
    MpcController,
    StateSpaceModel,
    _feasible_levels,
    allocate_control,
    check_stability,
    evaluate_cost,
    identify_model,
    load_model_csv,
    save_model_csv,
    spectral_radius,
    step_state,
)
from hcqsim.scenarios import s1_config

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


def cost_term_by_term(Q, R, x_ref, trajectory, horizon):
    """Independent summation oracle for the quadratic criterion."""
    total = 0.0
    for t in range(horizon):
        x, u = trajectory[t]
        d = [x[i] - x_ref[i] for i in range(len(x_ref))]
        for i in range(len(d)):
            for j in range(len(d)):
                total += d[i] * Q[i][j] * d[j]
        for i in range(len(u)):
            for j in range(len(u)):
                total += u[i] * R[i][j] * u[j]
    return total


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


# ---------------------------------------------------------------- step_state


class TestStepState:
    def test_identity_dynamics(self):
        model = StateSpaceModel(np.eye(2), np.zeros((2, 2)))
        out = step_state(model, [1.0, 2.0], [0.3, 0.4])
        assert out.tolist() == [1.0, 2.0]

    def test_hand_arithmetic(self):
        model = StateSpaceModel(0.5 * np.eye(2), np.eye(2))
        out = step_state(model, [2.0, 0.0], [1.0, 1.0])
        assert out.tolist() == [2.0, 1.0]

    def test_matches_naive_matmul_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            A = rng.standard_normal((3, 3))
            B = rng.standard_normal((3, 2))
            model = StateSpaceModel(A, B)
            x = rng.standard_normal(3)
            u = rng.standard_normal(2)
            got = step_state(model, x, u)
            want = naive_matmul_step(A.tolist(), B.tolist(), x.tolist(), u.tolist())
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_dimension_mismatch(self):
        model = StateSpaceModel(np.eye(2), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            step_state(model, [1.0, 2.0, 3.0], [0.0])
        with pytest.raises(ValueError):
            step_state(model, [1.0, 2.0], [0.0, 0.0])

    def test_linearity(self):
        rng = np.random.default_rng(2)
        model = StateSpaceModel(rng.standard_normal((4, 4)), rng.standard_normal((4, 3)))
        for _ in range(10):
            x1, x2 = rng.standard_normal(4), rng.standard_normal(4)
            u1, u2 = rng.standard_normal(3), rng.standard_normal(3)
            lhs = step_state(model, x1 + x2, u1 + u2)
            rhs = step_state(model, x1, u1) + step_state(model, x2, u2) - step_state(
                model, np.zeros(4), np.zeros(3)
            )
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)
        assert step_state(model, np.zeros(4), np.zeros(3)).tolist() == [0.0] * 4


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
    def test_reference_trajectory_is_free(self):
        w = CostWeights(Q=np.eye(2), R=np.eye(2), x_ref=np.array([0.5, 0.5]))
        traj = [(np.array([0.5, 0.5]), np.zeros(2))] * 5
        assert evaluate_cost(w, traj, 5) == 0.0

    def test_hand_arithmetic(self):
        w = CostWeights(Q=np.eye(2), R=np.eye(2), x_ref=np.zeros(2))
        traj = [(np.array([1.0, 0.0]), np.array([0.0, 1.0]))]
        assert evaluate_cost(w, traj, 1) == pytest.approx(2.0)

    def test_matches_term_by_term_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            w = random_weights(rng, 3, 2)
            traj = [(rng.standard_normal(3), rng.standard_normal(2)) for _ in range(6)]
            got = evaluate_cost(w, traj, 6)
            want = cost_term_by_term(
                w.Q.tolist(), w.R.tolist(), w.x_ref.tolist(),
                [(x.tolist(), u.tolist()) for x, u in traj], 6,
            )
            assert got == pytest.approx(want, rel=1e-12)

    def test_nonnegative_and_positive_off_reference(self):
        rng = np.random.default_rng(8)
        w = CostWeights(Q=np.eye(2), R=np.eye(2), x_ref=np.zeros(2))
        for _ in range(20):
            traj = [(rng.standard_normal(2), rng.standard_normal(2))]
            c = evaluate_cost(w, traj, 1)
            assert c >= 0.0
            if np.any(traj[0][1] != 0.0):
                assert c > 0.0

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
        d = allocate_control(model, w, np.array([0.5, 0.5, 0.2, 0.2]), horizon=3, grid=11)
        assert d.u == (0.0, 0.0)

    def test_symmetric_instance_symmetric_shares(self):
        # Constructed so the unconstrained optimum (0.3, 0.3) is a grid
        # point: cost = const + u'(2R + Q)u - 2 x_ref' Q u with A = 0,
        # B = I, horizon 2.
        model = StateSpaceModel(np.zeros((2, 2)), np.eye(2))
        w = CostWeights(Q=np.eye(2), R=0.5 * np.eye(2), x_ref=np.array([0.6, 0.6]))
        d = allocate_control(model, w, np.zeros(2), horizon=2, grid=11)
        assert d.u[0] == d.u[1] == pytest.approx(0.3)

    def test_equals_brute_force_on_toy_model(self):
        rng = np.random.default_rng(9)
        model = random_stable_model(rng, 2, 2)
        w = random_weights(rng, 2, 2)
        x = rng.standard_normal(2)
        d = allocate_control(model, w, x, horizon=3, grid=11)
        assert d.u == brute_force_allocate(model, w, x, horizon=3, grid=11)

    def test_feasible_on_every_call(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            n, m = 4, 2
            model = random_stable_model(rng, n, m)
            w = random_weights(rng, n, m)
            d = allocate_control(model, w, rng.standard_normal(n), horizon=2, grid=7)
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
            assert allocate_control(model, w, x, 3, 11).u == \
                allocate_control(model, scaled, x, 3, 11).u

    def test_priority_sorts_by_predicted_backlog(self):
        # Identity dynamics, no control effect: backlog order is just the
        # initial backlog order.
        model = StateSpaceModel(np.eye(4), np.zeros((4, 2)))
        w = CostWeights(Q=np.eye(4), R=np.eye(2), x_ref=np.zeros(4))
        d = allocate_control(model, w, np.array([0.2, 0.9, 0.0, 0.0]), horizon=2, grid=5)
        assert d.priority_order == (1, 0)
        # ties broken by class index
        d = allocate_control(model, w, np.array([0.4, 0.4, 0.0, 0.0]), horizon=2, grid=5)
        assert d.priority_order == (0, 1)

    def test_infeasible_control_set(self):
        bounds = ControlBounds((0.8, 0.8), (1.0, 1.0))  # lo sums above 1
        model = StateSpaceModel(np.eye(2), np.eye(2), control_bounds=bounds)
        w = CostWeights(Q=np.eye(2), R=np.eye(2), x_ref=np.zeros(2))
        with pytest.raises(InfeasibleControlSetError):
            allocate_control(model, w, np.zeros(2), horizon=1, grid=11)

    def test_bad_arguments(self):
        model = StateSpaceModel(np.eye(2), np.eye(2))
        w = CostWeights(Q=np.eye(2), R=np.eye(2), x_ref=np.zeros(2))
        with pytest.raises(ValueError):
            allocate_control(model, w, np.zeros(2), horizon=0, grid=11)
        with pytest.raises(ValueError):
            allocate_control(model, w, np.zeros(2), horizon=1, grid=1)
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
    e = ctrl._E @ xv - ctrl._E_ref
    eh = e.reshape(ctrl.horizon, model.n)
    c = float(np.einsum("hi,ij,hj->", eh, ctrl.weights.Q, eh))
    g = ctrl._GQ @ e
    cost = c + 2.0 * (g @ ctrl._U) + ctrl._quad
    c_min = float(cost.min())
    tie = cost <= c_min + COST_TIE_ABS + COST_TIE_REL * abs(c_min)
    u = ctrl._U[:, int(np.argmax(tie))]
    xh = xv
    for _ in range(ctrl.horizon):
        xh = model.A @ xh + model.B @ u
    backlog_end = xh[: model.m]
    order = sorted(range(model.m), key=lambda i: (-backlog_end[i], i))
    return tuple(u.tolist()), tuple(order)


def drain_model(m, coef=5 / 24):
    """The s1 plant for m classes: a share u_i drains coef * u_i of class i's
    backlog per epoch and is its next utilization."""
    A = np.diag([1.0] * m + [0.0] * m)
    B = np.vstack([-coef * np.eye(m), np.eye(m)])
    return StateSpaceModel(A, B)


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
def closed_loop_states(draw, m, n):
    """Backlogs in [0, 1], often on the 1/64 lattice where the s1 plant's
    horizon-end backlogs tie exactly, and often all zero or all equal;
    utilizations in [0, 1.2]."""
    level = st.one_of(st.integers(0, 64).map(lambda k: k / 64), st.floats(0.0, 1.0))
    backlog = draw(st.lists(level, min_size=m, max_size=m))
    tie = draw(st.sampled_from(["none", "zero", "equal"]))
    if tie == "zero":
        backlog = [0.0] * m
    elif tie == "equal":
        backlog = [backlog[0]] * m
    util = draw(st.lists(st.floats(0.0, 1.2), min_size=n - m, max_size=n - m))
    return np.array(backlog + util)


class TestDecideBitIdentity:
    @pytest.mark.parametrize("name", sorted(BIT_IDENTITY))
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_same_bits_as_reference(self, name, data):
        ctrl = BIT_IDENTITY[name]
        x = data.draw(closed_loop_states(ctrl.model.m, ctrl.model.n))
        d = ctrl.decide(x, 7)
        u, order = reference_decide(ctrl, x)
        assert [v.hex() for v in d.u] == [v.hex() for v in u]
        assert d.priority_order == order
        assert d.epoch_index == 7

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


class TestControlBoundsContains:
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

    def test_rotation_complex_pair(self):
        A = np.array([[0.0, -0.9], [0.9, 0.0]])
        rho, _ = spectral_radius(A)
        assert rho == pytest.approx(0.9, abs=1e-8)

    def test_nilpotent(self):
        rho, _ = spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert rho == pytest.approx(0.0, abs=1e-10)

    def test_matches_eigvals_oracle_random(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            A = rng.standard_normal((4, 4))
            rho, _ = spectral_radius(A)
            assert rho == pytest.approx(eigval_oracle(A), abs=1e-6, rel=1e-6)

    def test_gain_closes_the_loop(self):
        A = np.array([[1.2, 0.0], [0.0, 0.3]])
        B = np.eye(2)
        model = StateSpaceModel(A, B, state_bounds=BoxBounds((-10, -10), (10, 10)))
        K = np.array([[0.9, 0.0], [0.0, 0.0]])  # A - BK = diag(0.3, 0.3)
        res = check_stability(model, gain=K)
        assert res.spectral_radius == pytest.approx(0.3, abs=1e-8)
        assert res.stable
        assert not check_stability(model).stable

    def test_gain_shape_checked(self):
        model = StateSpaceModel(np.eye(2), np.ones((2, 1)))
        with pytest.raises(ValueError):
            check_stability(model, gain=np.ones((2, 2)))


# ---------------------------------------------------------------- misc


class TestModelCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        model = StateSpaceModel(rng.standard_normal((3, 3)), rng.standard_normal((3, 2)))
        path = tmp_path / "model.csv"
        save_model_csv(model, path)
        back = load_model_csv(path)
        np.testing.assert_array_equal(back.A, model.A)
        np.testing.assert_array_equal(back.B, model.B)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# A 2 x 2\n1,2\n")
        with pytest.raises(ValueError):
            load_model_csv(path)


class TestControllers:
    def test_excitation_feasible_and_deterministic(self):
        a = ExcitationController(3, seed=5)
        b = ExcitationController(3, seed=5)
        for e in range(20):
            da = a.decide(np.zeros(6), e)
            db = b.decide(np.zeros(6), e)
            assert da.u == db.u and da.priority_order == db.priority_order
            assert sum(da.u) <= 1.0 + 1e-12 and all(v >= 0 for v in da.u)

    def test_decision_validates_permutation(self):
        with pytest.raises(ValueError):
            ControlDecision(u=(0.5,), priority_order=(1,), epoch_index=0)
