"""Master-equation integration against closed forms, steady states and ESD."""

import decimal
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    concurrence_thermal_independent,
    dark_intervals_of_series,
    find_dark_intervals,
    liouvillian_by_columns,
    pauli_coordinates,
    pauli_matrix,
    random_density_matrix,
    random_x_state,
    steady_state_zero_temp,
    steady_w_entries_zero_temp,
    w_matrix_x,
)
from qcorr import (
    CorrelationSet,
    DegenerateParams,
    DomainError,
    ModelParams,
    NotHermitian,
    Trajectory,
    analytic_independent_mixture,
    analytic_mixture,
    analytic_werner,
    concurrence_x,
    correlations,
    esd_gamma_tau,
    evolve,
    lindblad_rhs,
    lqu_x,
    make_mixture,
    make_werner,
    steady_ccc_thermal,
    steady_concurrence_thermal,
    steady_correlations_thermal,
    steady_state_thermal,
    correlated_coherence,
)
from qcorr import dynamics
from qcorr.dynamics import (STEADY_RHS_TOL, _X_COORDS, _apply, _increment_operator,
                            _liouvillian, _steady_closed_forms, _steady_rows, _steady_scales)
from qcorr.model import _from_pauli, _to_pauli
from qcorr.states import is_x_shaped, validate

P_REF = ModelParams(j=0.1, delta=0.5, omega=1.0, gamma=0.1, nbar=0.0)


# ------------------------------------------------------------------ right-hand side

_COUPLING = st.one_of(st.just(0.0), st.floats(1e-3, 1e2), st.floats(-1e2, -1e-3))
_RATE = st.one_of(st.just(0.0), st.floats(1e-3, 1e2))


@settings(max_examples=100, deadline=None)
@given(j=_COUPLING, delta=_COUPLING, omega=st.floats(1e-3, 1e2), gamma=_RATE, nbar=_RATE)
def test_liouvillian_equals_rhs_of_basis_matrices(j, delta, omega, gamma, nbar):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # strong couplings are drawn on purpose
        p = ModelParams(j=j, delta=delta, omega=omega, gamma=gamma, nbar=nbar)
    lv, gen = _liouvillian(p), liouvillian_by_columns(p)
    np.testing.assert_array_equal(lv[1:], gen[1:])
    assert not lv[0].any()  # the trace row is exactly zero
    assert np.abs(gen[0]).max() <= 4.0 * np.finfo(float).eps * np.abs(gen).max()


_OTHER_COORDS = [k for k in range(16) if k not in _X_COORDS]
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _between_blocks(op):
    return np.concatenate([op[np.ix_(_X_COORDS, _OTHER_COORDS)].ravel(),
                           op[np.ix_(_OTHER_COORDS, _X_COORDS)].ravel()])


@settings(max_examples=100, deadline=None)
@example(j=1e5, delta=0.5, omega=1.0, gamma=0.1, nbar=1e9, dt=1e-3, n=100)  # unstable: NaN
@given(j=_FINITE, delta=_FINITE, omega=st.floats(0.0, exclude_min=True, allow_infinity=False),
       gamma=st.floats(0.0, allow_infinity=False), nbar=st.floats(0.0, allow_infinity=False),
       dt=st.floats(1e-6, 10.0), n=st.integers(1, 10**6))
def test_generator_and_increment_operator_are_exactly_block_diagonal(j, delta, omega, gamma, nbar,
                                                                     dt, n):
    # X states never leave the X pattern because no entry couples the X
    # coordinates to the others; an entry there is exactly zero wherever it is
    # finite (NaN where the generator overflows or the step is unstable)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # strong couplings are drawn on purpose
        p = ModelParams(j=j, delta=delta, omega=omega, gamma=gamma, nbar=nbar)
    lv = _liouvillian(p)
    for op in (lv, _increment_operator(lv, dt, n)):
        between = _between_blocks(op)
        assert ((between == 0.0) | np.isnan(between)).all()


@settings(max_examples=100, deadline=None)
@given(j=_COUPLING, delta=_COUPLING, omega=st.floats(1e-3, 1e2), gamma=_RATE, nbar=_RATE,
       seed=st.integers(0, 2**32 - 1), n_steps=st.integers(0, 400), stride=st.integers(1, 50))
def test_exactly_x_starts_give_exactly_x_samples(j, delta, omega, gamma, nbar, seed, n_steps,
                                                 stride):
    # the block structure above, carried through the doubling and the rebuild:
    # every sample keeps exact zeros off the X pattern and takes the closed forms
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # strong couplings are drawn on purpose
        p = ModelParams(j=j, delta=delta, omega=omega, gamma=gamma, nbar=nbar)
    dt = 0.5 / (abs(j) + math.hypot(delta, omega) + gamma * (2.0 * nbar + 1.0))  # RK4-stable
    rho0 = random_x_state(np.random.default_rng(seed)).to_matrix()
    traj = evolve(rho0, p, t_max=n_steps * dt, dt=dt, stride=stride)
    assert is_x_shaped(traj.states).all()


def _full_coordinate_run(rho0, params, n_steps, dt, stride):
    """The Pauli coordinates of the samples of ``evolve`` computed on all 16
    coordinates: the same increment operators and doubling, on the full
    generator."""
    lv = _liouvillian(params)
    phi = _increment_operator(lv, dt, stride)
    n_whole = n_steps // stride + 1
    ys = _to_pauli(rho0)[None]
    while len(ys) < n_whole:
        k = min(len(ys), n_whole - len(ys))
        ys = np.concatenate([ys, ys[:k] + _apply(phi, _apply(lv, ys[:k]))])
        phi = phi @ (2.0 * np.eye(16) + lv @ phi)
    if n_steps % stride:
        last = _increment_operator(lv, dt, n_steps % stride)
        ys = np.concatenate([ys, ys[-1:] + _apply(last, _apply(lv, ys[-1:]))])
    return ys


@settings(max_examples=60, deadline=None)
@example(j=0.1, delta=0.5, omega=1.3, gamma=0.1, nbar=0.5, seed=1, n_steps=250, stride=40)
@given(j=_COUPLING, delta=_COUPLING, omega=st.floats(1e-1, 1e1), gamma=st.floats(1e-3, 1.0),
       nbar=st.floats(0.0, 2.0), seed=st.integers(0, 2**32 - 1), n_steps=st.integers(0, 400),
       stride=st.integers(1, 50))
def test_x_coordinate_run_matches_the_full_coordinate_run(j, delta, omega, gamma, nbar, seed,
                                                          n_steps, stride):
    # an X start is propagated on its eight X coordinates. Its 8x8 products sum
    # the same nonzero terms as the 16x16 ones, grouped differently, so the
    # samples round apart by a few ulps of the coordinates' scale at each
    # doubling (at most 10 per doubling and 66 in all, over 3300 random draws)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # strong couplings are drawn on purpose
        p = ModelParams(j=j, delta=delta, omega=omega, gamma=gamma, nbar=nbar)
    dt = 0.5 / (abs(j) + math.hypot(delta, omega) + gamma * (2.0 * nbar + 1.0))  # RK4-stable
    rho0 = random_x_state(np.random.default_rng(seed)).to_matrix()
    traj = evolve(rho0, p, t_max=n_steps * dt, dt=dt, stride=stride)
    ys = _full_coordinate_run(rho0, p, n_steps, dt, stride)
    assert len(traj.states) == len(ys)
    assert np.array_equal(traj.states[0], rho0)
    deviation = np.abs(traj.states[1:] - _from_pauli(ys[1:])).max(initial=0.0)
    doublings = (len(ys) - 1).bit_length()
    assert deviation <= 16.0 * (doublings + 1) * np.finfo(float).eps * np.abs(ys).max()
    assert is_x_shaped(traj.states).all()
    np.testing.assert_array_equal(traj.states, traj.states.conj().swapaxes(-1, -2))


def test_x_starts_build_the_8x8_generator_and_dense_starts_the_16x16(monkeypatch):
    shapes = []

    def recorded(params, *coords):
        lv = _liouvillian(params, *coords)
        shapes.append(lv.shape)
        return lv

    monkeypatch.setattr(dynamics, "_liouvillian", recorded)
    rng = np.random.default_rng(5)
    for rho0 in (random_x_state(rng).to_matrix(), random_density_matrix(rng)):
        evolve(rho0, P_REF, t_max=1.0, dt=1e-2, stride=7)
    assert shapes == [(8, 8), (16, 16)]


def _faulty_states():
    """(name, rho0): each fault of a density matrix, on an X-shaped and a dense
    state, that keeps the other checks satisfied where it can."""
    rng = np.random.default_rng(17)
    for kind, m in (("x", random_x_state(rng).to_matrix()), ("dense", random_density_matrix(rng))):
        not_hermitian, nan, huge = m.copy(), m.copy(), m.copy()
        not_hermitian[0, 3 if kind == "x" else 1] += 0.1
        nan[0, 0] = np.nan
        huge[0, 3] = huge[3, 0] = 1e308  # its Pauli coordinates overflow
        yield f"{kind} not hermitian", not_hermitian
        yield f"{kind} trace", 1.1 * m
        yield f"{kind} not psd", m + (m[1, 1].real + 0.1) * np.diag([1.0, -1.0, 0.0, 0.0])
        yield f"{kind} nan", nan
        yield f"{kind} huge", huge
        if kind == "dense":
            off_x_nan = m.copy()
            off_x_nan[0, 1] = np.nan
            yield "dense nan off the x pattern", off_x_nan


@pytest.mark.parametrize("name, rho0", [pytest.param(*case, id=case[0].replace(" ", "_"))
                                         for case in _faulty_states()])
def test_an_invalid_initial_state_raises_as_validate_does(name, rho0):
    # the initial state is validated once, as sample 0 of the stack: a fault
    # there is a configuration error, not a rejected step
    with pytest.raises(ValueError) as expected:
        validate(rho0)
    assert is_x_shaped(rho0) == name.startswith("x")
    with pytest.raises(ValueError) as got:
        evolve(rho0, P_REF, t_max=1.0, dt=1e-2, stride=10)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)
    assert got.value.index == expected.value.index == 0


@pytest.mark.parametrize("rho0", [np.eye(2) / 2.0, np.eye(16) / 16.0,
                                  np.stack([np.eye(4) / 4.0] * 2), np.ones(4) / 4.0],
                         ids=["2x2", "16x16", "stack", "vector"])
def test_an_initial_state_that_is_not_4x4_is_refused_before_propagation(rho0, monkeypatch):
    def unreachable(*args):
        raise AssertionError("propagation started")

    monkeypatch.setattr(dynamics, "_liouvillian", unreachable)
    with pytest.raises(ValueError, match=f"shape {re.escape(str(rho0.shape))}"):
        evolve(rho0, P_REF, t_max=1.0, dt=1e-2)


def test_rhs_vanishes_on_steady_state():
    st = steady_state_zero_temp(P_REF).to_matrix()
    assert np.abs(lindblad_rhs(st, P_REF)).max() <= 1e-12


def test_rhs_of_werner_without_decay_is_zero():
    p = ModelParams(j=0.2, delta=0.4, gamma=0.0)
    for pw in (0.0, 0.5, 1.0):
        rhs = lindblad_rhs(make_werner(pw).to_matrix(), p)
        assert np.abs(rhs).max() <= 1e-15


def test_rhs_traceless_and_hermiticity_preserving():
    rng = np.random.default_rng(211)
    for _ in range(30):
        params = ModelParams(
            j=rng.uniform(-0.4, 0.4),
            delta=rng.uniform(-0.4, 0.4),
            omega=rng.uniform(0.5, 1.5),
            gamma=rng.uniform(0.0, 0.5),
            nbar=rng.uniform(0.0, 1.5),
        )
        rhs = lindblad_rhs(random_x_state(rng).to_matrix(), params)
        assert abs(np.trace(rhs)) <= 1e-14
        assert np.abs(rhs - rhs.conj().T).max() <= 1e-14


# ------------------------------------------------------------------ integrator

_ENTRY_INDEX = {
    "rho11": (0, 0), "rho22": (1, 1), "rho33": (2, 2), "rho44": (3, 3),
    "rho14": (0, 3), "rho23": (1, 2),
}


def _assert_x_entries_within(traj, expected, tol):
    """Every X entry of every sample within tol of the (n, 4, 4) ``expected``."""
    for name, (i, j) in _ENTRY_INDEX.items():
        err = np.abs(expected[:, i, j] - traj.states[:, i, j])
        k = int(err.argmax())
        assert err[k] <= tol, f"entry {name} off by {err[k]:.3e} at t = {traj.times[k]}"


def test_evolve_matches_analytic_mixture():
    traj = evolve(make_mixture(0.5).to_matrix(), P_REF, t_max=20.0, dt=1e-3, stride=1000)
    _assert_x_entries_within(traj, analytic_mixture(traj.times, P_REF).to_matrix(), 1e-8)


def test_evolve_keeps_werner_constant_without_decay():
    params = ModelParams(j=0.1, delta=0.5, gamma=0.0)
    rho0 = make_werner(0.5).to_matrix()
    traj = evolve(rho0, params, t_max=50.0, dt=1e-2, stride=500)
    drift = max(np.abs(mat - rho0).max() for mat in traj.states)
    assert drift <= 1e-10
    # the generator annihilates this state, so steady detection fires immediately
    assert traj.steady_time == 0.0


def test_evolve_rejects_unstable_step():
    from qcorr import StepRejected

    params = ModelParams(j=0.1, delta=0.5, gamma=0.5)
    with pytest.raises(StepRejected):
        evolve(make_mixture(0.5).to_matrix(), params, t_max=200.0, dt=2.0, stride=1)


def test_evolve_handles_non_x_initial_state():
    from helpers import random_density_matrix

    rng = np.random.default_rng(229)
    rho0 = random_density_matrix(rng)
    traj = evolve(rho0, P_REF, t_max=0.5, dt=1e-3, stride=250)
    assert all(np.shape(c) == (3,) for c in traj.correlations.as_tuple())
    assert traj.correlations.range_violation() is None


def test_trajectory_correlations_are_the_columns_of_the_stack():
    traj = evolve(make_mixture(0.5).to_matrix(), P_REF, t_max=5.0, dt=1e-3, stride=100)
    direct = correlations(traj.states)
    for name, column in vars(traj.correlations).items():
        assert np.shape(column) == (len(traj.times),), name
        np.testing.assert_array_equal(column, getattr(direct, name), err_msg=name)


def test_trajectory_fields_stay_assignable():
    traj = evolve(make_mixture(0.5).to_matrix(), P_REF, t_max=0.01, dt=1e-3, stride=5)
    traj.steady_time = 1.0
    traj.times = traj.times * 2.0
    assert traj.steady_time == 1.0 and traj.times[-1] == pytest.approx(0.02)


def test_x_shape_preserved_over_long_horizon():
    traj = evolve(make_mixture(0.5).to_matrix(), P_REF, t_max=200.0, dt=1e-2, stride=200)
    pattern = {(0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (3, 0), (1, 2), (2, 1)}
    worst = 0.0
    for mat in traj.states:
        for i in range(4):
            for j in range(4):
                if (i, j) not in pattern:
                    worst = max(worst, abs(mat[i, j]))
    assert worst <= 1e-10


def test_integrator_is_fourth_order():
    params = ModelParams(j=0.1, delta=0.5, gamma=0.2)

    def max_err(dt):
        traj = evolve(make_mixture(0.5).to_matrix(), params, t_max=5.0, dt=dt,
                      stride=max(1, int(round(1.0 / dt))))
        return np.abs(analytic_mixture(traj.times, params).to_matrix() - traj.states).max()

    ratio = max_err(0.02) / max_err(0.01)
    assert 12.0 <= ratio <= 20.0


def test_records_with_array_fields_compare_field_by_field():
    # two identical runs give equal trajectories and equal correlation sets
    # of arrays; one changed field in either makes them unequal
    a, b = (evolve(make_mixture(0.5).to_matrix(), P_REF, t_max=1.0) for _ in range(2))
    assert a == b and a.correlations == b.correlations
    states = a.states.copy()
    states[-1, 0, 0] += 1e-15
    assert a != Trajectory(a.times, states, a.correlations, a.params, a.dt, a.steady_time)
    assert a != Trajectory(a.times, a.states, a.correlations, a.params, a.dt, 0.5)
    lqu = a.correlations.lqu.copy()
    lqu[3] = 0.0
    assert a.correlations != CorrelationSet(**{**vars(a.correlations), "lqu": lqu})
    with pytest.raises(TypeError):
        hash(a.correlations)
    # a CorrelationSet of floats still hashes, by its fields
    one, other = (correlations(make_werner(0.3).to_matrix()) for _ in range(2))
    assert one == other and hash(one) == hash(other)


def test_trace_drift_stays_tiny():
    traj = evolve(make_werner(0.3).to_matrix(), P_REF, t_max=50.0, dt=1e-3, stride=2000)
    drift = max(abs(np.trace(m).real - 1.0) for m in traj.states)
    assert drift <= 1e-10


def test_evolve_argument_validation():
    with pytest.raises(DomainError):
        evolve(make_mixture(0.5).to_matrix(), P_REF, t_max=1.0, dt=0.0)
    with pytest.raises(DomainError):
        evolve(make_mixture(0.5).to_matrix(), P_REF, t_max=-1.0)
    with pytest.raises(DomainError):
        evolve(make_mixture(0.5).to_matrix(), P_REF, t_max=1.0, stride=0)


def _stepwise_rk4(rho0, params, n_steps, dt, stride):
    """Reference: one classical RK4 step at a time on the matrix form of the
    master equation, sampled like evolve (every stride steps and the last)."""
    y = np.asarray(rho0, dtype=complex)
    samples = [y]
    for step in range(1, n_steps + 1):
        k1 = lindblad_rhs(y, params)
        k2 = lindblad_rhs(y + (0.5 * dt) * k1, params)
        k3 = lindblad_rhs(y + (0.5 * dt) * k2, params)
        k4 = lindblad_rhs(y + dt * k3, params)
        y = y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if step % stride == 0 or step == n_steps:
            samples.append(y)
    return samples


def _max_deviation_from_stepwise(rho0, params, t_max, dt, stride):
    traj = evolve(rho0, params, t_max=t_max, dt=dt, stride=stride)
    ref = _stepwise_rk4(rho0, params, int(round(t_max / dt)), dt, stride)
    assert len(traj.states) == len(ref)
    return max(np.abs(a - b).max() for a, b in zip(traj.states, ref))


@pytest.mark.parametrize("stride", [1, 7, 100])
def test_evolve_matches_stepwise_rk4(stride):
    rng = np.random.default_rng(233)
    for rho0 in (make_mixture(0.5).to_matrix(), random_density_matrix(rng)):
        dev = _max_deviation_from_stepwise(rho0, P_REF, 3.0, 1e-2, stride)
        assert dev <= 1e-13, f"stride {stride}: {dev:.3e}"


def test_evolve_samples_remainder_block():
    n_steps, stride, dt = 250, 40, 1e-2
    traj = evolve(make_mixture(0.5).to_matrix(), P_REF, t_max=n_steps * dt, dt=dt, stride=stride)
    expected = [k * stride * dt for k in range(n_steps // stride + 1)] + [n_steps * dt]
    assert traj.times.tolist() == expected
    ref = _stepwise_rk4(make_mixture(0.5).to_matrix(), P_REF, n_steps, dt, stride)
    assert np.abs(traj.states[-1] - ref[-1]).max() <= 1e-13


def test_evolve_keeps_exact_fixed_point_bit_identical():
    params = ModelParams(j=0.1, delta=0.5, gamma=0.0)
    rho0 = make_werner(-1.0 / 3.0).to_matrix()
    traj = evolve(rho0, params, t_max=50.0, dt=1e-2, stride=100)
    assert len(traj.states) == 51
    assert all(np.array_equal(mat, rho0) for mat in traj.states)


def test_evolve_step_counts_past_int64():
    # 1e19 steps and a stride of 1e30 do not fit in int64; both ends are sampled
    params = ModelParams(j=0.1, delta=0.5, gamma=0.0)
    rho0 = make_werner(-1.0 / 3.0).to_matrix()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = evolve(rho0, params, t_max=1e18, dt=0.1, stride=10**30)
    assert traj.times.tolist() == [0.0, 1e18]
    assert all(np.array_equal(mat, rho0) for mat in traj.states)


def test_evolve_long_stride_decays_to_the_steady_state():
    # 1e19 steps in one stride: the increment operator grows like n dt along the
    # steady state, which multiplies only the exactly zero trace row of L y
    params = ModelParams(j=0.1, delta=0.5, omega=1.0, gamma=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = evolve(make_mixture(0.5).to_matrix(), params, t_max=1e18, dt=0.1, stride=10**30)
    final = traj.states[-1]
    assert np.abs(final - steady_state_thermal(params).to_matrix()).max() <= 1e-12
    assert np.array_equal(final, final.conj().T)


def test_steady_time_of_the_default_scenario():
    # STEADY_RHS_TOL bounds the entries of the matrix of L y, not its coordinates
    traj = evolve(make_mixture(0.5).to_matrix(), P_REF, t_max=600.0)
    assert traj.steady_time == 268.7


_TOL_LOG = (math.log(STEADY_RHS_TOL / 16.0), math.log(16.0 * STEADY_RHS_TOL))


_SIGNED_NEAR_TOL = st.tuples(st.floats(*_TOL_LOG), st.booleans()).map(
    lambda t: math.copysign(math.exp(t[0]), -1.0 if t[1] else 1.0))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(
    # one coordinate alone: its rebuilt entries are r_k / 4, the tightest case of the upper bound
    st.tuples(_SIGNED_NEAR_TOL, st.integers(0, 15)).map(lambda t: np.eye(16)[t[1]] * t[0]),
    # one magnitude with random signs: the row crosses both bounds as a whole
    st.tuples(st.floats(*_TOL_LOG), st.lists(st.booleans(), min_size=16, max_size=16)).map(
        lambda t: [math.copysign(math.exp(t[0]), -1.0 if neg else 1.0) for neg in t[1]]),
    st.lists(st.one_of(_SIGNED_NEAR_TOL,
                       st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])),
             min_size=16, max_size=16),
), min_size=1, max_size=20))
def test_bounded_steady_flag_equals_the_rebuilt_entry_test(rows):
    rhs = np.array([np.asarray(row, dtype=float) for row in rows])
    with np.errstate(over="ignore", invalid="ignore"):
        full = np.abs(_from_pauli(rhs)).max(axis=(1, 2)) <= STEADY_RHS_TOL
        np.testing.assert_array_equal(_steady_rows(rhs), full)


@settings(max_examples=60, deadline=None)
@given(
    gamma=st.floats(0.0, 1.0),
    nbar=st.floats(0.0, 2.0),
    j=st.floats(-0.5, 0.5),
    delta=st.floats(-0.5, 0.5),
    seed=st.integers(0, 2**32 - 1),
    x_shaped=st.booleans(),
    n_steps=st.integers(0, 400),
    stride=st.integers(1, 50),
)
def test_evolve_samples_are_exactly_hermitian(gamma, nbar, j, delta, seed, x_shaped, n_steps,
                                              stride):
    # every sample after the first is rebuilt from real coordinates whose trace
    # no step changes; an X-born run has exact zeros off the X pattern
    params = ModelParams(j=j, delta=delta, gamma=gamma, nbar=nbar)
    rng = np.random.default_rng(seed)
    rho0 = random_x_state(rng).to_matrix() if x_shaped else random_density_matrix(rng)
    traj = evolve(rho0, params, t_max=n_steps * 0.02, dt=0.02, stride=stride)
    later = traj.states[1:]
    np.testing.assert_array_equal(later, later.conj().swapaxes(-1, -2))
    trace = np.trace(later, axis1=-2, axis2=-1)
    assert np.all(abs(trace - 1.0) <= 4.0 * np.finfo(float).eps)
    if x_shaped:
        off_x = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])
        assert not later[:, off_x].any()


def _stepwise_rk4_on_generator(rho0, params, n_steps, dt, stride):
    """``_stepwise_rk4`` on the 16x16 generator tabulated from lindblad_rhs in
    Pauli coordinates (``liouvillian_by_columns``): the same classical RK4
    steps, one at a time, fast enough for a run of 100k steps."""
    gen = liouvillian_by_columns(params)
    gen[0] = 0.0  # the trace row, zero up to round-off, is exactly zero in evolve too
    y = pauli_coordinates(rho0)
    samples = [y]
    for step in range(1, n_steps + 1):
        k1 = gen @ y
        k2 = gen @ (y + (0.5 * dt) * k1)
        k3 = gen @ (y + (0.5 * dt) * k2)
        k4 = gen @ (y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if step % stride == 0 or step == n_steps:
            samples.append(y)
    return np.array([pauli_matrix(y) for y in samples])


@pytest.mark.parametrize("t_max, n_samples", [(100.0, 1001), (10.05, 102)])
def test_evolve_long_doubling_chain_matches_stepwise_rk4(t_max, n_samples):
    # the default evolve (100k steps, 1001 samples at stride 100), and a horizon
    # that ends 50 steps past the last whole stride
    rho0, params = make_mixture(0.5).to_matrix(), ModelParams()
    traj = evolve(rho0, params, t_max=t_max)
    ref = _stepwise_rk4_on_generator(rho0, params, int(round(t_max / 1e-3)), 1e-3, 100)
    assert traj.states.shape == ref.shape == (n_samples, 4, 4)
    assert np.abs(traj.states - ref).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    gamma=st.floats(0.0, 1.0),
    nbar=st.floats(0.0, 2.0),
    j=st.floats(-0.5, 0.5),
    delta=st.floats(-0.5, 0.5),
    seed=st.integers(0, 2**32 - 1),
    x_shaped=st.booleans(),
    n_steps=st.integers(0, 60),
    stride=st.integers(1, 50),
)
def test_evolve_matches_stepwise_rk4_property(gamma, nbar, j, delta, seed, x_shaped, n_steps, stride):
    params = ModelParams(j=j, delta=delta, gamma=gamma, nbar=nbar)
    rng = np.random.default_rng(seed)
    rho0 = random_x_state(rng).to_matrix() if x_shaped else random_density_matrix(rng)
    dt = 0.02
    assert _max_deviation_from_stepwise(rho0, params, n_steps * dt, dt, stride) <= 1e-12


# ------------------------------------------------------------------ closed forms

def test_analytic_mixture_limits():
    t0 = analytic_mixture(0.0, P_REF)
    ref = make_mixture(0.5)
    for name in ("rho11", "rho22", "rho33", "rho44", "rho14", "rho23"):
        assert abs(getattr(t0, name) - getattr(ref, name)) <= 1e-14
    late = analytic_mixture(400.0, P_REF)
    steady = steady_state_zero_temp(P_REF)
    for name in ("rho11", "rho22", "rho33", "rho44", "rho14", "rho23"):
        assert abs(getattr(late, name) - getattr(steady, name)) <= 1e-12


def test_analytic_mixture_j_dependence_confined():
    t = 2.37
    variants = [
        analytic_mixture(t, ModelParams(j=j, delta=0.5, gamma=0.1)) for j in (0.0, 0.1, 0.37)
    ]
    for other in variants[1:]:
        assert abs(other.rho11 - variants[0].rho11) <= 1e-15
        assert abs(other.rho14 - variants[0].rho14) <= 1e-15
        assert abs(other.rho44 - variants[0].rho44) <= 1e-12
    assert abs(variants[1].rho22 - variants[0].rho22) > 1e-4
    assert abs(variants[1].rho23 - variants[0].rho23) > 1e-4


def test_analytic_mixture_requires_zero_temperature():
    with pytest.raises(DomainError):
        analytic_mixture(1.0, ModelParams(j=0.1, delta=0.5, gamma=0.1, nbar=0.2))


def test_analytic_werner_limits():
    p = 0.7
    t0 = analytic_werner(0.0, p, P_REF)
    ref = make_werner(p)
    for name in ("rho11", "rho22", "rho33", "rho44", "rho14", "rho23"):
        assert abs(getattr(t0, name) - getattr(ref, name)) <= 1e-13
    nodecay = ModelParams(j=0.1, delta=0.5, gamma=0.0)
    for t in (0.0, 1.3, 17.0):
        state = analytic_werner(t, p, nodecay)
        for name in ("rho11", "rho22", "rho33", "rho44", "rho14", "rho23"):
            assert abs(getattr(state, name) - getattr(ref, name)) <= 1e-12
    late = analytic_werner(400.0, p, P_REF)
    steady = steady_state_zero_temp(P_REF)
    for name in ("rho11", "rho22", "rho33", "rho44", "rho14", "rho23"):
        assert abs(getattr(late, name) - getattr(steady, name)) <= 1e-12


def test_analytic_werner_independent_of_j():
    a = analytic_werner(3.1, 0.5, ModelParams(j=0.0, delta=0.5, gamma=0.1))
    b = analytic_werner(3.1, 0.5, ModelParams(j=0.45, delta=0.5, gamma=0.1))
    for name in ("rho11", "rho22", "rho33", "rho44", "rho14", "rho23"):
        assert getattr(a, name) == getattr(b, name)


def test_evolve_matches_analytic_werner():
    params = ModelParams(j=0.3, delta=0.5, gamma=0.15)
    traj = evolve(make_werner(0.7).to_matrix(), params, t_max=20.0, dt=1e-3, stride=1000)
    _assert_x_entries_within(traj, analytic_werner(traj.times, 0.7, params).to_matrix(), 1e-8)


def test_analytic_werner_domain():
    with pytest.raises(DomainError):
        analytic_werner(1.0, 1.2, P_REF)
    # the lower end p = -1/3 is a state; just below it is not
    analytic_werner(1.0, -1.0 / 3.0, P_REF)
    make_werner(-1.0 / 3.0)
    for make in (lambda p: analytic_werner(1.0, p, P_REF), make_werner):
        with pytest.raises(DomainError, match=r"must lie in \[-1/3, 1\], got -0\.34"):
            make(-0.34)


@pytest.mark.parametrize("omega", [0.6, 1.7, 3.0])
def test_evolve_matches_the_closed_form_trajectories_at_other_field_strengths(omega):
    # omega enters the closed forms beside Delta and J; every other trajectory
    # test runs at omega = 1, where omega and 1/omega agree. Within RK4's error
    # (about 6e-11 here); J and Delta stay weak, below omega/2
    params = ModelParams(j=0.1, delta=0.25, omega=omega, gamma=0.1)
    traj = evolve(make_mixture(0.5).to_matrix(), params, t_max=20.0, dt=1e-3, stride=500)
    _assert_x_entries_within(traj, analytic_mixture(traj.times, params).to_matrix(), 1e-9)
    traj = evolve(make_werner(0.7).to_matrix(), params, t_max=20.0, dt=1e-3, stride=500)
    _assert_x_entries_within(traj, analytic_werner(traj.times, 0.7, params).to_matrix(), 1e-9)


def test_independent_mixture_limits_and_concurrence():
    gamma, w = 0.2, 0.3
    late = analytic_independent_mixture(200.0, w, gamma)
    assert late.rho44 == pytest.approx(1.0, abs=1e-12)
    assert abs(late.rho14) <= 1e-12
    ts = np.linspace(0.0, 30.0, 121)
    np.testing.assert_allclose(concurrence_x(analytic_independent_mixture(ts, w, gamma)),
                               concurrence_thermal_independent(ts, w, gamma, 0.0),
                               rtol=0.0, atol=1e-10)


def test_evolve_matches_independent_mixture():
    params = ModelParams(j=0.0, delta=0.0, gamma=0.2)
    traj = evolve(make_mixture(0.3).to_matrix(), params, t_max=20.0, dt=1e-3, stride=1000)
    expected = analytic_independent_mixture(traj.times, 0.3, 0.2).to_matrix()
    assert np.abs(expected - traj.states).max() <= 1e-8


def test_independent_mixture_domain():
    with pytest.raises(DomainError):
        analytic_independent_mixture(1.0, 1.2, 0.1)


_ORACLES = {
    "mixture": lambda t: analytic_mixture(t, P_REF),
    "werner": lambda t: analytic_werner(t, 0.7, P_REF),
    "independent": lambda t: analytic_independent_mixture(t, 0.3, 0.2),
}


@pytest.mark.parametrize("name", sorted(_ORACLES))
def test_analytic_oracle_over_a_time_grid_equals_scalar_calls(name):
    oracle = _ORACLES[name]
    times = np.linspace(0.0, 50.0, 801)
    stacked = np.array([oracle(float(t)).to_matrix() for t in times])
    np.testing.assert_array_equal(oracle(times).to_matrix(), stacked)


@pytest.mark.parametrize("name", sorted(_ORACLES))
def test_analytic_oracle_names_a_nan_time(name):
    with pytest.raises(NotHermitian) as info:
        _ORACLES[name](np.array([0.0, 1.0, np.nan, 3.0]))
    assert info.value.index == 2


# ------------------------------------------------------------------ steady states

@pytest.mark.parametrize("name, values", [("delta", np.linspace(0.0, 2.2, 23)),
                                          ("nbar", np.linspace(0.0, 2.0, 21))])
def test_steady_state_thermal_over_array_params_equals_scalar_calls(name, values):
    base = dict(j=0.1, delta=0.5, gamma=0.1, nbar=0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # |Delta| > omega/2 is swept on purpose
        stacked = np.array([steady_state_thermal(ModelParams(**{**base, name: float(v)}))
                            .to_matrix() for v in values])
        swept = steady_state_thermal(ModelParams(**{**base, name: values})).to_matrix()
    np.testing.assert_array_equal(swept, stacked)


def test_steady_state_zero_temp_reference_entries():
    st = steady_state_thermal(P_REF)
    assert st.rho11 == pytest.approx(0.25 / 5.01, abs=1e-15)
    assert st.rho22 == pytest.approx(0.25 / 5.01, abs=1e-15)
    assert st.rho44 == pytest.approx(4.26 / 5.01, abs=1e-15)
    assert st.rho14 == pytest.approx(-(1.0 + 0.05j) / 5.01, abs=1e-15)
    assert st.rho14.real == pytest.approx(-0.1996008, abs=1e-7)
    assert st.rho14.imag == pytest.approx(-0.0099800, abs=1e-7)


def test_steady_state_zero_temp_degenerate_without_decay():
    with pytest.raises(DegenerateParams):
        steady_state_thermal(ModelParams(j=0.1, delta=0.5, gamma=0.0))


def test_steady_state_without_anisotropy_is_ground_state():
    st = steady_state_thermal(ModelParams(j=0.1, delta=0.0, gamma=0.1))
    np.testing.assert_allclose(
        st.to_matrix(), np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex), atol=1e-15
    )


def test_zero_temperature_oracle_over_array_delta_equals_thermal_state():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # |Delta| > omega/2 is swept on purpose
        params = ModelParams(j=0.1, delta=np.linspace(-2.2, 2.2, 45), gamma=0.1)
    np.testing.assert_allclose(steady_state_zero_temp(params).to_matrix(),
                               steady_state_thermal(params).to_matrix(), rtol=0.0, atol=1e-15)


def test_thermal_steady_state_reduces_and_fixes():
    z = steady_state_zero_temp(P_REF)
    th = steady_state_thermal(P_REF)
    for name in ("rho11", "rho22", "rho33", "rho44", "rho14", "rho23"):
        assert abs(getattr(z, name) - getattr(th, name)) <= 1e-14
    rng = np.random.default_rng(223)
    for _ in range(15):
        params = ModelParams(
            j=rng.uniform(-0.4, 0.4),
            delta=rng.uniform(-0.4, 0.4),
            omega=rng.uniform(0.6, 1.4),
            gamma=rng.uniform(0.05, 0.8),
            nbar=rng.uniform(0.0, 2.0),
        )
        st = steady_state_thermal(params).to_matrix()
        assert np.abs(lindblad_rhs(st, params)).max() <= 1e-12


def test_thermal_diagonal_steady_state():
    st = steady_state_thermal(ModelParams(j=0.0, delta=0.0, gamma=0.1, nbar=1.0))
    np.testing.assert_allclose(
        st.to_matrix(),
        np.diag([1.0 / 9.0, 2.0 / 9.0, 2.0 / 9.0, 4.0 / 9.0]).astype(complex),
        atol=1e-15,
    )


def test_evolve_reaches_thermal_steady_state():
    params = ModelParams(j=0.1, delta=0.5, gamma=0.1, nbar=0.3)
    traj = evolve(np.eye(4, dtype=complex) / 4.0, params, t_max=200.0, dt=1e-3, stride=20000)
    target = steady_state_thermal(params).to_matrix()
    assert np.abs(traj.states[-1] - target).max() <= 1e-6


def test_steady_correlations_agree_with_measures():
    rng = np.random.default_rng(227)
    for _ in range(10):
        params = ModelParams(
            j=rng.uniform(-0.3, 0.3),
            delta=rng.uniform(-0.5, 0.5),
            omega=1.0,
            gamma=rng.uniform(0.05, 0.5),
            nbar=rng.uniform(0.0, 1.5),
        )
        closed = steady_correlations_thermal(params)
        direct = correlations(steady_state_thermal(params).to_matrix())
        for name in (
            "concurrence",
            "negativity",
            "log_negativity",
            "lqu",
            "min_trace",
            "correlated_coherence",
            "l1_coherence",
        ):
            assert abs(getattr(closed, name) - getattr(direct, name)) <= 1e-9, name


def test_steady_lqu_closed_w_entries():
    w11, w33 = steady_w_entries_zero_temp(P_REF.delta, P_REF.omega, P_REF.gamma)
    wx = w_matrix_x(steady_state_zero_temp(P_REF))
    assert w11 == pytest.approx(wx.w11, abs=1e-12)
    assert w33 == pytest.approx(wx.w33, abs=1e-12)
    assert abs(wx.w12) <= 1e-15
    assert abs(wx.w11 - wx.w22) <= 1e-15
    assert steady_correlations_thermal(P_REF).lqu == pytest.approx(1.0 - max(w11, w33), abs=1e-14)


# LQU of rows of the sweep nbar:1e-3:50:400 at J = 0, Delta = -1e-3, gamma = 9.5,
# to 60 digits: mpmath at 80 digits on the closed-form steady state of the exact
# float parameters, sqrt(rho) by eigendecomposition and 1 - lambda_max(W)
_STEADY_LQU_REFERENCES = {
    0: "0.0000000421096102342544777240963561418142260270203306690214533327809",
    40: "0.00000000000299672383761447242224885740011932904685513623674986327249653",
    200: "0.00000000000000648675648195391259194325418384422691651730881224677250688985",
    397: "0.000000000000000434478325124074966189636699600374961997084374901009710369695",
    398: "0.000000000000000430171250868251717618343207045161235456306571874798572306829",
    399: "0.000000000000000425917415722045766367356393367562333758125825498312726509735",
}


def test_steady_lqu_keeps_full_relative_accuracy_down_to_1e_16():
    # 1 - lambda_max rounds these to 0 or 4.4e-16; the sums of squares of lqu_x do not
    rows = list(_STEADY_LQU_REFERENCES)
    p = ModelParams(j=0.0, delta=-1e-3, gamma=9.5, nbar=np.linspace(1e-3, 50.0, 400)[rows])
    reference = np.array([float(v) for v in _STEADY_LQU_REFERENCES.values()])
    got = steady_correlations_thermal(p).lqu
    assert (np.abs(got - reference) <= 1e-14 * reference).all()


_SIGNED_DELTA = st.one_of(st.floats(1e-12, 10.0), st.floats(-10.0, -1e-12))


@settings(max_examples=200, deadline=None)
@example(delta=1e-5, omega=1.0, gamma=1.0)  # 1 - max{W11, W33} in floats: 8.0000006619e-11
@given(delta=_SIGNED_DELTA, omega=st.floats(1e-2, 1e2), gamma=st.floats(1e-3, 1e3))
def test_zero_temperature_lqu_reference_keeps_full_relative_accuracy(delta, omega, gamma):
    # the reference of the steady LQU cross-check at nbar = 0 against the paper's
    # 1 - max{W11, W33} at 60 digits, where the float form loses the small values
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # strong couplings are drawn on purpose
        params = ModelParams(j=0.0, delta=delta, omega=omega, gamma=gamma)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        w11, w33 = steady_w_entries_zero_temp(*map(decimal.Decimal, (delta, omega, gamma)),
                                              sqrt=lambda x: decimal.Decimal(x).sqrt())
        exact = float(1 - max(w11, w33))
    reference = _steady_closed_forms(*_steady_scales(params))[2]
    assert abs(reference - exact) <= 1e-14 * exact


@pytest.mark.parametrize("nbar", [0.3, np.linspace(0.0, 2.0, 21)])
def test_steady_correlations_evaluate_the_scales_once(nbar, monkeypatch):
    from qcorr import dynamics

    calls = []
    real = dynamics._steady_scales
    monkeypatch.setattr(dynamics, "_steady_scales", lambda params: calls.append(params) or real(params))
    steady_correlations_thermal(ModelParams(j=0.1, delta=0.5, gamma=0.1, nbar=nbar))
    assert len(calls) == 1


def test_steady_entanglement_cutoff_zero_temp():
    gamma = 0.1
    cutoff = math.sqrt(4.0 + gamma * gamma)
    for d, expect_entangled in ((0.5, True), (cutoff - 1e-3, True), (cutoff + 1e-3, False)):
        params = ModelParams(j=0.1, delta=d, gamma=gamma)
        conc = steady_concurrence_thermal(params)
        assert (conc > 0.0) == expect_entangled


def test_steady_ccc_reference_value():
    assert steady_ccc_thermal(P_REF) == pytest.approx(
        math.sqrt(4.01) / 5.01, abs=1e-15
    )
    assert steady_ccc_thermal(P_REF) == pytest.approx(0.39970, abs=5e-5)


def test_steady_concurrence_monotonicity_in_delta():
    turning = 0.6188

    def conc(d):
        return steady_concurrence_thermal(ModelParams(j=0.1, delta=d, gamma=0.1))

    rising = np.linspace(0.01, turning, 80)
    vals = [conc(float(d)) for d in rising]
    assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))
    falling = np.linspace(turning, 2.0025, 80)
    vals = [conc(float(d)) for d in falling]
    assert all(a - b >= -1e-12 for a, b in zip(vals, vals[1:]))


# ------------------------------------------------------------------ ESD

def test_esd_closed_form_values():
    assert esd_gamma_tau(0.0, 0.1, 0.0) == math.inf
    assert esd_gamma_tau(1.0, 0.1, 0.0) == 0.0
    expected = math.log(1.0 + 1.0 / math.sqrt(2.0))
    assert esd_gamma_tau(0.5, 0.1, 0.0) == pytest.approx(expected, abs=1e-15)
    assert esd_gamma_tau(0.5, 2.3, 0.0) == pytest.approx(expected, abs=1e-15)
    with pytest.raises(DomainError):
        esd_gamma_tau(1.3, 0.1, 0.0)
    with pytest.raises(DomainError):
        esd_gamma_tau(0.5, 0.0, 0.0)


def test_esd_closed_form_decreasing_in_w():
    ws = np.linspace(0.02, 1.0, 60)
    taus = [esd_gamma_tau(float(w), 1.0, 0.0) for w in ws]
    assert all(a > b for a, b in zip(taus, taus[1:]))


def test_thermal_concurrence_reduces_at_zero_temperature():
    ts = np.linspace(0.0, 20.0, 81)
    for w in (0.1, 0.5, 0.9):
        np.testing.assert_allclose(concurrence_thermal_independent(ts, w, 0.3, 0.0),
                                   concurrence_x(analytic_independent_mixture(ts, w, 0.3)),
                                   rtol=0.0, atol=1e-12)


def test_thermal_concurrence_initial_value():
    for w in (0.0, 0.25, 0.7, 1.0):
        assert concurrence_thermal_independent(0.0, w, 0.4, 0.8) == pytest.approx(
            1.0 - w, abs=1e-14
        )


def test_thermal_death_faster_when_hotter():
    taus = [esd_gamma_tau(0.5, 1.0, nb) for nb in (0.0, 0.2, 0.4, 0.6)]
    assert all(a > b for a, b in zip(taus, taus[1:]))


def test_esd_thermal_agrees_with_first_concurrence_zero():
    w, gamma, nbar = 0.4, 0.7, 0.5
    gt = esd_gamma_tau(w, gamma, nbar)
    tau = gt / gamma
    assert concurrence_thermal_independent(tau - 1e-4 / gamma, w, gamma, nbar) > 0.0
    assert concurrence_thermal_independent(tau + 1e-4 / gamma, w, gamma, nbar) == 0.0


def test_esd_thermal_edge_cases():
    assert esd_gamma_tau(1.0, 0.5, 0.7) == 0.0
    assert esd_gamma_tau(0.0, 0.5, 0.0) == math.inf
    with pytest.raises(DomainError):
        esd_gamma_tau(0.5, -1.0, 0.0)


def test_esd_thermal_at_zero_temperature_is_the_zero_temperature_closed_form():
    for w in np.linspace(0.01, 0.99, 99):
        s = math.sqrt(1.0 - 2.0 * w * (1.0 - w))
        for gamma in (0.1, 1.0):
            assert esd_gamma_tau(w, gamma, 0.0) == pytest.approx(
                math.log((1.0 + s) / (2.0 * w)), rel=0.0, abs=1e-14
            )


def test_esd_thermal_small_weight_matches_high_precision_root():
    # 50-digit roots of the death condition at nbar = 0; p^2 underflows at w = 1e-200
    # and 2q / (p + sqrt(p^2 + 4cq/k^2)) overflows at w = 1e-320
    assert abs(esd_gamma_tau(1e-9, 1.0, 0.0) - 20.723265836446412) <= 1e-12
    assert abs(esd_gamma_tau(1e-200, 1.0, 0.0) - 460.51701859880914) <= 1e-12
    assert abs(esd_gamma_tau(1e-320, 1.0, 0.0) - 736.8272408909739) <= 1e-12


def test_esd_thermal_bell_state_dies_only_at_finite_temperature():
    assert esd_gamma_tau(0.0, 1.0, 0.0) == math.inf
    assert math.isfinite(esd_gamma_tau(0.0, 1.0, 1e-300))
    tau = esd_gamma_tau(0.0, 1.0, 0.5)
    assert concurrence_thermal_independent(tau * (1.0 - 1e-9), 0.0, 1.0, 0.5) > 0.0
    assert concurrence_thermal_independent(tau * (1.0 + 1e-9), 0.0, 1.0, 0.5) == 0.0


def test_esd_thermal_at_extreme_nbar():
    cold = math.log(1.0 + 1.0 / math.sqrt(2.0))
    assert abs(esd_gamma_tau(0.5, 1.0, 1e-300) - cold) <= 1e-15
    assert abs(esd_gamma_tau(0.5, 1.0, 0.0) - cold) <= 1e-15
    # 50-digit root 1.7328679513998633e-201: c = 2 nbar (nbar + 1) overflows here
    assert esd_gamma_tau(0.5, 1.0, 1e200) == pytest.approx(
        1.7328679513998633e-201, rel=1e-15, abs=0.0
    )


@settings(max_examples=200, deadline=None)
@given(w=st.floats(0.01, 0.99), nbar=st.floats(0.0, 2.0), gamma=st.floats(0.05, 3.0))
@example(w=0.99, nbar=2.0, gamma=1.0)  # shortest death time: a relative error shows most here
def test_esd_thermal_brackets_first_concurrence_zero(w, nbar, gamma):
    tau = esd_gamma_tau(w, gamma, nbar) / gamma
    for rel in (1e-7, 1e-9):
        assert concurrence_thermal_independent(tau * (1.0 - rel), w, gamma, nbar) > 0.0
        assert concurrence_thermal_independent(tau * (1.0 + rel), w, gamma, nbar) == 0.0


# ------------------------------------------------------------------ dark intervals

def _analytic_trajectory(params, t_max, n_samples):
    times = np.linspace(0.0, t_max, n_samples)
    states = analytic_mixture(times, params).to_matrix()
    return Trajectory(times, states, correlations(states), params, times[1] - times[0])


def test_dark_intervals_mixture_structure():
    params = ModelParams(j=0.1, delta=0.5, gamma=0.1)
    traj = _analytic_trajectory(params, 40.0, 801)
    intervals = find_dark_intervals(traj,
                                    state_at=lambda t: analytic_mixture(t, params).to_matrix())
    assert len(intervals) == 3
    lengths = [b - a for a, b in intervals]
    assert lengths[0] == max(lengths)
    # refined endpoints should bracket genuinely dark samples
    first = intervals[0]
    assert first[0] == pytest.approx(1.4714, abs=1e-3)
    assert first[1] == pytest.approx(12.1076, abs=1e-3)


def test_first_dark_interval_shrinks_with_decay_rate():
    firsts = []
    for gamma in (0.1, 0.15, 0.2):
        params = ModelParams(j=0.1, delta=0.5, gamma=gamma)
        traj = _analytic_trajectory(params, 40.0, 801)
        intervals = find_dark_intervals(
            traj, state_at=lambda t, p=params: analytic_mixture(t, p).to_matrix())
        assert intervals
        firsts.append(intervals[0][1] - intervals[0][0])
    assert firsts[0] > firsts[1] > firsts[2]


def test_refinement_via_reintegration_matches_analytic():
    params = ModelParams(j=0.1, delta=0.5, gamma=0.1)
    traj = evolve(make_mixture(0.5).to_matrix(), params, t_max=20.0, dt=1e-3, stride=100)
    via_analytic = find_dark_intervals(
        traj, state_at=lambda t: analytic_mixture(t, params).to_matrix())
    via_reintegration = find_dark_intervals(traj)
    assert len(via_analytic) == len(via_reintegration)
    for (a0, b0), (a1, b1) in zip(via_analytic, via_reintegration):
        assert a0 == pytest.approx(a1, abs=1e-4)
        assert b0 == pytest.approx(b1, abs=1e-4)


def test_reintegrated_endpoints_match_closed_form_to_refine_tol():
    params = ModelParams(j=0.1, delta=0.5, gamma=0.1)
    traj = evolve(make_mixture(0.5).to_matrix(), params, t_max=20.0, dt=1e-3, stride=1000)
    refine_tol = 1e-6
    via_analytic = find_dark_intervals(
        traj, state_at=lambda t: analytic_mixture(t, params).to_matrix(), refine_tol=refine_tol
    )
    via_reintegration = find_dark_intervals(traj, refine_tol=refine_tol)
    assert via_analytic
    assert len(via_analytic) == len(via_reintegration)
    for (a0, b0), (a1, b1) in zip(via_analytic, via_reintegration):
        assert abs(a0 - a1) <= refine_tol
        assert abs(b0 - b1) <= refine_tol


def test_werner_settles_without_permanent_death():
    params = ModelParams(j=0.1, delta=0.5, gamma=0.1)
    times = np.linspace(0.0, 150.0, 601)
    concs = concurrence_x(analytic_werner(times, 1.0, params))
    spans = dark_intervals_of_series(concs)
    assert all(end < len(times) for _, end in spans)
    assert concs[-1] == pytest.approx(0.2999, abs=5e-4)


def test_cc_has_no_dark_intervals_under_pure_decay():
    times = np.linspace(0.0, 60.0, 601)
    ccs = correlated_coherence(analytic_independent_mixture(times, 0.5, 0.1))
    assert dark_intervals_of_series(ccs) == []
    np.testing.assert_allclose(ccs, 0.5 * np.exp(-0.1 * times), rtol=0.0, atol=1e-12)


def test_lqu_balanced_regime_w12_vanishes():
    for w in (0.2, 0.5, 0.8):
        for t in (0.0, 1.0, 5.0):
            state = analytic_independent_mixture(t, w, 0.3)
            assert abs(w_matrix_x(state).w12) <= 1e-10
            wm = w_matrix_x(state)
            assert lqu_x(state) == pytest.approx(
                1.0 - max(0.5 * (wm.w11 + wm.w22), wm.w33), abs=1e-12
            )


def test_lqu_initial_value_for_mixture_weights():
    for w in (0.3, 0.5, 0.9):
        state = analytic_independent_mixture(0.0, w, 0.1)
        assert lqu_x(state) == pytest.approx(
            1.0 - max(w, math.sqrt(w * (1.0 - w))), abs=1e-12
        )


_STEADY_FIELDS = ("concurrence", "negativity", "log_negativity", "lqu", "min_trace",
                  "correlated_coherence", "l1_coherence")


@settings(max_examples=60, deadline=None)
@given(j=st.floats(-0.5, 0.5), delta=st.floats(-0.5, 0.5), gamma=st.floats(1e-3, 1.0),
       nbar=st.floats(0.0, 5.0), name=st.sampled_from(["nbar", "delta"]))
def test_steady_sweep_rows_equal_measures_of_the_steady_state(j, delta, gamma, nbar, name):
    base = dict(j=j, delta=delta, gamma=gamma, nbar=nbar)
    values = np.append(np.linspace(0.0, 5.0, 6) if name == "nbar" else np.linspace(-0.5, 0.5, 6),
                       base[name])
    swept = steady_correlations_thermal(ModelParams(**{**base, name: values}))
    for i, v in enumerate(values.tolist()):
        direct = correlations(steady_state_thermal(ModelParams(**{**base, name: v})).to_matrix())
        for field in _STEADY_FIELDS:
            assert abs(getattr(swept, field)[i] - getattr(direct, field)) <= 1e-12, (v, field)


def test_steady_single_row_is_the_one_row_sweep():
    swept = steady_correlations_thermal(ModelParams(delta=0.3, gamma=0.2, nbar=np.array([0.4])))
    single = steady_correlations_thermal(ModelParams(delta=0.3, gamma=0.2, nbar=0.4))
    for field in _STEADY_FIELDS:
        assert getattr(swept, field).tolist() == [getattr(single, field)]


_WEIGHTS = np.array([0.0, 1e-320, 1e-200, 1e-9, 0.01, 0.3, 0.5, 0.9, 0.999999999, 1.0])
_NBARS = np.array([0.0, 1e-300, 1e-9, 0.05, 0.3, 1.0, 7.0, 1e200, 1.7e308])


def test_esd_kernel_equals_scalar_wrappers_elementwise():
    grid = esd_gamma_tau(_WEIGHTS[:, None], 0.7, _NBARS)
    assert grid.shape == (len(_WEIGHTS), len(_NBARS))
    assert grid[0, 0] == math.inf  # the Bell state without thermal noise never dies
    for i, w in enumerate(_WEIGHTS.tolist()):
        for k, nb in enumerate(_NBARS.tolist()):
            assert grid[i, k] == esd_gamma_tau(w, 0.7, nb)


@settings(max_examples=100, deadline=None)
@given(ws=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
       nbar=st.floats(0.0, 1e300), gamma=st.floats(1e-300, 1e300))
def test_esd_kernel_equals_scalar_wrappers_on_random_grids(ws, nbar, gamma):
    for nb in (0.0, nbar):
        column = esd_gamma_tau(np.array(ws), gamma, nb)
        for w, gt in zip(ws, column.tolist()):
            assert gt == esd_gamma_tau(w, gamma, nb)


def test_esd_kernel_names_the_first_value_outside_its_domain():
    with pytest.raises(DomainError, match=r"mixture weight must lie in \[0, 1\], got 1.5"):
        esd_gamma_tau([0.5, 1.5, -1.0], 1.0, 0.0)
    with pytest.raises(DomainError, match=r"nbar must be non-negative and finite, got -0.1"):
        esd_gamma_tau(0.5, 1.0, [0.0, -0.1, np.nan])
    with pytest.raises(DomainError, match=r"gamma must be positive and finite, got inf"):
        esd_gamma_tau(0.5, [1.0, np.inf], 0.0)
