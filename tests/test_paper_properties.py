"""The paper's qualitative claims, as properties over the model parameters."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from helpers import random_density_matrix, random_x_state
from qcorr import (ModelParams, analytic_independent_mixture, concurrence_x, correlated_coherence,
                   esd_gamma_tau, evolve, lqu_x, min_trace, steady_correlations_thermal,
                   steady_state_thermal)


@settings(max_examples=200, deadline=None)
@given(gamma=st.floats(1e-3, 20.0), delta=st.floats(-0.5, 0.5), j=st.floats(-0.5, 0.5))
@example(gamma=20.0, delta=-0.0025, j=0.0)  # tightest of a 400-point Delta grid: slack 2.5e-4
@example(gamma=0.1, delta=0.0, j=0.1)  # every measure is zero: the two sides are equal
@example(gamma=1.0, delta=6.589363146236349e-115, j=0.0)  # LQU 3.5e-229: log2(2 N + 1) reads 0
def test_zero_temperature_steady_lqu_is_below_every_other_correlation(gamma, delta, j):
    # "the zero-temperature steady state exhibits less LQU than the other
    # correlations", in the weak regime |Delta|, |J| <= omega/2. Beyond it the
    # claim fails: just above Delta = omega the LQU exceeds the concurrence.
    c = steady_correlations_thermal(ModelParams(j=j, delta=delta, omega=1.0, gamma=gamma, nbar=0.0))
    others = min(c.concurrence, c.log_negativity, c.min_trace, c.correlated_coherence)
    assert c.lqu <= others
    if delta == 0.0:
        assert c.lqu == others == 0.0


_NBAR = np.linspace(1e-3, 50.0, 400)


@settings(max_examples=200, deadline=None)
@given(gamma=st.floats(1e-3, 10.0), delta=st.floats(1e-3, 0.5), sign=st.sampled_from([-1.0, 1.0]),
       j=st.floats(-0.5, 0.5))
def test_finite_temperature_steady_correlations_beyond_entanglement_survive(gamma, delta, sign, j):
    # "steady-state correlations stay non-zero at finite temperature, and those
    # beyond entanglement are more robust": with Delta != 0 and gamma, nbar > 0
    # the LQU, MIN and CC are positive on every row of a 400-point nbar sweep,
    # while the concurrence is exactly zero at its hot end. At |Delta| = 1e-3,
    # gamma = 10, J = 0 and nbar = 50 the LQU is 3.8e-16; lqu_x sums squares,
    # so it keeps such values to full relative accuracy instead of rounding
    # them to zero.
    c = steady_correlations_thermal(ModelParams(j=j, delta=sign * delta, omega=1.0, gamma=gamma,
                                                nbar=_NBAR))
    assert (c.lqu > 0.0).all() and (c.min_trace > 0.0).all()
    assert (c.correlated_coherence > 0.0).all()
    assert c.concurrence[-1] == 0.0


_BEFORE = np.linspace(0.0, 0.999, 200)  # times in units of the death time tau
_AFTER = np.linspace(1.001, 10.0, 200)


@settings(max_examples=200, deadline=None)
@given(w=st.floats(0.01, 0.99), gamma=st.floats(1e-3, 10.0))
def test_independent_qubits_lose_entanglement_suddenly_but_no_other_correlation(w, gamma):
    # "entanglement dies suddenly for independent qubits; the other correlations
    # do not": on the J = Delta = 0 closed form the concurrence is positive
    # before the death time tau of esd_gamma_tau and exactly zero from just
    # after it up to 10 tau, while the LQU, MIN and CC stay positive. At 10 tau
    # and w = 0.01 the LQU is about 1e-40; lqu_x sums squares, so it does not
    # round such values to zero.
    tau = float(esd_gamma_tau(w, gamma, 0.0)) / gamma
    before = analytic_independent_mixture(tau * _BEFORE, w, gamma)
    after = analytic_independent_mixture(tau * _AFTER, w, gamma)
    assert (concurrence_x(before) > 0.0).all()
    assert (concurrence_x(after) == 0.0).all()
    for x in (before, after):
        assert (lqu_x(x) > 0.0).all() and (min_trace(x) > 0.0).all()
        assert (correlated_coherence(x) > 0.0).all()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), start=st.sampled_from(["x", 1, 2, 3, 4]),
       j=st.floats(-0.5, 0.5), delta=st.floats(-0.5, 0.5), gamma=st.floats(0.01, 1.0),
       nbar=st.floats(0.0, 3.0))
def test_steady_state_is_independent_of_the_initial_state(seed, start, j, delta, gamma, nbar):
    # "the steady state is independent of the initial state": from a random X
    # state or a dense state of rank 1 to 4, the evolution to t = 1e18 (one
    # sample after the start) ends within 1e-12 of steady_state_thermal, in the
    # weak regime |J|, |Delta| <= omega/2
    params = ModelParams(j=j, delta=delta, omega=1.0, gamma=gamma, nbar=nbar)
    rng = np.random.default_rng(seed)
    rho0 = random_x_state(rng).to_matrix() if start == "x" else random_density_matrix(rng, start)
    final = evolve(rho0, params, t_max=1e18, dt=0.1, stride=10**30).states[-1]
    assert np.abs(final - steady_state_thermal(params).to_matrix()).max() <= 1e-12
