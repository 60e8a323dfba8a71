"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The heavier trajectory scenarios are shared through module-scoped
fixtures, so the whole file stays desk-scale.
"""

import math

import numpy as np
import pytest

from helpers import (
    concurrence_log_negativity_bounds,
    concurrence_negativity_bounds,
    dark_intervals_of_series,
    find_dark_intervals,
    negativity_trace_norm,
    random_x_state,
    steady_state_zero_temp,
)
from qcorr import (
    ModelParams,
    analytic_independent_mixture,
    analytic_mixture,
    analytic_werner,
    concurrence_dicke,
    concurrence_general,
    concurrence_x,
    correlated_coherence,
    esd_gamma_tau,
    evolve,
    hamiltonian,
    make_mixture,
    make_werner,
    min_trace,
    negativity,
    steady_ccc_thermal,
    steady_concurrence_thermal,
    steady_correlations_thermal,
    to_dicke,
)

DT = 1e-3


def report(num: int, ok: bool, detail: str):
    print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def sample_states():
    rng = np.random.default_rng(20250810)
    return [random_x_state(rng) for _ in range(1000)]


@pytest.fixture(scope="module")
def fig1_trajectory():
    params = ModelParams(j=0.1, delta=0.5, gamma=0.1)
    return params, evolve(make_mixture(0.5).to_matrix(), params, t_max=100.0, dt=DT, stride=100)


@pytest.fixture(scope="module")
def induced_trajectories():
    out = {}
    for delta in (0.0, 0.2, 0.3, 0.4):
        params = ModelParams(j=0.1, delta=delta, gamma=0.1)
        out[delta] = evolve(make_werner(0.0).to_matrix(), params, t_max=40.0, dt=DT, stride=100)
    return out


def test_criterion_1_steady_state_values():
    cs = steady_correlations_thermal(ModelParams(j=0.1, delta=0.5, gamma=0.1, nbar=0.0))
    errs = (
        abs(cs.concurrence - 0.2999),
        abs(cs.log_negativity - 0.3784),
        abs(cs.lqu - 0.1597),
    )
    ok = all(e <= 5e-4 for e in errs)
    report(1, ok, f"steady C/LN/LQU = {cs.concurrence:.5f}/{cs.log_negativity:.5f}/{cs.lqu:.5f}")
    assert ok, errs


def test_criterion_2_entanglement_cutoff_and_maximum():
    def conc(delta):
        return steady_concurrence_thermal(ModelParams(j=0.1, delta=delta, gamma=0.1))

    grid = np.arange(1.99, 2.0101, 1e-4)
    vals = [conc(d) for d in grid]
    crossing = None
    for d0, d1, v0, v1 in zip(grid, grid[1:], vals, vals[1:]):
        if v0 > 0.0 and v1 == 0.0:
            crossing = 0.5 * (d0 + d1)
            break
    fine = np.arange(0.55, 0.70, 1e-4)
    maximizer = fine[int(np.argmax([conc(d) for d in fine]))]
    ok = (
        crossing is not None
        and abs(crossing - 2.0025) <= 1e-3
        and abs(maximizer - 0.6188) <= 1e-3
    )
    report(2, ok, f"cutoff at Delta = {crossing}, maximum at Delta = {maximizer:.4f}")
    assert ok


def test_criterion_3_integrator_matches_closed_forms():
    details = []
    ok = True
    for gamma in (0.1, 0.2):
        cases = (
            ("mixture", ModelParams(j=0.1, delta=0.5, gamma=gamma),
             make_mixture(0.5).to_matrix(), lambda t, p: analytic_mixture(t, p)),
            ("werner", ModelParams(j=0.1, delta=0.5, gamma=gamma),
             make_werner(0.5).to_matrix(), lambda t, p: analytic_werner(t, 0.5, p)),
            ("independent", ModelParams(j=0.0, delta=0.0, gamma=gamma),
             make_mixture(0.3).to_matrix(),
             lambda t, p: analytic_independent_mixture(t, 0.3, p.gamma, p.omega)),
        )
        for name, params, rho0, closed in cases:
            traj = evolve(rho0, params, t_max=50.0, dt=DT, stride=200)
            err = np.abs(closed(traj.times, params).to_matrix() - traj.states).max()
            details.append(f"{name}@gamma={gamma}: {err:.2e}")
            ok = ok and err <= 1e-8

    params = ModelParams(j=0.1, delta=0.5, gamma=0.1)
    target = steady_state_zero_temp(params).to_matrix()
    for name, x0 in (("mixture", make_mixture(0.5)), ("werner", make_werner(0.5))):
        final = evolve(x0.to_matrix(), params, t_max=150.0, dt=DT, stride=5000).states[-1]
        err = np.abs(final - target).max()
        details.append(f"{name}@150: {err:.2e}")
        ok = ok and err <= 1e-6
    report(3, ok, "; ".join(details))
    assert ok, details


def test_criterion_4_esd_closed_form_and_monotonicity():
    expected = math.log(1.0 + 1.0 / math.sqrt(2.0))
    gt_half = esd_gamma_tau(0.5, 0.1, 0.0)
    ok = abs(gt_half - expected) <= 1e-10
    # the closed form against the integrator: the w-mixture of independent
    # qubits (gamma = 1, so omega t = gamma t), death located by bisection
    worst = 0.0
    for w, nbar in ((0.5, 0.3), (0.2, 1.0), (0.8, 0.05), (0.5, 0.0)):
        closed = esd_gamma_tau(w, 1.0, nbar)
        params = ModelParams(j=0.0, delta=0.0, gamma=1.0, nbar=nbar)
        traj = evolve(make_mixture(w).to_matrix(), params, t_max=1.0, dt=1e-3, stride=10)
        numeric = find_dark_intervals(traj, refine_tol=1e-13)[0][0]
        worst = max(worst, abs(closed - numeric))
    ok = ok and worst <= 1e-10
    taus_w = esd_gamma_tau(np.linspace(0.02, 1.0, 50), 1.0, 0.0)
    ok = ok and bool(np.all(taus_w[:-1] > taus_w[1:]))
    taus_n = esd_gamma_tau(0.5, 1.0, np.linspace(0.0, 1.0, 50))
    ok = ok and bool(np.all(taus_n[:-1] > taus_n[1:]))
    report(4, ok, f"gamma*tau(w=1/2) = {gt_half:.12f}, integrator within {worst:.1e}, "
                  "monotone in w and nbar")
    assert ok


def test_criterion_5_measure_cross_validation(sample_states):
    worst_c = worst_n = worst_d = 0.0
    min_cc_exact = True
    for x in sample_states:
        rho = x.to_matrix()
        worst_c = max(worst_c, abs(concurrence_x(x) - concurrence_general(rho)))
        worst_n = max(worst_n, abs(negativity(rho) - negativity_trace_norm(rho)))
        worst_d = max(worst_d, abs(concurrence_x(x) - concurrence_dicke(to_dicke(x))))
        if abs(x.rho11 + x.rho22 - (x.rho33 + x.rho44)) > 1e-9:
            min_cc_exact = min_cc_exact and (min_trace(x) == correlated_coherence(x))
    ok = worst_c <= 1e-8 and worst_n <= 1e-10 and worst_d <= 1e-10 and min_cc_exact
    report(5, ok, f"|Cx-Cgen| <= {worst_c:.1e}, |N routes| <= {worst_n:.1e}, "
                  f"|Dicke| <= {worst_d:.1e}, MIN==CC exact: {min_cc_exact}")
    assert ok


def test_criterion_6_bound_chains(sample_states, fig1_trajectory, induced_trajectories):
    def slack_ok(c, n, ln):
        lo, hi = concurrence_negativity_bounds(c)
        llo, lhi = concurrence_log_negativity_bounds(c)
        return (n - lo >= -1e-10 and hi - n >= -1e-10
                and ln - llo >= -1e-10 and lhi - ln >= -1e-10)

    ok = True
    for x in sample_states:
        rho = x.to_matrix()
        n = negativity(rho)
        ok = ok and slack_ok(concurrence_x(x), n, float(np.log2(2 * n + 1)))
    _, traj = fig1_trajectory
    for traj in (traj, *induced_trajectories.values()):
        cs = traj.correlations
        for c, n, ln in zip(cs.concurrence, cs.negativity, cs.log_negativity):
            ok = ok and slack_ok(c, n, ln)
    report(6, ok, "negativity and log-negativity bound chains hold (slack >= -1e-10)")
    assert ok


def test_criterion_7_werner_invariance_without_decay():
    ok = True
    worst_drift = 0.0
    worst_comm = 0.0
    for pw in (-1.0 / 3.0, 0.0, 0.5, 1.0):
        params = ModelParams(j=0.1, delta=0.5, gamma=0.0)
        rho0 = make_werner(pw).to_matrix()
        traj = evolve(rho0, params, t_max=50.0, dt=1e-2, stride=100)
        drift = max(np.abs(mat - rho0).max() for mat in traj.states)
        h = hamiltonian(params)
        comm = np.abs(h @ rho0 - rho0 @ h).max()
        worst_drift = max(worst_drift, drift)
        worst_comm = max(worst_comm, comm)
        ok = ok and drift <= 1e-10 and comm <= 1e-12
    report(7, ok, f"max drift {worst_drift:.2e}, max commutator {worst_comm:.2e}")
    assert ok


def test_criterion_8_decoherence_induced_correlations(induced_trajectories):
    ok = True
    details = []
    measures = ("concurrence", "negativity", "log_negativity", "lqu",
                "min_trace", "correlated_coherence")
    for delta in (0.2, 0.3, 0.4):
        traj = induced_trajectories[delta]
        peaks = {name: getattr(traj.correlations, name).max() for name in measures}
        ok = ok and all(v > 1e-3 for v in peaks.values())
        details.append(f"Delta={delta}: min peak {min(peaks.values()):.3g}")
    flat = induced_trajectories[0.0]
    residual = max(getattr(flat.correlations, name).max()
                   for name in measures + ("l1_coherence",))
    ok = ok and residual <= 1e-10
    details.append(f"Delta=0 residual {residual:.2e}")
    report(8, ok, "; ".join(details))
    assert ok


def test_criterion_9_thermal_robustness_ordering():
    base = ModelParams(j=0.1, delta=0.5, gamma=0.01)

    def crossing(fn, lo, hi):
        flo, fhi = fn(lo) - 1e-6, fn(hi) - 1e-6
        assert flo > 0.0 > fhi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if fn(mid) - 1e-6 > 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    n_conc = crossing(
        lambda nb: steady_concurrence_thermal(ModelParams(j=base.j, delta=base.delta,
                                                          gamma=base.gamma, nbar=nb)),
        0.0, 2.0,
    )
    n_ccc = crossing(
        lambda nb: steady_ccc_thermal(ModelParams(j=base.j, delta=base.delta,
                                                  gamma=base.gamma, nbar=nb)),
        0.0, 1e6,
    )
    ok = n_conc < n_ccc
    report(9, ok, f"concurrence dies at nbar = {n_conc:.4f}, CC/MIN at nbar = {n_ccc:.1f}")
    assert ok


def test_criterion_10_dark_and_revival_structure(fig1_trajectory):
    params, traj = fig1_trajectory
    intervals = find_dark_intervals(traj,
                                    state_at=lambda t: analytic_mixture(t, params).to_matrix())
    lengths = [b - a for a, b in intervals if math.isfinite(b)]
    ok = len(intervals) >= 1 and lengths and lengths[0] == max(lengths)
    if len(lengths) > 1:
        ok = ok and lengths[0] > max(lengths[1:])
    cc_spans = dark_intervals_of_series(traj.correlations.correlated_coherence)
    lqu_spans = dark_intervals_of_series(traj.correlations.lqu)
    decay_times = np.linspace(0.0, 80.0, 801)
    decay_cc = correlated_coherence(analytic_independent_mixture(decay_times, 0.5, 0.1))
    cc_decay_spans = dark_intervals_of_series(decay_cc)
    ok = ok and not cc_spans and not lqu_spans and not cc_decay_spans
    report(
        10,
        ok,
        f"{len(intervals)} dark interval(s), first {lengths[0]:.2f} long; "
        f"CC/LQU dark intervals: {len(cc_spans)}/{len(lqu_spans)}",
    )
    assert ok
