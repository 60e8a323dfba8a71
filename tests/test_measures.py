"""Correlation measures: closed forms against general definitions and paper values."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    bell_phi_plus,
    concurrence_log_negativity_bounds,
    concurrence_negativity_bounds,
    concurrence_signed,
    degenerate_marginal_state,
    measurement_disturbance,
    negativity_trace_norm,
    random_balanced_x_state,
    random_density_matrix,
    random_incoherent_unitary,
    random_rank_one_x_state,
    random_unitary,
    random_x_state,
    rank_deficient_x_state,
    steady_state_zero_temp,
    valid_x,
    w_matrix_by_pairs,
    w_matrix_x,
)
from qcorr import (
    CrossCheckFailure,
    ModelParams,
    XColumns,
    concurrence_branches,
    concurrence_dicke,
    concurrence_general,
    concurrence_x,
    correlated_coherence,
    correlated_coherence_general,
    correlations,
    l1_coherence,
    log_negativity,
    lqu,
    lqu_x,
    make_mixture,
    make_werner,
    min_trace,
    min_trace_general,
    negativity,
    negativity_x,
    to_dicke,
)
from qcorr.linalg import psd_sqrt
from qcorr.measures import RANGE_TOL, X_BRANCH_TOL, _w_matrix_general, balanced, check_routes
from qcorr.model import SIGMA_X, SIGMA_Y, SIGMA_Z
from qcorr.states import is_x_shaped, trace_out_b, x_columns

STEADY = ModelParams(j=0.1, delta=0.5, omega=1.0, gamma=0.1, nbar=0.0)


# ---------------------------------------------------------------------- concurrence

def test_concurrence_extremes():
    assert concurrence_general(bell_phi_plus()) == pytest.approx(1.0, abs=1e-12)
    assert concurrence_general(np.eye(4) / 4.0) == 0.0
    assert concurrence_general(make_mixture(0.5).to_matrix()) == pytest.approx(0.5, abs=1e-12)


def test_concurrence_werner_closed_form():
    for p in (-1.0 / 3.0, 0.0, 0.2, 1.0 / 3.0, 0.5, 1.0 / np.sqrt(3.0), 0.9, 1.0):
        expected = max(0.0, abs(p) - (1.0 - p) / 2.0)
        assert concurrence_x(make_werner(p)) == pytest.approx(expected, abs=1e-14)
    assert concurrence_x(make_werner(0.5)) == pytest.approx(0.25, abs=1e-15)


def test_concurrence_general_exact_on_rank_one_outer_block():
    # |rho14|^2 = rho11 rho44 up to round-off leaves a ~1e-17 eigenvalue in
    # sqrt(rho) rho~ sqrt(rho), whose square root would be ~3e-9
    rng = np.random.default_rng(2027)
    xs = [random_rank_one_x_state(rng) for _ in range(200)]
    general = concurrence_general(np.array([x.to_matrix() for x in xs]))
    np.testing.assert_allclose(general, [concurrence_x(x) for x in xs], rtol=0.0, atol=1e-12)


def test_concurrence_steady_value():
    assert concurrence_x(steady_state_zero_temp(STEADY)) == pytest.approx(0.2999, abs=5e-4)


def test_branches_not_simultaneously_positive():
    rng = np.random.default_rng(101)
    for _ in range(300):
        c1, c2 = concurrence_branches(random_x_state(rng))
        assert not (c1 > 0.0 and c2 > 0.0)


def test_entanglement_criterion_iff():
    rng = np.random.default_rng(103)
    for _ in range(200):
        x = random_x_state(rng)
        entangled = concurrence_x(x) > 0.0
        criterion = (x.rho22 * x.rho33 < abs(x.rho14) ** 2) or (
            x.rho11 * x.rho44 < abs(x.rho23) ** 2
        )
        assert entangled == criterion


def test_concurrence_dicke_routes():
    nb = 0.0
    for nb in (0.0, 0.3, 1.0, 2.5):
        k = (2 * nb + 1) ** 2
        x = valid_x(nb**2 / k, nb * (nb + 1) / k, nb * (nb + 1) / k,
                    (nb + 1) ** 2 / k, 0.0, 0.0)
        assert concurrence_dicke(to_dicke(x)) == 0.0
    assert concurrence_dicke(to_dicke(make_mixture(0.5))) == pytest.approx(0.5, abs=1e-14)


def test_dicke_sa_phase_placement():
    from qcorr import DickeColumns

    # real sa lowers the C1 radical, imaginary sa feeds C2
    base = dict(ee=0.1, gg=0.1, ss=0.4, aa=0.4, eg=0.0)
    real_sa = concurrence_dicke(DickeColumns(sa=0.3, **base))
    imag_sa = concurrence_dicke(DickeColumns(sa=0.3j, **base))
    # with sa imaginary, C2 = 2(0.3 - 0.1) > 0; with sa real it stays separable
    assert imag_sa == pytest.approx(0.4, abs=1e-14)
    assert real_sa == 0.0


def test_concurrence_signed_matches_branch_maximum():
    rng = np.random.default_rng(107)
    for _ in range(50):
        x = random_x_state(rng)
        assert concurrence_signed(x.to_matrix()) == pytest.approx(
            max(concurrence_branches(x)), abs=1e-9
        )


# ---------------------------------------------------------------------- negativity

def test_negativity_extremes():
    assert negativity(bell_phi_plus()) == pytest.approx(0.5, abs=1e-13)
    product = np.kron(np.diag([0.3, 0.7]), np.diag([0.6, 0.4])).astype(complex)
    assert negativity(product) == 0.0
    mix = make_mixture(0.5).to_matrix()
    assert negativity(mix) == pytest.approx((np.sqrt(2.0) - 1.0) / 4.0, abs=1e-13)
    assert abs(negativity(mix) - negativity_trace_norm(mix)) <= 1e-12


def test_negativity_route_agreement():
    rng = np.random.default_rng(109)
    for _ in range(200):
        rho = random_x_state(rng).to_matrix()
        assert abs(negativity(rho) - negativity_trace_norm(rho)) <= 1e-10


def test_log_negativity_values():
    assert log_negativity(bell_phi_plus()) == pytest.approx(1.0, abs=1e-12)
    expected_mix = np.log2((1.0 + np.sqrt(2.0)) / 2.0)
    assert log_negativity(make_mixture(0.5).to_matrix()) == pytest.approx(expected_mix, abs=1e-13)
    assert expected_mix == pytest.approx(0.2716, abs=5e-5)
    st = steady_state_zero_temp(STEADY).to_matrix()
    assert log_negativity(st) == pytest.approx(0.3784, abs=5e-4)


def test_log_negativity_werner_initial_formula():
    for p in (-1.0 / 3.0, 0.0, 0.4, 1.0 / np.sqrt(3.0), 0.8, 1.0):
        direct = log_negativity(make_werner(p).to_matrix())
        printed = np.log2(
            (1.0 + p) / 2.0
            + 0.5 * abs((1.0 - p) / 2.0 - abs(p))
            + 0.5 * abs((1.0 - p) / 2.0 + abs(p))
        )
        assert direct == pytest.approx(printed, abs=1e-12)


# ---------------------------------------------------------------------- LQU

def test_lqu_extremes():
    assert lqu(bell_phi_plus()) == pytest.approx(1.0, abs=1e-12)
    assert lqu(make_werner(1.0).to_matrix()) == pytest.approx(1.0, abs=1e-12)
    assert lqu(make_mixture(0.5).to_matrix()) == pytest.approx(0.5, abs=1e-12)
    assert lqu_x(steady_state_zero_temp(STEADY)) == pytest.approx(0.1597, abs=5e-4)


def test_lqu_of_product_states_is_zero():
    rng = np.random.default_rng(113)
    for _ in range(20):
        a = rng.random()
        b = rng.random()
        rho = np.kron(np.diag([a, 1 - a]), np.diag([b, 1 - b])).astype(complex)
        assert lqu(rho) <= 1e-9
    psi_a = np.array([1.0, 1.0]) / np.sqrt(2)
    psi_b = np.array([1.0, 0.0])
    psi = np.kron(psi_a, psi_b)
    assert lqu(np.outer(psi, psi).astype(complex)) <= 1e-9


def test_lqu_werner_initial_formula():
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        expected = 1.0 - 0.5 * (1.0 - p + np.sqrt((1.0 - p) * (1.0 + 3.0 * p)))
        assert lqu_x(make_werner(p)) == pytest.approx(expected, abs=1e-12)
    # p = -1/3 makes the one-excitation block rank-one; the sqrt amplifies the
    # last-ulp population mismatch to ~sqrt(eps), so only ~1e-7 is meaningful
    assert lqu_x(make_werner(-1.0 / 3.0)) == pytest.approx(1.0 / 3.0, abs=1e-7)


def test_lqu_mixture_initial_value():
    # U(0) = 1 - max(w, sqrt(w (1-w))): zero at w = 1, one at w = 0
    for w in (0.0, 0.2, 0.5, 0.8, 1.0):
        expected = 1.0 - max(w, np.sqrt(w * (1.0 - w)))
        assert lqu_x(make_mixture(w)) == pytest.approx(expected, abs=1e-12)
        assert lqu(make_mixture(w).to_matrix()) == pytest.approx(expected, abs=1e-9)


def test_lqu_closed_form_matches_general():
    rng = np.random.default_rng(127)
    for _ in range(150):
        x = random_x_state(rng)
        assert lqu_x(x) == pytest.approx(lqu(x.to_matrix()), abs=1e-9)
        assert 0.0 <= lqu_x(x) <= 1.0


def test_w_matrix_structure():
    rng = np.random.default_rng(131)
    for _ in range(40):
        x = random_x_state(rng)
        wfull = _w_matrix_general(psd_sqrt(x.to_matrix()))
        assert np.abs(wfull - wfull.T).max() <= 1e-12
        assert abs(wfull[0, 2]) <= 1e-12 and abs(wfull[1, 2]) <= 1e-12
        wx = w_matrix_x(x)
        assert wfull[0, 0] == pytest.approx(wx.w11, abs=1e-10)
        assert wfull[1, 1] == pytest.approx(wx.w22, abs=1e-10)
        assert wfull[2, 2] == pytest.approx(wx.w33, abs=1e-10)
        assert wfull[0, 1] == pytest.approx(wx.w12, abs=1e-10)


def test_w_matrix_symmetric_and_equal_to_pairwise_traces():
    rng = np.random.default_rng(137)
    stack = np.array([*(random_density_matrix(rng, rank) for rank in (1, 2, 3, 4) * 50),
                      *(random_x_state(rng).to_matrix() for _ in range(50))])
    sqrt_rho = psd_sqrt(stack)
    w = _w_matrix_general(sqrt_rho)
    np.testing.assert_array_equal(w, w.swapaxes(-1, -2))
    assert np.abs(w - w_matrix_by_pairs(sqrt_rho)).max() <= 1e-15
    one = _w_matrix_general(sqrt_rho[7])
    assert one.shape == (3, 3) and np.abs(one - w[7]).max() <= 1e-15


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4),
       kind=st.sampled_from(("general", "x", "rank_deficient_x", "balanced_x",
                             "degenerate_marginal")))
def test_w_matrix_from_pauli_gram_matches_pairwise_traces(seed, rank, kind):
    rng = np.random.default_rng(seed)
    rho = {"general": lambda: random_density_matrix(rng, rank),
           "x": lambda: random_x_state(rng).to_matrix(),
           "rank_deficient_x": lambda: rank_deficient_x_state(rng),
           "balanced_x": lambda: random_balanced_x_state(rng).to_matrix(),
           "degenerate_marginal": lambda: degenerate_marginal_state(rng)}[kind]()
    sqrt_rho = psd_sqrt(rho)
    w = _w_matrix_general(sqrt_rho)
    np.testing.assert_array_equal(w, w.T)
    assert np.abs(w - w_matrix_by_pairs(sqrt_rho)).max() <= 1e-15
    if is_x_shaped(sqrt_rho):  # W is then exactly zero off its (x, y) block and W_zz
        assert w[0, 2] == w[1, 2] == 0.0


# ---------------------------------------------------------------------- MIN

def test_min_trace_werner_balanced_branch():
    for p in (-1.0 / 3.0, 0.0, 0.3, 0.7, 1.0):
        w = make_werner(p)
        assert w.rho11 + w.rho22 - w.rho33 - w.rho44 == 0.0
        assert min_trace(w) == pytest.approx(abs(p), abs=1e-15)
        assert min_trace(w) == pytest.approx(correlated_coherence(w), abs=1e-15)


def test_min_trace_mixture_unbalanced_branch():
    mix = make_mixture(0.5)
    assert min_trace(mix) == pytest.approx(0.5, abs=1e-15)


def test_min_trace_product_diagonal_zero():
    assert min_trace(valid_x(0.12, 0.28, 0.18, 0.42, 0.0, 0.0)) == 0.0
    assert min_trace(valid_x(0.25, 0.25, 0.25, 0.25, 0.0, 0.0)) == 0.0


def test_min_equals_cc_on_unbalanced_branch():
    rng = np.random.default_rng(137)
    for _ in range(300):
        x = random_x_state(rng)
        if abs(x.rho11 + x.rho22 - x.rho33 - x.rho44) > 1e-9:
            assert min_trace(x) == correlated_coherence(x)


def _min_trace_with_u2(x):
    """``min_trace`` as it was written with the third candidate
    u2 = 2 (|rho23| - |rho14|) in the balanced branch."""
    u1 = 2.0 * (abs(x.rho14) + abs(x.rho23))
    u2 = 2.0 * (-abs(x.rho14) + abs(x.rho23))
    u3 = x.rho11 - x.rho22 - x.rho33 + x.rho44
    free = np.maximum(np.maximum(abs(u1), abs(u2)), abs(u3))
    return np.where(balanced(x), free, u1)[()]


@settings(max_examples=500, deadline=None)
@given(diag=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4),
       c14=st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=1e300),
       c23=st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=1e300),
       balance=st.booleans())
def test_min_trace_without_u2_is_the_old_value_bit_for_bit(diag, c14, c23, balance):
    # |u2| = 2 ||rho23| - |rho14|| <= u1 holds after rounding too, so the
    # balanced branch is max(u1, |u3|); unvalidated columns of any magnitude,
    # but finite |rho14| + |rho23| (with both infinite the old u2 was inf - inf)
    if balance:  # rho11 + rho22 = rho33 + rho44 exactly
        diag[3] = diag[0]
        diag[2] = diag[1]
    x = XColumns(*diag, c14, c23)
    with np.errstate(over="ignore", invalid="ignore"):
        new, old = min_trace(x), _min_trace_with_u2(x)
    assert np.array(new).tobytes() == np.array(old).tobytes()


def test_min_trace_without_u2_on_balanced_states_over_a_stack():
    rng = np.random.default_rng(151)
    xs = [random_balanced_x_state(rng) for _ in range(200)] + [make_werner(p) for p in (-1 / 3, 1)]
    x = x_columns(np.array([x.to_matrix() for x in xs]))
    assert balanced(x).all()
    assert min_trace(x).tobytes() == _min_trace_with_u2(x).tobytes()


def test_min_general_matches_closed_form_unbalanced():
    rng = np.random.default_rng(139)
    for _ in range(40):
        x = random_x_state(rng)
        if abs(x.rho11 + x.rho22 - x.rho33 - x.rho44) > 1e-6:
            assert min_trace_general(x.to_matrix()) == pytest.approx(
                min_trace(x), abs=1e-10
            )


def test_min_general_matches_closed_form_balanced():
    for p in (0.3, 0.7, 1.0):
        w = make_werner(p)
        assert min_trace(w) == pytest.approx(p, abs=1e-15)
        assert min_trace_general(w.to_matrix()) == pytest.approx(min_trace(w), abs=1e-12)
    rng = np.random.default_rng(149)
    for _ in range(5):
        x = random_balanced_x_state(rng)
        assert min_trace_general(x.to_matrix()) == pytest.approx(min_trace(x), abs=1e-12)


def test_balanced_branch_includes_exactly_x_branch_tol():
    # |x| = |a| = X_BRANCH_TOL takes the free-basis branch in the closed form and
    # in the general route alike (MIN = |u3| = T_zz); the next double does not
    at, past = X_BRANCH_TOL, np.nextafter(X_BRANCH_TOL, 1.0)
    for x, balanced_branch, expected in ((XColumns(at, 0.0, 0.0, 0.0, 0.0, 0.0), True, at),
                                         (XColumns(past, 0.0, 0.0, 0.0, 0.0, 0.0), False, 0.0)):
        assert balanced(x) == balanced_branch
        assert min_trace(x) == expected
        assert min_trace_general(x.to_matrix()) == expected


def test_min_general_equals_disturbance_at_marginal_eigenbasis():
    # a non-degenerate marginal of A leaves its eigenbasis as the only
    # invariant measurement, so the definition is one trace norm
    rng = np.random.default_rng(167)
    for rank in (1, 2, 3, 4) * 10:
        rho = random_density_matrix(rng, rank)
        _, basis = np.linalg.eigh(trace_out_b(rho))
        assert measurement_disturbance(rho, basis) == pytest.approx(
            min_trace_general(rho), abs=1e-12)


def _correlation_matrix(rho):
    paulis = (SIGMA_X, SIGMA_Y, SIGMA_Z)
    return np.array([[np.trace(rho @ np.kron(a, b)).real for b in paulis] for a in paulis])


def test_min_general_is_max_disturbance_on_balanced_states():
    # balanced X states under random local unitaries keep a = 0: every basis
    # is invariant and the MIN is the maximum disturbance over all of them
    rng = np.random.default_rng(173)
    bases = random_unitary(rng, (500,))
    for _ in range(20):
        u = np.kron(random_unitary(rng), random_unitary(rng))
        rho = u @ random_balanced_x_state(rng).to_matrix() @ u.conj().T
        mt = min_trace_general(rho)
        assert measurement_disturbance(rho, bases).max() <= mt + 1e-12
        # attained along any direction orthogonal to T's top left singular vector
        n = np.linalg.svd(_correlation_matrix(rho))[0][:, 1]
        _, basis = np.linalg.eigh(n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z)
        assert measurement_disturbance(rho, basis) == pytest.approx(mt, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4),
       kind=st.sampled_from(("general", "x", "balanced")))
def test_measures_invariant_under_local_unitaries(seed, rank, kind):
    rng = np.random.default_rng(seed)
    rho = {"general": lambda: random_density_matrix(rng, rank),
           "x": lambda: random_x_state(rng).to_matrix(),
           "balanced": lambda: random_balanced_x_state(rng).to_matrix()}[kind]()
    before = correlations(rho)
    u = np.kron(random_unitary(rng), random_unitary(rng))
    after = correlations(u @ rho @ u.conj().T)
    for name in ("concurrence", "negativity", "log_negativity", "min_trace"):
        assert getattr(after, name) == pytest.approx(getattr(before, name), abs=1e-10)
    if kind != "general" or rank == 4:
        # on a singular rho the LQU route takes the square root of a round-off
        # eigenvalue, which limits it to about sqrt(eps) = 1e-8
        assert after.lqu == pytest.approx(before.lqu, abs=1e-10)
    # the coherences are basis-dependent: they are invariant only under local
    # unitaries that permute the computational basis up to phases
    v = np.kron(random_incoherent_unitary(rng), random_incoherent_unitary(rng))
    moved = correlations(v @ rho @ v.conj().T)
    for name in ("correlated_coherence", "l1_coherence"):
        assert getattr(moved, name) == pytest.approx(getattr(before, name), abs=1e-10)


# ---------------------------------------------------------------------- coherence

def test_l1_coherence_values():
    assert l1_coherence(np.diag([0.4, 0.3, 0.2, 0.1])) == 0.0
    assert l1_coherence(bell_phi_plus()) == pytest.approx(1.0, abs=1e-14)
    assert l1_coherence(make_mixture(0.5).to_matrix()) == pytest.approx(0.5, abs=1e-15)


def test_correlated_coherence_values():
    for p in (-1.0 / 3.0, 0.0, 0.5, 1.0):
        assert correlated_coherence(make_werner(p)) == pytest.approx(abs(p), abs=1e-15)
    for w in (0.0, 0.3, 0.8, 1.0):
        assert correlated_coherence(make_mixture(w)) == pytest.approx(1.0 - w, abs=1e-15)
    assert correlated_coherence(valid_x(0.3, 0.3, 0.2, 0.2, 0.0, 0.0)) == 0.0


def test_correlated_coherence_general_agreement():
    rng = np.random.default_rng(151)
    for _ in range(100):
        x = random_x_state(rng)
        assert correlated_coherence_general(x.to_matrix()) == pytest.approx(
            correlated_coherence(x), abs=1e-12
        )


def test_steady_l1_coherence_is_twice_single_coherence():
    # the definitional sum counts both conjugate entries of the lone coherence
    st = steady_state_zero_temp(STEADY)
    g, d, w = STEADY.gamma, STEADY.delta, STEADY.omega
    single = abs(d) * np.sqrt(4 * w * w + g * g) / (g * g + 4 * STEADY.big_omega**2)
    assert l1_coherence(st.to_matrix()) == pytest.approx(2.0 * single, abs=1e-14)
    assert abs(st.rho14) == pytest.approx(single, abs=1e-15)


# ---------------------------------------------------------------------- aggregate

def test_correlations_maximally_mixed_all_zero():
    cs = correlations(np.eye(4, dtype=complex) / 4.0)
    assert cs.as_tuple() == (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_correlations_mixture_reference_point():
    cs = correlations(make_mixture(0.5).to_matrix())
    assert cs.concurrence == pytest.approx(0.5, abs=1e-12)
    assert cs.negativity == pytest.approx((np.sqrt(2.0) - 1.0) / 4.0, abs=1e-12)
    assert cs.log_negativity == pytest.approx(np.log2((1.0 + np.sqrt(2.0)) / 2.0), abs=1e-12)
    assert cs.lqu == pytest.approx(0.5, abs=1e-12)
    assert cs.min_trace == pytest.approx(0.5, abs=1e-15)
    assert cs.correlated_coherence == pytest.approx(0.5, abs=1e-15)
    assert cs.l1_coherence == pytest.approx(0.5, abs=1e-15)


def test_correlations_werner_reference_point():
    p = 1.0 / np.sqrt(3.0)
    cs = correlations(make_werner(p).to_matrix())
    assert cs.concurrence == pytest.approx(p - (1.0 - p) / 2.0, abs=1e-12)
    assert cs.concurrence == pytest.approx(0.3660, abs=5e-5)


def test_correlations_cross_check_runs_clean():
    rng = np.random.default_rng(157)
    for _ in range(150):
        correlations(random_x_state(rng).to_matrix())


def test_correlations_generic_path_for_non_x_states():
    rng = np.random.default_rng(163)
    rho = random_density_matrix(rng)
    cs = correlations(rho)
    assert cs.concurrence == pytest.approx(concurrence_general(rho), abs=1e-14)
    assert cs.min_trace == pytest.approx(min_trace_general(rho), abs=1e-14)
    assert cs.range_violation() is None


def test_cross_check_failure_raises():
    # a pair beyond CROSS_CHECK_TOL and a non-finite pair both raise
    with pytest.raises(CrossCheckFailure) as info:
        check_routes([("concurrence", 1.0, 1.1)])
    assert info.value.index == 0
    with pytest.raises(CrossCheckFailure):
        check_routes([("concurrence", np.nan, np.nan)])


def test_range_violation_reporting():
    from qcorr import CorrelationSet

    good = CorrelationSet(0.1, 0.05, 0.14, 0.2, 0.3, 0.3, 0.3)
    assert good.range_violation() is None
    bad = CorrelationSet(1.5, 0.05, 0.14, 0.2, 0.3, 0.3, 0.3)
    assert "concurrence" in bad.range_violation()


def test_range_ends_are_inside_the_range():
    from qcorr import CorrelationSet

    # every field exactly at each end of its range, and within RANGE_TOL past it
    lo = CorrelationSet(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    hi = CorrelationSet(1.0, 0.5, 1.0, 1.0, 1e300, 1e300, 1e300)
    past = CorrelationSet(1.0 + 5e-10, 0.5 + 5e-10, 1.0 + 5e-10, 1.0 + 5e-10, 0.0, 0.0, -5e-10)
    at = CorrelationSet(1.0 + RANGE_TOL, 0.5 + RANGE_TOL, 1.0 + RANGE_TOL, 1.0 + RANGE_TOL,
                        -RANGE_TOL, -RANGE_TOL, -RANGE_TOL)
    for cs in (lo, hi, past, at):
        assert cs.range_violation() is None
    # the next double beyond RANGE_TOL past either end is outside
    assert CorrelationSet(np.nextafter(1.0 + RANGE_TOL, 2.0), 0.0, 0.0, 0.0, 0.0, 0.0,
                          0.0).range_violation().startswith("concurrence = ")
    assert CorrelationSet(0.0, 0.0, 0.0, 0.0, np.nextafter(-RANGE_TOL, -1.0), 0.0,
                          0.0).range_violation().startswith("min_trace = ")
    assert CorrelationSet(1.0 + 2e-9, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0).range_violation() == (
        f"concurrence = {1.0 + 2e-9!r} outside [0.0, 1.0]")
    assert CorrelationSet(0.0, 0.0, 0.0, -2e-9, 0.0, 0.0, 0.0).range_violation() == (
        "lqu = -2e-09 outside [0.0, 1.0]")


def test_correlations_cross_checks_pass_on_round_off_rank_one_outer_blocks():
    # the near-rank-one states of the concurrence fix, through the block square
    # root and the block spin-flip product: one stack, then one state at a time
    rng = np.random.default_rng(2027)
    xs = [random_rank_one_x_state(rng) for _ in range(200)]
    stack = np.array([x.to_matrix() for x in xs])
    cs = correlations(stack)  # raises CrossCheckFailure on a miss above 1e-8
    general = concurrence_general(stack)
    closed = concurrence_x(x_columns(stack))
    assert np.abs(general - closed).max() < 1e-8
    np.testing.assert_array_equal(cs.concurrence, closed)
    for k, rho in enumerate(stack[:50]):
        assert correlations(rho).concurrence == cs.concurrence[k]


# ---------------------------------------------------------------------- invariants

def test_bound_chains_on_random_states():
    rng = np.random.default_rng(167)
    for _ in range(300):
        x = random_x_state(rng)
        rho = x.to_matrix()
        c = concurrence_x(x)
        n = negativity(rho)
        lo, hi = concurrence_negativity_bounds(c)
        assert n >= lo - 1e-10 and n <= hi + 1e-10
        llo, lhi = concurrence_log_negativity_bounds(c)
        ln = log_negativity(rho)
        assert ln >= llo - 1e-10 and ln <= lhi + 1e-10
    for rank in (1, 2, 3, 4):
        for _ in range(100):
            rho = random_density_matrix(rng, rank)
            c = concurrence_general(rho)
            n = negativity(rho)
            lo, hi = concurrence_negativity_bounds(c)
            assert n >= lo - 1e-10 and n <= hi + 1e-10, rank
            llo, lhi = concurrence_log_negativity_bounds(c)
            ln = log_negativity(rho)
            assert ln >= llo - 1e-10 and ln <= lhi + 1e-10, rank


def test_measures_invariant_under_phase_removal():
    rng = np.random.default_rng(173)
    for _ in range(100):
        x = random_x_state(rng)
        flat = valid_x(x.rho11, x.rho22, x.rho33, x.rho44,
                       abs(x.rho14), abs(x.rho23))
        assert concurrence_x(flat) == concurrence_x(x)
        assert min_trace(flat) == min_trace(x)
        assert correlated_coherence(flat) == correlated_coherence(x)
        assert lqu_x(flat) == pytest.approx(lqu_x(x), abs=1e-8)
        assert negativity(flat.to_matrix()) == pytest.approx(
            negativity(x.to_matrix()), abs=1e-8
        )


_FRACTION = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))  # 1: a rank-one block


@settings(max_examples=300, deadline=None)
@given(pops=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=4, max_size=4)
       .filter(lambda p: sum(p) > 1e-3),
       f14=_FRACTION, f23=_FRACTION,
       ph14=st.floats(0.0, 2.0 * np.pi), ph23=st.floats(0.0, 2.0 * np.pi))
def test_negativity_closed_form_matches_partial_transpose(pops, f14, f23, ph14, ph23):
    p = np.array(pops) / sum(pops)
    x = valid_x(p[0], p[1], p[2], p[3],
                f14 * np.sqrt(p[0] * p[3]) * np.exp(1j * ph14),
                f23 * np.sqrt(p[1] * p[2]) * np.exp(1j * ph23))
    assert abs(negativity_x(x) - negativity(x.to_matrix())) <= 1e-12


def test_negativity_closed_form_broadcasts_over_a_stack():
    rng = np.random.default_rng(331)
    # the product state |01><01| last: its smallest partial-transpose eigenvalue is 0
    product = make_mixture(1.0).to_matrix()
    mats = np.array([random_x_state(rng).to_matrix() for _ in range(50)] + [product])
    np.testing.assert_allclose(negativity_x(x_columns(mats)), negativity(mats), rtol=0, atol=1e-12)
    assert correlations(mats).negativity.tolist() == negativity_x(x_columns(mats)).tolist()
    # a zero negativity is +0.0, which the CSV writes as 0, not -0
    for neg in (negativity_x(x_columns(mats)), negativity(mats), correlations(mats).negativity,
                negativity_x(x_columns(product)), negativity(product),
                correlations(product).negativity):
        assert not np.signbit(neg).any()


def test_range_violation_names_the_first_failing_row_of_a_stack():
    from qcorr import CorrelationSet

    ok = np.full(4, 0.3)
    assert CorrelationSet(ok, ok / 2, ok, ok, ok, ok, ok).range_violation() is None
    conc = np.array([0.3, 0.3, 0.3, 1.5])
    lqu_col = np.array([0.3, 0.3, np.nan, 2.0])
    bad = CorrelationSet(conc, ok / 2, ok, lqu_col, ok, ok, ok)
    assert bad.range_violation(lambda k: f"row {k}") == "row 2: lqu = nan outside [0.0, 1.0]"
    assert bad.range_violation() == "lqu = nan outside [0.0, 1.0]"
    unbounded = CorrelationSet(ok, ok / 2, ok, ok, np.array([0.3, np.inf, 0.3, 0.3]), ok, ok)
    assert unbounded.range_violation(str) == "1: min_trace = inf outside [0.0, inf]"
