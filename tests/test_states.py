"""X-state construction, validation, Dicke transform and serialization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from helpers import from_dicke, random_x_state
from qcorr import (
    DomainError,
    ModelParams,
    NotHermitian,
    NotPSD,
    TraceNotOne,
    XColumns,
    analytic_mixture,
    dumps_density_matrix,
    evolve,
    hermitian_eigenvalues,
    is_x_shaped,
    loads_density_matrix,
    make_mixture,
    make_werner,
    purity,
    to_dicke,
    trace_out_a,
    trace_out_b,
    l1_coherence,
    validate,
)
from qcorr.states import TRACE_TOL, x_columns


def test_validate_accepts_maximally_mixed():
    validate(np.eye(4, dtype=complex) / 4.0)


def test_validate_trace_error():
    with pytest.raises(TraceNotOne):
        validate(np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex))


def test_validate_trace_bound_is_inclusive():
    # |trace - 1| = TRACE_TOL exactly, as the imaginary part of the trace (the
    # real part of a trace near 1 cannot differ from 1 by exactly TRACE_TOL);
    # one ulp of real part on top puts it past the bound
    at = np.diag([0.25 + 0.25j * TRACE_TOL] * 4)
    assert abs(np.trace(at) - 1.0) == TRACE_TOL
    validate(at)
    past = at.copy()
    past[0, 0] += 2.0**-52
    with pytest.raises(TraceNotOne):
        validate(past)


def test_validate_positivity_error():
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 0] = bad[3, 3] = 0.25
    bad[1, 1] = 0.5
    bad[0, 3] = bad[3, 0] = 0.6
    with pytest.raises(NotPSD):
        validate(bad)
    with pytest.raises(NotPSD):
        evolve(XColumns(0.25, 0.5, 0.0, 0.25, 0.6, 0.0).to_matrix(), ModelParams(), t_max=0.0)


def test_validate_hermiticity_error():
    bad = np.eye(4, dtype=complex) / 4.0
    bad[0, 1] = 0.1
    with pytest.raises(NotHermitian):
        validate(bad)


def test_validate_rejects_non_finite_entry():
    bad = np.eye(4, dtype=complex) / 4.0
    bad[1, 1] = np.nan
    with pytest.raises(NotHermitian, match="not finite"):
        validate(bad)


@pytest.mark.parametrize("entries, error", [
    ((np.nan, 0.5, 0.0, 0.5, 0.0, 0.0), NotHermitian),
    ((np.inf, 0.5, 0.0, 0.5, 0.0, 0.0), NotHermitian),
    ((0.01, 0.49, 0.49, 0.01, 0.01 + 4e-9, 0.0), NotPSD),  # lambda_min = -4e-9
    ((0.25 + 2e-10, 0.25, 0.25, 0.25, 0.0, 0.0), TraceNotOne),
    ((0.5, 0.0, 0.0, 0.5, 0.5, 0.0), None),  # rank-one Bell block
])
def test_x_state_rejects_what_validate_rejects(entries, error):
    rho = np.zeros((4, 4), dtype=complex)
    rho[[0, 1, 2, 3], [0, 1, 2, 3]] = entries[:4]
    rho[0, 3], rho[1, 2] = entries[4], entries[5]
    rho[3, 0], rho[2, 1] = np.conj(entries[4]), np.conj(entries[5])
    if error is None:
        validate(rho)
        start = evolve(XColumns(*entries).to_matrix(), ModelParams(), t_max=0.0).states[0]
        np.testing.assert_array_equal(start, rho)
        return
    with pytest.raises(error):
        validate(rho)
    with pytest.raises(error):
        evolve(XColumns(*entries).to_matrix(), ModelParams(), t_max=0.0)


def test_is_x_shaped():
    for p in (-1.0 / 3.0, 0.0, 0.5, 1.0):
        assert is_x_shaped(make_werner(p).to_matrix())
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    zero = np.array([1.0, 0.0])
    psi = np.kron(plus, zero)
    rho = np.outer(psi, psi).astype(complex)
    assert rho[0, 2] == pytest.approx(0.5)
    assert not is_x_shaped(rho)


def test_evolved_mixture_stays_x_shaped():
    p = ModelParams(j=0.1, delta=0.5, gamma=0.1)
    for t in (0.0, 0.7, 3.3, 12.0, 40.0):
        assert is_x_shaped(analytic_mixture(t, p).to_matrix())


# (dtype, elements) of the populations and of the two coherences
_X_FIELDS = ([(float, st.floats(-1.0, 1.0))] * 4
             + [(complex, st.complex_numbers(max_magnitude=1.0))] * 2)


@settings(max_examples=100, deadline=None)
@given(hnp.mutually_broadcastable_shapes(num_shapes=6, max_dims=3, max_side=3), st.data())
def test_x_columns_inverts_to_matrix_on_broadcast_shapes(shapes, data):
    cols = XColumns(*(data.draw(hnp.arrays(dtype, shape, elements=elements))
                      for (dtype, elements), shape in zip(_X_FIELDS, shapes.input_shapes)))
    back = x_columns(cols.to_matrix())
    for got, want in zip(back, np.broadcast_arrays(*cols)):
        assert got.shape == shapes.result_shape
        np.testing.assert_array_equal(got, want)


def test_is_x_shaped_rejects_off_pattern():
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 1] = rho[1, 0] = 0.05
    assert not is_x_shaped(rho)


@pytest.mark.parametrize("entry, x_shaped", [(5e-324, False), (-5e-324j, False), (-0.0, True),
                                             (complex(-0.0, -0.0), True)])
def test_is_x_shaped_means_exact_zeros_off_the_pattern(entry, x_shaped):
    # the X closed forms ignore the entries off the pattern, so the least
    # subnormal there makes a matrix non-X, while a negative zero is a zero
    off_x = np.argwhere(~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]))
    stack = np.repeat(make_werner(0.3).to_matrix()[None], len(off_x), axis=0)
    for k, (i, j) in enumerate(off_x):
        stack[k, i, j] = entry
        assert is_x_shaped(stack[k]) == x_shaped
    np.testing.assert_array_equal(is_x_shaped(stack), x_shaped)


def test_dicke_of_single_excitation():
    d = to_dicke(XColumns(0.0, 1.0, 0.0, 0.0, 0.0, 0.0))
    assert d.ss == pytest.approx(0.5)
    assert d.aa == pytest.approx(0.5)
    assert d.sa == pytest.approx(0.5 + 0.0j)


def test_dicke_of_thermal_diagonal_state():
    nb = 0.8
    k = (2 * nb + 1) ** 2
    x = XColumns(nb**2 / k, nb * (nb + 1) / k, nb * (nb + 1) / k, (nb + 1) ** 2 / k, 0.0, 0.0)
    d = to_dicke(x)
    assert d.ss == pytest.approx(nb * (nb + 1) / k, abs=1e-15)
    assert d.aa == pytest.approx(d.ss, abs=1e-15)
    assert d.sa == 0.0 and d.eg == 0.0


def test_dicke_round_trip_and_spectrum():
    rng = np.random.default_rng(41)
    for _ in range(30):
        x = random_x_state(rng)
        back = from_dicke(to_dicke(x))
        for name in ("rho11", "rho22", "rho33", "rho44", "rho14", "rho23"):
            assert abs(getattr(back, name) - getattr(x, name)) <= 1e-14
        d = to_dicke(x)
        dicke_mat = np.zeros((4, 4), dtype=complex)
        dicke_mat[0, 0], dicke_mat[1, 1] = d.ee, d.gg
        dicke_mat[0, 1], dicke_mat[1, 0] = d.eg, np.conj(d.eg)
        dicke_mat[2, 2], dicke_mat[3, 3] = d.ss, d.aa
        dicke_mat[2, 3], dicke_mat[3, 2] = d.sa, np.conj(d.sa)
        lam_x = hermitian_eigenvalues(x.to_matrix())
        lam_d = hermitian_eigenvalues(dicke_mat)
        np.testing.assert_allclose(lam_x, lam_d, atol=1e-13)
        assert d.ee + d.gg + d.ss + d.aa == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=hnp.array_shapes(max_dims=2, max_side=8))
def test_partial_traces_equal_the_np_trace_forms_bit_for_bit(seed, shape):
    # entries of magnitude 1e-8 to 1e8 with random signs, and some -0.0
    rng = np.random.default_rng(seed)
    size = (2,) + shape + (4, 4)
    parts = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-8.0, 8.0, size)
    parts[rng.random(size) < 0.1] = -0.0
    rho = parts[0] + 1j * parts[1]
    blocks = rho.reshape(shape + (2, 2, 2, 2))
    assert trace_out_b(rho).tobytes() == np.trace(blocks, axis1=-3, axis2=-1).tobytes()
    assert trace_out_a(rho).tobytes() == np.trace(blocks, axis1=-4, axis2=-2).tobytes()


def test_reduced_states():
    w1 = make_werner(1.0).to_matrix()
    np.testing.assert_allclose(trace_out_b(w1), np.diag([0.5, 0.5]), atol=1e-15)
    np.testing.assert_allclose(trace_out_a(w1), np.diag([0.5, 0.5]), atol=1e-15)
    mix = make_mixture(0.5).to_matrix()
    np.testing.assert_allclose(trace_out_b(mix), np.diag([0.75, 0.25]), atol=1e-15)
    np.testing.assert_allclose(trace_out_a(mix), np.diag([0.25, 0.75]), atol=1e-15)
    rng = np.random.default_rng(43)
    for _ in range(10):
        rho = random_x_state(rng).to_matrix()
        assert l1_coherence(trace_out_b(rho)) == 0.0
        assert l1_coherence(trace_out_a(rho)) == 0.0
        assert np.trace(trace_out_b(rho)).real == pytest.approx(1.0, abs=1e-12)


def test_purity():
    assert purity(make_werner(1.0).to_matrix()) == pytest.approx(1.0, abs=1e-14)
    assert purity(make_werner(0.0).to_matrix()) == pytest.approx(0.25, abs=1e-14)
    assert purity(np.eye(4) / 4.0) == pytest.approx(0.25, abs=1e-15)
    assert purity(make_mixture(0.5).to_matrix()) == pytest.approx(0.5, abs=1e-14)
    for p in (0.2, 0.6, 0.9):
        assert purity(make_werner(p).to_matrix()) == pytest.approx((1 + 3 * p * p) / 4, abs=1e-14)
    for w in (0.1, 0.4, 0.8):
        assert purity(make_mixture(w).to_matrix()) == pytest.approx(1 - 2 * w * (1 - w), abs=1e-14)


def test_make_mixture():
    mix = make_mixture(0.5)
    assert (mix.rho11, mix.rho22, mix.rho33, mix.rho44) == (0.25, 0.5, 0.0, 0.25)
    assert mix.rho14 == 0.25 and mix.rho23 == 0.0
    pure = make_mixture(1.0).to_matrix()
    np.testing.assert_array_equal(pure, np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex))
    with pytest.raises(DomainError):
        make_mixture(-0.01)
    with pytest.raises(DomainError):
        make_mixture(1.01)


def test_make_mixture_bell_limit():
    from qcorr import concurrence_x

    bell = make_mixture(0.0)
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    np.testing.assert_allclose(bell.to_matrix(), np.outer(psi, psi), atol=1e-15)
    assert concurrence_x(bell) == pytest.approx(1.0, abs=1e-15)


def test_generic_partial_traces_against_einsum():
    from qcorr import trace_out_a, trace_out_b
    from helpers import random_density_matrix

    rng = np.random.default_rng(53)
    for _ in range(10):
        rho = random_density_matrix(rng)
        r = rho.reshape(2, 2, 2, 2)
        np.testing.assert_allclose(trace_out_b(rho), np.einsum("ikjk->ij", r), atol=1e-15)
        np.testing.assert_allclose(trace_out_a(rho), np.einsum("ikil->kl", r), atol=1e-15)
        assert np.trace(trace_out_b(rho)).real == pytest.approx(1.0, abs=1e-12)


def test_make_werner():
    np.testing.assert_allclose(make_werner(0.0).to_matrix(), np.eye(4) / 4.0, atol=1e-15)
    singlet = np.zeros((4, 4), dtype=complex)
    singlet[1, 1] = singlet[2, 2] = 0.5
    singlet[1, 2] = singlet[2, 1] = -0.5
    np.testing.assert_allclose(make_werner(1.0).to_matrix(), singlet, atol=1e-15)
    with pytest.raises(DomainError):
        make_werner(-0.4)
    with pytest.raises(DomainError):
        make_werner(1.1)


def test_constructors_valid_over_domain():
    for w in np.linspace(0.0, 1.0, 21):
        validate(make_mixture(w).to_matrix())
    for p in np.linspace(-1.0 / 3.0, 1.0, 21):
        validate(make_werner(p).to_matrix())


def test_serialization_round_trip():
    rng = np.random.default_rng(47)
    x = random_x_state(rng)
    text = dumps_density_matrix(x.to_matrix())
    assert len(text.splitlines()) == 4
    back = loads_density_matrix(text)
    np.testing.assert_array_equal(back, x.to_matrix())


def test_serialization_rejects_malformed():
    with pytest.raises(ValueError):
        loads_density_matrix("1+0i 0+0i\n")
    good = dumps_density_matrix(np.eye(4) / 4.0)
    with pytest.raises(ValueError):
        loads_density_matrix(good.replace("i", ""))
