"""Spin operators, Hamiltonian structure and parameter validation."""

import numpy as np
import pytest

from qcorr import (
    DomainError,
    ModelParams,
    WeakCouplingWarning,
    hamiltonian,
    hermitian_eigensystem,
    make_werner,
    spin_lowering,
    spin_raising,
)


def test_lowering_sends_00_to_10():
    ket00 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    out = spin_lowering(1) @ ket00
    np.testing.assert_array_equal(out, [0.0, 0.0, 1.0, 0.0])
    out_b = spin_lowering(2) @ ket00
    np.testing.assert_array_equal(out_b, [0.0, 1.0, 0.0, 0.0])


def test_lowering_nilpotent_and_commuting():
    for q in (1, 2):
        s = spin_lowering(q)
        assert np.abs(s @ s).max() == 0.0
    s1, s2 = spin_lowering(1), spin_lowering(2)
    assert np.abs(s1 @ s2 - s2 @ s1).max() == 0.0
    assert np.array_equal(spin_raising(1), spin_lowering(1).conj().T)


def test_invalid_qubit_index():
    with pytest.raises(DomainError):
        spin_lowering(3)


def test_free_hamiltonian_is_field_term():
    h = hamiltonian(ModelParams(j=0.0, delta=0.0, omega=1.0, gamma=0.0))
    np.testing.assert_array_equal(h, np.diag([1.0, 0.0, 0.0, -1.0]).astype(complex))


def test_hamiltonian_structure_and_exact_hermiticity():
    p = ModelParams(j=0.07, delta=0.21, omega=1.3, gamma=0.0)
    h = hamiltonian(p)
    assert np.array_equal(h, h.conj().T)
    assert h[0, 3] == p.delta and h[1, 2] == p.j
    assert h[0, 0] == p.omega and h[3, 3] == -p.omega
    assert h[1, 1] == 0.0 and h[2, 2] == 0.0


def test_spectrum_is_pm_j_and_pm_omega():
    rng = np.random.default_rng(31)
    for _ in range(20):
        j, d = rng.uniform(-0.5, 0.5, size=2)
        w = rng.uniform(0.5, 2.0)
        p = ModelParams(j=j, delta=d, omega=w, gamma=0.0)
        lam = hermitian_eigensystem(hamiltonian(p)).eigenvalues
        expected = np.sort([j, -j, p.big_omega, -p.big_omega])
        np.testing.assert_allclose(lam, expected, atol=1e-12)


def test_reference_spectrum():
    p = ModelParams(j=0.1, delta=0.5, omega=1.0, gamma=0.0)
    lam = hermitian_eigensystem(hamiltonian(p)).eigenvalues
    root = np.sqrt(1.25)
    np.testing.assert_allclose(lam, [-root, -0.1, 0.1, root], atol=1e-12)
    assert p.big_omega == pytest.approx(1.118033988749895, abs=1e-15)


def test_werner_commutes_with_hamiltonian():
    p = ModelParams(j=0.1, delta=0.5, omega=1.0, gamma=0.0)
    h = hamiltonian(p)
    for pw in (-1.0 / 3.0, 0.0, 0.3, 0.7, 1.0):
        rho = make_werner(pw).to_matrix()
        assert np.abs(h @ rho - rho @ h).max() <= 1e-12


def test_params_validation():
    with pytest.raises(DomainError):
        ModelParams(omega=0.0)
    with pytest.raises(DomainError):
        ModelParams(gamma=-0.1)
    with pytest.raises(DomainError):
        ModelParams(nbar=-0.5)


def test_big_omega_recomputed():
    p = ModelParams(j=0.0, delta=0.5, omega=1.0, gamma=0.0)
    assert p.big_omega == pytest.approx(np.sqrt(1.25), abs=1e-15)
    assert p.big_omega**2 == pytest.approx(p.delta**2 + p.omega**2, abs=1e-15)


def test_big_omega_broadcasts_over_array_fields():
    delta = np.array([0.1, 0.2])
    np.testing.assert_array_equal(ModelParams(delta=delta).big_omega, np.hypot(delta, 1.0))


def test_strong_coupling_warns():
    with pytest.warns(WeakCouplingWarning) as caught:
        ModelParams(j=0.6, delta=0.0, omega=1.0, gamma=0.1)
    assert caught[0].filename == __file__  # the line that built the params
    with pytest.warns(UserWarning):
        ModelParams(j=0.0, delta=0.7, omega=1.0, gamma=0.1)


def test_array_fields_are_checked_element_by_element():
    ModelParams(nbar=np.linspace(0.0, 1.0, 5), delta=np.array([0.1, -0.2, 0.3, 0.0, 0.5]))
    with pytest.raises(DomainError, match=r"^nbar must be non-negative, got -1.0$"):
        ModelParams(nbar=np.array([0.0, -1.0, -2.0]))
    with pytest.raises(DomainError, match=r"^delta must be finite, got nan$"):
        ModelParams(delta=np.array([0.1, np.nan]))
    with pytest.raises(DomainError, match=r"^omega must be positive, got 0.0$"):
        ModelParams(omega=np.array([1.0, 0.0]), delta=0.0, j=0.0)


def test_params_with_array_fields_compare_elementwise():
    nbar = np.array([0.0, 1.0])
    assert ModelParams(nbar=nbar) == ModelParams(nbar=nbar.copy())
    assert ModelParams(nbar=nbar) != ModelParams(nbar=np.array([0.0, 2.0]))
    assert ModelParams(nbar=nbar) != ModelParams(nbar=np.array([0.0, 1.0, 2.0]))
    assert ModelParams(delta=np.array([0.5])) != ModelParams(delta=0.5)
    assert ModelParams(nbar=np.array([0.0, 0.0])) != ModelParams(nbar=0.0)
    with pytest.raises(TypeError):
        hash(ModelParams(nbar=nbar))


def test_params_with_scalar_fields_compare_and_hash_as_before():
    assert ModelParams() == ModelParams(j=0.1, delta=0.5, omega=1.0, gamma=0.1, nbar=0.0)
    assert ModelParams(gamma=1) == ModelParams(gamma=1.0)
    assert ModelParams() != ModelParams(j=0.2)
    assert hash(ModelParams()) == hash(ModelParams())
    assert ModelParams() != (0.1, 0.5, 1.0, 0.1, 0.0)
