"""Shared generators for randomized tests; all callers pass a seeded rng."""

import numpy as np

from qcorr import XState


def random_x_state(rng) -> XState:
    """Valid X state: random populations, coherences inside the PSD bounds."""
    pops = rng.random(4) + 0.05
    pops = pops / pops.sum()
    mag14 = np.sqrt(pops[0] * pops[3]) * rng.random()
    mag23 = np.sqrt(pops[1] * pops[2]) * rng.random()
    ph14, ph23 = rng.uniform(0.0, 2.0 * np.pi, size=2)
    return XState(
        pops[0], pops[1], pops[2], pops[3],
        mag14 * np.exp(1j * ph14), mag23 * np.exp(1j * ph23),
    )


def random_balanced_x_state(rng) -> XState:
    """X state with rho11 + rho22 = rho33 + rho44 (the x = 0 MIN branch)."""
    r11 = rng.random() * 0.5
    r22 = 0.5 - r11
    r33 = rng.random() * 0.5
    r44 = 0.5 - r33
    mag14 = np.sqrt(r11 * r44) * rng.random()
    mag23 = np.sqrt(r22 * r33) * rng.random()
    ph14, ph23 = rng.uniform(0.0, 2.0 * np.pi, size=2)
    return XState(r11, r22, r33, r44,
                  mag14 * np.exp(1j * ph14), mag23 * np.exp(1j * ph23))


def random_hermitian(rng, n: int) -> np.ndarray:
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2.0


def random_density_matrix(rng) -> np.ndarray:
    """Generic (non-X) two-qubit density matrix from a Wishart draw."""
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def bell_phi_plus() -> np.ndarray:
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    return np.outer(psi, psi.conj()).astype(complex)


def assert_block_supported(vectors, blocks):
    """Every column is exactly zero outside one of the blocks."""
    for col in vectors.T:
        support = set(np.flatnonzero(col).tolist())
        assert any(support <= set(b) for b in blocks), (support, blocks)
