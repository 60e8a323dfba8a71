"""Physical parameters, spin operators and the two-qubit XY Hamiltonian.

Conventions: hbar = 1; basis {|00>, |01>, |10>, |11>}; |0> is the upper
(excited) single-qubit level, so the lowering operator sends |0> to |1>
and relaxation accumulates population in |11>.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, WeakCouplingWarning, raise_first

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

S_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
S_PLUS = S_MINUS.conj().T
S_Z = SIGMA_Z / 2.0
# the operators that J, Delta and omega multiply in the XY Hamiltonian
_H_J = np.kron(S_PLUS, S_MINUS) + np.kron(S_MINUS, S_PLUS)
_H_DELTA = np.kron(S_PLUS, S_PLUS) + np.kron(S_MINUS, S_MINUS)
_H_OMEGA = np.kron(S_Z, IDENTITY_2) + np.kron(IDENTITY_2, S_Z)

# The 16 Pauli products P[4a + b] = s_a ox s_b (s_0 = 1). A 4x4 Hermitian
# matrix is (1/4) sum_k r_k P_k with real coordinates r_k = tr(M P_k): r_0 is
# the trace, r[4a] (a > 0) the Bloch vector of qubit A, r[4a + b] the
# correlation matrix T_ab.
_PAULI = np.array([np.kron(a, b) for a in (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z)
                   for b in (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z)])
# Row a of P_k has one nonzero entry p (1, -1, i or -i), in column c, so
# tr(P_k M) = sum_a Re(p M[c, a]) sums one signed entry of the (re, im) float
# view of M per row a: index _PICK[a, k] times _PICK_SIGN[a, k].
_PICK_COL = abs(_PAULI).argmax(-1).T
_PICK_P = _PAULI[np.arange(16), np.arange(4)[:, None], _PICK_COL]
_PICK = 2 * (4 * _PICK_COL + np.arange(4)[:, None]) + (_PICK_P.imag != 0.0)
_PICK_SIGN = _PICK_P.real - _PICK_P.imag
_REBUILD = _PAULI.view(float).reshape(16, 32) / 4.0  # (1/4) P_k as (re, im) rows


def _to_pauli(rho) -> np.ndarray:
    """The real coordinates r_k = tr(rho P_k), shape (..., 16), of a 4x4
    matrix or a stack; the real part of the trace for a non-Hermitian input.
    Each r_k sums its four terms left to right, in the order of the rows of P_k."""
    rho = np.ascontiguousarray(rho, dtype=complex)
    flat = rho.view(float).reshape(rho.shape[:-2] + (32,))
    r = flat[..., _PICK[0]] * _PICK_SIGN[0]
    for pick, sign in zip(_PICK[1:], _PICK_SIGN[1:]):
        r += flat[..., pick] * sign
    return r


def _from_pauli(r) -> np.ndarray:
    """The matrices (1/4) sum_k r_k P_k, shape (..., 4, 4), of coordinates
    (..., 16). Real coordinates give exactly Hermitian matrices: the entries
    (i, j) and (j, i) sum the same terms in the same order. A real einsum over
    the (re, im) view, not a BLAS product, which would thread over the rows."""
    r = np.asarray(r, dtype=float)
    flat = np.einsum("...k,kj->...j", r, _REBUILD)
    return flat.view(complex).reshape(r.shape[:-1] + (4, 4))


@dataclass(frozen=True)
class ModelParams:
    """Model parameters, all rates and couplings in units of omega.

    j is the isotropic qubit-qubit coupling, delta the anisotropy, omega the
    field strength (reference scale), gamma the relaxation rate and nbar the
    mean thermal excitation of the bath (0 at zero temperature). Array fields
    make a sweep: the steady-state functions give one value per element.
    """

    j: float = 0.1
    delta: float = 0.5
    omega: float = 1.0
    gamma: float = 0.1
    nbar: float = 0.0

    def __post_init__(self):
        for name, bad, must in (
            *((n, ~np.isfinite(getattr(self, n)), "finite")
              for n in ("j", "delta", "omega", "gamma", "nbar")),
            ("omega", np.less_equal(self.omega, 0.0), "positive"),
            ("gamma", np.less(self.gamma, 0.0), "non-negative"),
            ("nbar", np.less(self.nbar, 0.0), "non-negative"),
        ):
            raise_first(bad, DomainError,
                        lambda k: f"{name} must be {must}, got {np.ravel(getattr(self, name))[k]}")
        if np.any(np.maximum(abs(self.j), abs(self.delta)) > 0.5 * self.omega):
            warnings.warn(
                "coupling beyond the weak-interaction regime (|J| or |Delta|"
                " exceeds omega/2); equations stay exact but the equal-rate"
                " relaxation assumption degrades",
                WeakCouplingWarning,
                stacklevel=3,  # the line that built the params, past the generated __init__
            )

    def __eq__(self, other):
        """Field-wise ``np.array_equal``: sweeps compare too, and fields of different
        shapes differ. Hashing an instance with an array field raises TypeError."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    @property
    def big_omega(self) -> float:
        """Dressed frequency sqrt(delta^2 + omega^2), always recomputed; an
        array over the broadcast fields when delta or omega is one."""
        return np.hypot(self.delta, self.omega)[()]


def spin_lowering(qubit: int) -> np.ndarray:
    """Two-qubit lowering operator S- acting on qubit 1 or 2."""
    if qubit == 1:
        return np.kron(S_MINUS, IDENTITY_2)
    if qubit == 2:
        return np.kron(IDENTITY_2, S_MINUS)
    raise DomainError(f"qubit index must be 1 or 2, got {qubit}")


def spin_raising(qubit: int) -> np.ndarray:
    return spin_lowering(qubit).conj().T


def hamiltonian(params: ModelParams) -> np.ndarray:
    """XY Hamiltonian: J couples |01> and |10>, Delta couples |00> and |11>,
    and the field contributes omega on diag(1, 0, 0, -1).

    The spectrum is {+-J, +-Omega} with Omega = sqrt(delta^2 + omega^2).
    """
    return params.j * _H_J + params.delta * _H_DELTA + params.omega * _H_OMEGA
