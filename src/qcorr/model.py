"""Physical parameters, spin operators and the two-qubit XY Hamiltonian.

Conventions: hbar = 1; basis {|00>, |01>, |10>, |11>}; |0> is the upper
(excited) single-qubit level, so the lowering operator sends |0> to |1>
and relaxation accumulates population in |11>.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import DomainError, FrozenRecord, WeakCouplingWarning, raise_first

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

S_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
S_PLUS = S_MINUS.conj().T
S_Z = SIGMA_Z / 2.0


def _krons(a, b) -> np.ndarray:
    """``np.kron(a[k], b[k])`` of two broadcast stacks of 2x2 matrices, shape
    (..., 4, 4): bit for bit, as np.kron is the same element-wise product."""
    a, b = np.asarray(a), np.asarray(b)
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (4, 4))


# the operators that J, Delta and omega multiply in the XY Hamiltonian
_H_J, _H_DELTA, _H_OMEGA = _krons([[S_PLUS, S_MINUS], [S_PLUS, S_MINUS], [S_Z, IDENTITY_2]],
                                  [[S_MINUS, S_PLUS], [S_PLUS, S_MINUS], [IDENTITY_2, S_Z]]).sum(1)

# The 16 Pauli products P[4a + b] = s_a ox s_b (s_0 = 1). A 4x4 Hermitian
# matrix is (1/4) sum_k r_k P_k with real coordinates r_k = tr(M P_k): r_0 is
# the trace, r[4a] (a > 0) the Bloch vector of qubit A, r[4a + b] the
# correlation matrix T_ab.
_SIGMAS = np.array([IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z])
_PAULI = _krons(_SIGMAS[:, None], _SIGMAS).reshape(16, 4, 4)
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


def _from_pauli(r, coords=slice(None)) -> np.ndarray:
    """The matrices (1/4) sum_k r_k P_k, shape (..., 4, 4), of the coordinates
    k in ``coords`` (all 16 by default; the others are zero). Real coordinates
    give exactly Hermitian matrices: the entries (i, j) and (j, i) sum the same
    terms in the same order, which a real einsum over the (re, im) view keeps
    and a BLAS product's blocked kernels need not."""
    r = np.asarray(r, dtype=float)
    flat = np.einsum("...k,kj->...j", r, _REBUILD[coords])
    return flat.view(complex).reshape(r.shape[:-1] + (4, 4))


class ModelParams(FrozenRecord):
    """Model parameters, all rates and couplings in units of omega.

    j is the isotropic qubit-qubit coupling, delta the anisotropy, omega the
    field strength (reference scale), gamma the relaxation rate and nbar the
    mean thermal excitation of the bath (0 at zero temperature). Array fields
    make a sweep: the steady-state functions give one value per element.
    """

    __match_args__ = ("j", "delta", "omega", "gamma", "nbar")

    def __init__(self, j: float = 0.1, delta: float = 0.5, omega: float = 1.0,
                 gamma: float = 0.1, nbar: float = 0.0) -> None:
        self._set(j=j, delta=delta, omega=omega, gamma=gamma, nbar=nbar)
        for name, bad, must in (
            *((n, ~np.isfinite(getattr(self, n)), "finite") for n in self.__match_args__),
            ("omega", np.less_equal(omega, 0.0), "positive"),
            ("gamma", np.less(gamma, 0.0), "non-negative"),
            ("nbar", np.less(nbar, 0.0), "non-negative"),
        ):
            raise_first(bad, DomainError,
                        lambda k: f"{name} must be {must}, got {np.ravel(getattr(self, name))[k]}")
        if np.any(np.maximum(abs(j), abs(delta)) > 0.5 * omega):
            warnings.warn(
                "coupling beyond the weak-interaction regime (|J| or |Delta|"
                " exceeds omega/2); equations stay exact but the equal-rate"
                " relaxation assumption degrades",
                WeakCouplingWarning,
                stacklevel=2,  # the line that built the params
            )

    @property
    def big_omega(self) -> float:
        """Dressed frequency sqrt(delta^2 + omega^2), always recomputed; an
        array over the broadcast fields when delta or omega is one."""
        return np.hypot(self.delta, self.omega)[()]


def spin_lowering(qubit: int) -> np.ndarray:
    """Two-qubit lowering operator S- acting on qubit 1 or 2."""
    if qubit == 1:
        return _krons(S_MINUS, IDENTITY_2)
    if qubit == 2:
        return _krons(IDENTITY_2, S_MINUS)
    raise DomainError(f"qubit index must be 1 or 2, got {qubit}")


def spin_raising(qubit: int) -> np.ndarray:
    return spin_lowering(qubit).conj().T


def hamiltonian(params: ModelParams) -> np.ndarray:
    """XY Hamiltonian: J couples |01> and |10>, Delta couples |00> and |11>,
    and the field contributes omega on diag(1, 0, 0, -1).

    The spectrum is {+-J, +-Omega} with Omega = sqrt(delta^2 + omega^2).
    """
    return params.j * _H_J + params.delta * _H_DELTA + params.omega * _H_OMEGA
