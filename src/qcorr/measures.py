"""Quantum-correlation and coherence quantifiers for two-qubit states.

Every measure comes in two flavours where that makes sense: a
general-definition route valid for any density matrix, and an X-state
closed form. ``correlations`` evaluates all seven quantities and, by
default, cross-checks the two routes against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import CrossCheckFailure
from .linalg import hermitian_eigensystem, partial_transpose_b, psd_sqrt, trace_norm
from .model import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z
from .states import (
    X_SHAPE_TOL,
    DickeState,
    XState,
    is_x_shaped,
    to_dicke,
    trace_out_a,
    trace_out_b,
)

X_BRANCH_TOL = 1e-9  # |x| below this uses the balanced-marginal MIN branch

_SIGMA_YY = np.kron(SIGMA_Y, SIGMA_Y)
_PAULI_A = (
    np.kron(SIGMA_X, IDENTITY_2),
    np.kron(SIGMA_Y, IDENTITY_2),
    np.kron(SIGMA_Z, IDENTITY_2),
)


@dataclass(frozen=True)
class CorrelationSet:
    """All correlation/coherence quantifiers evaluated on one state."""

    concurrence: float
    negativity: float
    log_negativity: float
    lqu: float
    min_trace: float
    correlated_coherence: float
    l1_coherence: float

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(getattr(self, f.name) for f in fields(self))

    def range_violation(self, tol: float = 1e-9) -> str | None:
        """Name the first field outside its allowed range, or None."""
        bounds = {
            "concurrence": (0.0, 1.0),
            "negativity": (0.0, 0.5),
            "log_negativity": (0.0, 1.0),
            "lqu": (0.0, 1.0),
            "min_trace": (0.0, None),
            "correlated_coherence": (0.0, None),
            "l1_coherence": (0.0, None),
        }
        for name, (lo, hi) in bounds.items():
            val = getattr(self, name)
            if val < lo - tol or (hi is not None and val > hi + tol):
                return f"{name} = {val!r} outside [{lo}, {hi}]"
        return None


@dataclass(frozen=True)
class WMatrix:
    """Nonzero entries of the symmetric 3x3 skew-information matrix of an X state."""

    w11: float
    w22: float
    w33: float
    w12: float


# ---------------------------------------------------------------------------
# concurrence


def concurrence_general(rho) -> float:
    """Concurrence from the spin-flip construction.

    Computes max{0, l1 - l2 - l3 - l4} where the l_i are the descending
    square roots of the eigenvalues of S = sqrt(rho) rho~ sqrt(rho) and
    rho~ = (sy ox sy) rho* (sy ox sy). Eigenvalues of S are clamped at zero
    before the square root to absorb round-off.
    """
    rho = np.asarray(rho, dtype=complex)
    return _concurrence_from_sqrt(rho, psd_sqrt(rho), clamp=True)


def concurrence_signed(rho) -> float:
    """l1 - l2 - l3 - l4 without the final clamp; negative for separable states.

    Useful for locating entanglement death/rebirth times by sign change.
    """
    rho = np.asarray(rho, dtype=complex)
    return _concurrence_from_sqrt(rho, psd_sqrt(rho), clamp=False)


def _concurrence_from_sqrt(rho, sqrt_rho, clamp: bool) -> float:
    rho_tilde = _SIGMA_YY @ rho.conj() @ _SIGMA_YY
    s_mat = sqrt_rho @ rho_tilde @ sqrt_rho
    s_mat = (s_mat + s_mat.conj().T) / 2.0
    lam = np.sqrt(np.clip(hermitian_eigensystem(s_mat).eigenvalues, 0.0, None))
    diff = float(lam[3] - lam[2] - lam[1] - lam[0])
    return max(0.0, diff) if clamp else diff


def concurrence_branches(x: XState) -> tuple[float, float]:
    """The two competing branches C1 (two-photon) and C2 (one-photon), unclamped."""
    c1 = 2.0 * (abs(x.rho14) - np.sqrt(max(x.rho22 * x.rho33, 0.0)))
    c2 = 2.0 * (abs(x.rho23) - np.sqrt(max(x.rho11 * x.rho44, 0.0)))
    return float(c1), float(c2)


def concurrence_x(x: XState) -> float:
    """Closed-form X-state concurrence max{0, C1, C2}."""
    return max(0.0, *concurrence_branches(x))


def concurrence_dicke(d: DickeState) -> float:
    """Concurrence from the collective-basis populations and coherences."""
    c1 = 2.0 * (
        abs(d.eg) - np.sqrt(max((0.5 * (d.ss + d.aa)) ** 2 - d.sa.real**2, 0.0))
    )
    c2 = 2.0 * (
        np.hypot(0.5 * (d.ss - d.aa), d.sa.imag) - np.sqrt(max(d.ee * d.gg, 0.0))
    )
    return max(0.0, float(c1), float(c2))


# ---------------------------------------------------------------------------
# negativity


def negativity(rho) -> float:
    """max{0, -lambda_min} of the partial transpose (at most one eigenvalue
    of the partial transpose of a two-qubit state is negative)."""
    lam = hermitian_eigensystem(partial_transpose_b(rho)).eigenvalues
    return max(0.0, float(-lam[0]))


def negativity_trace_norm(rho) -> float:
    """(||rho^TB||_1 - 1)/2; equals ``negativity`` and serves as its cross-check."""
    return (trace_norm(partial_transpose_b(rho)) - 1.0) / 2.0


def log_negativity(rho) -> float:
    """log2(||rho^TB||_1) = log2(2 N + 1)."""
    return float(np.log2(2.0 * negativity(rho) + 1.0))


def concurrence_negativity_bounds(c: float) -> tuple[float, float]:
    """Lower/upper bounds on the negativity of a state with concurrence c."""
    lo = (np.sqrt((1.0 - c) ** 2 + c**2) - (1.0 - c)) / 2.0
    return float(lo), c / 2.0


def concurrence_log_negativity_bounds(c: float) -> tuple[float, float]:
    """Lower/upper bounds on the log-negativity of a state with concurrence c."""
    lo = np.log2(np.sqrt((1.0 - c) ** 2 + c**2) + c)
    return float(lo), float(np.log2(c + 1.0))


# ---------------------------------------------------------------------------
# local quantum uncertainty


def _w_matrix_general(sqrt_rho: np.ndarray) -> np.ndarray:
    prods = [sqrt_rho @ op for op in _PAULI_A]
    w = np.empty((3, 3))
    for i in range(3):
        for j in range(i, 3):
            w[i, j] = w[j, i] = float(np.trace(prods[i] @ prods[j]).real)
    return w


def lqu(rho) -> float:
    """Local quantum uncertainty 1 - lambda_max(W) for measurements on qubit A.

    W_ij = tr( sqrt(rho) sigma_i^(A) sqrt(rho) sigma_j^(A) ) is real symmetric;
    the result is clamped into [0, 1] against round-off.
    """
    return _lqu_from_sqrt(psd_sqrt(rho))


def _lqu_from_sqrt(sqrt_rho: np.ndarray) -> float:
    lam_max = hermitian_eigensystem(_w_matrix_general(sqrt_rho)).eigenvalues[-1]
    return float(min(1.0, max(0.0, 1.0 - float(lam_max))))


def _sqrt_psd_2x2(a: float, d: float, b: complex) -> tuple[float, float, complex]:
    """Square root of the PSD 2x2 Hermitian [[a, b], [b*, d]] via Cayley-Hamilton."""
    det = max(a * d - (b.real**2 + b.imag**2), 0.0)
    s = np.sqrt(det)
    tau_sq = a + d + 2.0 * s
    if tau_sq <= 0.0:
        return 0.0, 0.0, 0.0 + 0.0j
    tau = np.sqrt(tau_sq)
    return (a + s) / tau, (d + s) / tau, b / tau


def sqrt_x_entries(x: XState) -> tuple[float, float, float, float, complex, complex]:
    """Entries (m11, m22, m33, m44, m14, m23) of sqrt(rho) for an X state.

    The square root inherits the X shape, so it follows from the two 2x2
    blocks in closed form.
    """
    m11, m44, m14 = _sqrt_psd_2x2(x.rho11, x.rho44, x.rho14)
    m22, m33, m23 = _sqrt_psd_2x2(x.rho22, x.rho33, x.rho23)
    return m11, m22, m33, m44, m14, m23


def w_matrix_x(x: XState) -> WMatrix:
    """Closed-form nonzero W entries for an X state; W13 = W23 = 0 by structure."""
    m11, m22, m33, m44, m14, m23 = sqrt_x_entries(x)
    base = 2.0 * (m11 * m33 + m22 * m44)
    cross = m14 * m23
    return WMatrix(
        w11=base + 4.0 * cross.real,
        w22=base - 4.0 * cross.real,
        w33=m11**2 + m22**2 + m33**2 + m44**2
        - 2.0 * (abs(m14) ** 2 + abs(m23) ** 2),
        w12=-4.0 * cross.imag,
    )


def lqu_x(x: XState) -> float:
    """Closed-form X-state LQU: the in-plane W block is diagonalized algebraically."""
    w = w_matrix_x(x)
    lam_plane = 0.5 * (w.w11 + w.w22 + np.hypot(w.w11 - w.w22, 2.0 * w.w12))
    return float(min(1.0, max(0.0, 1.0 - max(float(lam_plane), float(w.w33)))))


# ---------------------------------------------------------------------------
# trace-norm measurement-induced nonlocality


def min_trace(x: XState, x_tol: float = X_BRANCH_TOL) -> float:
    """Trace-norm MIN of an X state.

    With x = rho11 + rho22 - (rho33 + rho44) the invariant measurement on A is
    unique for x != 0 and the MIN equals 2(|rho14| + |rho23|); at x = 0 the
    measurement basis is free and the maximum over bases is max{|u1|,|u2|,|u3|}.
    """
    bal = x.rho11 + x.rho22 - (x.rho33 + x.rho44)
    if abs(bal) > x_tol:
        return 2.0 * (abs(x.rho14) + abs(x.rho23))
    u1 = 2.0 * (abs(x.rho14) + abs(x.rho23))
    u2 = 2.0 * (-abs(x.rho14) + abs(x.rho23))
    u3 = x.rho11 - x.rho22 - x.rho33 + x.rho44
    return max(abs(u1), abs(u2), abs(u3))


def _bloch_basis(theta: float, phi: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    e = np.exp(1j * phi)
    return np.array([[c, -s * np.conj(e)], [s * e, c]], dtype=complex)


def _measurement_disturbance(rho: np.ndarray, basis: np.ndarray) -> float:
    residual = rho.copy()
    for k in range(2):
        v = basis[:, k]
        proj = np.kron(np.outer(v, v.conj()), IDENTITY_2)
        residual = residual - proj @ rho @ proj
    residual = (residual + residual.conj().T) / 2.0
    return trace_norm(residual)


def min_trace_general(rho, degeneracy_tol: float = X_BRANCH_TOL, grid: int = 24) -> float:
    """Trace-norm MIN of an arbitrary two-qubit state.

    When the reduced state of A is non-degenerate its eigenbasis is the only
    locally invariant projective measurement, so the MIN is a single trace
    norm. A degenerate marginal leaves the basis free; then the maximum is
    taken over a Bloch-sphere grid of (theta, phi) bases (accuracy set by
    ``grid``).
    """
    rho = np.asarray(rho, dtype=complex)
    red = trace_out_b(rho)
    es = hermitian_eigensystem(red)
    if es.eigenvalues[1] - es.eigenvalues[0] > degeneracy_tol:
        return _measurement_disturbance(rho, es.eigenvectors)
    best = 0.0
    for theta in np.linspace(0.0, np.pi / 2.0, grid // 2 + 1):
        for phi in np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False):
            best = max(best, _measurement_disturbance(rho, _bloch_basis(theta, phi)))
            if theta == 0.0:
                break  # the pole is one basis regardless of phi
    return best


# ---------------------------------------------------------------------------
# coherence


def l1_coherence(rho) -> float:
    """Sum of the magnitudes of all off-diagonal entries."""
    a = np.abs(np.asarray(rho, dtype=complex)).copy()
    np.fill_diagonal(a, 0.0)
    return float(a.sum())


def correlated_coherence(x: XState) -> float:
    """CC of an X state: the marginals are diagonal, so the whole l1 coherence
    is stored non-locally and CC = 2(|rho14| + |rho23|)."""
    return 2.0 * (abs(x.rho14) + abs(x.rho23))


def correlated_coherence_general(rho) -> float:
    """CC from its definition: global l1 coherence minus both marginal coherences."""
    rho = np.asarray(rho, dtype=complex)
    return (
        l1_coherence(rho)
        - l1_coherence(trace_out_b(rho))
        - l1_coherence(trace_out_a(rho))
    )


# ---------------------------------------------------------------------------
# aggregate


def _cross_check(name: str, closed: float, general: float, tol: float):
    if abs(closed - general) > tol:
        raise CrossCheckFailure(
            f"{name}: closed form {closed!r} vs general definition {general!r} "
            f"differ by {abs(closed - general):.3e} (tolerance {tol:.1e})"
        )


def correlations(
    rho,
    *,
    x_shape_tol: float = X_SHAPE_TOL,
    x_tol: float = X_BRANCH_TOL,
    cross_check: bool = True,
) -> CorrelationSet:
    """Evaluate all seven quantifiers on a valid density matrix.

    X-shaped inputs (within ``x_shape_tol``) use the closed forms and, when
    ``cross_check`` is set, every closed form is compared against its
    general-definition route; disagreement raises CrossCheckFailure. Other
    inputs fall back to the general routes throughout.
    """
    rho = np.asarray(rho, dtype=complex)
    neg = negativity(rho)
    logneg = float(np.log2(2.0 * neg + 1.0))
    l1 = l1_coherence(rho)

    if is_x_shaped(rho, x_shape_tol):
        x = XState.from_matrix(rho, tol=x_shape_tol)
        conc = concurrence_x(x)
        unc = lqu_x(x)
        mt = min_trace(x, x_tol=x_tol)
        cc = correlated_coherence(x)
        if cross_check:
            sqrt_rho = psd_sqrt(rho)  # shared by the concurrence and LQU routes
            conc_general = _concurrence_from_sqrt(rho, sqrt_rho, clamp=True)
            _cross_check("concurrence", conc, conc_general, 1e-8)
            _cross_check("concurrence (Dicke basis)", conc, concurrence_dicke(to_dicke(x)), 1e-10)
            _cross_check("negativity", neg, negativity_trace_norm(rho), 1e-10)
            _cross_check("lqu", unc, _lqu_from_sqrt(sqrt_rho), 1e-8)
            _cross_check("correlated coherence", cc, correlated_coherence_general(rho), 1e-10)
            if abs(x.rho11 + x.rho22 - (x.rho33 + x.rho44)) > x_tol:
                _cross_check("min_trace", mt, min_trace_general(rho), 1e-10)
    else:
        conc = concurrence_general(rho)
        unc = lqu(rho)
        mt = min_trace_general(rho)
        cc = correlated_coherence_general(rho)

    return CorrelationSet(
        concurrence=conc,
        negativity=neg,
        log_negativity=logneg,
        lqu=unc,
        min_trace=mt,
        correlated_coherence=cc,
        l1_coherence=l1,
    )
