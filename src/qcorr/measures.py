"""Quantum-correlation and coherence quantifiers for two-qubit states.

Every measure comes in two flavours where that makes sense: a
general-definition route valid for any density matrix, and an X-state
closed form. The general routes broadcast over stacks (..., 4, 4) and the
closed forms over the arrays of ``states.x_columns``. ``correlations`` evaluates
all seven quantities on a state or on a whole stack and cross-checks the two
routes against each other on every X-shaped matrix.

The general concurrence and MIN routes are exact for every state. The
concurrence takes Wootters' lambda_i as the singular values of
sqrt(rho) (sy ox sy) sqrt(rho)* (Wootters, PRL 80, 2245 (1998)), and the
trace-norm MIN is the largest singular value of the correlation matrix T with
the direction of qubit A's Bloch vector projected out (cf. Hu and Fan,
New J. Phys. 17, 033004 (2015)).
"""

from __future__ import annotations

import numpy as np

from .errors import CrossCheckFailure, FrozenRecord, raise_first
from .linalg import (XEntries, _eigenvalues, _hermitian_2x2, _spin_flip_singular_values,
                     _spin_flip_x, hermitian_eigenvalues, partial_transpose_b, psd_sqrt)
from .model import _PAULI, _to_pauli
from .states import (
    DickeColumns,
    XColumns,
    _checked_groups,
    to_dicke,
    trace_out_a,
    trace_out_b,
)

X_BRANCH_TOL = 1e-9  # |x| (|a| for any state) up to this takes the balanced-marginal MIN branch
RANGE_TOL = 1e-9  # slack of CorrelationSet.range_violation at the range ends
# largest |closed form - reference| a cross-check accepts, per measure
CROSS_CHECK_TOL = {"concurrence": 1e-8, "concurrence (Dicke basis)": 1e-10, "negativity": 1e-10,
                   "lqu": 1e-8, "correlated coherence": 1e-10, "min_trace": 1e-10}
_RANGES = {"concurrence": (0.0, 1.0), "negativity": (0.0, 0.5), "log_negativity": (0.0, 1.0),
           "lqu": (0.0, 1.0), "min_trace": (0.0, np.inf), "correlated_coherence": (0.0, np.inf),
           "l1_coherence": (0.0, np.inf)}

_OFF_DIAGONAL = {n: 1.0 - np.eye(n) for n in (2, 4)}
# _W_TABLE[a, c, i, j] = Re tr(P_4a Q_i P_4c Q_j) / 16 (0 or +-1/4), Q_i = s_i ox 1; the
# products P_4a Q_i come first, far cheaper at import than one four-operand einsum
_PAULI_A_PRODUCTS = _PAULI[::4, None] @ _PAULI[4::4]
_W_TABLE = np.einsum("aimn,cjnm->acij", _PAULI_A_PRODUCTS, _PAULI_A_PRODUCTS).real / 16.0
_W_TERMS = [(a, c, _W_TABLE[a, c]) for a in range(4) for c in range(4) if _W_TABLE[a, c].any()]


class CorrelationSet(FrozenRecord):
    """All correlation/coherence quantifiers evaluated on one state (floats)
    or on a stack of states (one array per field)."""

    __match_args__ = ("concurrence", "negativity", "log_negativity", "lqu", "min_trace",
                      "correlated_coherence", "l1_coherence")

    def __init__(self, concurrence: float, negativity: float, log_negativity: float,
                 lqu: float, min_trace: float, correlated_coherence: float,
                 l1_coherence: float) -> None:
        self._set(concurrence=concurrence, negativity=negativity,
                  log_negativity=log_negativity, lqu=lqu, min_trace=min_trace,
                  correlated_coherence=correlated_coherence, l1_coherence=l1_coherence)

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(vars(self).values())  # the fields, in constructor order

    def range_violation(self, where=None) -> str | None:
        """Describe the first field outside its allowed range (NaN and inf
        included), or return None. On a CorrelationSet of arrays the first
        failing row in flat order is described, prefixed by ``where(k)`` of
        its flat index k when given (a time or a swept value)."""
        values = np.array(np.broadcast_arrays(*(np.ravel(getattr(self, n)) for n in _RANGES)))
        lo, hi = np.array(list(_RANGES.values())).T[:, :, None]
        bad = ~(np.isfinite(values) & (values >= lo - RANGE_TOL) & (values <= hi + RANGE_TOL))
        if not bad.any():
            return None
        k = int(bad.any(axis=0).argmax())
        i = int(bad[:, k].argmax())
        name = list(_RANGES)[i]
        text = f"{name} = {float(values[i, k])!r} outside [{lo[i, 0]}, {hi[i, 0]}]"
        return text if where is None else f"{where(k)}: {text}"


# ---------------------------------------------------------------------------
# concurrence


def concurrence_general(rho) -> float:
    """Concurrence from the spin-flip construction.

    Computes max{0, l1 - l2 - l3 - l4} where the l_i are the descending
    singular values of M = sqrt(rho) (sy ox sy) sqrt(rho)*. Since
    M M^dag = sqrt(rho) rho~ sqrt(rho) with rho~ = (sy ox sy) rho* (sy ox sy),
    they are Wootters' square roots of the eigenvalues of that product
    (Wootters, PRL 80, 2245 (1998)), but no square root is taken of a
    round-off eigenvalue.
    """
    return np.maximum(0.0, _concurrence_from_sqrt(psd_sqrt(rho)))


def _concurrence_from_sqrt(sqrt_rho):
    return _wootters(_spin_flip_singular_values(sqrt_rho))


def _wootters(lam):  # l1 - l2 - l3 - l4 of descending lambdas
    return lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3]


def concurrence_branches(x: XColumns) -> tuple[float, float]:
    """The two competing branches C1 (two-photon) and C2 (one-photon), unclamped."""
    c1 = 2.0 * (abs(x.rho14) - np.sqrt(np.maximum(x.rho22 * x.rho33, 0.0)))
    c2 = 2.0 * (abs(x.rho23) - np.sqrt(np.maximum(x.rho11 * x.rho44, 0.0)))
    return c1, c2


def concurrence_x(x: XColumns) -> float:
    """Closed-form X-state concurrence max{0, C1, C2}."""
    return np.maximum(0.0, np.maximum(*concurrence_branches(x)))


def concurrence_dicke(d: DickeColumns) -> float:
    """Concurrence from the collective-basis populations and coherences."""
    c1 = 2.0 * (
        abs(d.eg) - np.sqrt(np.maximum((0.5 * (d.ss + d.aa)) ** 2 - d.sa.real**2, 0.0))
    )
    c2 = 2.0 * (
        np.hypot(0.5 * (d.ss - d.aa), d.sa.imag) - np.sqrt(np.maximum(d.ee * d.gg, 0.0))
    )
    return np.maximum(0.0, np.maximum(c1, c2))


# ---------------------------------------------------------------------------
# negativity


def negativity(rho) -> float:
    """max{0, -lambda_min} of the partial transpose (at most one eigenvalue
    of the partial transpose of a two-qubit state is negative)."""
    return _negativity_from(hermitian_eigenvalues(partial_transpose_b(rho))[..., 0])


def _negativity_from(lam_min):
    return 0.0 - np.minimum(lam_min, 0.0)  # max{0, -lam_min}, and +0.0 (not -0.0) at lam_min = 0


def negativity_x(x: XColumns) -> float:
    """Closed-form X-state negativity: the partial transpose is the X state
    with rho14 and rho23 swapped, so its smallest eigenvalue is the lower one
    of the block (rho11, rho44, rho23) or of (rho22, rho33, rho14)."""
    def lower(a, d, b):  # lower eigenvalue of the Hermitian [[a, b], [b*, d]]
        return 0.5 * (a + d) - np.hypot(0.5 * (a - d), abs(b))

    return _negativity_from(np.minimum(lower(x.rho11, x.rho44, x.rho23),
                                       lower(x.rho22, x.rho33, x.rho14)))


def log_negativity(rho) -> float:
    """log2(||rho^TB||_1) = log2(2 N + 1) of the negativity N."""
    return _log_negativity_from(negativity(rho))


def _log_negativity_from(neg):
    # log2(2 N + 1) as log1p(2 N) / ln 2: log2 of the rounded 2 N + 1 reads 0
    # for N below about 1e-16
    return np.log1p(2.0 * neg) / np.log(2.0)


# ---------------------------------------------------------------------------
# local quantum uncertainty


def _w_matrix_general(sqrt_rho: np.ndarray) -> np.ndarray:
    # W = C : _W_TABLE (see ``lqu``), exact as tr(P_4a+b Q_i P_4c+d Q_j) vanishes unless
    # b = d and does not depend on b; then made exactly symmetric. Both sums are
    # elementwise in a fixed order, so a matrix gets the same W alone as in any stack,
    # which einsum's reduction loops do not promise
    s = _to_pauli(sqrt_rho).reshape(sqrt_rho.shape[:-2] + (4, 4))
    c = sum(s[..., :, None, b] * s[..., None, :, b] for b in range(4))
    w = sum(c[..., a, k, None, None] * table for a, k, table in _W_TERMS)
    return (w + w.swapaxes(-1, -2)) / 2.0


def lqu(rho) -> float:
    """Local quantum uncertainty 1 - lambda_max(W) for measurements on qubit A.

    W_ij = tr( sqrt(rho) sigma_i^(A) sqrt(rho) sigma_j^(A) ) is real symmetric and
    equals sum_ac C_ac L_acij, with the Pauli Gram matrix C = X X^T of sqrt(rho),
    X[a, b] = tr(sqrt(rho) s_a ox s_b), and L_acij = Re tr(P_4a Q_i P_4c Q_j) / 16
    in {0, +-1/4}, Q_i = s_i ox 1. The result is clamped into [0, 1].
    """
    return _lqu_from_sqrt(psd_sqrt(rho))


def _lqu_from_sqrt(sqrt_rho: np.ndarray) -> float:
    return _lqu_from(_eigenvalues(_w_matrix_general(sqrt_rho))[..., -1])  # W is exactly symmetric


def _lqu_from(lam_max):
    return np.minimum(1.0, np.maximum(0.0, 1.0 - lam_max))


def _sqrt_psd_2x2(a: float, d: float, b: complex) -> tuple[float, float, complex]:
    """Square root of the PSD 2x2 Hermitian [[a, b], [b*, d]] via Cayley-Hamilton."""
    s = np.sqrt(np.maximum(a * d - (b.real**2 + b.imag**2), 0.0))
    tau_sq = a + d + 2.0 * s
    tau = np.sqrt(np.where(tau_sq > 0.0, tau_sq, np.inf))  # tau_sq <= 0: a zero root
    return (a + s) / tau, (d + s) / tau, b / tau


def sqrt_x_entries(x: XColumns) -> tuple[float, float, float, float, complex, complex]:
    """Entries (m11, m22, m33, m44, m14, m23) of sqrt(rho) for an X state.

    The square root inherits the X shape, so it follows from the two 2x2
    blocks in closed form.
    """
    m11, m44, m14 = _sqrt_psd_2x2(x.rho11, x.rho44, x.rho14)
    m22, m33, m23 = _sqrt_psd_2x2(x.rho22, x.rho33, x.rho23)
    return m11, m22, m33, m44, m14, m23


def lqu_x(x: XColumns) -> float:
    """Closed-form X-state LQU, with no cancellation against 1.

    M = sqrt(rho) is X-shaped, so W13 = W23 = 0, the larger eigenvalue of
    the in-plane W block is lambda_plane = 2 (m11 m33 + m22 m44) + 4 a b, with
    a = |m14| and b = |m23|, and W33 = tr M^2 - 4 (a^2 + b^2). With tr M^2 =
    tr rho = 1, 1 - W33 = 4 (a^2 + b^2) and 1 - lambda_plane = (m11 - m33)^2
    + (m22 - m44)^2 + 2 (a - b)^2: sums of squares, which keep a small LQU to
    full relative accuracy. The LQU is the smaller one, capped at 1. The form
    assumes tr rho = 1: on validated input, off by up to ``states.TRACE_TOL``,
    it differs from 1 - lambda_max(W) by 1 - tr rho.
    """
    m11, m22, m33, m44, m14, m23 = sqrt_x_entries(x)
    a, b = abs(m14), abs(m23)
    plane = (m11 - m33) ** 2 + (m22 - m44) ** 2 + 2.0 * (a - b) ** 2
    return np.minimum(1.0, np.minimum(4.0 * (a * a + b * b), plane))


# ---------------------------------------------------------------------------
# trace-norm measurement-induced nonlocality


def min_trace(x: XColumns) -> float:
    """Trace-norm MIN of an X state.

    With x = rho11 + rho22 - (rho33 + rho44) the invariant measurement on A is
    unique for x != 0 and the MIN equals u1 = 2(|rho14| + |rho23|); at x = 0
    (|x| <= X_BRANCH_TOL) the measurement basis is free and the maximum over
    bases is max{u1, |u3|} with u3 = rho11 - rho22 - rho33 + rho44. (The third
    candidate 2 ||rho23| - |rho14|| never exceeds u1, in floating point too.)
    """
    u1 = 2.0 * (abs(x.rho14) + abs(x.rho23))
    u3 = x.rho11 - x.rho22 - x.rho33 + x.rho44
    return np.where(balanced(x), np.maximum(u1, abs(u3)), u1)[()]


def balanced(x: XColumns):
    """True where the marginal of A is degenerate, |x| <= X_BRANCH_TOL with
    x = rho11 + rho22 - (rho33 + rho44): the MIN measurement basis is free."""
    return abs(x.rho11 + x.rho22 - (x.rho33 + x.rho44)) <= X_BRANCH_TOL


def min_trace_general(rho) -> float:
    """Trace-norm MIN of an arbitrary two-qubit state.

    The Pauli coordinates r_ij = tr(rho s_i ox s_j) (s_0 = 1, see
    ``model._PAULI``) hold the Bloch vector a_i = r_i0 of qubit A and the
    correlation matrix T_ij = r_ij (i, j = 1..3). A projective measurement on
    A along n leaves the residual (1/4) sum_ij (P_n T)_ij s_i ox s_j, where P_n
    projects out n. That matrix has rank at most 2, so its trace norm is the
    largest singular value of P_n T. The only measurement that leaves the
    marginal of A invariant is n = a/|a|, so MIN = sqrt(lambda_max(T^T P T))
    with P = 1 - a a^T/|a|^2. At |a| <= X_BRANCH_TOL every direction is
    allowed and the maximum over n is the largest singular value of T, so
    P = 1 there (cf. Hu and Fan, New J. Phys. 17, 033004 (2015)).
    """
    rho = np.asarray(rho, dtype=complex)
    r = _to_pauli(rho).reshape(-1, 4, 4)  # r[:, i, j] = tr(rho s_i ox s_j), s_0 = 1
    a, t = r[:, 1:, 0], r[:, 1:, 1:]
    norm = np.linalg.norm(a, axis=1, keepdims=True)
    n = np.divide(a, norm, out=np.zeros_like(a), where=norm > X_BRANCH_TOL)
    # n^T T and the Gram matrix of P T (not T^T (P T), which keeps a zero MIN at
    # round-off squared) as elementwise sums in a fixed order: a matrix gets the same
    # MIN alone as in any stack, which stacked matmul does not promise
    pt = t - n[:, :, None] * sum(n[:, k, None, None] * t[:, k, None, :] for k in range(3))
    lam_max = hermitian_eigenvalues(sum(pt[:, k, :, None] * pt[:, k, None, :]
                                        for k in range(3)))[:, -1]
    return np.sqrt(np.maximum(lam_max, 0.0)).reshape(rho.shape[:-2])[()]


# ---------------------------------------------------------------------------
# coherence


def l1_coherence(rho) -> float:
    """Sum of the magnitudes of all off-diagonal entries."""
    a = np.abs(np.asarray(rho, dtype=complex))
    return np.multiply(a, _OFF_DIAGONAL[a.shape[-1]], out=a).sum(axis=(-2, -1))


def correlated_coherence(x: XColumns) -> float:
    """CC of an X state: the marginals are diagonal, so the whole l1 coherence
    is stored non-locally and CC = 2(|rho14| + |rho23|)."""
    return 2.0 * (abs(x.rho14) + abs(x.rho23))


def correlated_coherence_general(rho) -> float:
    """CC from its definition: global l1 coherence minus both marginal coherences."""
    rho = np.asarray(rho, dtype=complex)
    return _correlated_coherence_from_l1(rho, l1_coherence(rho))


def _correlated_coherence_from_l1(rho: np.ndarray, l1) -> float:
    return l1 - l1_coherence(trace_out_b(rho)) - l1_coherence(trace_out_a(rho))


# ---------------------------------------------------------------------------
# aggregate


def check_routes(checks):
    """Raise CrossCheckFailure for the first row (flat order) where a
    (name, closed, reference) pair of columns in ``checks`` differs
    by more than CROSS_CHECK_TOL[name] or is not finite; ``index`` is the row
    and the message names the first such pair of that row."""
    checks = [(name, np.ravel(c), np.ravel(r)) for name, c, r in checks]
    misses = [~(abs(c - r) <= CROSS_CHECK_TOL[name]) for name, c, r in checks]

    def describe(k: int) -> str:
        name, c, r = next(chk for chk, miss in zip(checks, misses) if miss[k])
        closed, reference = float(c[k]), float(r[k])
        return (f"{name}: closed form {closed!r} vs reference {reference!r} "
                f"differ by {abs(closed - reference):.3e} (tolerance {CROSS_CHECK_TOL[name]:.1e})")

    raise_first(np.any(misses, axis=0), CrossCheckFailure, describe)


def correlations(rho) -> CorrelationSet:
    """Evaluate all seven quantifiers on a density matrix, or on every
    matrix of a stack (..., 4, 4) at once.

    The input is validated first (Hermiticity, unit trace and positivity, as
    in ``validate``), so the first invalid matrix raises NotHermitian,
    TraceNotOne or NotPSD with its flat position as ``index``. X-shaped
    matrices (every entry off the X pattern exactly zero, see
    ``is_x_shaped``) use the closed forms, and every closed form is
    compared against its general-definition route; the first matrix where
    they disagree raises CrossCheckFailure (its flat position is ``index``).
    X-shaped matrices are read once as their eight X entries, on which their
    validation, square roots and general routes run (``_x_values``) with no
    4x4 array. Other matrices, however close to the X pattern, take the dense
    general routes throughout, which are exact for every state: the positivity
    check solves each matrix's eigenvalues once and returns sqrt(rho), which
    the concurrence and LQU routes share; the general routes read only
    eigenvalues from the partial transpose, W and Gram matrices and singular
    values from the spin-flip product, and re-check only the Gram matrices'
    Hermiticity. One matrix gives a CorrelationSet of floats, a stack a
    CorrelationSet of arrays over its leading axes.
    """
    rho = np.asarray(rho, dtype=complex)
    values = np.empty((6, rho.size // 16))
    for rows, x_shaped, data, sqrt_rho in _checked_groups(rho):
        try:
            values[:, rows] = (_x_values if x_shaped else _dense_values)(data, sqrt_rho)
        except CrossCheckFailure as exc:
            exc.index = int(np.flatnonzero(rows)[exc.index])  # from the group's to the stack's
            raise
    conc, neg, unc, mt, cc, l1 = values
    columns = (conc, neg, _log_negativity_from(neg), unc, mt, cc, l1)
    if rho.ndim == 2:
        return CorrelationSet(*(float(c[0]) for c in columns))
    return CorrelationSet(*(c.reshape(rho.shape[:-2]) for c in columns))


def _dense_values(mats: np.ndarray, sqrt_rho: np.ndarray) -> tuple:
    """Concurrence, negativity, LQU, MIN, CC and l1 of a stack by the general routes."""
    l1 = l1_coherence(mats)
    # ``negativity`` without its check: the partial transpose permutes validated entries
    neg = _negativity_from(_eigenvalues(partial_transpose_b(mats))[:, 0])
    return (np.maximum(0.0, _concurrence_from_sqrt(sqrt_rho)), neg, _lqu_from_sqrt(sqrt_rho),
            min_trace_general(mats), _correlated_coherence_from_l1(mats, l1), l1)


def _x_values(x: np.ndarray, s: np.ndarray) -> tuple:
    """``_dense_values`` of X-shaped matrices from their X entries x (k, 8) and those
    of their square roots s: the closed forms, each checked against its general route.

    The general routes keep their definitions on the X entries: the spin-flip singular
    values, the partial transpose's blocks, the nonzero entries of W (W_xx, W_yy =
    2 (m11 m33 + m22 m44) +- 4 Re(m14 m23), W_xy = -4 Im(m14 m23), W_zz = sum m_ii^2
    - 2 (|m14|^2 + |m23|^2) for the root m) and of the projected-T Gram matrix, each
    2x2 block solved by ``_hermitian_2x2``, and l1 summed in the order of
    ``l1_coherence``. The marginals of an X state are diagonal: its CC route is l1."""
    r, m = XEntries(*x.T), XEntries(*s.T)
    xc = XColumns(r.r11.real, r.r22.real, r.r33.real, r.r44.real, r.r14, r.r23)
    pt = [_hermitian_2x2(a.real, d.real, lower, False)
          for a, d, lower in ((r.r11, r.r44, r.r32), (r.r22, r.r33, r.r41))]
    m11, m22, m33, m44, p = m.r11.real, m.r22.real, m.r33.real, m.r44.real, m.r14 * m.r23
    plane, w_zz = 2.0 * (m11 * m33 + m22 * m44), (m11 * m11 + m22 * m22 + m33 * m33 + m44 * m44
                                                   - 2.0 * (abs(m.r14) ** 2 + abs(m.r23) ** 2))
    w = _hermitian_2x2(plane + 4.0 * p.real, plane - 4.0 * p.real, -4.0 * p.imag, False)
    # T as big_p = T_xx - i T_yx and big_q = T_yy + i T_xy; |a| = |T_z0| picks the projection
    u, v = r.r14 + r.r41.conj(), r.r23 + r.r32.conj()
    big_p, big_q = u + v, v - u
    a_z = ((r.r11 + r.r22) - r.r33).real - r.r44.real
    t_zz = ((r.r11 - r.r22) - r.r33).real + r.r44.real
    gram = _hermitian_2x2(abs(big_p) ** 2, abs(big_q) ** 2, (big_p.conj() * big_q).imag, False)
    g_zz = np.where(abs(a_z) > X_BRANCH_TOL, 0.0, t_zz * t_zz)
    conc, neg, unc, mt, cc = (concurrence_x(xc), negativity_x(xc), lqu_x(xc), min_trace(xc),
                              correlated_coherence(xc))
    l1 = (abs(r.r32) + abs(r.r14)) + (abs(r.r41) + abs(r.r23))
    check_routes([
        ("concurrence", conc, np.maximum(0.0, _wootters(_spin_flip_x(s)))),
        ("concurrence (Dicke basis)", conc, concurrence_dicke(to_dicke(xc))),
        ("negativity", neg, _negativity_from(np.minimum(np.minimum(*pt[0]), np.minimum(*pt[1])))),
        ("lqu", unc, _lqu_from(np.maximum(np.maximum(*w), w_zz))),
        ("correlated coherence", cc, l1),
        ("min_trace", mt, np.sqrt(np.maximum(np.maximum(np.maximum(*gram), g_zz), 0.0))),
    ])
    return conc, neg, unc, mt, cc, l1
