"""Lindblad evolution, closed-form trajectories, steady states and
entanglement-sudden-death times for the two-qubit XY model."""

from __future__ import annotations

import math

import numpy as np

from .errors import (CrossCheckFailure, DegenerateParams, DomainError, NotHermitian, NotPSD,
                     Record, StepRejected, TraceNotOne, raise_first)
from .measures import (
    CorrelationSet,
    _log_negativity_from,
    balanced,
    check_routes,
    concurrence_x,
    correlated_coherence,
    correlations,
    lqu_x,
    min_trace,
    negativity_x,
)
from .model import (ModelParams, _PAULI, _from_pauli, _to_pauli, hamiltonian, spin_lowering,
                    spin_raising)
from .states import XColumns, _validated, is_x_shaped

STEADY_RHS_TOL = 1e-12
# bound on the samples of one evolve run: about 26 MB of states. A run at the bound takes
# 0.3-0.45 s and peaks at 129-130 MB RSS (x86-64 Linux, 2 cores, numpy 2.4.6); the
# tests/smoke.py case "evolve --t-max 99.999 --stride 1" fails above 250 MB
MAX_SAMPLES = 100_000
# the degree of phi1's Taylor sum and the bound on ||L h||_1 it is taken at (_increment_operator):
# the remainder sum_(k > 13) (1/4)^k / (k + 1)! is below 3e-21
PHI_DEGREE, PHI_NORM = 13, 0.25
# the Pauli coordinates 4a + b of the X-shaped s_a ox s_b: a block the generator never leaves
_X_COORDS = np.flatnonzero(is_x_shaped(_PAULI))
# (A, A^dag A) of the jump operators, in the order of the rates in _channels
_JUMPS = tuple((a, a.conj().T @ a) for a in (spin_lowering(1), spin_lowering(2),
                                              spin_raising(1), spin_raising(2)))


class Trajectory(Record):
    """Time grid with one density matrix per sample (``states`` is an
    (n, 4, 4) array) and the correlations of all samples as one CorrelationSet
    of arrays of length n.

    ``steady_time`` is the first sampled time where the master-equation right
    hand side dropped below the steady-state tolerance, or None if the run
    finished before that happened.
    """

    __match_args__ = ("times", "states", "correlations", "params", "dt", "steady_time")

    def __init__(self, times: np.ndarray, states: np.ndarray, correlations: CorrelationSet,
                 params: ModelParams, dt: float, steady_time: float | None = None) -> None:
        self.times = times
        self.states = states
        self.correlations = correlations
        self.params = params
        self.dt = dt
        self.steady_time = steady_time


def _channels(params: ModelParams):
    """(rate, A, A^dag A) of the dissipators D[A] of the master equation that act."""
    down, up = params.gamma * (params.nbar + 1.0), params.gamma * params.nbar
    return [(r, *jump) for r, jump in zip((down, down, up, up), _JUMPS) if r != 0.0]


def lindblad_rhs(rho, params: ModelParams) -> np.ndarray:
    """Right-hand side of the thermal master equation.

    d rho/dt = -i[H, rho]
               + gamma (nbar+1) (D[S1-] + D[S2-]) rho
               + gamma  nbar    (D[S1+] + D[S2+]) rho

    with D[A]B = A B A^dag - {A^dag A, B}/2. The result is traceless and
    Hermiticity-preserving; at nbar = 0 only the decay channels act.
    """
    rho = np.asarray(rho, dtype=complex)
    h = hamiltonian(params)
    out = -1j * (h @ rho - rho @ h)
    for rate, op, num in _channels(params):
        out = out + rate * (op @ rho @ op.conj().T - 0.5 * (num @ rho + rho @ num))
    return out


def _liouvillian(params: ModelParams, coords=slice(None)) -> np.ndarray:
    """``lindblad_rhs`` in Pauli coordinates (see ``model._PAULI``): the real
    matrix with entry (k, l) = tr(P_k rhs(P_l / 4)) for k, l in ``coords`` (all
    16, or ``_X_COORDS``). Row 0, the trace of the right-hand side, is set to
    exactly 0, so every propagated state keeps its trace exactly and rebuilds
    to an exactly Hermitian matrix."""
    with np.errstate(over="ignore", invalid="ignore"):  # huge parameters: inf/nan, rejected later
        lv = _to_pauli(lindblad_rhs(_PAULI[coords] / 4.0, params))[:, coords].T.copy()  # C order
    lv[0] = 0.0
    return lv


def _increment_operator(lv: np.ndarray, tau: float) -> np.ndarray:
    """Phi = tau phi1(L tau), so that exp(L tau) = I + Phi L to round-off: phi1(A) = sum_k A^k /
    (k + 1)! summed to PHI_DEGREE at h = tau / 2^s, s the least with ||L h||_1 <= PHI_NORM (s and
    h from exponents, so that no power of two overflows), then s doublings Phi_2h = Phi_h (2I +
    L Phi_h): scaling and squaring (Moler and Van Loan, SIAM Rev. 45, 3 (2003))."""
    eye = np.eye(len(lv))
    with np.errstate(over="ignore", invalid="ignore"):  # huge parameters: inf/nan, rejected later
        (m_l, e_l), (m_t, e_t) = math.frexp(np.linalg.norm(lv, 1)), math.frexp(tau)
        m, e = math.frexp(m_l * m_t / PHI_NORM)  # ||L||_1 tau / PHI_NORM = m 2^(e_l + e_t + e)
        s = max(e_l + e_t + e - (m == 0.5), 0) if m else 0
        h = math.ldexp(tau, -s)
        a, phi = lv * h, eye
        for k in range(PHI_DEGREE + 1, 1, -1):  # Horner: I + A/2 (I + A/3 (... (I + A/14)))
            phi = eye + a @ phi / k
        phi = h * phi
        for _ in range(s):
            phi = phi @ (2.0 * eye + lv @ phi)
    return phi


def _apply(op: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """op @ y for each row y of ``ys``; einsum, not a BLAS product, keeps an exact
    L y = 0 exactly zero."""
    return np.einsum("ij,nj->ni", op, ys)


def evolve(
    rho0,
    params: ModelParams,
    t_max: float,
    dt: float = 1e-3,
    stride: int = 100,
) -> Trajectory:
    """Propagate the master equation exactly: each sample is exp(L t) of the first.

    Parameters
    ----------
    rho0 : 4x4 array
        Initial density matrix (``XColumns.to_matrix()`` for an X state);
        validated as sample 0 of the stack (see below).
    t_max, dt : float
        Horizon and grid unit (t_max is rounded to a whole number of units).
        dt sets where samples fall, not the accuracy.
    stride : int
        Sampling interval in grid units; the end of the horizon is always sampled.

    The state is propagated as its real Pauli coordinates y (see
    ``_liouvillian``), whose trace y_0 no map changes: the eight X
    coordinates ``_X_COORDS`` when ``rho0`` is exactly X-shaped (the generator
    never couples them to the others, so the samples stay exactly X-shaped
    and take the X closed forms), all 16 otherwise. The map between two
    samples is exp(L stride dt) = I + Phi L, with Phi to round-off (see
    ``_increment_operator``). The samples are filled by doubling: with the
    first m known and exp(L m stride dt) = I + Phi_m L, the next m are
    y + Phi_m (L y) of the first m, and Phi_2m = Phi_m (2I + L Phi_m); a final
    partial stride takes its own Phi. So the cost grows with the number of
    samples, a state with L y = 0 stays bit-identical, and more than
    MAX_SAMPLES samples raise DomainError. Every sample after the first is
    rebuilt as an exactly Hermitian matrix; the first is ``rho0`` as given.
    ``steady_time`` applies STEADY_RHS_TOL to the entries of the rebuilt
    matrices of L y, rebuilding only where L y does not decide it
    (``_steady_rows``). The sampled states are then checked and evaluated as
    one stack (``_evaluate_samples``): an invalid ``rho0`` raises as
    ``validate`` does (ValueError before the run if it is not 4x4), a later
    state that fails validation (huge parameters) StepRejected with its time.
    """
    if not 0.0 < dt < math.inf:
        raise DomainError(f"dt must be positive and finite, got {dt}")
    if not 0.0 <= t_max < math.inf:
        raise DomainError(f"t_max must be non-negative and finite, got {t_max}")
    if stride < 1:
        raise DomainError(f"stride must be >= 1, got {stride}")
    steps = t_max / dt  # inf if the ratio overflows
    n_steps = int(round(steps)) if steps < math.inf else MAX_SAMPLES * stride
    n_samples = n_steps // stride + 1 + (n_steps % stride != 0)
    if n_samples > MAX_SAMPLES:
        raise DomainError(f"t_max / dt = {steps:.6g} steps at stride {stride} "
                          f"give more than MAX_SAMPLES = {MAX_SAMPLES} samples")

    stride = min(stride, max(n_steps, 1))  # a longer stride samples the same two times
    mat0 = np.asarray(rho0, dtype=complex)
    if mat0.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {mat0.shape}")
    coords = _X_COORDS if is_x_shaped(mat0) else slice(None)

    lv = _liouvillian(params, coords)
    phi = _increment_operator(lv, stride * dt)
    phi_last = _increment_operator(lv, (n_steps % stride) * dt) if n_steps % stride else phi
    # float step counts: a stride or horizon past int64 must not overflow
    times = np.minimum(np.arange(n_samples) * float(stride), float(n_steps)) * dt
    n_whole = n_steps // stride + 1  # samples a whole number of strides apart
    states = np.empty((n_samples, len(lv)))  # Pauli coordinates
    rhs = np.empty_like(states)  # L y of each sample
    with np.errstate(over="ignore", invalid="ignore"):  # huge parameters: inf/nan, rejected below
        states[0] = _to_pauli(mat0)[coords]  # overflows only for an invalid rho0
        rhs[:1] = _apply(lv, states[:1])
        done, phi_done = 1, phi  # exp(L done stride dt) = I + phi_done L
        while done < n_whole:
            k = min(done, n_whole - done)
            states[done:done + k] = states[:k] + _apply(phi_done, rhs[:k])
            rhs[done:done + k] = _apply(lv, states[done:done + k])
            done += k
            if done < n_whole:
                phi_done = phi_done @ (2.0 * np.eye(len(lv)) + lv @ phi_done)
        if n_samples > n_whole:
            states[-1:] = states[-2:-1] + _apply(phi_last, rhs[-2:-1])
            rhs[-1:] = _apply(lv, states[-1:])
        steady = _steady_rows(rhs, coords)
    mats = _from_pauli(states, coords)
    del states, rhs
    mats[0] = mat0  # the t = 0 sample is the given matrix, bit for bit
    corr = _evaluate_samples(times, mats)
    steady_time = float(times[steady.argmax()]) if steady.any() else None
    return Trajectory(times, mats, corr, params, dt, steady_time)


def _steady_rows(rhs: np.ndarray, coords=slice(None)) -> np.ndarray:
    """Rows r of L y, the Pauli coordinates ``coords``, whose rebuilt matrix has no entry above
    STEADY_RHS_TOL. A rebuilt entry sums four terms +-r_k/4 and an r_k four entries, so whatever
    the rebuild rounds, max |r_k| <= tol/4 is steady and > 8 tol is not: only rows in between or
    with a NaN are rebuilt."""
    m = np.abs(rhs).max(axis=1)
    steady = m <= STEADY_RHS_TOL / 4.0
    rebuild = np.flatnonzero(~(steady | (m > 8.0 * STEADY_RHS_TOL)))  # a NaN fails both
    steady[rebuild] = np.abs(_from_pauli(rhs[rebuild], coords)).max(axis=(1, 2)) <= STEADY_RHS_TOL
    return steady


def _evaluate_samples(times: np.ndarray, states: np.ndarray) -> CorrelationSet:
    """Validate every sampled state and evaluate its correlations, all as one
    stack.

    One ``correlations`` call validates and evaluates the samples, so a
    sample stack that validates is diagonalized once. Raises for the first
    failing sample in time order, and at one sample validation comes before
    the cross-check: a failed validation raises as ``validate`` at sample 0
    (the initial state) and StepRejected later, a cross-check miss
    CrossCheckFailure naming the sample's time. A validation failure at sample
    k > 0 evaluates ``states[:k]`` again, so that an earlier cross-check miss
    is reported instead.
    """
    try:
        try:
            return correlations(states)
        except (NotHermitian, TraceNotOne, NotPSD) as exc:
            if exc.index == 0:  # the initial state, as ``validate`` alone would report it
                raise
            correlations(states[:exc.index])
            raise StepRejected(float(times[exc.index]), str(exc)) from None
    except CrossCheckFailure as exc:
        raise CrossCheckFailure(f"at t = {times[exc.index]:.6g}: {exc}") from exc


# ---------------------------------------------------------------------------
# closed-form trajectories (zero temperature)


def _require_zero_temperature(params: ModelParams):
    if params.nbar != 0.0:
        raise DomainError("closed-form trajectory is defined at nbar = 0")


def analytic_mixture(t, params: ModelParams) -> XColumns:
    """States at the times t (a float or an array, over which the fields
    broadcast) when the initial condition is the w = 1/2 mixture; validated.

    Only rho22, rho23, rho32 and rho33 depend on J, and that dependence is
    damped away as t grows; rho44 follows from trace completion.
    """
    _require_zero_temperature(params)
    g, j, d, w = params.gamma, params.j, params.delta, params.omega
    om = params.big_omega
    den = g * g + 4.0 * om * om
    e1 = np.exp(-g * t)
    e2 = np.exp(-2.0 * g * t)
    c2, s2 = np.cos(2.0 * om * t), np.sin(2.0 * om * t)

    r11 = (
        4.0 * om * d * d
        + e2 * om * (g * g + 4.0 * w * (d + w))
        + 2.0 * d * e1 * (g * (w - 2.0 * d) * s2 - 2.0 * w * om * c2)
    ) / (4.0 * om * den)

    re14 = (
        -8.0 * d * w * om**3
        + e1 * w * om * (g * g * (w - 2.0 * d) + 4.0 * w * om * om) * c2
        + d * om * e1 * (den * (d + 2.0 * w) + 4.0 * g * w * om * s2)
    ) / (4.0 * om**3 * den)
    im14 = -(
        4.0 * g * d * om
        + e1 * ((g * g * (w - 2.0 * d) + 4.0 * w * om * om) * s2 - 4.0 * g * d * om * c2)
    ) / (4.0 * om * den)

    r22 = (
        4.0 * d * d * om**3
        + e1 * (om**3 * den * np.cos(2.0 * j * t)
                + g * d * (g * om * (2.0 * d - w) * c2 - 2.0 * w * om * om * s2))
        + e2 * om * (-om * om * (g * g + 4.0 * w * (d + w))
                     + w * den * (d + 2.0 * w) * np.exp(g * t))
    ) / (4.0 * om**3 * den)

    r23 = 0.25j * e1 * np.sin(2.0 * j * t)
    r33 = r22 - 0.5 * e1 * np.cos(2.0 * j * t)
    r44 = 1.0 - (r11 + r22 + r33)
    return _validated(XColumns(r11, r22, r33, r44, re14 + 1j * im14, r23))


def analytic_werner(t, p: float, params: ModelParams) -> XColumns:
    """States at the times t (a float or an array) for a Werner initial
    condition; independent of J. Validated."""
    _require_zero_temperature(params)
    if not -1.0 / 3.0 <= p <= 1.0:
        raise DomainError(f"Werner parameter must lie in [-1/3, 1], got {p}")
    g, d, w = params.gamma, params.delta, params.omega
    om = params.big_omega
    den = g * g + 4.0 * om * om
    e1 = np.exp(-g * t)
    e2 = np.exp(-2.0 * g * t)
    c2, s2 = np.cos(2.0 * om * t), np.sin(2.0 * om * t)

    r11 = (
        4.0 * d * d * om
        - 4.0 * d * d * g * e1 * s2
        + om * e2 * (4.0 * w * w - 4.0 * om * om * p + g * g * (1.0 - p))
    ) / (4.0 * om * den)

    r14 = (1j * d / (2.0 * om**3 * den)) * (
        -2.0 * (g - 2j * w) * om**3
        + e1 * (
            -4j * w * om**3
            - 2j * g * g * w * om * np.sin(om * t) ** 2
            + g * g * om * om * s2
            + 2.0 * g * om * om * (om * c2 - 1j * w * s2)
        )
    )

    r22 = (
        4.0 * om * om * (d * d + e2 * (p * d * d + (p - 1.0) * w * w) + 2.0 * w * w * e1)
        + g * g * ((p - 1.0) * om * om * e2 + 2.0 * e1 * (d * d * c2 + w * w))
    ) / (4.0 * om * om * den)

    r23 = -0.5 * p * e1

    r44 = (
        4.0 * om**3 * (g * g + 3.0 * w * w + om * om)
        - om**3 * e2 * (den * p - (g * g + 4.0 * w * w))
        - 4.0 * w * w * om * den * e1
        + 4.0 * g * d * d * e1 * (om * om * s2 - g * om * c2)
    ) / (4.0 * om**3 * den)

    return _validated(XColumns(r11, r22, r22, r44, r14, r23))


def analytic_independent_mixture(t, w: float, gamma: float, omega: float = 1.0) -> XColumns:
    """Decay of the general w-mixture for non-interacting qubits (J = Delta = 0)
    at the times t (a float or an array). Validated."""
    if not 0.0 <= w <= 1.0:
        raise DomainError(f"mixture weight must lie in [0, 1], got {w}")
    if gamma < 0.0:
        raise DomainError(f"gamma must be non-negative, got {gamma}")
    q = (1.0 - w) / 2.0
    half = 0.5 * gamma * t
    r11 = q * np.exp(-2.0 * gamma * t)
    r14 = q * np.exp(-(gamma + 2j * omega) * t)
    r22 = np.exp(-3.0 * half) * (np.sinh(half) + w * np.cosh(half))
    r33 = (1.0 - w) * np.exp(-3.0 * half) * np.sinh(half)
    r44 = q * np.exp(-2.0 * gamma * t) + 2.0 * np.exp(-half) * np.sinh(half)
    return _validated(XColumns(r11, r22, r33, r44, r14, 0.0))


# ---------------------------------------------------------------------------
# steady states


def _require_decay(params: ModelParams):
    if np.any(np.less_equal(params.gamma, 0.0)):
        raise DegenerateParams("gamma > 0 is required for a unique steady state")


def _steady_scales(params: ModelParams):
    """Terms of the thermal steady state over the broadcast fields of
    ``params`` that stay finite for any finite parameters: delta, omega and
    gamma divided exactly by the power of two that brings the largest into
    [1/2, 1) (every steady quantity is homogeneous of degree 0 in them),
    1/k, nbar/k and (nbar + 1)/k with k = 2 nbar + 1, and sqrt(den)/k with
    den = 4 Omega^2 + gamma^2 k^2."""
    _require_decay(params)
    d, w, g, nb = np.broadcast_arrays(params.delta, params.omega, params.gamma, params.nbar)
    e = np.frexp(np.maximum(np.maximum(abs(d), w), g))[1]
    d, w, g, half = np.ldexp(d, -e), np.ldexp(w, -e), np.ldexp(g, -e), nb + 0.5
    inv_k = 0.5 / half
    root = np.hypot(2.0 * inv_k * np.hypot(d, w), g)
    return d, w, g, inv_k, 0.5 * (nb / half), 0.5 * ((nb + 1.0) / half), root


def _steady_columns(d, w, g, inv_k, a, b, root) -> XColumns:
    """Thermal steady-state entries as arrays. With p = Delta / sqrt(den) and
    v = (4 omega^2 + gamma^2 k^2) / den = 1 - 4 p^2: rho11 = p^2 + (nbar/k)^2 v,
    rho44 = p^2 + ((nbar + 1)/k)^2 v, rho22 = rho33 = (p/k)^2 + nbar (nbar + 1)/k^2
    and rho14 = -p (2 omega + i gamma k) / (k sqrt(den))."""
    p = d * inv_k / root
    v = np.square(np.hypot(2.0 * w * inv_k, g) / root)
    r22 = np.square(p * inv_k) + a * b
    r14 = -p * (2.0 * w * inv_k + 1j * g) * inv_k / root
    return XColumns(p * p + a * a * v, r22, r22, p * p + b * b * v, r14, np.zeros_like(r14))


def _steady_closed_forms(d, w, g, inv_k, a, b, root):
    """The paper's closed forms from the terms of ``_steady_scales``: CC, the
    concurrence and the zero-temperature LQU (only meaningful at nbar = 0).

    With p and v as in ``_steady_columns``, at nbar = 0 sqrt(rho) has m11 =
    2 p^2, m22 = m33 = |p|, m44 = 2 p^2 + v, |m14| = |p| sqrt(v) and m23 = 0,
    so the paper's 1 - max{W11, W33} is min{4 p^2 v, p^2 (1 - 2|p|)^2 +
    (|p| - 2 p^2 - v)^2 + 2 p^2 v}: sums of squares, with nothing to cancel
    against 1 when the LQU is small."""
    p, h = d * inv_k / root, np.hypot(2.0 * w * inv_k, g)
    v = np.square(h / root)
    cc = 2.0 * abs(p) * (inv_k * h / root)
    population = np.square(p * inv_k)  # Delta^2 / (k^2 den)
    concurrence = 2.0 * np.maximum(0.0, 0.5 * cc - population - a * b)
    p2 = p * p
    lqu = np.minimum(4.0 * p2 * v, np.square(p * (1.0 - 2.0 * abs(p)))
                     + np.square(abs(p) - 2.0 * p2 - v) + 2.0 * p2 * v)
    return cc, concurrence, lqu


def steady_state_thermal(params: ModelParams) -> XColumns:
    """Thermal steady state; the same for every X-shaped initial condition.
    At nbar = 0 it is entangled iff |Delta| < sqrt(gamma^2 + 4 omega^2), and
    for Delta = 0 it is diagonal. Array-valued ``params`` fields give one
    state per element. Validated."""
    return _validated(_steady_columns(*_steady_scales(params)))


def steady_ccc_thermal(params: ModelParams) -> float:
    """Closed-form steady-state correlated coherence 2 |Delta| sqrt(4 omega^2
    + gamma^2 k^2) / (k den), written in the terms of ``_steady_scales``
    (arrays for array-valued fields); the steady MIN equals it unless the
    marginal of A is degenerate."""
    return _steady_closed_forms(*_steady_scales(params))[0]


def steady_concurrence_thermal(params: ModelParams) -> float:
    """Closed-form steady-state concurrence 2 max{0, (k |Delta| sqrt(4 omega^2
    + gamma^2 k^2) - Delta^2) / (k^2 den) - nbar (nbar + 1) / k^2}, the first
    term being CC / 2."""
    return _steady_closed_forms(*_steady_scales(params))[1]


def steady_correlations_thermal(params: ModelParams) -> CorrelationSet:
    """All steady-state quantifiers from the X closed forms on the thermal
    steady state. Array-valued ``params`` fields give one row per element
    (a CorrelationSet of arrays). The paper's closed forms cross-check them:
    concurrence, CC and the MIN (unless the marginal of A is degenerate),
    and the LQU at nbar = 0 (the paper's 1 - max{W11, W33} as a sum of
    squares, see ``_steady_closed_forms``); the first failing row raises
    CrossCheckFailure with its flat position as ``index``.
    """
    scales = _steady_scales(params)
    columns = _steady_columns(*scales)
    x = XColumns(*map(np.ravel, columns))  # scalar params too: one array path for every row
    conc, neg, unc, mt, cc = (f(x) for f in (concurrence_x, negativity_x, lqu_x, min_trace,
                                             correlated_coherence))
    paper_cc, paper_conc, zero_temp_lqu = _steady_closed_forms(*scales)
    shape = np.shape(columns.rho11)
    paper_lqu = np.where(np.equal(params.nbar, 0.0), zero_temp_lqu, unc.reshape(shape))
    check_routes([
        ("concurrence", conc, paper_conc),
        ("lqu", unc, paper_lqu),
        ("correlated coherence", cc, paper_cc),
        ("min_trace", mt, np.where(balanced(x), mt, np.ravel(paper_cc))),
    ])
    rows = (conc, neg, _log_negativity_from(neg), unc, mt, cc, cc)
    return CorrelationSet(*(c.reshape(shape)[()] for c in rows))


# ---------------------------------------------------------------------------
# entanglement sudden death


def esd_gamma_tau(w, gamma: float, nbar):
    """Death time gamma*tau of the w-mixture at bath excitation nbar, for
    scalars or broadcast arrays; inf where entanglement never dies.

    With k = 2 nbar + 1, c = 2 nbar (nbar + 1) (so k^2 = 1 + 2c),
    s = sqrt(1 - 2 w (1 - w)), p = 1 - s = 2 w (1 - w) / (1 + s) and
    q = s - w = (1 - w)^2 / (s + w):

        gamma*tau = log1p( 2q / (p + sqrt(p^2 + 4 c q / k^2)) ) / k

    Derivation: for J = Delta = 0 the concurrence is max{0, (1 - w)/v -
    sqrt(f)/k^2} with v = exp(k gamma t) and v^2 f = [(v - 1)(1 + c + c v) +
    k^2 w]^2 / v^2 - k^4 w^2, so it vanishes where [(v - 1)(1 + c + c v) +
    k^2 w]^2 = k^4 s^2 v^2 (s^2 = (1 - w)^2 + w^2). The "+" factor
    has no root with v > 1; the "-" factor is c v^2 + (1 - k^2 s) v -
    (1 + c - k^2 w) = 0, which for v = 1 + x reads c x^2 + k^2 p x - k^2 q = 0
    with the positive root x above. Every term is non-negative, so nothing
    cancels; at nbar = 0 it is log1p(q/p) = ln((1 + s) / (2 w)). The
    denominator vanishes only for w = 0 at nbar = 0 (the maximally entangled
    state without thermal noise): inf. DomainError names the first bad value.
    """
    w, gamma, nbar = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (w, gamma, nbar)))
    for values, ok, must in (
        (w, (0.0 <= w) & (w <= 1.0), "mixture weight must lie in [0, 1]"),
        (gamma, (0.0 < gamma) & (gamma < math.inf), "gamma must be positive and finite"),
        (nbar, (0.0 <= nbar) & (nbar < math.inf), "nbar must be non-negative and finite"),
    ):
        raise_first(~ok, DomainError, lambda k: f"{must}, got {values.flat[k]}")

    half = nbar + 0.5  # k / 2; k itself overflows for nbar > 9e307
    c_over_k2 = 0.5 * (nbar / half) * ((nbar + 1.0) / half)  # c / k^2 without overflow
    s = np.sqrt(1.0 - 2.0 * w * (1.0 - w))
    p = 2.0 * w * (1.0 - w) / (1.0 + s)
    q = np.square(1.0 - w) / (s + w)
    den = p + np.hypot(p, 2.0 * np.sqrt(c_over_k2 * q))  # p^2 underflows for w < 1e-162
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = 2.0 * q / den  # overflows only for subnormal w; log1p(x) is then log(2q) - log(den)
        gt = np.where(x < math.inf, np.log1p(x), np.log(2.0 * q) - np.log(den))
    return np.where(w == 1.0, 0.0, 0.5 * (gt / half))[()]
