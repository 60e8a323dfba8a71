"""Shared generators for randomized tests (all callers pass a seeded rng) and
independent formulas the library is checked against."""

import math
from collections import namedtuple

import numpy as np

from qcorr import XColumns, lindblad_rhs, validate
from qcorr.dynamics import Trajectory, _increment_operator, _liouvillian
from qcorr.linalg import hermitian_eigenvalues, partial_transpose_b, psd_sqrt
from qcorr.measures import _concurrence_from_sqrt, sqrt_x_entries
from qcorr.model import _from_pauli, _to_pauli
from qcorr.states import DickeColumns, _validated

DARK_THRESHOLD = 1e-12
REVIVAL_THRESHOLD = 1e-9


def valid_x(*entries) -> XColumns:
    """XColumns of the entries, after ``validate`` of its matrix."""
    x = XColumns(*entries)
    validate(x.to_matrix())
    return x


def random_x_state(rng) -> XColumns:
    """Valid X state: random populations, coherences inside the PSD bounds."""
    pops = rng.random(4) + 0.05
    pops = pops / pops.sum()
    mag14 = np.sqrt(pops[0] * pops[3]) * rng.random()
    mag23 = np.sqrt(pops[1] * pops[2]) * rng.random()
    ph14, ph23 = rng.uniform(0.0, 2.0 * np.pi, size=2)
    return valid_x(
        pops[0], pops[1], pops[2], pops[3],
        mag14 * np.exp(1j * ph14), mag23 * np.exp(1j * ph23),
    )


def random_rank_one_x_state(rng) -> XColumns:
    """X state whose outer block is rank one up to round-off:
    |rho14|^2 = rho11 rho44 in floating point."""
    pops = rng.random(4) + 0.05
    pops = pops / pops.sum()
    mag23 = np.sqrt(pops[1] * pops[2]) * rng.random()
    ph14, ph23 = rng.uniform(0.0, 2.0 * np.pi, size=2)
    return valid_x(
        pops[0], pops[1], pops[2], pops[3],
        np.sqrt(pops[0] * pops[3]) * np.exp(1j * ph14), mag23 * np.exp(1j * ph23),
    )


def random_balanced_x_state(rng) -> XColumns:
    """X state with rho11 + rho22 = rho33 + rho44 (the x = 0 MIN branch)."""
    r11 = rng.random() * 0.5
    r22 = 0.5 - r11
    r33 = rng.random() * 0.5
    r44 = 0.5 - r33
    mag14 = np.sqrt(r11 * r44) * rng.random()
    mag23 = np.sqrt(r22 * r33) * rng.random()
    ph14, ph23 = rng.uniform(0.0, 2.0 * np.pi, size=2)
    return valid_x(r11, r22, r33, r44, mag14 * np.exp(1j * ph14), mag23 * np.exp(1j * ph23))


def rank_deficient_x_state(rng) -> np.ndarray:
    """X state with one population, and the coherence that shares its block,
    exactly zero. (A rank-one block built from |rho14|^2 = rho11 rho44 in
    floating point is only singular to round-off, which the square roots of
    the general routes amplify to ~sqrt(eps), beyond the 1e-8 cross-check.)"""
    rho = random_x_state(rng).to_matrix()
    i = rng.integers(4)
    rho[i, :] = rho[:, i] = 0.0
    return rho / np.trace(rho).real


def degenerate_marginal_state(rng) -> np.ndarray:
    """Non-X state with a maximally mixed marginal of A: a maximally entangled
    pure state turned by a random unitary on B, mixed with white noise."""
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    psi = (np.kron([1.0, 0.0], q[:, 0]) + np.kron([0.0, 1.0], q[:, 1])) / np.sqrt(2.0)
    p = rng.uniform(0.2, 0.9)
    return p * np.outer(psi, psi.conj()) + (1.0 - p) * np.eye(4) / 4.0


def random_hermitian(rng, n: int) -> np.ndarray:
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2.0


def random_density_matrix(rng, rank: int = 4) -> np.ndarray:
    """Generic (non-X) two-qubit density matrix of the given rank from a
    Wishart draw."""
    m = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, size=()) -> np.ndarray:
    """Haar-random 2x2 unitary (or a stack of ``size`` of them)."""
    z = rng.standard_normal(size + (2, 2)) + 1j * rng.standard_normal(size + (2, 2))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / abs(d))[..., None, :]


def random_incoherent_unitary(rng) -> np.ndarray:
    """2x2 unitary that maps the computational basis onto itself up to
    phases: a diagonal phase matrix, half the time followed by a bit flip."""
    u = np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=2)))
    return u[::-1] if rng.random() < 0.5 else u


def bell_phi_plus() -> np.ndarray:
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    return np.outer(psi, psi.conj()).astype(complex)


def blocks_of(mat) -> list[list[int]]:
    """Connected components of the nonzero pattern, found by graph search."""
    nonzero = (mat != 0) | (mat != 0).T
    seen, blocks = set(), []
    for start in range(len(mat)):
        if start in seen:
            continue
        block, todo = [], [start]
        while todo:
            i = todo.pop()
            if i not in seen:
                seen.add(i)
                block.append(i)
                todo.extend(np.flatnonzero(nonzero[i]).tolist())
        blocks.append(sorted(block))
    return blocks


def assert_block_supported(mat, blocks):
    """Every column of ``mat`` is exactly zero outside one of the blocks."""
    for col in mat.T:
        support = set(np.flatnonzero(col).tolist())
        assert any(support <= set(b) for b in blocks), (support, blocks)


def measurement_disturbance(rho: np.ndarray, basis: np.ndarray) -> float:
    """||rho - sum_k P_k rho P_k||_1 with P_k = |v_k><v_k| (x) 1 for the columns
    v_k of ``basis`` (one basis, or one per matrix of the stack ``rho``): the
    definition of the trace-norm MIN at one measurement on qubit A."""
    residual = rho.copy()
    for k in range(2):
        v = basis[..., :, k]
        outer = v[..., :, None] * v[..., None, :].conj()
        proj = np.einsum("...ab,cd->...acbd", outer, np.eye(2)).reshape(outer.shape[:-2] + (4, 4))
        residual = residual - proj @ rho @ proj
    return trace_norm((residual + residual.conj().swapaxes(-1, -2)) / 2.0)


def csv_by_cells(header: str, columns) -> str:
    """The CSV table formatted one cell at a time with format(v, ".17g"): the
    definition the CLI's writer must reproduce byte for byte. That writer's
    numpy kernel writes the cells it certifies; the others go through %.17g."""
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    return "\n".join([header, *(",".join(format(v, ".17g") for v in row) for row in rows)]) + "\n"


_SIGMAS = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_PAULIS = [np.kron(a, b) for a in _SIGMAS for b in _SIGMAS]


def pauli_coordinates(rho) -> np.ndarray:
    """r_k = tr(rho P_k) of one 4x4 matrix for the Pauli products P[4a + b] =
    s_a ox s_b (s_0 = 1), the diagonal of each product summed left to right."""
    out = np.empty(16)
    for k, pk in enumerate(_PAULIS):
        diag = np.diagonal(pk @ rho)
        out[k] = (((diag[0] + diag[1]) + diag[2]) + diag[3]).real
    return out


def pauli_matrix(r) -> np.ndarray:
    """(1/4) sum_k r_k P_k: the inverse of ``pauli_coordinates``."""
    return sum(rk * pk for rk, pk in zip(r, _PAULIS)) / 4.0


def liouvillian_by_columns(params) -> np.ndarray:
    """The 16x16 generator in Pauli coordinates, column by column: column l
    holds tr(P_k rhs(P_l / 4)). Row 0, the trace of each right-hand side, is
    zero up to round-off."""
    return np.column_stack([pauli_coordinates(lindblad_rhs(pl / 4.0, params)) for pl in _PAULIS])


def w_matrix_by_pairs(sqrt_rho: np.ndarray) -> np.ndarray:
    """W_ij = tr(sqrt(rho) s_i^(A) sqrt(rho) s_j^(A)) one pair (i <= j) at a time."""
    prods = [sqrt_rho @ op for op in _PAULIS[4::4]]  # s_i ox 1
    w = np.empty(sqrt_rho.shape[:-2] + (3, 3))
    for i in range(3):
        for j in range(i, 3):
            w[..., i, j] = w[..., j, i] = np.trace(prods[i] @ prods[j], axis1=-2, axis2=-1).real
    return w


# nonzero entries of the symmetric 3x3 skew-information matrix of an X state
WMatrix = namedtuple("WMatrix", "w11 w22 w33 w12")


def w_matrix_x(x: XColumns) -> WMatrix:
    """Closed-form nonzero W entries for an X state, from the closed-form
    sqrt(rho) of ``sqrt_x_entries``; W13 = W23 = 0 by structure."""
    m11, m22, m33, m44, m14, m23 = sqrt_x_entries(x)
    base = 2.0 * (m11 * m33 + m22 * m44)
    cross = m14 * m23
    return WMatrix(
        w11=base + 4.0 * cross.real,
        w22=base - 4.0 * cross.real,
        w33=m11**2 + m22**2 + m33**2 + m44**2 - 2.0 * (abs(m14) ** 2 + abs(m23) ** 2),
        w12=-4.0 * cross.imag,
    )


def steady_state_zero_temp(params) -> XColumns:
    """The zero-temperature steady state in the paper's closed form, with
    den = gamma^2 + 4 Omega^2: rho11 = rho22 = rho33 = Delta^2 / den,
    rho44 = (gamma^2 + 3 omega^2 + Omega^2) / den and rho14 = -Delta (2 omega
    + i gamma) / den. Array-valued ``params`` fields broadcast; validated."""
    g, d, w = params.gamma, params.delta, params.omega
    den = g * g + 4.0 * params.big_omega**2
    pop = d * d / den
    return valid_x(pop, pop, pop, (g * g + 3.0 * w * w + params.big_omega**2) / den,
                   -d * (2.0 * w + 1j * g) / den, 0.0)


def steady_w_entries_zero_temp(delta, omega, gamma, sqrt=math.sqrt):
    """(W11, W33) of the zero-temperature steady state in the paper's closed
    form, for floats, or for ``Decimal``s with ``sqrt=lambda x: Decimal(x).sqrt()``.
    The steady W matrix is diagonal with W11 = W22, so the LQU is
    1 - max{W11, W33}."""
    d, w, g = delta, omega, gamma
    om2 = d * d + w * w
    den = g * g + 4 * om2
    radical = sqrt((g * g + 4 * w * w) * den)
    core = g * g + 2 * w * w + 2 * om2
    w11 = (sqrt(2) * abs(d) / den) * (sqrt(max(core - radical, 0)) + sqrt(core + radical))
    w33 = (g**4 + 4 * g * g * (w * w + om2) + 16 * (d**4 + w * w * om2)) / den**2
    return w11, w33


def concurrence_thermal_independent(t, w: float, gamma: float, nbar: float):
    """Concurrence max{0, (1 - w) exp(-k gamma t) - sqrt(f)/k^2} of the
    decaying w-mixture of independent qubits (J = Delta = 0) at bath
    excitation nbar, with k = 2 nbar + 1 and f = a0 + a1 w + a2 w^2 term by
    term; broadcasts over an array of times t."""
    k = 2.0 * nbar + 1.0
    half = 0.5 * k * gamma * t
    sh, ch = np.sinh(half), np.cosh(half)
    bracket = 1.0 + 4.0 * nbar * (nbar + 1.0) * np.exp(half) * ch
    a0 = 4.0 * np.exp(-6.0 * half) * sh * sh * bracket * bracket
    a1 = 4.0 * k * k * np.exp(-7.0 * half) * sh * bracket
    a2 = -2.0 * k**4 * np.exp(-6.0 * half) * np.sinh(2.0 * half)
    f = a0 + a1 * w + a2 * w * w
    coherence = (1.0 - w) * np.exp(-k * gamma * t)
    return np.maximum(0.0, coherence - np.sqrt(np.maximum(f, 0.0)) / (k * k))


def negativity_trace_norm(rho):
    """(||rho^TB||_1 - 1)/2: the negativity from its trace-norm definition."""
    return (trace_norm(partial_transpose_b(rho)) - 1.0) / 2.0


def partial_transpose_a(rho) -> np.ndarray:
    """Partial transpose with respect to the first qubit: entry (k ox i, l ox j)
    of the output equals entry (l ox i, k ox j) of the input."""
    r = np.asarray(rho).reshape(np.shape(rho)[:-2] + (2, 2, 2, 2))
    return r.swapaxes(-4, -2).reshape(r.shape[:-4] + (4, 4))


def trace_norm(mat):
    """||M||_1 of a Hermitian matrix, i.e. the sum of absolute eigenvalues."""
    return np.abs(hermitian_eigenvalues(mat)).sum(-1)


def from_dicke(d: DickeColumns) -> XColumns:
    """The inverse of ``to_dicke``; the result is validated."""
    half_sum = 0.5 * (d.ss + d.aa)
    rho32 = (d.ss - d.aa) / 2.0 + 1j * d.sa.imag
    return _validated(XColumns(
        rho11=d.ee,
        rho22=half_sum + d.sa.real,
        rho33=half_sum - d.sa.real,
        rho44=d.gg,
        rho14=d.eg,
        rho23=np.conj(rho32),
    ))


def concurrence_signed(rho) -> float:
    """l1 - l2 - l3 - l4 without the final clamp; negative for separable states.

    Useful for locating entanglement death/rebirth times by sign change.
    """
    return _concurrence_from_sqrt(psd_sqrt(rho))


def concurrence_negativity_bounds(c: float) -> tuple[float, float]:
    """Lower/upper bounds on the negativity of a state with concurrence c."""
    lo = (np.sqrt((1.0 - c) ** 2 + c**2) - (1.0 - c)) / 2.0
    return float(lo), c / 2.0


def concurrence_log_negativity_bounds(c: float) -> tuple[float, float]:
    """Lower/upper bounds on the log-negativity of a state with concurrence c."""
    lo = np.log2(np.sqrt((1.0 - c) ** 2 + c**2) + c)
    return float(lo), float(np.log2(c + 1.0))


def dark_intervals_of_series(values) -> list[tuple[int, int]]:
    """Index pairs (first dark sample, first revived sample) of dark runs.

    A run starts when the series drops to <= DARK_THRESHOLD and ends at the
    first sample above REVIVAL_THRESHOLD (values in between count as round-off
    flicker and extend the run). An unfinished run ends at index len(values).
    """
    spans = []
    start = None
    for i, v in enumerate(values):
        if start is None:
            if v <= DARK_THRESHOLD:
                start = i
        elif v > REVIVAL_THRESHOLD:
            spans.append((start, i))
            start = None
    if start is not None:
        spans.append((start, len(values)))
    return spans


def find_dark_intervals(
    traj: Trajectory, state_at=None, refine_tol: float = 1e-6
) -> list[tuple[float, float]]:
    """Maximal (death, rebirth) intervals of zero concurrence along a trajectory.

    Endpoints are refined by bisection on ``concurrence_signed`` of the 4x4
    matrix ``state_at(t)`` when given (e.g. ``analytic_mixture(t,
    params).to_matrix()``) and of exact propagation from the nearest stored
    sample otherwise. A dark interval still open at the end of the horizon
    gets rebirth = math.inf.
    """
    spans = dark_intervals_of_series(traj.correlations.concurrence)
    if not spans:
        return []

    if state_at is None:
        state_at = _state_interpolator(traj)
    intervals = []
    n = len(traj.times)
    for first_dark, revived in spans:
        if first_dark == 0:
            death = float(traj.times[0])
        else:
            death = _bisect_sign_change(
                state_at, traj.times[first_dark - 1], traj.times[first_dark], refine_tol
            )
        if revived >= n:
            rebirth = math.inf
        else:
            rebirth = _bisect_sign_change(
                state_at, traj.times[revived], traj.times[revived - 1], refine_tol
            )
        intervals.append((death, rebirth))
    return intervals


def _state_interpolator(traj: Trajectory):
    lv = _liouvillian(traj.params)

    def at(t: float) -> np.ndarray:
        i = int(np.searchsorted(traj.times, t, side="right") - 1)
        i = max(0, min(i, len(traj.times) - 1))
        y = _to_pauli(traj.states[i])
        return _from_pauli(y + _increment_operator(lv, t - traj.times[i]) @ (lv @ y))

    return at


def _bisect_sign_change(state_at, t_pos: float, t_neg: float, tol: float) -> float:
    """Locate the sign change of f(t) = concurrence_signed(state_at(t))
    between f(t_pos) > 0 and f(t_neg) <= 0."""
    for _ in range(200):
        if abs(t_pos - t_neg) <= tol:
            break
        mid = 0.5 * (t_pos + t_neg)
        if concurrence_signed(state_at(mid)) > 0.0:
            t_pos = mid
        else:
            t_neg = mid
    return 0.5 * (t_pos + t_neg)
