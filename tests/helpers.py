"""Shared generators for randomized tests (all callers pass a seeded rng) and
independent formulas the library is checked against."""

import numpy as np

from qcorr import XColumns, lindblad_rhs, validate
from qcorr.linalg import partial_transpose_b, trace_norm
from qcorr.measures import _PAULI_A


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


def assert_block_supported(vectors, blocks):
    """Every column is exactly zero outside one of the blocks."""
    for col in vectors.T:
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
    prods = [sqrt_rho @ op for op in _PAULI_A]
    w = np.empty(sqrt_rho.shape[:-2] + (3, 3))
    for i in range(3):
        for j in range(i, 3):
            w[..., i, j] = w[..., j, i] = np.trace(prods[i] @ prods[j], axis1=-2, axis2=-1).real
    return w


def w_matrix_by_matmul(sqrt_rho: np.ndarray) -> np.ndarray:
    """W from the products A_i = sqrt(rho) s_i^(A) formed by matmul, contracted
    in one einsum and made exactly symmetric: the form the library's
    permuted-column construction reproduces bit for bit."""
    prods = sqrt_rho[..., None, :, :] @ _PAULI_A
    w = np.einsum("...iab,...jba->...ij", prods, prods).real
    return (w + w.swapaxes(-1, -2)) / 2.0


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
