"""Dense linear algebra for the small Hermitian matrices used here: the
eigensolver, singular values, the PSD check and square root, and the
two-qubit partial transpose (on the second qubit; the partial transpose on
the first has the same spectrum).

All operations target exact sizes (2x2, 3x3, 4x4) and broadcast over stacks
of shape (..., m, m). The program reads two answers from its one
eigensolver: the eigenvalues (``hermitian_eigenvalues``), or the eigenvalues
together with the square root (``psd_sqrt``); every singular-value problem
goes through ``singular_values``. Internal solves of matrices that are
already checked or Hermitian by construction skip the re-check
(``_psd_root``, ``_eigenvalues``). Each size has fixed closed-form blocks:
the X pattern ((0, 3) and (1, 2)) of a 4x4 matrix, (0, 1) and (2,) of a 3x3
one and the whole of a 2x2 one. A matrix that is exactly zero outside them
is solved block by block in closed form, with the smaller 2x2 eigenvalue or
singular value taken as the determinant over the larger one, and the square
root built from each block's eigenpairs without an eigenvector matrix; its
exact zeros survive the solve, and a 2x2 block whose off-diagonal entry is
exactly zero gives exactly the results of its two 1x1 blocks. The
concurrence's spin-flip product of a square root inside the X pattern has
only the six X entries, which are formed one by one
(``_spin_flip_singular_values``). So a stack of X-shaped matrices takes no
dense complex matrix product. Every other matrix goes as it is to LAPACK
(``eigvalsh``, ``eigh`` or ``svd``) and to dense products, and carries
LAPACK's round-off even where it is block-sparse. A stack that holds both
kinds is solved as those two groups, so every matrix gets what it gets
alone. A function given a stack raises for its first failing
matrix, whose flat position the exception keeps as ``index``.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import NotHermitian, NotPSD, raise_first

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-10

# the blocks solved in closed form, per size: the X pattern of a 4x4 matrix (X
# states, their partial transposes and square roots), and the patterns of the
# 3x3 W and MIN Gram matrices and of 2x2 matrices; and the entries outside them
_SMALL_BLOCKS = {4: ((0, 3), (1, 2)), 3: ((0, 1), (2,)), 2: ((0, 1),)}
_OFF_BLOCKS = {n: np.array([[not any(i in b and j in b for b in blocks) for j in range(n)]
                            for i in range(n)]) for n, blocks in _SMALL_BLOCKS.items()}
_SPIN_FLIP_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])  # M (sy ox sy) = M[:, ::-1] * these


def _dagger(mat: np.ndarray) -> np.ndarray:
    return mat.conj().swapaxes(-1, -2)


def require_hermitian(mat) -> np.ndarray:
    """Return ``mat`` (a matrix or a stack) as a float64 ndarray if it is
    real and as a complex one otherwise, raising NotHermitian if a matrix is
    not Hermitian within HERMITICITY_TOL or has a non-finite entry."""
    mat = np.asarray(mat)
    mat = mat.astype(complex if np.iscomplexobj(mat) else float, copy=False)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    with np.errstate(invalid="ignore"):  # a non-finite entry gives inf - inf: a nan deviation
        deviation = np.abs(mat - _dagger(mat))
    if deviation.max(initial=0.0) <= HERMITICITY_TOL:
        return mat
    deviation = deviation.max(axis=(-2, -1))

    def describe(k: int) -> str:
        m = mat.reshape((-1,) + mat.shape[-2:])[k]
        if not np.isfinite(m).all():
            i, j = np.argwhere(~np.isfinite(m))[0]
            return f"entry ({i}, {j}) = {m[i, j]} is not finite"
        return f"max |M - M^dag| entry = {deviation.flat[k]:.3e} exceeds {HERMITICITY_TOL:.1e}"

    raise_first(~(deviation <= HERMITICITY_TOL), NotHermitian, describe)


def _per_route(a: np.ndarray, solve, *args) -> list[np.ndarray]:
    """``solve(matrices, small, *args)``, which returns arrays over the
    matrices' leading axis, applied to the matrices of a stack (..., n, n)
    that are zero outside the closed-form blocks of size n (``small``) and to
    the others; the results come back in stack order and shape."""
    n = a.shape[-1]
    if n not in _SMALL_BLOCKS:
        raise ValueError(f"solver is specialized to sizes 2..4, got {n}")
    flat = a.reshape(-1, n, n)
    small = ~(flat != 0)[:, _OFF_BLOCKS[n]].any(-1)
    if small.all() or not small.any():  # one route (an empty stack is small): no scatter
        parts = solve(flat, bool(small.all()), *args)
    else:
        parts = None
        for route, rows in ((True, small), (False, ~small)):
            part = solve(flat[rows], route, *args)
            if parts is None:
                parts = [np.empty((len(flat),) + p.shape[1:], p.dtype) for p in part]
            for out, p in zip(parts, part):
                out[rows] = p
    return [p.reshape(a.shape[:-2] + p.shape[1:]) for p in parts]


def hermitian_eigenvalues(mat) -> np.ndarray:
    """Ascending eigenvalues of Hermitian matrices.

    A matrix that is zero outside the closed-form blocks of its size (X
    states, their partial transposes, and the 3x3 W and MIN Gram matrices of
    X states) is solved block by block in closed form (``_hermitian_2x2``),
    and an exactly singular block keeps its exact zero eigenvalue. Every
    other matrix goes to LAPACK ``eigvalsh``. Each matrix of a stack gets the
    result it would get on its own. ``mat`` is one matrix or a stack
    (..., m, m) of size 2, 3 or 4, Hermitian within HERMITICITY_TOL; real
    symmetric input is solved in real arithmetic.
    """
    return _eigenvalues(require_hermitian(mat))


def _eigenvalues(a: np.ndarray) -> np.ndarray:  # of matrices Hermitian by construction: no check
    return _per_route(a, _eigen_by_blocks, False)[0]


def _eigen_by_blocks(a: np.ndarray, small: bool, root: bool):
    """Ascending eigenvalues of a stack (k, n, n) of matrices, all inside the closed-form
    blocks if ``small`` and all LAPACK's otherwise; with ``root``, the eigenvalues (unordered
    from closed-form blocks) and the square roots V diag(sqrt(w)) V^dag (w clamped at zero).
    A closed-form block [[a, b], [b*, d]] with the unit upper eigenvector u = (x, y) has the
    root s_up |u><u| + s_lo (1 - |u><u|), whose entries are the two-term sums
    s_up |x|^2 + s_lo |y|^2, s_up |y|^2 + s_lo |x|^2 and (s_up - s_lo) x y*; no eigenvector
    matrix is built and nothing is multiplied as a matrix."""
    if not small:
        if not root:
            return (np.linalg.eigvalsh(a),)
        w, v = np.linalg.eigh(a)
        out = v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]
        out = out @ np.conjugate(v, out=v).swapaxes(-1, -2)  # V is not read again
        out += _dagger(out)  # made exactly Hermitian
        return w, np.multiply(out, 0.5, out=out)
    w = np.empty(a.shape[:-1])
    out = np.zeros_like(a) if root else None
    for b in _SMALL_BLOCKS[a.shape[-1]]:
        if len(b) == 1:
            w[:, b[0]] = a[:, b[0], b[0]].real
            if root:
                out[:, b[0], b[0]] = np.sqrt(np.maximum(w[:, b[0]], 0.0))
            continue
        i, j = b
        lower = a[:, j, i]  # LAPACK reads the lower triangle; so does this
        w[:, i], w[:, j], vec = _hermitian_2x2(a[:, i, i].real, a[:, j, j].real, lower.conj(), root)
        if root:
            x, y = vec
            s_lo, s_up = np.sqrt(np.maximum(w[:, i], 0.0)), np.sqrt(np.maximum(w[:, j], 0.0))
            xx, yy = x.real * x.real + x.imag * x.imag, y.real * y.real + y.imag * y.imag
            out[:, i, i], out[:, j, j] = s_up * xx + s_lo * yy, s_up * yy + s_lo * xx
            out[:, i, j] = (s_up - s_lo) * (x * y.conj())
            out[:, j, i] = out[:, i, j].conj()
        split = np.flatnonzero(lower == 0)  # a diagonal block: the results of its 1x1 blocks
        w[split, i], w[split, j] = a[split, i, i].real, a[split, j, j].real
        if root:
            out[np.ix_(split, b, b)] = np.sqrt(np.maximum(w[split][:, b], 0.0))[:, None] * np.eye(2)
    return (w, out) if root else (np.sort(w, axis=-1),)


def _power_of_two(*parts: np.ndarray) -> np.ndarray:
    """Exponent e with every |part| < 2^e: dividing by 2^e is exact and keeps
    products of the scaled entries finite."""
    return np.frexp(functools.reduce(np.maximum, map(abs, parts)))[1]


def _scaled(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    return np.ldexp(z.real, -e) + 1j * np.ldexp(z.imag, -e)


def _hermitian_2x2(a: np.ndarray, d: np.ndarray, b: np.ndarray, vectors: bool):
    """(lower, upper eigenvalue, unit eigenvector (x, y) of the upper one if
    ``vectors``, else None) of the Hermitian [[a, b], [b*, d]], elementwise
    over arrays.

    With mid = (a + d)/2, h = (a - d)/2 and r = hypot(h, |b|), the eigenvalue
    of the larger magnitude is mid + sign(mid) r and the other one is the
    determinant over it, so neither comes from a cancelling difference; the
    eigenvector (r + |h|, b*) for h >= 0 and (b, r + |h|) for h < 0 has no
    cancelling entry either. The block is scaled by a power of two first,
    so that finite entries of any magnitude give finite products.
    """
    e = _power_of_two(a, d, b.real, b.imag)
    a, d, b = np.ldexp(a, -e), np.ldexp(d, -e), _scaled(b, e)
    mid, h, b_sq = 0.5 * (a + d), 0.5 * (a - d), b.real * b.real + b.imag * b.imag
    r = np.hypot(h, np.sqrt(b_sq))
    big = mid + np.copysign(r, mid)
    small = np.divide(a * d - b_sq, big, out=np.zeros_like(big), where=big != 0.0)
    up = ~np.signbit(mid)  # big is the upper eigenvalue
    lower, upper = np.ldexp(np.where(up, small, big), e), np.ldexp(np.where(up, big, small), e)
    if not vectors:
        return lower, upper, None
    t = r + abs(h)
    norm = np.hypot(t, np.sqrt(b_sq))
    t, norm = np.where(norm > 0.0, t, 1.0), np.where(norm > 0.0, norm, 1.0)  # b = 0, a = d: e1
    x, y = np.where(h >= 0.0, t, b) / norm, np.where(h >= 0.0, b.conj(), t) / norm
    return lower, upper, (x, y)


def singular_values(mat) -> np.ndarray:
    """Singular values, descending, of a complex matrix of size 2, 3 or 4 or
    of each matrix of a stack (..., m, m).

    As in ``hermitian_eigenvalues``, a matrix that is zero outside the
    closed-form blocks gives, for each block [[m00, m01], [m10, m11]],
    s_max = sqrt of the upper eigenvalue of M^dag M and s_min = |det M| / s_max
    (the block scaled by a power of two first), or |m00| and |m11| when
    m01 = m10 = 0; a 1x1 block gives its modulus. Every other matrix goes to
    ``np.linalg.svd``.
    """
    m = np.asarray(mat, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return _per_route(m, _singular_values_by_blocks)[0]


def _singular_values_by_blocks(m: np.ndarray, small: bool) -> tuple[np.ndarray]:
    if not small:
        return (np.linalg.svd(m, compute_uv=False),)
    s = np.empty(m.shape[:-1])
    for b in _SMALL_BLOCKS[m.shape[-1]]:
        if len(b) == 1:
            s[:, b[0]] = abs(m[:, b[0], b[0]])
            continue
        i, j = b
        entries = m[:, i, i], m[:, i, j], m[:, j, i], m[:, j, j]
        e = _power_of_two(*(z.real for z in entries), *(z.imag for z in entries))
        m00, m01, m10, m11 = (_scaled(z, e) for z in entries)
        g00, g11 = abs(m00) ** 2 + abs(m10) ** 2, abs(m01) ** 2 + abs(m11) ** 2
        top = np.sqrt(0.5 * (g00 + g11) + np.hypot(0.5 * (g00 - g11),
                                                   abs(m00.conj() * m01 + m10.conj() * m11)))
        det = abs(m00 * m11 - m01 * m10)
        s[:, i] = np.ldexp(top, e)
        s[:, j] = np.ldexp(np.divide(det, top, out=np.zeros_like(top), where=top > 0.0), e)
        split = np.flatnonzero((m[:, i, j] == 0) & (m[:, j, i] == 0))  # the 1x1 results
        s[split, i], s[split, j] = abs(m[split, i, i]), abs(m[split, j, j])
    return (-np.sort(-s, axis=-1),)


def _require_min_eigenvalue(lam_min: np.ndarray):
    raise_first(lam_min < -PSD_TOL, NotPSD,
                lambda k: f"minimum eigenvalue {lam_min.flat[k]:.3e} below -{PSD_TOL:.1e}")


def psd_sqrt(mat) -> np.ndarray:
    """Hermitian square root of a PSD matrix (or of each matrix of a stack).

    Eigenvalues in [-PSD_TOL, 0) are treated as integrator round-off and
    clamped to zero; anything below -PSD_TOL raises NotPSD. As in
    ``hermitian_eigenvalues``, a matrix that is zero outside the closed-form
    blocks gets each block's root in closed form from its eigenpairs, without
    an eigenvector matrix or a matrix product; it keeps every exact zero, and
    an off-diagonal entry that is exactly zero gives exactly the roots of the
    two diagonal entries. Every other matrix takes V diag(sqrt(w)) V^dag of
    LAPACK ``eigh``. Both are exactly Hermitian.
    """
    return _psd_root(require_hermitian(mat))


def _psd_root(a: np.ndarray) -> np.ndarray:
    """``psd_sqrt`` of a stack already checked Hermitian: no second check."""
    w, root = _per_route(a.astype(complex, copy=False), _eigen_by_blocks, True)
    _require_min_eigenvalue(w.min(-1))
    return root


def _spin_flip_singular_values(s: np.ndarray) -> np.ndarray:
    """Descending singular values of M = S (sy ox sy) S* for every Hermitian S of
    a stack (..., 4, 4), as ``singular_values`` finds them. M is complex
    symmetric: with S* = S^T, M_pq = sum_l sign(3 - l) S_pl S_q(3-l), where the
    sign is that of row 3 - l in sy ox sy. l -> 3 - l maps each X block onto
    itself, so for S inside the X pattern M has only the six X entries, written
    out here; it maps any other pair onto other blocks, which makes M one 4x4
    block, so every other S takes the dense product and ``np.linalg.svd``."""
    return _per_route(s, _spin_flip_by_blocks)[0]


def _spin_flip_by_blocks(s: np.ndarray, small: bool) -> tuple[np.ndarray]:
    if not small:
        return (np.linalg.svd((s[..., ::-1] * _SPIN_FLIP_SIGNS) @ s.conj(), compute_uv=False),)
    m = np.zeros_like(s)
    m[:, 0, 0], m[:, 3, 3] = -2.0 * (s[:, 0, 0] * s[:, 0, 3]), -2.0 * (s[:, 3, 0] * s[:, 3, 3])
    m[:, 1, 1], m[:, 2, 2] = 2.0 * (s[:, 1, 1] * s[:, 1, 2]), 2.0 * (s[:, 2, 1] * s[:, 2, 2])
    m[:, 0, 3] = m[:, 3, 0] = -(s[:, 0, 0] * s[:, 3, 3] + s[:, 0, 3] * s[:, 3, 0])
    m[:, 1, 2] = m[:, 2, 1] = s[:, 1, 1] * s[:, 2, 2] + s[:, 1, 2] * s[:, 2, 1]
    return _singular_values_by_blocks(m, True)


def _two_qubit(rho) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    return rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))


def partial_transpose_b(rho) -> np.ndarray:
    """Partial transpose of a two-qubit matrix with respect to the second qubit.

    Entry (i ox l, j ox k) of the output equals entry (i ox k, j ox l) of the
    input; the operation is an involution and preserves trace and Hermiticity.
    """
    r = _two_qubit(rho)
    return r.swapaxes(-3, -1).reshape(r.shape[:-4] + (4, 4))
