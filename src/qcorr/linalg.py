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
(``_psd_root``, ``_eigenvalues``). The one closed-form block structure is
the X pattern ((0, 3) and (1, 2)) of a 4x4 matrix. An X-shaped matrix
(``is_x_shaped``: exactly zero outside it) is solved block by block by the
column kernels ``_hermitian_2x2`` (eigenvalues and square root) and
``_singular_values_2x2``, which take each entry of a block as an array over
the stack; its exact zeros survive the solve. The same kernels solve X-shaped
matrices given by their eight X entries alone (``_X_ENTRIES``, named by
``XEntries``; ``_x_root``, ``_spin_flip_x``), as ``measures.correlations``
reads them, so an X-shaped matrix takes no dense complex matrix product;
matrices and X entries alike take their block eigenvalues and roots from
``_eigen_of_entries``. Every other matrix, 2x2 and 3x3 ones included, goes as
it is to LAPACK (``eigvalsh``, ``eigh`` or ``svd``) and to dense products,
and carries LAPACK's round-off even where it is block-sparse. A stack that
holds both kinds is solved as those two groups, so every matrix gets what it
gets alone. A function given a stack raises for its first failing matrix,
whose flat position the exception keeps as ``index``.
"""

from __future__ import annotations

import functools
from collections import namedtuple

import numpy as np

from .errors import NotHermitian, NotPSD, raise_first

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-10

# the X pattern of a 4x4 matrix, the only blocks solved in closed form (X states, their
# partial transposes and square roots), and the entries outside it
_X_BLOCKS = ((0, 3), (1, 2))
_OFF_X = np.array([[not any(i in b and j in b for b in _X_BLOCKS) for j in range(4)]
                   for i in range(4)])
# the flat positions (row-major) of the X entries, which the closed-form kernels take as a
# stack (k, 8) of columns named by XEntries(*x.T), 1-based, and each block's columns in it:
# (ii, ij, ji, jj)
_X_ENTRIES = np.flatnonzero(~_OFF_X)
_X_COLUMNS = [np.searchsorted(_X_ENTRIES, [p * 4 + q for p in b for q in b]) for b in _X_BLOCKS]
XEntries = namedtuple("XEntries", [f"r{p // 4 + 1}{p % 4 + 1}" for p in _X_ENTRIES])
_SPIN_FLIP_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])  # M (sy ox sy) = M[:, ::-1] * these


def require_hermitian(mat) -> np.ndarray:
    """Return ``mat`` (a matrix or a stack) as a float64 ndarray if it is
    real and as a complex one otherwise, raising NotHermitian if a matrix is
    not Hermitian within HERMITICITY_TOL or has a non-finite entry."""
    mat = np.asarray(mat)
    mat = mat.astype(complex if np.iscomplexobj(mat) else float, copy=False)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    n = mat.shape[-1]
    _require_hermitian_entries(mat.reshape(-1, n * n), np.arange(n * n), n)
    return mat


def _require_hermitian_entries(entries: np.ndarray, where: np.ndarray, n: int):
    """``require_hermitian`` of k matrices of size n given by their entries (k, E)
    at the flat positions ``where`` (ascending): every other entry is exactly zero,
    and each given entry's transposed partner is given too."""
    partner = np.searchsorted(where, where % n * n + where // n)
    with np.errstate(invalid="ignore"):  # a non-finite entry gives inf - inf: a nan deviation
        deviation = np.abs(entries - entries[:, partner].conj()).max(-1, initial=0.0)

    def describe(k: int) -> str:
        e = int(np.isfinite(entries[k]).argmin())  # the first non-finite entry, if any
        if not np.isfinite(entries[k, e]):
            return f"entry {divmod(int(where[e]), n)} = {entries[k, e]} is not finite"
        return f"max |M - M^dag| entry = {deviation[k]:.3e} exceeds {HERMITICITY_TOL:.1e}"

    raise_first(~(deviation <= HERMITICITY_TOL), NotHermitian, describe)


def is_x_shaped(rho):
    """True iff every entry outside the X pattern is exactly zero (-0.0
    counts as zero); one flag per matrix for a stack (..., 4, 4)."""
    return ~np.asarray(rho)[..., _OFF_X].any(-1)


def _per_route(a: np.ndarray, solve, *args) -> list[np.ndarray]:
    """``solve(matrices, x_shaped, *args)``, which returns arrays over the
    matrices' leading axis, applied to the X-shaped matrices of a stack
    (..., 4, 4) (``x_shaped``) and to the others; the results come back in
    stack order and shape. A stack of 2x2 or 3x3 matrices is solved whole
    with ``x_shaped`` false."""
    n = a.shape[-1]
    if n not in (2, 3, 4):
        raise ValueError(f"solver is specialized to sizes 2..4, got {n}")
    flat = a.reshape(-1, n, n)
    x = is_x_shaped(flat) if n == 4 else np.zeros(len(flat), bool)
    if not x.any() or x.all():  # one route (an empty stack takes LAPACK's): no scatter
        parts = solve(flat, bool(x.any()), *args)
    else:
        parts = None
        for route, rows in ((True, x), (False, ~x)):
            part = solve(flat[rows], route, *args)
            if parts is None:
                parts = [np.empty((len(flat),) + p.shape[1:], p.dtype) for p in part]
            for out, p in zip(parts, part):
                out[rows] = p
    return [p.reshape(a.shape[:-2] + p.shape[1:]) for p in parts]


def hermitian_eigenvalues(mat) -> np.ndarray:
    """Ascending eigenvalues of Hermitian matrices.

    An X-shaped 4x4 matrix (X states and their partial transposes) is
    solved block by block in closed form (``_hermitian_2x2``), and an exactly
    singular block keeps its exact zero eigenvalue. Every other matrix, 2x2
    and 3x3 ones included, goes to LAPACK ``eigvalsh``. Each matrix of a
    stack gets the result it would get on its own. ``mat`` is one matrix or
    a stack (..., m, m) of size 2, 3 or 4, Hermitian within HERMITICITY_TOL;
    real symmetric input is solved in real arithmetic.
    """
    return _eigenvalues(require_hermitian(mat))


def _eigenvalues(a: np.ndarray) -> np.ndarray:  # of matrices Hermitian by construction: no check
    return _per_route(a, _eigen_by_blocks, False)[0]


def _eigen_by_blocks(a: np.ndarray, x_shaped: bool, root: bool):
    """Ascending eigenvalues of a stack (k, n, n) of matrices, all X-shaped if ``x_shaped``
    and all LAPACK's otherwise; with ``root``, the eigenvalues (unordered from the X blocks)
    and the square roots V diag(sqrt(w)) V^dag (w clamped at zero), an X block's without an
    eigenvector matrix (``_hermitian_2x2``)."""
    if not x_shaped:
        if not root:
            return (np.linalg.eigvalsh(a),)
        w, v = np.linalg.eigh(a)
        out = v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]
        out = out @ np.conjugate(v, out=v).swapaxes(-1, -2)  # V is not read again
        out += out.conj().swapaxes(-1, -2)  # made exactly Hermitian
        return w, np.multiply(out, 0.5, out=out)
    flat = a.reshape(-1, 16)
    w, entries = _eigen_of_entries(flat[:, _X_ENTRIES], root)
    if not root:
        return (np.sort(w, axis=-1),)
    out = np.zeros_like(flat)
    out[:, _X_ENTRIES] = entries
    return w, out.reshape(a.shape)


def _eigen_of_entries(e: np.ndarray, root: bool):
    """Unordered eigenvalues (k, 4) of the X-shaped matrices with the X entries e (k, 8),
    and with ``root`` the X entries of their square roots (else None), each block's from
    ``_hermitian_2x2``."""
    w, out = np.empty((len(e), 4)), np.empty_like(e) if root else None
    for (i, j), (ii, ij, ji, jj) in zip(_X_BLOCKS, _X_COLUMNS):
        w[:, i], w[:, j], *block = _hermitian_2x2(e[:, ii].real, e[:, jj].real, e[:, ji], root)
        if root:
            out[:, ii], out[:, jj], out[:, ij] = block
            out[:, ji] = out[:, ij].conj()
    return w, out


def _power_of_two(*parts: np.ndarray) -> np.ndarray:
    """Exponent e with every |part| < 2^e: dividing by 2^e is exact and keeps
    products of the scaled entries finite."""
    return np.frexp(functools.reduce(np.maximum, map(abs, parts)))[1]


def _scaled(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    return np.ldexp(z.real, -e) + 1j * np.ldexp(z.imag, -e)


def _hermitian_2x2(a: np.ndarray, d: np.ndarray, lower: np.ndarray, root: bool):
    """Eigenvalues (lower, upper) of the Hermitian [[a, lower*], [lower, d]],
    elementwise over arrays, and with ``root`` the entries (aa, dd, ad) of its
    square root; LAPACK reads the lower triangle, and so does this.

    With b = lower*, mid = (a + d)/2, h = (a - d)/2 and r = hypot(h, |b|), the
    eigenvalue of the larger magnitude is mid + sign(mid) r and the other one is
    the determinant over it, so neither comes from a cancelling difference; the
    upper unit eigenvector u = (x, y), along (r + |h|, b*) for h >= 0 and
    (b, r + |h|) for h < 0, has no cancelling entry either. The block is scaled
    by a power of two first, so that finite entries of any magnitude give finite
    products. The root s_up |u><u| + s_lo (1 - |u><u|), s = sqrt(max(w, 0)), has
    the two-term entries s_up |x|^2 + s_lo |y|^2, s_up |y|^2 + s_lo |x|^2 and
    (s_up - s_lo) x y*. Where ``lower`` is exactly zero the results are exactly
    those of the two 1x1 blocks, with the eigenvalues (a, d) in that order.
    """
    e = _power_of_two(a, d, lower.real, lower.imag)
    sa, sd, b = np.ldexp(a, -e), np.ldexp(d, -e), _scaled(lower.conj(), e)
    mid, h, b_sq = 0.5 * (sa + sd), 0.5 * (sa - sd), b.real * b.real + b.imag * b.imag
    r = np.hypot(h, np.sqrt(b_sq))
    big = mid + np.copysign(r, mid)
    small = np.divide(sa * sd - b_sq, big, out=np.zeros_like(big), where=big != 0.0)
    up = ~np.signbit(mid)  # big is the upper eigenvalue
    split = lower == 0
    lo = np.where(split, a, np.ldexp(np.where(up, small, big), e))
    hi = np.where(split, d, np.ldexp(np.where(up, big, small), e))
    if not root:
        return lo, hi
    t = r + abs(h)
    norm = np.hypot(t, np.sqrt(b_sq))
    t, norm = np.where(norm > 0.0, t, 1.0), np.where(norm > 0.0, norm, 1.0)  # b = 0, a = d: e1
    x, y = np.where(h >= 0.0, t, b) / norm, np.where(h >= 0.0, b.conj(), t) / norm
    s_lo, s_up = np.sqrt(np.maximum(lo, 0.0)), np.sqrt(np.maximum(hi, 0.0))
    xx, yy = x.real * x.real + x.imag * x.imag, y.real * y.real + y.imag * y.imag
    return (lo, hi, np.where(split, s_lo, s_up * xx + s_lo * yy),
            np.where(split, s_up, s_up * yy + s_lo * xx),
            np.where(split, 0.0, (s_up - s_lo) * (x * y.conj())))


def _singular_values_2x2(m00, m01, m10, m11) -> tuple[np.ndarray, np.ndarray]:
    """Singular values (s_max, s_min) of [[m00, m01], [m10, m11]], elementwise over
    arrays: s_max = sqrt of the upper eigenvalue of M^dag M and s_min = |det M| / s_max,
    the block scaled by a power of two first, or |m00| and |m11| where m01 = m10 = 0."""
    entries = m00, m01, m10, m11
    e = _power_of_two(*(z.real for z in entries), *(z.imag for z in entries))
    n00, n01, n10, n11 = (_scaled(z, e) for z in entries)
    g00, g11 = abs(n00) ** 2 + abs(n10) ** 2, abs(n01) ** 2 + abs(n11) ** 2
    top = np.sqrt(0.5 * (g00 + g11) + np.hypot(0.5 * (g00 - g11),
                                               abs(n00.conj() * n01 + n10.conj() * n11)))
    det = abs(n00 * n11 - n01 * n10)
    split = (m01 == 0) & (m10 == 0)
    return (np.where(split, abs(m00), np.ldexp(top, e)),
            np.where(split, abs(m11), np.ldexp(np.divide(det, top, out=np.zeros_like(top),
                                                         where=top > 0.0), e)))


def singular_values(mat) -> np.ndarray:
    """Singular values, descending, of a complex matrix of size 2, 3 or 4 or
    of each matrix of a stack (..., m, m).

    As in ``hermitian_eigenvalues``, an X-shaped 4x4 matrix gives, for each
    X block [[m00, m01], [m10, m11]], s_max = sqrt of the upper eigenvalue of
    M^dag M and s_min = |det M| / s_max (the block scaled by a power of two
    first), or |m00| and |m11| when m01 = m10 = 0. Every other matrix goes to
    ``np.linalg.svd``.
    """
    m = np.asarray(mat, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return _per_route(m, _singular_values_by_blocks)[0]


def _singular_values_by_blocks(m: np.ndarray, x_shaped: bool) -> tuple[np.ndarray]:
    if not x_shaped:
        return (np.linalg.svd(m, compute_uv=False),)
    s = np.empty(m.shape[:-1])
    for i, j in _X_BLOCKS:
        s[:, i], s[:, j] = _singular_values_2x2(m[:, i, i], m[:, i, j], m[:, j, i], m[:, j, j])
    return (-np.sort(-s, axis=-1),)


def _require_min_eigenvalue(lam_min: np.ndarray):
    raise_first(lam_min < -PSD_TOL, NotPSD,
                lambda k: f"minimum eigenvalue {lam_min.flat[k]:.3e} below -{PSD_TOL:.1e}")


def psd_sqrt(mat) -> np.ndarray:
    """Hermitian square root of a PSD matrix (or of each matrix of a stack).

    Eigenvalues in [-PSD_TOL, 0) are treated as integrator round-off and
    clamped to zero; anything below -PSD_TOL raises NotPSD. As in
    ``hermitian_eigenvalues``, an X-shaped 4x4 matrix gets each X block's
    root in closed form from its eigenpairs, without an eigenvector matrix or
    a matrix product; it keeps every exact zero, and an off-diagonal entry
    that is exactly zero gives exactly the roots of the two diagonal entries.
    Every other matrix takes V diag(sqrt(w)) V^dag of LAPACK ``eigh``. Both
    are exactly Hermitian.
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
    itself, so for S inside the X pattern M has only the six X entries
    (``_spin_flip_x``); it maps any other pair onto other blocks, which makes M one 4x4
    block, so every other S takes the dense product and ``np.linalg.svd``."""
    return _per_route(s, _spin_flip_by_blocks)[0]


def _spin_flip_by_blocks(s: np.ndarray, x_shaped: bool) -> tuple[np.ndarray]:
    if not x_shaped:
        return (np.linalg.svd((s[..., ::-1] * _SPIN_FLIP_SIGNS) @ s.conj(), compute_uv=False),)
    return (_spin_flip_x(s.reshape(-1, 16)[:, _X_ENTRIES]),)


def _spin_flip_x(s: np.ndarray) -> np.ndarray:
    """``_spin_flip_singular_values`` of X-shaped S given by their X entries (k, 8):
    the six X entries of M, and each block's singular values in closed form."""
    s = XEntries(*s.T)
    m14, m23 = -(s.r11 * s.r44 + s.r14 * s.r41), s.r22 * s.r33 + s.r23 * s.r32
    sv = (*_singular_values_2x2(-2.0 * (s.r11 * s.r14), m14, m14, -2.0 * (s.r41 * s.r44)),
          *_singular_values_2x2(2.0 * (s.r22 * s.r23), m23, m23, 2.0 * (s.r32 * s.r33)))
    return -np.sort(-np.stack(sv, axis=-1), axis=-1)


def _x_root(x: np.ndarray) -> np.ndarray:
    """``_psd_root`` of X-shaped matrices given by their X entries (k, 8): those of the roots."""
    w, root = _eigen_of_entries(x, True)
    _require_min_eigenvalue(w.min(-1))
    return root


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
