"""Dense complex linear algebra for the small Hermitian matrices used here:
the eigensolver, the PSD check and square root, the trace norm and the
two-qubit partial transpose (on the second qubit; the partial transpose on
the first has the same spectrum).

All operations target exact sizes (2x2, 3x3, 4x4) and broadcast over stacks
of shape (..., m, m). Every eigenproblem goes through
``hermitian_eigensystem``: LAPACK ``eigh`` on the matrices with their indices
reordered into the blocks of their nonzero pattern, so that structural zeros
(the X pattern above all) survive the solve exactly. A function given a
stack raises for its first failing matrix, whose flat position the exception
keeps as ``index``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian, NotPSD, raise_first

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-10

_PATTERN_BITS = 1 << np.arange(16)


@dataclass(frozen=True)
class HermitianEigensystem:
    """Eigenvalues in ascending order; eigenvectors as matching orthonormal
    columns. Both carry the leading (stack) axes of the input."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _dagger(mat: np.ndarray) -> np.ndarray:
    return mat.conj().swapaxes(-1, -2)


def require_hermitian(mat) -> np.ndarray:
    """Return ``mat`` (a matrix or a stack) as a complex ndarray, raising
    NotHermitian if a matrix is not Hermitian within HERMITICITY_TOL or has a
    non-finite entry."""
    mat = np.asarray(mat, dtype=complex)
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


@functools.lru_cache(maxsize=None)
def _block_order(pattern: int, n: int) -> tuple[list[int], list[int]]:
    """Index order in which every connected component of the nonzero pattern
    (bit i*n + j set iff entry (i, j) is nonzero, read symmetrically) is
    contiguous, ascending within a component; and the inverse permutation."""
    nonzero = [[bool(pattern >> (i * n + j) & 1) for j in range(n)] for i in range(n)]
    label = list(range(n))  # smallest index of each index's component
    for i, row in enumerate(nonzero):
        for j in range(i):
            if (row[j] or nonzero[j][i]) and label[i] != label[j]:
                lo, hi = sorted((label[i], label[j]))
                label = [lo if lab == hi else lab for lab in label]
    order = sorted(range(n), key=label.__getitem__)
    return order, sorted(range(n), key=order.__getitem__)


def hermitian_eigensystem(mat) -> HermitianEigensystem:
    """Diagonalize Hermitian matrices with one LAPACK solve per nonzero pattern.

    The matrices of a stack are grouped by their exact nonzero pattern. For
    each group the indices are reordered so that every block of the pattern
    is contiguous (an X state splits into {0, 3} and {1, 2}) and the whole
    group goes to one ``eigh`` call. The tridiagonal reduction then never
    mixes two blocks, so structural zeros stay exactly zero in the
    eigenvectors and an exactly singular block keeps its exact zero
    eigenvalue. Every matrix gets the result it would get on its own.

    Parameters
    ----------
    mat : array_like
        Hermitian matrix (within HERMITICITY_TOL on max |M - M^dag|) of size
        2, 3 or 4, or a stack (..., m, m) of them.

    Returns
    -------
    HermitianEigensystem
        Ascending eigenvalues and orthonormal eigenvector columns, so that
        V diag(w) V^dag reconstructs each input.
    """
    a = require_hermitian(mat)
    n = a.shape[-1]
    if n not in (2, 3, 4):
        raise ValueError(f"solver is specialized to sizes 2..4, got {n}")
    flat = a.reshape(-1, n, n)
    keys = (flat != 0).reshape(len(flat), n * n).view(np.uint8) @ _PATTERN_BITS[: n * n]
    groups = set(keys.tolist())
    if len(groups) == 1:  # one pattern, as for a lone matrix: solve in place
        return _solve_in_block_order(a, *groups)
    w, v = np.empty(flat.shape[:2]), np.empty_like(flat)
    for key in groups:
        rows = keys == key
        part = _solve_in_block_order(flat[rows], key)
        w[rows], v[rows] = part.eigenvalues, part.eigenvectors
    return HermitianEigensystem(w.reshape(a.shape[:-1]), v.reshape(a.shape))


def _solve_in_block_order(a: np.ndarray, pattern: int) -> HermitianEigensystem:
    """One ``eigh`` call on matrices that share the nonzero pattern ``pattern``."""
    order, inverse = _block_order(pattern, a.shape[-1])
    w, v = np.linalg.eigh(a.take(order, -2).take(order, -1))
    return HermitianEigensystem(w, v.take(inverse, -2))


def require_psd(mat) -> HermitianEigensystem:
    """Eigensystem of a Hermitian matrix (or of each matrix of a stack),
    raising NotPSD if a minimum eigenvalue lies below -PSD_TOL."""
    es = hermitian_eigensystem(mat)
    lam_min = es.eigenvalues[..., 0]
    raise_first(lam_min < -PSD_TOL, NotPSD,
                lambda k: f"minimum eigenvalue {lam_min.flat[k]:.3e} below -{PSD_TOL:.1e}")
    return es


def psd_sqrt(mat) -> np.ndarray:
    """Hermitian square root of a PSD matrix (or of each matrix of a stack).

    Eigenvalues in [-PSD_TOL, 0) are treated as integrator round-off and
    clamped to zero; anything below -PSD_TOL raises NotPSD (``require_psd``).
    """
    es = require_psd(mat)
    w = np.sqrt(np.clip(es.eigenvalues, 0.0, None))
    root = (es.eigenvectors * w[..., None, :]) @ _dagger(es.eigenvectors)
    return (root + _dagger(root)) / 2.0


def trace_norm(mat):
    """||M||_1 of a Hermitian matrix, i.e. the sum of absolute eigenvalues."""
    return np.abs(hermitian_eigensystem(mat).eigenvalues).sum(-1)


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
