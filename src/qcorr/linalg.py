"""Dense complex linear algebra for the small Hermitian matrices used here.

All operations target exact sizes (2x2, 3x3, 4x4). Every eigenproblem goes
through ``hermitian_eigensystem``: one LAPACK ``eigh`` call on the matrix with
its indices reordered into the blocks of its nonzero pattern, so that
structural zeros (the X pattern above all) survive the solve exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian, NotPSD

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-10


@dataclass(frozen=True)
class HermitianEigensystem:
    """Eigenvalues in ascending order; eigenvectors as matching orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def require_hermitian(mat, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Return ``mat`` as a complex ndarray, raising NotHermitian if it is not
    Hermitian or has a non-finite entry."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    deviation = float(np.abs(mat - mat.conj().T).max())  # not finite if an entry is not
    if not deviation <= tol:
        if not np.isfinite(mat).all():
            i, j = np.argwhere(~np.isfinite(mat))[0]
            raise NotHermitian(f"entry ({i}, {j}) = {mat[i, j]} is not finite")
        raise NotHermitian(f"max |M - M^dag| entry = {deviation:.3e} exceeds {tol:.1e}")
    return mat


def _block_order(a: np.ndarray) -> list[int]:
    """Index order in which every connected component of the nonzero pattern
    of ``a`` (read symmetrically) is contiguous, ascending within a component."""
    nonzero = (a != 0).tolist()
    label = list(range(len(nonzero)))  # smallest index of each index's component
    for i, row in enumerate(nonzero):
        for j in range(i):
            if (row[j] or nonzero[j][i]) and label[i] != label[j]:
                lo, hi = sorted((label[i], label[j]))
                label = [lo if lab == hi else lab for lab in label]
    return sorted(range(len(label)), key=label.__getitem__)


def hermitian_eigensystem(mat, tol: float = HERMITICITY_TOL) -> HermitianEigensystem:
    """Diagonalize a Hermitian matrix with one LAPACK solve in block order.

    The indices are first reordered so that every block of the exact nonzero
    pattern is contiguous (an X state splits into {0, 3} and {1, 2}). The
    tridiagonal reduction then never mixes two blocks, so structural zeros
    stay exactly zero in the eigenvectors and an exactly singular block keeps
    its exact zero eigenvalue.

    Parameters
    ----------
    mat : array_like
        Hermitian matrix of size 2, 3 or 4.
    tol : float
        Hermiticity tolerance on max |M - M^dag|.

    Returns
    -------
    HermitianEigensystem
        Ascending eigenvalues and orthonormal eigenvector columns, so that
        V diag(w) V^dag reconstructs the input.
    """
    a = require_hermitian(mat, tol)
    n = a.shape[0]
    if n not in (2, 3, 4):
        raise ValueError(f"solver is specialized to sizes 2..4, got {n}")
    order = _block_order(a)
    w, v = np.linalg.eigh(a.take(order, 0).take(order, 1))
    inverse = sorted(range(n), key=order.__getitem__)
    return HermitianEigensystem(w, v.take(inverse, 0))


def psd_sqrt(mat, tol: float = PSD_TOL) -> np.ndarray:
    """Hermitian square root of a PSD matrix.

    Eigenvalues in [-tol, 0) are treated as integrator round-off and clamped
    to zero; anything below -tol raises NotPSD.
    """
    es = hermitian_eigensystem(mat)
    if es.eigenvalues[0] < -tol:
        raise NotPSD(f"minimum eigenvalue {es.eigenvalues[0]:.3e} is below -{tol:.1e}")
    w = np.sqrt(np.clip(es.eigenvalues, 0.0, None))
    root = (es.eigenvectors * w) @ es.eigenvectors.conj().T
    return (root + root.conj().T) / 2.0


def trace_norm(mat) -> float:
    """||M||_1 of a Hermitian matrix, i.e. the sum of absolute eigenvalues."""
    es = hermitian_eigensystem(mat)
    return float(np.abs(es.eigenvalues).sum())


def partial_transpose_b(rho) -> np.ndarray:
    """Partial transpose of a two-qubit matrix with respect to the second qubit.

    Entry (i ox l, j ox k) of the output equals entry (i ox k, j ox l) of the
    input; the operation is an involution and preserves trace and Hermiticity.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    return rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4).copy()


def partial_transpose_a(rho) -> np.ndarray:
    """Partial transpose with respect to the first qubit (same spectrum as B)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    return rho.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4).copy()
