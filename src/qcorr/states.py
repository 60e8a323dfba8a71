"""Construction, validation and transformation of two-qubit X states."""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .errors import DomainError, NotHermitian, NotPSD, TraceNotOne, raise_first
from .linalg import (_X_ENTRIES, XEntries, _psd_root, _require_hermitian_entries, _two_qubit,
                     _x_root, is_x_shaped, require_hermitian)

TRACE_TOL = 1e-10


class XColumns(namedtuple("XColumns", "rho11 rho22 rho33 rho44 rho14 rho23")):
    """The six independent entries of X-shaped density matrices: scalars for
    one state, or arrays that broadcast to one entry per matrix of a stack.

    rho41 and rho32 are implied by Hermiticity. The X closed forms in
    ``measures`` take XColumns and give one value per matrix. XColumns itself
    is not validated: the constructors that return one validate what they
    build, and ``validate`` checks matrices. ``to_matrix`` writes exact zeros
    off the X pattern, which ``is_x_shaped`` requires.
    """

    __slots__ = ()

    def to_matrix(self) -> np.ndarray:
        """The (..., 4, 4) matrices of the broadcast fields; the inverse of
        ``x_columns``."""
        r11, r22, r33, r44, r14, r23 = np.broadcast_arrays(*self)
        m = np.zeros(r11.shape + (4, 4), dtype=complex)
        m[..., 0, 0], m[..., 1, 1], m[..., 2, 2], m[..., 3, 3] = r11, r22, r33, r44
        m[..., 0, 3], m[..., 3, 0] = r14, np.conj(r14)
        m[..., 1, 2], m[..., 2, 1] = r23, np.conj(r23)
        return m


# The collective-basis form of an X state: |e> = |00>, |g> = |11> and the
# symmetric/antisymmetric one-excitation states |s>, |a>, in which the matrix
# is block diagonal with blocks {e, g} and {s, a}.
DickeColumns = namedtuple("DickeColumns", "ee gg ss aa eg sa")


def x_columns(rho) -> XColumns:
    """The X entries of a 4x4 matrix, or arrays of them for a stack
    (..., 4, 4); entries off the X pattern are ignored."""
    rho = np.asarray(rho, dtype=complex)
    return XColumns(*(rho[..., i, i].real for i in range(4)), rho[..., 0, 3], rho[..., 1, 2])


def validate(rho) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of a 4x4 density matrix
    or of every matrix of a stack (..., 4, 4).

    Returns the input as a complex ndarray on success; raises NotHermitian,
    TraceNotOne or NotPSD naming the violated bound and its magnitude, for
    the first failing matrix of a stack (its flat position is ``index``).
    """
    rho = np.asarray(rho, dtype=complex)
    _checked_groups(rho)
    return rho


# the checks of ``validate`` in order, on a stack (k, 4, 4) and on the X entries (k, 8) of
# X-shaped matrices (``linalg._X_ENTRIES``); the last returns the square roots from the
# eigenvalues it solves
_CHECKS = (require_hermitian, lambda m: _require_unit_trace(np.trace(m, axis1=1, axis2=2)),
           _psd_root)
_X_CHECKS = (lambda x: _require_hermitian_entries(x, _X_ENTRIES, 4),
             lambda x: _require_unit_trace(_x_trace(XEntries(*x.T))), _x_root)


def _x_trace(e: XEntries):  # summed as np.trace sums the diagonal of a 4x4 matrix or stack
    return (e.r11 + e.r22) + (e.r33 + e.r44)


def _checked_groups(rho: np.ndarray) -> list:
    """``validate`` of a complex ndarray, flattened to (n, 4, 4), in two groups: the
    X-shaped matrices, read once as their X entries (k, 8), and the others. Returns
    (rows, x_shaped, X entries or matrices, square roots in the same form) for each
    nonempty group; raises for the first failing matrix of the whole stack."""
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    mats = rho.reshape(-1, 4, 4)
    x_rows = is_x_shaped(mats)
    groups, failures = [], []
    for rows, x_shaped in ((x_rows, True), (~x_rows, False)):
        if not rows.any():
            continue
        data = mats if rows.all() else mats[rows]
        data = data.reshape(-1, 16)[:, _X_ENTRIES] if x_shaped else data
        failure, stop = None, len(data)
        # each check sees only the matrices before the first failure found so far
        for check in _X_CHECKS if x_shaped else _CHECKS:
            try:
                checked = check(data[:stop])
            except (NotHermitian, TraceNotOne, NotPSD) as exc:
                failure, stop = exc, exc.index
        if failure is None:
            groups.append((rows, x_shaped, data, checked))
        else:
            failure.index = int(np.flatnonzero(rows)[failure.index])  # the stack's
            failures.append(failure)
    if failures:
        raise min(failures, key=lambda exc: exc.index)
    return groups


def _validated(x: XColumns) -> XColumns:
    """Return ``x`` after ``validate`` of all its matrices at once."""
    validate(x.to_matrix())
    return x


def _require_unit_trace(trace: np.ndarray):
    raise_first(abs(trace - 1.0) > TRACE_TOL, TraceNotOne,
                lambda k: f"trace = {complex(trace[k])!r}, |trace - 1| = {abs(trace[k] - 1.0):.3e}")


def to_dicke(x: XColumns) -> DickeColumns:
    """Rotate the one-excitation block of XColumns into the
    symmetric/antisymmetric basis; the entries are scalars or arrays alike."""
    rho32 = np.conj(x.rho23)
    half_sum = 0.5 * (x.rho22 + x.rho33)
    return DickeColumns(
        ee=x.rho11,
        gg=x.rho44,
        eg=x.rho14,
        ss=half_sum + rho32.real,
        aa=half_sum - rho32.real,
        sa=0.5 * (x.rho22 - x.rho33) + 1j * rho32.imag,
    )


def trace_out_b(rho) -> np.ndarray:
    """Reduced 2x2 state of qubit A for an arbitrary two-qubit matrix."""
    return np.einsum("...ijkj->...ik", _two_qubit(rho))


def trace_out_a(rho) -> np.ndarray:
    """Reduced 2x2 state of qubit B for an arbitrary two-qubit matrix."""
    return np.einsum("...ijil->...jl", _two_qubit(rho))


def purity(rho):
    """tr(rho^2) of a matrix or of every matrix of a stack; 1/4 for the
    maximally mixed state, 1 for pure states."""
    rho = np.asarray(rho, dtype=complex)
    return np.einsum("...ij,...ji->...", rho, rho).real


def make_mixture(w: float) -> XColumns:
    """Mixture w |01><01| + (1-w) |phi+><phi+| with |phi+> = (|00>+|11>)/sqrt(2)."""
    return _validated(_mixture(w))


def _mixture(w: float) -> XColumns:  # ``make_mixture`` without the validation of its matrix
    if not 0.0 <= w <= 1.0:
        raise DomainError(f"mixture weight must lie in [0, 1], got {w}")
    q = (1.0 - w) / 2.0
    return XColumns(rho11=q, rho22=w, rho33=0.0, rho44=q, rho14=q, rho23=0.0)


def make_werner(p: float) -> XColumns:
    """Werner state: p |psi-><psi-| + (1-p)/4 identity, p in [-1/3, 1]."""
    return _validated(_werner(p))


def _werner(p: float) -> XColumns:  # ``make_werner`` without the validation of its matrix
    if not -1.0 / 3.0 <= p <= 1.0:
        raise DomainError(f"Werner parameter must lie in [-1/3, 1], got {p}")
    return XColumns(
        rho11=(1.0 - p) / 4.0,
        rho22=(1.0 + p) / 4.0,
        rho33=(1.0 + p) / 4.0,
        rho44=(1.0 - p) / 4.0,
        rho14=0.0,
        rho23=-p / 2.0,
    )


def dumps_density_matrix(rho) -> str:
    """Serialize a 4x4 matrix as 4 lines of 4 're+imi' entries, 17 significant digits."""
    rho = np.asarray(rho, dtype=complex)
    lines = []
    for row in rho:
        lines.append(" ".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row))
    return "\n".join(lines) + "\n"


def loads_density_matrix(text: str) -> np.ndarray:
    """Parse the textual format produced by dumps_density_matrix."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 4:
        raise ValueError(f"expected 4 matrix rows, got {len(lines)}")
    out = np.zeros((4, 4), dtype=complex)
    for i, ln in enumerate(lines):
        tokens = ln.split()
        if len(tokens) != 4:
            raise ValueError(f"row {i + 1}: expected 4 entries, got {len(tokens)}")
        for j, tok in enumerate(tokens):
            if not tok.endswith("i"):
                raise ValueError(f"row {i + 1} entry {j + 1}: missing trailing 'i'")
            out[i, j] = complex(tok[:-1] + "j")
    return out
