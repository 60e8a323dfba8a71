"""Construction, validation and transformation of two-qubit X states."""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .errors import DomainError, NotHermitian, NotPSD, TraceNotOne, raise_first
from .linalg import _OFF_BLOCKS, _psd_root, _two_qubit, require_hermitian

TRACE_TOL = 1e-10

# entries that must vanish in the X pattern: those outside linalg's 4x4 closed-form blocks
_OFF_X = _OFF_BLOCKS[4]


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
    _checked_sqrt(rho)
    return rho


def _checked_sqrt(rho: np.ndarray) -> np.ndarray:
    """``validate`` of a complex ndarray that returns the square roots of its matrices,
    flattened to (n, 4, 4), which the positivity check builds from the eigenvalues it
    solves (``linalg._psd_root``) without a second Hermiticity check."""
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    mats = rho.reshape(-1, 4, 4)
    failure, stop = None, len(mats)
    # each check sees only the matrices before the first failure found so far
    for check in (require_hermitian, _require_unit_trace, _psd_root):
        try:
            checked = check(mats[:stop])
        except (NotHermitian, TraceNotOne, NotPSD) as exc:
            failure, stop = exc, exc.index
    if failure is not None:
        raise failure
    return checked  # all three passed: the last one returned the square roots


def _validated(x: XColumns) -> XColumns:
    """Return ``x`` after ``validate`` of all its matrices at once."""
    validate(x.to_matrix())
    return x


def _require_unit_trace(mats: np.ndarray):
    trace = np.trace(mats, axis1=1, axis2=2)
    raise_first(abs(trace - 1.0) > TRACE_TOL, TraceNotOne,
                lambda k: f"trace = {complex(trace[k])!r}, |trace - 1| = {abs(trace[k] - 1.0):.3e}")


def is_x_shaped(rho):
    """True iff every entry outside the X pattern is exactly zero (-0.0
    counts as zero); one flag per matrix for a stack."""
    return ~np.asarray(rho)[..., _OFF_X].any(-1)


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
