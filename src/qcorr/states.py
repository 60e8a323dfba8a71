"""Construction, validation and transformation of two-qubit X states.

``validate`` checks X-shaped matrices on their eight X entries and the others
as matrices, each group in the function that ``_checked`` gives
``linalg._per_route`` for it."""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .errors import DomainError, NotHermitian, NotPSD, TraceNotOne, raise_first
from .linalg import (_OFF_X, XColumns, _dense_root, _four_by_four, _per_route,
                     _require_hermitian_entries, _two_qubit, _x_root, is_x_shaped,
                     require_hermitian, x_columns)  # noqa: F401, re-exported

TRACE_TOL = 1e-10
# the flat positions (row-major, ascending) of the eight X entries, both triangles and the
# imaginary diagonal: an X row is read as these for the Hermiticity and trace checks alone
_X_ENTRIES = np.flatnonzero(~_OFF_X)


# The collective-basis form of an X state: |e> = |00>, |g> = |11> and the
# symmetric/antisymmetric one-excitation states |s>, |a>, in which the matrix
# is block diagonal with blocks {e, g} and {s, a}.
DickeColumns = namedtuple("DickeColumns", "ee gg ss aa eg sa")


def validate(rho) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of a 4x4 density matrix
    or of every matrix of a stack (..., 4, 4).

    Returns the input as a complex ndarray on success; raises NotHermitian,
    TraceNotOne or NotPSD naming the violated bound and its magnitude, for
    the first failing matrix of a stack in stack order (its flat position is
    ``index``).
    """
    rho = _four_by_four(rho)
    _per_route(rho, *_checked(_no_values, _no_values))
    return rho


def _no_values(data, roots) -> tuple:  # ``validate`` keeps nothing of a checked group
    return ()


# the checks of ``validate`` in order, on matrices (k, 4, 4) and on the eight X entries (k, 8)
# of X-shaped matrices (``_X_ENTRIES``); the last returns the square roots from the
# eigenvalues it solves, of the X entries' upper triangle (``_x_upper``)
_CHECKS = (require_hermitian, lambda m: _require_unit_trace(np.trace(m, axis1=1, axis2=2)),
           _dense_root)
_X_CHECKS = (lambda e: _require_hermitian_entries(e, _X_ENTRIES, 4),
             lambda e: _require_unit_trace(_x_trace(e)), lambda e: _x_root(_x_upper(e)))


def _x_trace(e: np.ndarray):  # summed as np.trace sums the diagonal of a 4x4 matrix or stack
    r11, _, r22, _, _, r33, _, r44 = e.T
    return (r11 + r22) + (r33 + r44)


def _x_upper(e: np.ndarray) -> XColumns:  # XColumns views of the eight X entries (k, 8)
    r11, r14, r22, r23, _, r33, _, r44 = e.T
    return XColumns(r11.real, r22.real, r33.real, r44.real, r14, r23)


def _checked(x_values, dense_values):
    """The group functions of ``linalg._per_route`` that run the checks of ``validate`` on
    their group (k, 4, 4) and return ``x_values(XColumns, XColumns of the square roots)``
    of X-shaped matrices, read once as their eight X entries (k, 8) and from the
    positivity check on as their upper triangle, or ``dense_values(matrices, square
    roots)`` of the others."""
    def on_x(m: np.ndarray):
        e = m.reshape(-1, 16)[:, _X_ENTRIES]
        return x_values(_x_upper(e), _run_checks(e, _X_CHECKS))

    return on_x, lambda m: dense_values(m, _run_checks(m, _CHECKS))


def _run_checks(data: np.ndarray, checks):
    """The last check's result on the rows of ``data``; each check sees only the rows
    before the first failure found so far, which is raised at the end."""
    failure, stop = None, len(data)
    for check in checks:
        try:
            out = check(data[:stop])
        except (NotHermitian, TraceNotOne, NotPSD) as exc:
            failure, stop = exc, exc.index
    if failure is not None:
        raise failure
    return out


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
