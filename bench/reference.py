"""Independent reference values and the row-by-row correctness gate.

The measures are recomputed here from their definitions with plain numpy,
so a change to qcorr's own eigensolver or measure routes cannot pass the
gate by agreeing with itself. qcorr is used only for its oracles: the
closed-form trajectory ``analytic_mixture``, the steady state
``steady_state_thermal`` and the generator ``lindblad_rhs``. Reference
states are propagated with ``scipy.linalg.expm``.

Tolerances come from the acceptance criteria and are never looser:
integrated states against exact ones 1e-8 (criterion 3), ESD times 1e-8
(criterion 4), and on an exact state 1e-8 for concurrence and LQU and
1e-10 for the other measures (criterion 5 and the cross-check tolerances).
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.linalg import expm

from qcorr.dynamics import analytic_mixture, lindblad_rhs, steady_state_thermal
from qcorr.model import ModelParams

EVOLVE_HEADER = "t,gamma_t,concurrence,negativity,log_negativity,lqu,min,ccc,l1_coherence,purity"
STEADY_MEASURES = ("concurrence", "log_negativity", "lqu", "min", "ccc")

STATE_TOL = 1e-8  # criterion 3: integrated state against the exact one
ESD_TOL = 1e-8  # criterion 4: gamma*tau against the true death time
EXACT_TOL = {"concurrence": 1e-8, "lqu": 1e-8, "log_negativity": 1e-10,
             "min": 1e-10, "ccc": 1e-10}
TIME_RTOL = 1e-12  # sample times and sweep grid values
DARK = 1e-12  # a concurrence at or below this counts as zero
MARGINAL_GAP = 1e-6  # below this the MIN measurement basis is not unique

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SY, _SY)
_PAULI = (np.array([[0.0, 1.0], [1.0, 0.0]]), _SY, np.diag([1.0, -1.0]))
_PAULI_A = [np.kron(p, np.eye(2)) for p in _PAULI]


class ReferenceUndefined(ValueError):
    """The reference cannot decide this row (degenerate MIN basis)."""


# ---------------------------------------------------------------------------
# reference measures


def _components(mat: np.ndarray) -> list[list[int]]:
    """Index sets of the connected components of the nonzero pattern."""
    n = len(mat)
    seen, comps = set(), []
    for start in range(n):
        if start in seen:
            continue
        comp, todo = [], [start]
        seen.add(start)
        while todo:
            i = todo.pop()
            comp.append(i)
            for j in range(n):
                if j not in seen and (mat[i, j] != 0 or mat[j, i] != 0):
                    seen.add(j)
                    todo.append(j)
        comps.append(sorted(comp))
    return comps


def eigh_blocks(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh on each block of the nonzero pattern; exact zeros stay exact."""
    n = len(mat)
    w = np.empty(n)
    v = np.zeros((n, n), dtype=complex)
    for idx in _components(mat):
        sub = np.ix_(idx, idx)
        w[idx], v[sub] = np.linalg.eigh(mat[sub])
    return w, v


def _sqrt_psd(rho: np.ndarray) -> np.ndarray:
    w, v = eigh_blocks(rho)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def _l1(mat: np.ndarray) -> float:
    a = np.abs(mat)
    return float(a.sum() - np.trace(a))


def _trace_out_b(rho):
    return np.trace(rho.reshape(2, 2, 2, 2), axis1=1, axis2=3)


def _trace_out_a(rho):
    return np.trace(rho.reshape(2, 2, 2, 2), axis1=0, axis2=2)


def concurrence_signed(rho: np.ndarray) -> float:
    """Wootters' l1 - l2 - l3 - l4, the l_i being the singular values of
    sqrt(rho) (sy x sy) conj(sqrt(rho)), i.e. the square roots of the
    eigenvalues of sqrt(rho) rho~ sqrt(rho), without amplifying round-off."""
    sq = _sqrt_psd(rho)
    lam = np.linalg.svd(sq @ _YY @ sq.conj(), compute_uv=False)
    return float(lam[0] - lam[1:].sum())


def measures(rho: np.ndarray) -> dict[str, float]:
    """Every CSV measure column of a two-qubit density matrix, from its definition."""
    sq = _sqrt_psd(rho)
    lam = np.linalg.svd(sq @ _YY @ sq.conj(), compute_uv=False)
    partial_transpose = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    neg = max(0.0, -float(eigh_blocks(partial_transpose)[0].min()))
    w_mat = np.array([[np.trace(sq @ a @ sq @ b).real for b in _PAULI_A] for a in _PAULI_A])
    lqu = 1.0 - np.linalg.eigvalsh(w_mat)[-1]

    gaps, basis = np.linalg.eigh(_trace_out_b(rho))
    if gaps[1] - gaps[0] <= MARGINAL_GAP:
        raise ReferenceUndefined(f"marginal of A is degenerate (gap {gaps[1] - gaps[0]:.1e})")
    residual = rho.copy()
    for k in range(2):
        proj = np.kron(np.outer(basis[:, k], basis[:, k].conj()), np.eye(2))
        residual -= proj @ rho @ proj
    min_trace = float(np.abs(eigh_blocks(residual)[0]).sum())

    return {
        "concurrence": max(0.0, float(lam[0] - lam[1:].sum())),
        "negativity": neg,
        "log_negativity": math.log2(2.0 * neg + 1.0),
        "lqu": float(min(1.0, max(0.0, lqu))),
        "min": min_trace,
        "ccc": _l1(rho) - _l1(_trace_out_b(rho)) - _l1(_trace_out_a(rho)),
        "l1_coherence": _l1(rho),
        "purity": float(np.sum(np.abs(rho) ** 2)),
    }


# ---------------------------------------------------------------------------
# reference states


def params(**kw) -> ModelParams:
    """ModelParams without the weak-coupling warning (the gate has no use for it)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return ModelParams(**kw)


def generator(p: ModelParams) -> np.ndarray:
    """16x16 matrix of the public lindblad_rhs on row-major vectorized states."""
    cols = []
    for k in range(16):
        basis = np.zeros((4, 4), dtype=complex)
        basis.flat[k] = 1.0
        cols.append(lindblad_rhs(basis, p).ravel())
    return np.column_stack(cols)


def propagate(gen: np.ndarray, rho0: np.ndarray, t: float) -> np.ndarray:
    rho = (expm(gen * t) @ rho0.ravel()).reshape(4, 4)
    return (rho + rho.conj().T) / 2.0


def mixture(w: float) -> np.ndarray:
    """w |01><01| + (1 - w) |phi+><phi+|."""
    phi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    rho = (1.0 - w) * np.outer(phi, phi).astype(complex)
    rho[1, 1] += w
    return rho


# ---------------------------------------------------------------------------
# row checks: each returns {row index: message} for the rows that fail


def _parse(text: str, header: str, rows: int) -> list[list[float] | None] | str:
    """Data rows as floats (None where malformed), or why the whole output
    is unusable: a wrong header or a wrong number of rows."""
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return f"header {lines[0] if lines else ''!r}, expected {header!r}"
    if len(lines) - 1 != rows:
        return f"{len(lines) - 1} data rows, expected {rows}"
    data = []
    for line in lines[1:]:
        try:
            vals = [float(x) for x in line.split(",")]
        except ValueError:
            vals = None
        data.append(vals if vals and len(vals) == header.count(",") + 1 else None)
    return data


def _check_rows(text: str, header: str, expected: list, check_row) -> dict[int, str]:
    """Run ``check_row(values, expected_item)`` -> message or None on every row."""
    data = _parse(text, header, len(expected))
    if isinstance(data, str):
        return dict.fromkeys(range(len(expected)), data)
    failed = {}
    for i, (row, item) in enumerate(zip(data, expected)):
        try:
            msg = "malformed row" if row is None else check_row(row, item)
        except ReferenceUndefined as exc:
            msg = str(exc)
        if msg:
            failed[i] = msg
    return failed


def _close(got: float, want: float, tol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= tol


def _same_grid(got: float, want: float) -> bool:
    return abs(got - want) <= TIME_RTOL * max(1.0, abs(want))


def check_evolve(text: str, times, states, gamma: float) -> dict[int, str]:
    """Evolve CSV against reference states at the expected sample times."""
    names = EVOLVE_HEADER.split(",")[2:]

    def row_ok(row, item):
        t, rho = item
        if not (_same_grid(row[0], t) and _same_grid(row[1], gamma * t)):
            return f"t = {row[0]!r}, gamma_t = {row[1]!r}; expected t = {t!r}"
        ref = measures(rho)
        bad = [f"{n} {v!r} vs {ref[n]!r}" for n, v in zip(names, row[2:])
               if not _close(v, ref[n], STATE_TOL)]
        return f"t = {t}: " + "; ".join(bad) if bad else None

    return _check_rows(text, EVOLVE_HEADER, list(zip(times, states)), row_ok)


def mixture_states(times, p: ModelParams) -> list[np.ndarray]:
    """Closed-form w = 1/2 mixture trajectory (criterion 3's oracle).

    At t = 0 the state is the initial one exactly: the closed form leaves
    round-off of 1e-17 in the zero population rho33 there, and LQU, which is
    not Lipschitz at rank-deficient states, turns that into 1.5e-8.
    """
    return [analytic_mixture(float(t), p).to_matrix() if t > 0.0 else mixture(0.5)
            for t in times]


def generator_states(times, p: ModelParams, rho0: np.ndarray) -> list[np.ndarray]:
    gen = generator(p)
    return [propagate(gen, rho0, float(t)) for t in times]


def check_steady(text: str, name: str, values, base: dict) -> dict[int, str]:
    """Steady sweep CSV against the reference measures of steady_state_thermal."""

    def row_ok(row, v):
        if not _same_grid(row[0], v):
            return f"{name} = {row[0]!r}, expected {v!r}"
        ref = measures(steady_state_thermal(params(**{**base, name: float(v)})).to_matrix())
        bad = [f"{n} {x!r} vs {ref[n]!r}" for n, x in zip(STEADY_MEASURES, row[1:])
               if not _close(x, ref[n], EXACT_TOL[n])]
        return f"{name} = {v}: " + "; ".join(bad) if bad else None

    return _check_rows(text, f"{name}," + ",".join(STEADY_MEASURES), list(values), row_ok)


def check_esd(text: str, name: str, values, w: float, nbar: float, gamma: float) -> dict[int, str]:
    """ESD sweep CSV: the reference concurrence of the J = Delta = 0 w-mixture
    must be positive ESD_TOL before gamma*tau and zero ESD_TOL after it."""
    gen0 = generator(params(j=0.0, delta=0.0, gamma=gamma, nbar=0.0))
    # lindblad_rhs is linear in the rates, so the generator is affine in nbar
    slope = generator(params(j=0.0, delta=0.0, gamma=gamma, nbar=1.0)) - gen0

    def row_ok(row, v):
        if not _same_grid(row[0], v):
            return f"{name} = {row[0]!r}, expected {v!r}"
        gt = row[1]
        if not (math.isfinite(gt) and gt >= 0.0):
            return f"{name} = {v}: gamma_tau = {gt!r}"
        wv, nb = (v, nbar) if name == "w" else (w, v)
        gen, rho0 = gen0 + nb * slope, mixture(wv)
        after = concurrence_signed(propagate(gen, rho0, (gt + ESD_TOL) / gamma))
        before = (concurrence_signed(propagate(gen, rho0, (gt - ESD_TOL) / gamma))
                  if gt > ESD_TOL else math.inf)
        if before > 0.0 and after <= DARK:
            return None
        return (f"{name} = {v}: reference concurrence {before!r} at gamma_tau - {ESD_TOL} "
                f"and {after!r} at gamma_tau + {ESD_TOL} bracket no death at {gt!r}")

    return _check_rows(text, f"{name},gamma_tau", list(values), row_ok)
