"""Command-line front end: trajectory scenarios, ESD times and steady-state
sweeps, all emitted as CSV whose every cell is ``format(v, ".17g")`` byte for
byte. A numpy kernel writes the cells it can certify as correctly rounded;
the others (not finite, non-zero outside [1e-4, 1e17), where ``%.17g`` uses
scientific notation, or an exact tie) go through one batched ``%.17g``."""

from __future__ import annotations

import argparse
import functools
import math
import os
import stat
import sys
from pathlib import Path

import numpy as np

from .dynamics import MAX_SAMPLES, esd_gamma_tau, evolve, steady_correlations_thermal
from .errors import (
    CrossCheckFailure,
    DegenerateParams,
    DomainError,
    NotHermitian,
    NotPSD,
    RangeViolation,
    StepRejected,
    TraceNotOne,
    WeakCouplingWarning,
    raise_first,
)
from .measures import CorrelationSet
from .model import ModelParams
from .states import loads_density_matrix, make_mixture, make_werner, purity

EVOLVE_HEADER = "t,gamma_t,concurrence,negativity,log_negativity,lqu,min,ccc,l1_coherence,purity"
STEADY_COLUMNS = "concurrence,log_negativity,lqu,min,ccc"

# WeakCouplingWarning is caught only when warnings are raised as errors (python -W error)
_CONFIG_ERRORS = (DomainError, DegenerateParams, NotHermitian, TraceNotOne, NotPSD,
                  WeakCouplingWarning)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _check_output(out: str):
    """Fail before the run, without creating or truncating the file, on an
    --out path that is a directory, whose parent is not one or that cannot be
    looked up; _write_output still maps what this cannot see (permissions)."""
    try:
        writable = not stat.S_ISDIR(os.stat(out).st_mode)
    except FileNotFoundError:
        writable = os.path.isdir(os.path.dirname(out) or ".")
    except OSError as exc:  # the open would fail alike: a name too long, a parent not searchable
        raise DomainError(f"cannot write output file {out!r}: {exc}") from exc
    if not writable:
        raise DomainError(f"cannot write output file {out!r}")


def _write_output(out: str | None, text: str):
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise DomainError(f"cannot write output file {out!r}: {exc}") from exc


def _parse_sweep(spec: str, allowed: tuple[str, ...]) -> tuple[str, np.ndarray]:
    parts = spec.split(":")
    if len(parts) != 4:
        raise DomainError(f"sweep must be NAME:START:STOP:COUNT, got {spec!r}")
    name, start, stop, count = parts
    if name not in allowed:
        raise DomainError(f"sweep parameter must be one of {allowed}, got {name!r}")
    try:
        n, lo, hi = int(count), float(start), float(stop)
    except ValueError as exc:
        raise DomainError(f"malformed number in sweep {spec!r}: {exc}") from exc
    if not 1 <= n <= MAX_SAMPLES:  # the rows are evaluated as arrays of this length
        raise DomainError(f"sweep count must lie in [1, MAX_SAMPLES = {MAX_SAMPLES}], got {n}")
    if not math.isfinite(hi - lo):  # a bound is not finite or the span overflows
        raise DomainError(f"sweep bounds and their difference must be finite, got {spec!r}")
    return name, np.linspace(lo, hi, n)


def _initial_state(selector: str) -> np.ndarray:
    """The initial density matrix; ``evolve`` validates it."""
    family, colon, value = selector.partition(":")
    if colon and family in ("mixture", "werner"):
        try:
            param = float(value)
        except ValueError as exc:
            raise DomainError(f"malformed number in initial state {selector!r}: {exc}") from exc
        return (make_mixture if family == "mixture" else make_werner)(param).to_matrix()
    if selector.startswith("custom@"):
        path = selector.split("@", 1)[1]
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise DomainError(f"cannot read initial-state file {path!r}: {exc}") from exc
        try:
            return loads_density_matrix(text)
        except ValueError as exc:
            raise DomainError(f"malformed initial-state file {path!r}: {exc}") from exc
    raise DomainError(
        f"initial state must be mixture:W, werner:P or custom@FILE, got {selector!r}"
    )


# The CSV kernel writes each cell as format(v, ".17g") byte for byte. A cell x
# with 1e-4 <= |x| < 1e17, which %.17g writes in fixed notation, is written from
# the 17-digit integer N nearest to y = |x| * 10**(16 - e), e = floor(log10 |x|).
# 10**(16 - e) <= 1e20 is an exact double, so Dekker's TwoProduct (Veltkamp
# split; Numer. Math. 18, 224 (1971)) gives y exactly as float64 ph + s. The cell
# is certified when y >= 1e16 (e was right), N < 1e17 (no carry into an 18th
# digit) and the fraction of y is not .5 (an exact tie, which %.17g rounds to
# even). Zeros are written directly; every other cell, not certified, not finite
# or out of range, goes through one batched %.17g.
_CSV_BLOCK_CELLS = 2048  # cells per kernel pass; keeps its temporaries in cache
_EXP_MIN, _EXP_MAX = -4, 16  # the exponents e of certified cells


def _veltkamp(x):
    """x = hi + lo with hi on 26 bits, so that products of halves are exact."""
    c = 134217729.0 * x
    hi = c - (c - x)
    return hi, x - hi


# A cell's text is picked from a row of 6 little-endian words (48 bytes): "-0.000"
# D0 ".", four words "d.d.d.d." with digits D1 ... D16 each followed by a point,
# and a word holding only the separator, at byte 45. Digit d is byte 6 + 2d, the
# point after it byte 7 + 2d. The bytes a cell does not keep become NUL (the sign
# byte is NUL for a positive cell) and are deleted from the text.
def _words(rows) -> np.ndarray:
    return np.ascontiguousarray(rows, np.uint8).view("<u8")[:, 0]


def _digit_tables():
    """The 4 digits of 0 ... 9999 as "d.d.d.d." words, and their trailing zeros."""
    dotted = np.full((10000, 8), ord("."), np.uint8)
    dotted[:, ::2] = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + np.uint8(ord("0"))
    trailing = np.zeros(10000, np.intp)
    for k in (10, 100, 1000, 10000):
        trailing[::k] += 1
    return _words(dotted), trailing


def _keep_words() -> np.ndarray:
    """Row 17 * layout + (trailing zeros of N): the bytes of a row that a cell
    keeps as 0xff, the others as 0. Layout e + 4 is the fixed notation of the
    exponent e = -4 ... 16, layout 21 is zero."""
    layout = np.arange(22)[:, None, None]
    digits = 17 - np.arange(17)[:, None]
    col = np.arange(48)
    small, zero = layout < 4, layout == 21
    whole = np.where(small | zero, 0, layout - 3)  # digits before '.'
    digit = (col - 6) // 2  # of a digit byte or of the point after it
    is_digit = (col >= 6) & (col <= 38) & (col % 2 == 0)
    keep = (col == 0) | (col == 45) | (col == 1) & (small | zero) | (col == 2) & small
    keep = keep | small & (col >= 3) & (col < 6 - layout)
    keep = keep | is_digit & ~zero & (digit < np.maximum(digits, whole))
    keep = keep | (col >= 7) & (col % 2 == 1) & (digit == whole - 1) & (digits > whole)
    return (keep * np.uint8(255)).reshape(-1, 48).view("<u8")


_POW10 = np.array([float(10**p) for p in range(_EXP_MAX - _EXP_MIN + 1)])  # all exact
_POW10_HI, _POW10_LO = _veltkamp(_POW10)
_DIGIT_WORDS, _TRAILING_ZEROS = _digit_tables()
_LEAD_WORDS = _words([[sign, *b"0.000", d, ord(".")]
                      for sign in (0, ord("-")) for d in b"0123456789"])  # [10 * sign + D0]
_KEEP_WORDS = _keep_words()
_ZERO_ROW = 17 * 21


def _csv_block(block: np.ndarray, seps: np.ndarray) -> str:
    """The rows of ``block`` as CSV text, each cell followed by its column's
    separator, which ``seps`` holds at byte 5 of a word."""
    cells = block.ravel()
    a = np.abs(cells)
    certifiable = (a >= 1e-4) & (a < 1e17)
    a = np.where(certifiable, a, 1.0)  # keeps every step below finite
    e = np.clip(np.floor(np.log10(a)), _EXP_MIN, _EXP_MAX).astype(np.intp)
    p = _EXP_MAX - e
    a_hi, a_lo = _veltkamp(a)
    ph, t_hi, t_lo = a * _POW10[p], _POW10_HI[p], _POW10_LO[p]
    s = ((a_hi * t_hi - ph) + a_hi * t_lo + a_lo * t_hi) + a_lo * t_lo
    below = np.floor(s)
    frac = s - below
    floor_y = ph.astype(np.int64) + below.astype(np.int64)  # ph is an integer when >= 2**53
    n = floor_y + (frac > 0.5)
    ok = certifiable & (floor_y >= 10**16) & (n < 10**17) & (frac != 0.5)
    high, low = np.divmod(np.where(ok, n, 10**16), 10**8)
    groups = (high // 10**4 % 10**4, high % 10**4, low // 10**4, low % 10**4)
    words = np.empty((6, cells.size), "<u8")
    _LEAD_WORDS.take(high // 10**8 + 10 * np.signbit(cells), out=words[0])
    tz = 0
    for j, q in enumerate(groups, 1):
        _DIGIT_WORDS.take(q, out=words[j])
        t = _TRAILING_ZEROS.take(q)
        tz = tz * (t == 4) + t
    words[5].reshape(block.shape)[...] = seps
    text = _KEEP_WORDS.take(np.where(cells == 0.0, _ZERO_ROW, 17 * (e - _EXP_MIN) + tz), axis=0)
    text &= words.T
    fallback = np.flatnonzero(~ok & (cells != 0.0))
    if fallback.size:
        batch = ("%.17g " * fallback.size) % tuple(cells[fallback].tolist())
        chars = text.view(np.uint8)
        chars[fallback, :40] = 0
        chars[fallback, :24] = np.array(batch.split(), "S24").view(np.uint8).reshape(-1, 24)
    return text.tobytes().translate(None, b"\0").decode("ascii")


def _csv(header: str, columns) -> str:
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    seps = np.full(table.shape[1], ord(","), np.uint64)
    seps[-1] = ord("\n")
    seps <<= np.uint64(40)
    rows = max(1, _CSV_BLOCK_CELLS // table.shape[1])
    return "".join([f"{header}\n", *(_csv_block(table[i:i + rows], seps)
                                      for i in range(0, len(table), rows))])


def _require_in_range(cs: CorrelationSet, where):
    violation = cs.range_violation(where)
    if violation is not None:
        raise RangeViolation(f"correlation range violation at {violation}")


def cmd_evolve(args) -> int:
    params = ModelParams(j=args.j, delta=args.delta, omega=args.omega,
                         gamma=args.gamma, nbar=args.nbar)
    rho0 = _initial_state(args.initial)
    traj = evolve(rho0, params, t_max=args.t_max, dt=args.dt, stride=args.stride)
    _require_in_range(traj.correlations, lambda k: f"t = {traj.times[k]:.6g}")
    columns = (traj.times, params.gamma * traj.times, *traj.correlations.as_tuple(),
               purity(traj.states))
    _write_output(args.out, _csv(EVOLVE_HEADER, columns))
    return 0


def cmd_esd(args) -> int:
    name, values = (_parse_sweep(args.sweep, allowed=("w", "nbar")) if args.sweep is not None
                    else ("w", np.array([args.w])))
    w = values if name == "w" else args.w
    nbar = values if name == "nbar" else args.nbar
    gamma_tau = esd_gamma_tau(w, args.gamma, nbar)
    # finite and >= 0, except inf for the undying Bell state (w = 0 at nbar = 0)
    undying = np.equal(w, 0.0) & np.equal(nbar, 0.0)
    ok = (gamma_tau >= 0.0) & (np.isfinite(gamma_tau) | undying)
    raise_first(~ok, RangeViolation,
                lambda k: f"death time at {name} = {_fmt(values[k])} is gamma_tau = {gamma_tau[k]}")
    _write_output(args.out, _csv(f"{name},gamma_tau", (values, gamma_tau))
                  if args.sweep is not None else f"gamma_tau = {_fmt(gamma_tau[0])}\n")
    return 0


def cmd_steady(args) -> int:
    name, values = (_parse_sweep(args.sweep, allowed=("nbar", "delta")) if args.sweep is not None
                    else ("nbar", np.array([args.nbar])))
    fields = dict(j=args.j, delta=args.delta, omega=args.omega, gamma=args.gamma, nbar=args.nbar)
    params = ModelParams(**{**fields, name: values})
    try:
        cs = steady_correlations_thermal(params)
    except CrossCheckFailure as exc:
        raise CrossCheckFailure(f"at {name} = {_fmt(values[exc.index])}: {exc}") from exc
    _require_in_range(cs, lambda k: f"{name} = {_fmt(values[k])}")
    columns = (values, cs.concurrence, cs.log_negativity, cs.lqu, cs.min_trace,
               cs.correlated_coherence)
    _write_output(args.out, _csv(f"{name},{STEADY_COLUMNS}", columns))
    return 0


def _add_model_flags(parser: argparse.ArgumentParser, couplings: bool = True):
    """--gamma, --nbar and --out, and with ``couplings`` --delta, --j and --omega."""
    parser.add_argument("--gamma", type=float, default=0.1, help="relaxation rate (units of omega)")
    if couplings:
        parser.add_argument("--delta", type=float, default=0.5, help="anisotropic coupling")
        parser.add_argument("--j", type=float, default=0.1, help="isotropic coupling")
        parser.add_argument("--omega", type=float, default=1.0,
                            help="field strength / reference scale")
    parser.add_argument("--nbar", type=float, default=0.0, help="mean thermal excitation")
    parser.add_argument("--out", default=None, help="output file (default stdout)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser that every call of ``main`` in this process shares, built
    at first use; callers must not mutate it."""
    parser = argparse.ArgumentParser(
        prog="qcorr",
        description="Two-qubit XY-model decoherence: trajectories, ESD times and steady states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_evolve = sub.add_parser("evolve", help="integrate a scenario and emit correlation columns")
    _add_model_flags(p_evolve)
    p_evolve.add_argument("--initial", default="mixture:0.5",
                          help="mixture:W | werner:P | custom@FILE")
    p_evolve.add_argument("--t-max", type=float, default=100.0, dest="t_max")
    p_evolve.add_argument("--dt", type=float, default=1e-3)
    p_evolve.add_argument("--stride", type=int, default=100, help="sampling interval in steps")
    p_evolve.set_defaults(func=cmd_evolve)

    p_esd = sub.add_parser("esd", help="entanglement death time for decaying mixtures "
                           "(the J = Delta = 0 closed form)")
    _add_model_flags(p_esd, couplings=False)
    p_esd.add_argument("--w", type=float, default=0.5, help="mixture weight")
    p_esd.add_argument("--sweep", default=None, help="w:START:STOP:COUNT or nbar:START:STOP:COUNT")
    p_esd.set_defaults(func=cmd_esd)

    p_steady = sub.add_parser("steady", help="steady-state correlations, optionally swept")
    _add_model_flags(p_steady)
    p_steady.add_argument("--sweep", default=None,
                          help="nbar:START:STOP:COUNT or delta:START:STOP:COUNT")
    p_steady.set_defaults(func=cmd_steady)

    return parser


def _join_values(argv: list[str]) -> list[str]:
    """``--flag VALUE`` as ``--flag=VALUE`` where VALUE is a float that starts
    with '-': argparse takes -1e-3, -inf or -nan for an option, not a value."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and arg.startswith("-"):
            try:
                float(arg)
            except ValueError:
                pass
            else:
                out[-1] += f"={arg}"
                continue
        out.append(arg)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_join_values(sys.argv[1:] if argv is None else argv))
    try:
        if args.out is not None:
            _check_output(args.out)
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        print(f"qcorr: configuration error: {exc}", file=sys.stderr)
        return 2
    except (StepRejected, CrossCheckFailure, RangeViolation, np.linalg.LinAlgError) as exc:
        print(f"qcorr: run failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
