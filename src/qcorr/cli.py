"""Command-line front end: trajectory scenarios, ESD times and steady-state
sweeps, all emitted as CSV in one pass of ``%.17g``, identical to ``format(v, ".17g")``."""

from __future__ import annotations

import argparse
import math
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


def _write_output(out: str | None, text: str):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


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


def _csv(header: str, columns) -> str:
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return f"{header}\n" + (row * len(table)) % tuple(table.ravel().tolist())


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


def build_parser() -> argparse.ArgumentParser:
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
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        print(f"qcorr: configuration error: {exc}", file=sys.stderr)
        return 2
    except (StepRejected, CrossCheckFailure, RangeViolation, np.linalg.LinAlgError) as exc:
        print(f"qcorr: run failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
