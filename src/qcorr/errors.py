"""Exception types shared across the package."""

import numpy as np


class NotHermitian(ValueError):
    """Matrix is not Hermitian within tolerance."""


class NotPSD(ValueError):
    """Matrix has an eigenvalue below the allowed negative tolerance."""


class TraceNotOne(ValueError):
    """Density matrix trace differs from one beyond tolerance."""


class DomainError(ValueError):
    """Scalar argument outside its allowed domain."""


class DegenerateParams(ValueError):
    """Parameter combination without a unique answer (e.g. gamma = 0 steady state)."""


class CrossCheckFailure(RuntimeError):
    """Closed-form and general-definition routes disagree beyond tolerance."""


class RangeViolation(RuntimeError):
    """A computed quantity lies outside its allowed range or is not finite."""


class WeakCouplingWarning(UserWarning):
    """|J| or |Delta| exceeds omega/2, beyond the weak-interaction regime that
    the equal-rate relaxation model assumes; the equations stay exact."""


class StepRejected(RuntimeError):
    """A sampled state failed validation during time integration."""

    def __init__(self, time: float, reason: str):
        super().__init__(f"integration rejected at t = {time:.6g}: {reason}")
        self.time = time
        self.reason = reason


def raise_first(failed, error: type[Exception], describe) -> None:
    """Raise ``error(describe(k))`` for the first failing matrix k of a stack.

    ``failed`` holds one flag per matrix (0-d for a lone matrix); k is the
    flat position in C order and stays on the exception as ``index``, so a
    caller can map it back to a sample.
    """
    if failed.any():
        k = int(np.flatnonzero(failed)[0])
        exc = error(describe(k))
        exc.index = k
        raise exc
