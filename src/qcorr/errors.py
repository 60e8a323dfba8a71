"""Exception types and record base classes shared across the package."""

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


class Record:
    """Base of the package's record types (``ModelParams``, ``CorrelationSet``,
    ``Trajectory``): a repr that lists the fields, and field-wise ``==``. The
    methods are plain ones, so creating a record class runs no generated code
    at import, as ``dataclasses`` would. A subclass lists its fields in
    constructor order as ``__match_args__`` and writes its own ``__init__``. A
    Record is mutable and unhashable. The bases live in this module, which
    every other imports, because a module of their own would cost one more
    load at every start-up."""

    __match_args__ = ()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__match_args__))

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, self.__match_args__, self._values())
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __eq__(self, other):
        """Field-wise ``np.array_equal``: records with array fields compare too,
        and fields of different shapes differ."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(self._values(), other._values()))


class FrozenRecord(Record):
    """A Record whose fields ``__init__`` sets once, through ``_set``; its hash
    is that of the fields (a TypeError when one is an array)."""

    def _set(self, **fields):
        self.__dict__.update(fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())
