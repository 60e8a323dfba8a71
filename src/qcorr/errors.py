"""Exception types shared across the package."""


class NotHermitian(ValueError):
    """Matrix is not Hermitian within tolerance."""


class NotPSD(ValueError):
    """Matrix has an eigenvalue below the allowed negative tolerance."""


class TraceNotOne(ValueError):
    """Density matrix trace differs from one beyond tolerance."""


class NotXShaped(ValueError):
    """Density matrix has entries outside the X pattern."""


class DomainError(ValueError):
    """Scalar argument outside its allowed domain."""


class DegenerateParams(ValueError):
    """Parameter combination without a unique answer (e.g. gamma = 0 steady state)."""


class CrossCheckFailure(RuntimeError):
    """Closed-form and general-definition routes disagree beyond tolerance."""


class StepRejected(RuntimeError):
    """A sampled state failed validation during time integration."""

    def __init__(self, time: float, reason: str):
        super().__init__(f"integration rejected at t = {time:.6g}: {reason}")
        self.time = time
        self.reason = reason


class NoDeath(RuntimeError):
    """Concurrence never reached zero on the search horizon."""

    def __init__(self, horizon: float):
        super().__init__(f"concurrence stays positive up to t = {horizon:.6g}")
        self.horizon = horizon
