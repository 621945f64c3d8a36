"""Exception taxonomy shared across the package.

Errors are deliberately fine-grained: callers routinely need to distinguish
"this configuration is singular, use the smeared path" from "the integrator
gave up" from "the measurement record is too noisy to invert".
"""


class UdwTomoError(Exception):
    """Base class for all package errors."""


class ConvergenceError(UdwTomoError, RuntimeError):
    """Quadrature failed to converge within its evaluation budget, or could
    not certify its tolerance; the message gives the error it reached."""


class LightconeSingularityError(UdwTomoError, ValueError):
    """Pointlike kernel evaluated on (or too close to) the lightcone.

    Callers should switch to the smeared / quadrature path.
    """


class CapacityError(UdwTomoError, ValueError):
    """Requested system size exceeds what the dense simulator stores."""


class ConsistencyError(UdwTomoError, RuntimeError):
    """An internal cross-check failed; usually indicates bad kernel input."""


class NoiseDominatedError(UdwTomoError, ValueError):
    """A correlator ratio left the arctanh domain (|ratio| >= 1)."""

    def __init__(self, message, ratio=None):
        super().__init__(message)
        self.ratio = ratio


class DephasingError(UdwTomoError, ValueError):
    """Correlators are indistinguishable from zero: fully dephasing regime."""


class TangentDomainError(UdwTomoError, ValueError):
    """A causal-correction product left the arctanh domain; ``k`` is the
    1-based label of the third detector whose term did."""

    def __init__(self, message, k=None):
        super().__init__(message)
        self.k = k


class InsufficientDataError(UdwTomoError, ValueError):
    """Too few usable points for a fit."""


class ConfigError(UdwTomoError, ValueError):
    """Invalid scenario configuration; names the offending field."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
