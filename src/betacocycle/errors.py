"""Exception types shared across the package."""


class BetaCocycleError(Exception):
    """Base class for all package-specific errors."""


# --- Pisot arithmetic ---

class NotPisot(BetaCocycleError):
    """Some conjugate of the dominant root has modulus >= 1."""


class NoRealRootAboveOne(BetaCocycleError):
    """The polynomial has no real root larger than 1."""


class ReduciblePolynomial(BetaCocycleError):
    """The polynomial has a detected nontrivial factor over the rationals."""


class InadmissibleDigits(BetaCocycleError):
    """Digit string is not reproduced by the greedy algorithm on its value."""


# --- cocycle engine ---

class NonFinite(BetaCocycleError):
    """A matrix factor evaluated to a non-finite value."""


class SingularFactor(BetaCocycleError):
    """A matrix factor has zero norm; the product cannot be renormalized."""


class NonMonotoneSums(BetaCocycleError):
    """Successive exterior-power growth sums increase; estimation failed."""


class UnboundedD(BetaCocycleError):
    """sup ||M|| ||M^-1|| exceeds the configured cap."""


class NegativeEntries(BetaCocycleError):
    """Positive-path distortion bound applied to data with negative entries."""


class NoCertificate(BetaCocycleError):
    """Neither the contraction nor the positivity condition holds."""


class CertificateViolated(BetaCocycleError):
    """Empirical joint-period discrepancy exceeds the certified bound."""


# --- multiperiodic equations ---

class NotSimpleEigenvalue(BetaCocycleError):
    """Eigenvalue 1 of the companion matrix at 0 is not simple."""


class ZeroVector(BetaCocycleError):
    """The solution vector vanishes; a logarithmic rate is undefined."""


class NotPrimitive(BetaCocycleError):
    """The 0/1 pattern matrix of the equation is not primitive."""


class QuadratureLevelExceeded(BetaCocycleError):
    """The requested quadrature level is deeper than the affordable one."""


# --- CLI ---

class ConfigInvalid(BetaCocycleError):
    """Experiment configuration failed validation."""


class UnknownSeries(BetaCocycleError):
    """Requested plot series is not present in the report."""


class ComputationError(BetaCocycleError):
    """A core operation failed while running a CLI command."""
