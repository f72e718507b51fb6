"""Matrix cocycles over beta-orbits: Lyapunov spectra, joint-period
certificates, and multiperiodic functional equations."""

from .apcore import (
    TrigPolynomial,
    bohr_mean_exact,
    constant,
    cosine,
    harmonic,
    sine,
    trig_poly,
    weyl_equidistribution_defect,
)
from .cocycle import (
    BetaAdaptedMatrix,
    EstimationSpec,
    JointPeriodCertificate,
    NormalizedProduct,
    OseledecSpectrum,
    beta_adapted_matrix,
    constant_matrix,
    distortion_bound,
    exterior_power,
    joint_period_certificate,
    joint_period_verify,
    lyapunov_spectrum,
    lyapunov_top,
    orbit_fractions,
    oseledec_at,
    product,
    scalar_matrix,
    subadditive_sequence,
)
from .errors import BetaCocycleError
from .multiperiodic import (
    MultiperiodicEquation,
    SolutionEvaluator,
    asymptotic_exponent,
    bernoulli_convolution,
    check_simple_eigenvalue,
    companion_matrix,
    moment_growth,
    moment_integral_F,
    multiperiodic_equation,
    solve,
    theoremB_gate,
    theoremC_gate,
)
from .pisot import (
    BetaDigits,
    BetaInterval,
    FieldElement,
    PisotNumber,
    admissible_strings,
    beta_expand,
    beta_interval,
    is_admissible,
    make_pisot,
    trace_power,
    translation_lattice,
)

__version__ = "0.1.0"
