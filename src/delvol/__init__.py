"""Delayed weakly singular Volterra equations.

Uniform-grid solver for state equations with a power-law convolution kernel
and a constant time lag, the matching delayed comparison (Gronwall-type)
majorant with constructive constants, and numerical certification of the
supporting norm inequalities.
"""

from .errors import (
    ConvergenceError,
    DelvolError,
    DomainError,
    EvaluationError,
    HypothesisError,
    ParameterError,
    StructuralError,
)
from .grid import GridFunction, GridSpec, lp_norm
from .special import beta, mittag_leffler_half
from .quadrature import (
    SingularWeights,
    build_singular_weights,
    delayed_product_convolution,
    singular_convolution,
)
from .gronwall import (
    BoundReport,
    CertificationResult,
    GronwallProblem,
    certify,
    comparison_constant,
    gronwall_bound,
    lemma1_constant,
    resolvent_majorant,
    step_constant_k1,
    theta_n,
)
from .volterra import (
    GeneratorKernel,
    SolverConfig,
    VolterraProblem,
    apply_state_operator,
    apriori_check,
    check_generator_hypotheses,
    choose_epsilon,
    contraction_window,
    difference_forcing,
    difference_problem,
    fixed_point_residual,
    picard_solve,
    stability_check,
)
from .estimates import corollary_check, discrete_convolution, young_check
from .cases import (
    BlowupReport,
    ExampleParams,
    admissible_p_interval,
    blowup_diagnostic,
    example_problem,
    lower_bound_integral,
)
from .reports import CheckRecord

__version__ = "0.1.0"
