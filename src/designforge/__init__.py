"""Exact workbench for two families of extended binary cyclic codes.

Builds the trace-form code families, computes exact weight distributions
by exhaustive enumeration, evaluates the closed-form distribution tables,
decides affine invariance, and brute-force-verifies the 2-designs (and the
m=4 3-designs) held by each weight class.
"""

from .checks import CheckFailed
from .codebuild import (
    CodeSpec,
    CoefficientNotInSubfield,
    CoefficientOutOfRange,
    LengthMismatch,
    TooLarge,
    build_codeword,
    generator_basis,
)
from .designs import (
    DesignReport,
    EmptyWeightClass,
    NonIntegerLambda,
    TrivialDesign,
    blocks_of_weight,
    full_design_report,
    lambda_from_identity,
    verify_t_design,
)
from .gf2m import (
    Field,
    IndexOutOfRange,
    NonPrimitivePolynomial,
    NotInSubfield,
    UnsupportedM,
)
from .invariance import affine_orbit_check, closure_check
from .polyops import (
    CyclotomicCoset,
    cyclotomic_coset,
    defining_set_of_family,
)
from .spectrum import (
    InapplicableParameters,
    NonIntegerCount,
    PlessResult,
    WeightCollision,
    WeightDistribution,
    closed_form,
    closed_form_c1,
    closed_form_c2_cyclic,
    closed_form_c2_extended,
    cyclic_weight_distribution,
    extend_distribution,
    pless_verify,
    weight_distribution,
)

__version__ = "0.1.0"
