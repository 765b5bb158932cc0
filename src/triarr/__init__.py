"""Exponents and bases of logarithmic vector fields for three concurrent lines.

Exact computations over a prime field F_p for the multiarrangement defined
by x^m1 y^m2 (x+y)^m3: a closed-form exponent engine driven by the geometry
of the multiplicity lattice, an independent polynomial-lattice oracle,
explicit binomial bases with certified basis transports, lattice atlases,
and a differential verification harness.  Every basis any code path emits
is certified by Saito's criterion.
"""

from .basisfactory import (
    GammaSlice,
    NotInGammaError,
    TransformStep,
    b_set,
    dual_basis,
    dual_multiplicity,
    frobenius_lift,
    gamma_membership,
    gamma_slice,
    period_shift,
    plan_basis,
    psi_basis,
    psi_fields,
    s_set,
)
from .derivmod import (
    BasisPair,
    CertificationError,
    Multiplicity,
    VectorField,
    as_multiplicity,
    defining_poly,
    in_module,
    saito_check,
    saito_det,
)
from .fastexp import (
    BallHit,
    CenterSet,
    ExponentReport,
    ball_center,
    compute_k,
    decompose,
    delta_zero,
    enumerate_centers,
    fast_exponents,
    is_balanced,
    unbalanced_exponents,
)
from .fpcore import (
    GuardError,
    Prime,
    binom_mod_p,
    digits,
    g_set,
    s_index,
)
from .homopoly import HomoPoly, binomial_power
from .oracle import DegreeSlice, degree_slice, oracle_delta, oracle_exponents, slice_dim

__version__ = "0.1.0"

__all__ = [
    "BallHit",
    "BasisPair",
    "CenterSet",
    "CertificationError",
    "DegreeSlice",
    "ExponentReport",
    "GammaSlice",
    "GuardError",
    "HomoPoly",
    "Multiplicity",
    "NotInGammaError",
    "Prime",
    "TransformStep",
    "VectorField",
    "as_multiplicity",
    "b_set",
    "ball_center",
    "binom_mod_p",
    "binomial_power",
    "compute_k",
    "decompose",
    "defining_poly",
    "degree_slice",
    "delta_zero",
    "digits",
    "dual_basis",
    "dual_multiplicity",
    "enumerate_centers",
    "fast_exponents",
    "frobenius_lift",
    "g_set",
    "gamma_membership",
    "gamma_slice",
    "in_module",
    "is_balanced",
    "oracle_delta",
    "oracle_exponents",
    "period_shift",
    "plan_basis",
    "psi_basis",
    "psi_fields",
    "s_index",
    "s_set",
    "saito_check",
    "saito_det",
    "slice_dim",
    "unbalanced_exponents",
]
