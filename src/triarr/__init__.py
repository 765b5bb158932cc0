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
    dual_multiplicity,
    gamma_membership,
    gamma_slice,
    plan_basis,
    psi_basis,
    psi_fields,
    transport,
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
)
from .fastexp import (
    CenterSet,
    ExponentReport,
    delta_zero,
    enumerate_centers,
    fast_exponents,
)
from .fpcore import (
    GuardError,
    Prime,
    binom_mod_p,
    digits,
    g_set,
)
from .homopoly import HomoPoly, binomial_power
from .oracle import oracle_delta, oracle_exponents, slice_dim

__version__ = "0.1.0"

__all__ = [
    "BasisPair",
    "CenterSet",
    "CertificationError",
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
    "binom_mod_p",
    "binomial_power",
    "defining_poly",
    "delta_zero",
    "digits",
    "dual_multiplicity",
    "enumerate_centers",
    "fast_exponents",
    "g_set",
    "gamma_membership",
    "gamma_slice",
    "in_module",
    "oracle_delta",
    "oracle_exponents",
    "plan_basis",
    "psi_basis",
    "psi_fields",
    "saito_check",
    "slice_dim",
    "transport",
]
