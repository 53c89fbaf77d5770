"""Binary linear codes from Boolean functions.

A defining set D over GF(2^m) generates the code
C_D = {(Tr(x*d_1), ..., Tr(x*d_n)) : x in GF(2^m)}; every binary linear
code arises this way, and the weight distribution of C_D is read off the
Walsh spectrum of the characteristic function of D.  This package realizes
the correspondence in both directions with exact integer arithmetic,
together with brute-force oracles, a catalog of classical code families,
and a CLI.
"""

from .gf2 import MAX_M, Field, default_modulus, field, is_irreducible
from .boolfun import BooleanFunction, WalshSpectrum, bent_function, random_function
from .linear_code import (ENUMERATION_BUDGET, BinaryCode, macwilliams_transform,
                          random_spanning_rows)
from .defining_set import (DefiningSet, NotProjectiveError,
                           SpectralWeightReport, bivariate_view,
                           boolean_from_code, code_from_defining_set,
                           codeword_weight, extract_defining_set,
                           spectral_weight_distribution,
                           verify_spectral_distribution)
from . import catalog
from .catalog import build_from_name

__version__ = "0.1.0"

__all__ = [
    "MAX_M", "Field", "default_modulus", "field", "is_irreducible",
    "BooleanFunction", "WalshSpectrum", "bent_function", "random_function",
    "ENUMERATION_BUDGET", "BinaryCode", "macwilliams_transform", "random_spanning_rows",
    "DefiningSet", "NotProjectiveError", "SpectralWeightReport",
    "bivariate_view", "boolean_from_code", "code_from_defining_set",
    "codeword_weight", "extract_defining_set", "spectral_weight_distribution",
    "verify_spectral_distribution",
    "catalog", "build_from_name",
]
