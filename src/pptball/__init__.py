"""Bound entangled states from unextendible product bases, their entanglement
witnesses, and certified robustness balls, with randomized verification.

``import pptball`` loads no submodule: each public name is imported from its
module on first use, so a command pays only for the code it runs.
"""

import importlib

__version__ = "0.1.0"

# The module that defines each public name, which ``__getattr__`` imports.
_MODULES = {
    "operators": (
        "DensityMatrix", "EigenDecomposition", "HermitianOperator", "HilbertStructure",
        "PSD_TOL", "all_bipartitions", "eig_hermitian", "is_ppt", "min_pt_eigenvalue",
        "partial_transpose", "purity", "witness_value",
    ),
    "upb": (
        "CATALOG", "ProductState", "UPBSet", "build_complete_basis", "get_upb", "omega_state",
    ),
    "witness": ("LambdaResult", "minimum_overlap"),
    "proof": ("ProductMinimumBound", "prove_product_minimum"),
    "robustness": (
        "Certificate", "MixtureDecomposition", "ball_membership", "certify", "in_gurvits_ball",
        "minimizer_direction", "mixture_tau", "ppt_mixing_threshold", "robustness_profile",
    ),
    "montecarlo": (
        "BallFractionEstimate", "VerificationOutcome", "ball_fraction_estimate",
        "sample_hs_density", "sample_random_product_separable", "verify_ball_robustness",
        "verify_maximal_robustness", "verify_separable_mixing",
    ),
}
_MODULE_OF = {name: module for module, names in _MODULES.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    # Not cached in the globals: a monkeypatched or traced module attribute
    # is what every later lookup returns.
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
