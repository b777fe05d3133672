"""Minimum enclosing balls, outlier-tolerant variants, sampled cluster
testers, constructive convexity routines, and diameter estimation.

The public names and the submodules load on first use (PEP 562): ``import
mebkit`` imports no submodule, and ``mebkit.exact_meb`` imports ``mebkit.meb``
(and what it imports) alone.
"""

import importlib

__version__ = "0.1.0"

# public name -> its home module
_HOMES = {name: module for module, names in {
    "convexity": "AABox ConvexCombination HellyReport RadonPartition barycentric_circumradius "
                 "caratheodory_reduce dist_to_hull fractional_helly_beta helly_check_boxes jung_bound "
                 "make_combination nodim_caratheodory radon_partition",
    "diameter": "DiameterResult DirectionalSketch TwoApproxSketch diameter_bruteforce diameter_calipers_2d "
                "diameter_doublesweep direction_count stream_2approx stream_eps_2d",
    "errors": "ConvergenceError DegenerateInputError GuardError IterationLimitError ParseError",
    "generators": "gen_instance regular_simplex",
    "geometry": "Ball BallBody BoxBody barycenter circumball fits_in_translate fits_in_translates geom_tol "
                "small_meb_radii",
    "meb": "KtResiduals MebSolution SupportSet badoiu_clarkson elzinga_hearn_dual exact_meb hopp_reeve_meb "
           "kt_residuals",
    "mkeb": "MkebSolution exact_mkeb outlier_meb_sample outlier_sample_size",
    "pointio": "read_points write_points",
    "seeding": "derive_rng derive_seed",
    "testers": "PromiseLabel ScatteredSet TestVerdict k_g_tester one_s_tester promise_label scattered_points",
}.items() for name in names.split()}

__all__ = sorted(_HOMES)


def __getattr__(name):
    if name in {"cli", *_HOMES.values()}:
        return importlib.import_module(f".{name}", __name__)  # the import binds it here
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_HOMES})
