"""tubelab: exact incidence geometry of dyadic tubes at finite scales.

The names below load with their module on first use (PEP 562), so that
`import tubelab` loads neither numpy nor any submodule: the command line
sets numpy's start-up options before anything imports it (see cli).
"""
from __future__ import annotations

from importlib import import_module

_EXPORTS = {
    "core_grid": (
        "DyadicPoint", "DyadicRational", "ExponentFit", "PointSet", "Scale", "covering_number", "fit_exponent",
    ),
    "errors": (
        "DomainError", "DyadicOverflowError", "GeneratorError", "HypothesisViolation", "ParseError",
        "ScaleError", "TubelabError", "ValidationError",
    ),
    "tubes": (
        "DyadicTube", "TubeFamily", "Window", "canonical_tube_through", "cover_by_coarse_tubes", "children",
        "parent", "separating_point", "tube_contains", "tubes_through",
    ),
    "delta_sets": ("DeltaSetParams", "ExtractReport", "ValidationReport", "extract", "validate", "validate_1d"),
    "incidence": (
        "CauchySchwarzReport", "Configuration", "DichotomyReport", "IncidenceReport", "cauchy_schwarz_bound",
        "dichotomy_check", "incidence_report", "validate_configuration",
    ),
    "projections": ("DirectionNet", "ProjectionEnergy", "ProjectionSweep", "projection_energy", "sweep"),
    "additive": (
        "PairGraph", "QuasiProduct", "bsg_refine", "plunnecke_corollary_check", "restricted_sumset",
        "sumset_cover", "tripod_image_cover", "tripod_projection", "tripod_residual", "tube_slice_pairs",
    ),
    "generators": (
        "GeneratorSpec", "cantor_grid", "cantor_line", "collinear_tripod", "furstenberg_product", "grid",
        "quasi_product", "quasi_product_tubes", "slope_net",
    ),
    "manifest": ("ExperimentManifest", "run"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
