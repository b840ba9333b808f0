"""tubelab: exact incidence geometry of dyadic tubes at finite scales."""
from __future__ import annotations

from .core_grid import (
    DyadicPoint,
    DyadicRational,
    ExponentFit,
    PointSet,
    Scale,
    covering_number,
    fit_exponent,
)
from .errors import (
    DomainError,
    DyadicOverflowError,
    GeneratorError,
    HypothesisViolation,
    ParseError,
    ScaleError,
    TubelabError,
    ValidationError,
)
from .tubes import (
    DyadicTube,
    TubeFamily,
    Window,
    canonical_tube_through,
    cover_by_coarse_tubes,
    children,
    parent,
    separating_point,
    tube_contains,
    tubes_through,
)
from .delta_sets import (
    DeltaSetParams,
    ExtractReport,
    ValidationReport,
    extract,
    validate,
    validate_1d,
)
from .incidence import (
    CauchySchwarzReport,
    Configuration,
    DichotomyReport,
    IncidenceReport,
    cauchy_schwarz_bound,
    dichotomy_check,
    incidence_report,
    validate_configuration,
)
from .projections import (
    DirectionNet,
    ProjectionEnergy,
    ProjectionSweep,
    projection_energy,
    sweep,
)
from .additive import (
    PairGraph,
    QuasiProduct,
    bsg_refine,
    plunnecke_corollary_check,
    restricted_sumset,
    sumset_cover,
    tripod_image_cover,
    tripod_projection,
    tripod_residual,
    tube_slice_pairs,
)
from .generators import (
    GeneratorSpec,
    cantor_grid,
    cantor_line,
    collinear_tripod,
    furstenberg_product,
    grid,
    quasi_product,
    quasi_product_tubes,
    slope_net,
)
from .manifest import ExperimentManifest, run

__version__ = "0.1.0"
