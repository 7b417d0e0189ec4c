"""Concentration-of-measure analytics on finite geometric data sets."""

from .core import (
    B_FAMILY,
    DiscreteMeasureR,
    FamilyTag,
    FiniteGDS,
    ID_FAMILY,
    ProbVector,
    T_FAMILY,
    TB_FAMILY,
    embed_mm_space,
    induced_metric,
    pushforward,
    validate_gds,
)
from .distances import (
    Bracket,
    CouplingMatrix,
    SearchConfig,
    box_bracket,
    box_objective,
    dconc_bracket,
    dconc_lower_via_od,
    dconc_pi,
)
from .families import (
    CapacityResult,
    CoveringResult,
    OrbitDistanceResult,
    capacity,
    compose_family,
    covering_number,
    dist_to_orbit,
    dist_to_orbit_sup,
    extract_bounded,
)
from .maps import ClipMap, PLMap, compose_clips
from .obsdiam import OdProfile, observable_diameter, observable_diameter_hss, od_profile
from .spaces import SpaceRecipe, generate_space
from .staircase import (
    SeriesBracket,
    StaircaseLevel,
    level_hausdorff,
    series_tail,
    series_weight,
    staircase_distance,
    staircase_level,
)
from .stats import (
    hausdorff,
    ky_fan,
    levy_mean,
    partial_diameter,
    prohorov,
)
from .transforms import (
    DominationVerdict,
    MeasurementSpec,
    check_domination,
    enumerate_measurements,
    measurement,
    quotient,
    rounded,
)

__version__ = "0.1.0"
