"""Exact verification and extremal search for lower Riesz bounds of Haar
functions restricted to a measurable step set of the unit interval."""

from .constants import (
    ConstantsReport,
    asymptotic_constant,
    bcms_constant,
    comparison_table,
    conjectured_sharp_constant,
    make_report,
    riesz_constant,
)
from .counterexample import (
    TWO_THIRDS_SET,
    CounterexampleRow,
    ZigzagState,
    check_zigzag_densities,
    counterexample_table,
    partial_sum_structure,
    zigzag,
    zigzag_coefficients,
)
from .errors import ConsistencyError, ConvergenceError, InputError
from .gram import (
    GramMatrix,
    PerturbationDemo,
    build_gram,
    eig_bounds,
    perturbation_demo,
    psd_certificate,
    verify_bessel,
    verify_riesz,
)
from .haar import (
    CoefficientMap,
    PiecewiseConstant,
    combination,
    enumerate_family,
    haar_function,
    halves,
    indicator,
    norm_sq,
    restricted_norm_sq,
)
from .measure import (
    EMPTY_SET,
    FULL_SET,
    DyadicInterval,
    StepSet,
    density,
    intersect_measure,
)
from .rational import format_rational, parse_rational, render_float
from .search import (
    SearchConfig,
    SearchResult,
    certified_lower_bound,
    derive_seed,
    pencil_extremes,
    random_stepset,
    search_extremal,
    splitmix64,
)
from .weights import (
    GridReport,
    StepResult,
    TelescopeReport,
    WeightConfig,
    WeightProfile,
    check_branch_agreement,
    check_mass_bounds,
    check_split_inequality,
    induction_step_check,
    mass_cap,
    per_interval_check,
    telescope_check,
    verify_grid,
    weight_mass,
    weight_mass_unclipped,
    weight_profile,
    weighted_norm_sq,
)

__version__ = "0.1.0"
