"""qlut: parameterized quantum lookup-table circuits, layouts, and cost models."""

from .builders import (
    ReferenceKind, build_cnot_tree, build_cswap_router, build_lookup,
    build_multi_bit_parallel, build_multi_bit_sequential, build_reference,
    build_uncompute, build_unified_lookup,
)
from .costs import (
    bucket_brigade_infidelity, budgeted_bucket_brigade, budgeted_infidelity,
    fit_exponent, general_infidelity, multi_bit_infidelity, qubit_count_formula,
    query_depth_formula, t_count_formula,
)
from .layout import (
    GridPlacement, LongRangeLink, Schedule, build_schedule, classify_links,
    level_pitches, long_range_error, place_htree,
)
from .params import (
    ArchParams, DataTable, ErrorRates, Readout, Specialization, derive_params,
    specialization,
)
from .resources import count_resources
from .simulator import containment_experiment, monte_carlo_infidelity, run_basis

__version__ = "0.1.0"
