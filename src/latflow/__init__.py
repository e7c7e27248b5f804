"""Expanding diagonal translates of polynomial curves in the space of
unimodular lattices: exact window solubility, weight-space lemmas, and
desk-scale experiments.

Everything number-theoretic runs over exact rationals (fractions.Fraction),
and the exact types (`ExactMatrix`, `Lattice`) hold nothing else; floats
only enter through the empirical averages, whose translates are plain
lists of float columns, where they are unavoidable and harmless.
"""

__version__ = "0.1.0"

from .backend import (
    EXACT,
    FLOAT,
    BackendMismatch,
    BudgetExceeded,
    FaceProximity,
    LLLIterationCap,
    Rat,
    rat,
)
from .algebra import (
    ExactMatrix,
    ExpansionRates,
    dual_involution,
    expanding_diagonal,
    is_block_stabilizer,
    is_dual_block_stabilizer,
    row_unipotent,
)
from .lattice import (
    DEFAULT_NODE_BUDGET,
    Box,
    Lattice,
    Tent,
    avoids_open_unit_box,
    enumerate_basis_in_box,
    enumerate_in_box,
    shortest_sup_norm,
    siegel_transform,
)
from .diophantine import (
    CorrespondenceReport,
    Curve,
    RouteDisagreement,
    WindowSpec,
    correspondence_check,
    minkowski_soluble,
    window_dual_soluble,
    window_primal_soluble,
)
from .constructions import (
    BlockTransportWitness,
    ScanReport,
    block_transport_witness,
    default_scan_grid,
    scan_radius_threshold,
    staircase_unimodular,
    unit_lower_elimination,
    unit_triangular_avoidance_check,
    varying_first_weight_scan,
)
from .weights import (
    GrowthSpec,
    LemmaReport,
    RepSpace,
    Subspace,
    WeightSplit,
    block_generator,
    block_invariant_space,
    curve_hypothesis_fixed_check,
    hypothesis_space,
    lemma_reports,
    split_spaces,
    weight_alignment_check,
    weight_table,
)
from .sequences import (
    ClosedForm,
    LayeredSchedule,
    RateSchedule,
    layered_presentation,
)
from .experiments import (
    ImprovabilityRow,
    NondivergenceRow,
    ShearRow,
    SiegelRow,
    equidistribution_siegel,
    improvability_scan,
    nondivergence_scan,
    sample_grid,
    shear_invariance_scan,
    translate_lattice,
)
