"""Finite-volume spectral statistics of random operators over sofic groups."""

__version__ = "0.1.0"

from .exact import ComplexRational
from .groups import (
    BallCapacityError,
    CayleyBall,
    GroupSpec,
    GroupValidationError,
    ball,
    free_group,
    lattice_group,
)
from .sofic import (
    FiniteQuotient,
    GoodnessReport,
    LabeledFiniteGraph,
    SoficApproximation,
    SoficCompatibilityError,
    SoficDefectReport,
    edge_graph,
    good_vertices,
    lattice_quotient,
    product_with_quotient,
    random_permutation_approximation,
    sofic_defect,
    torus_approximation,
)
from .measures import (
    Alphabet,
    Configuration,
    EnumerationBudgetError,
    IIDProduct,
    Mixture,
    PeriodicOrbit,
    WindowDistribution,
    binary_alphabet,
    lattice_periodic,
    le_diagnostic,
    model_alphabet,
    sample_configuration,
    target_marginal_on,
)
from .operators import (
    AssemblyError,
    InducedOperator,
    LocalRule,
    RuleValidationError,
    adjacency_rule,
    assemble_graph_schrodinger,
    assemble_induced,
    diagonal_rule,
    expected_moment,
    laplacian_rule,
    power_diagonal_check,
    schrodinger_rule,
    table_rule,
    validate_local_rule,
)
from .spectral import (
    EigensolverError,
    IDSCurve,
    Spectrum,
    atom_mass,
    counting_function,
    eigen_spectrum,
    ids_curve,
    kolmogorov_distance,
    punctured_mass,
    punctured_mass_bound,
    reference_ids,
)
from .monotone import (
    GershgorinCertificate,
    MonotoneIDSReport,
    MonotonicityError,
    RationalSchedule,
    ScheduleError,
    ValueSets,
    apply_schedule,
    build_schedule,
    gershgorin_psd,
    monotone_ids_report,
    value_sets_of,
)
