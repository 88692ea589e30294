"""Certified bounds for (stable) commutator length, with geometric estimates.

The package splits into five layers:

``free_words``
    Reduced and cyclic words in a free group, parsing, and the disjoint
    copy counts that power Brooks quasimorphisms.
``quasimorphisms``
    Brooks counting quasimorphisms with certified defect bounds, defect
    scans, and rotation numbers of circle lifts.
``scl_engine``
    Two-sided bounds: Bavard lower bounds from quasimorphisms, commutator
    certificate search for upper bounds, and combined reports.
``hyperbolic_estimates``
    Closed-form estimate calculators for tubes, Dehn surgery, cusp
    geometry, and spectral gap constants, plus a grid audit of the
    inequalities that glue them together.
``sol_geometry``
    Sol lattices: commutator subgroup membership, explicit single
    commutator certificates, and a recursion whose certificate size grows
    logarithmically in the target.

The CLI (``python -m scl_lab`` or the ``scl-lab`` script) exposes the same
operations as JSON-line records.
"""

from scl_lab.errors import SclLabError
from scl_lab.free_words import (
    CyclicWord,
    RankMismatchError,
    ReducedWord,
    WordError,
    WordSyntaxError,
    abelianization,
    commutator,
    concat,
    conjugate,
    count_disjoint_copies,
    count_disjoint_copies_cyclic,
    cyclically_reduce,
    enumerate_reduced_words,
    invert,
    parse_word,
    power,
)
from scl_lab.hyperbolic_estimates import (
    AuditError,
    AuditReport,
    CuspShape,
    GapParams,
    OptimalEpsilon,
    SurfaceData,
    SurgeryCoeffs,
    TubeParams,
    genus_bound_from_meridian,
    hk_min_core_length,
    ideal_triangle_area,
    length_gap_bound,
    nz_core_length,
    nz_quadratic_form,
    optimal_epsilon,
    reznikov_min_tube_radius,
    scl_lower_from_tube,
    scl_upper_from_surgery,
    spectral_gap_constants,
    surgery_bound_audit,
    surgery_length_bound,
    tube_area,
    tube_qm_value,
)
from scl_lab.quasimorphisms import (
    CircleLift,
    DefectCertificateError,
    DefectScan,
    QuasimorphismHandle,
    RotationEstimate,
    brooks,
    brooks_homogeneous,
    compose,
    defect_observed,
    homogenize_estimate,
    invert_lift,
    lift_from_matrix,
    rotation_number,
    symmetrize,
)
from scl_lab.scl_engine import (
    CertificateError,
    CommutatorCertificate,
    NotInCommutatorSubgroupError,
    SclReport,
    SearchBudgetError,
    SoundnessError,
    WitnessError,
    cl_lower,
    cl_upper,
    scl_lower_bavard,
    scl_report,
    scl_upper_from_power,
)
from scl_lab.sol_geometry import (
    AnosovMatrix,
    SolCommutatorExpression,
    SolElement,
    SolError,
    SolProfileError,
    commutator_certificate,
    membership_commutator_subgroup,
    membership_witness_rational,
    recursive_log_decomposition,
    sol_commutator,
    sol_conjugate,
    sol_inverse,
    sol_mul,
    sol_power,
    sol_scl_report,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors that are not about invalid input
    "SclLabError",
    # words
    "CyclicWord", "RankMismatchError", "ReducedWord", "WordError", "WordSyntaxError", "abelianization", "commutator", "concat",
    "conjugate", "count_disjoint_copies", "count_disjoint_copies_cyclic",
    "cyclically_reduce", "enumerate_reduced_words", "invert", "parse_word",
    "power",
    # quasimorphisms
    "CircleLift", "DefectCertificateError", "DefectScan",
    "QuasimorphismHandle", "RotationEstimate", "brooks", "brooks_homogeneous",
    "compose", "defect_observed", "homogenize_estimate", "invert_lift",
    "lift_from_matrix", "rotation_number", "symmetrize",
    # scl bounds
    "CertificateError", "CommutatorCertificate",
    "NotInCommutatorSubgroupError", "SclReport", "SearchBudgetError",
    "SoundnessError", "WitnessError", "cl_lower", "cl_upper",
    "scl_lower_bavard", "scl_report", "scl_upper_from_power",
    # hyperbolic estimates
    "AuditError", "AuditReport", "CuspShape", "GapParams", "OptimalEpsilon",
    "SurfaceData", "SurgeryCoeffs", "TubeParams", "genus_bound_from_meridian",
    "hk_min_core_length", "ideal_triangle_area", "length_gap_bound",
    "nz_core_length", "nz_quadratic_form", "optimal_epsilon",
    "reznikov_min_tube_radius", "scl_lower_from_tube",
    "scl_upper_from_surgery", "spectral_gap_constants", "surgery_bound_audit",
    "surgery_length_bound", "tube_area", "tube_qm_value",
    # Sol lattices
    "AnosovMatrix", "SolCommutatorExpression", "SolElement", "SolError",
    "SolProfileError", "commutator_certificate",
    "membership_commutator_subgroup", "membership_witness_rational",
    "recursive_log_decomposition", "sol_commutator", "sol_conjugate",
    "sol_inverse", "sol_mul", "sol_power", "sol_scl_report",
]
