"""The package exports exactly the names its layer modules export."""

import itertools
import re
from pathlib import Path

import pytest

import scl_lab
from scl_lab import (
    errors,
    free_words,
    hyperbolic_estimates,
    quasimorphisms,
    scl_engine,
    sol_geometry,
)

LAYERS = (errors, free_words, quasimorphisms, scl_engine,
          hyperbolic_estimates, sol_geometry)

#: the names the package listed by hand before its export list was built
#: from the modules' lists, less the names removed since (see REMOVED)
HAND_LISTED = [
    "SclLabError", "SoundnessError", "CertificateError", "AuditError",
    "SearchBudgetError", "SolProfileError", "CyclicWord", "RankMismatchError",
    "ReducedWord", "WordError", "WordSyntaxError", "abelianization",
    "commutator", "count_disjoint_copies",
    "count_disjoint_copies_cyclic", "cyclically_reduce",
    "enumerate_reduced_words", "parse_word", "power", "CircleLift",
    "DefectScan", "QuasimorphismHandle", "RotationEstimate", "brooks",
    "brooks_homogeneous", "compose", "defect_observed",
    "invert_lift", "lift_from_matrix", "rotation_number",
    "CommutatorCertificate", "NotInCommutatorSubgroupError", "SclReport",
    "cl_lower", "cl_upper", "scl_lower_bavard", "scl_report",
    "scl_upper_from_power", "AuditReport", "CuspShape", "GapParams",
    "OptimalEpsilon", "SurfaceData", "SurgeryCoeffs", "TubeParams",
    "genus_bound_from_meridian", "hk_min_core_length",
    "length_gap_bound", "nz_core_length", "nz_quadratic_form",
    "optimal_epsilon", "scl_lower_from_tube",
    "scl_upper_from_surgery", "surgery_bound_audit",
    "surgery_length_bound", "tube_area", "tube_qm_value", "AnosovMatrix",
    "SolCommutatorExpression", "SolElement", "SolError",
    "commutator_certificate", "membership_commutator_subgroup",
    "membership_witness_rational", "recursive_log_decomposition",
    "sol_commutator", "sol_inverse", "sol_mul",
]


#: the first column of the README's table of removed public names
REMOVED = [
    "sol_scl_report", "SolSclReport", "SolCertificateError", "WitnessError",
    "DefectCertificateError", "SUBDIVISIONS", "CircleLift.principal",
    "ideal_triangle_area", "spectral_gap_constants",
    "reznikov_min_tube_radius", "conjugate", "symmetrize",
    "homogenize_estimate", "HomogenizationEstimate", "sol_power",
    "sol_conjugate", "SOL_IDENTITY_T", "concat", "invert",
    "ReducedWord.__pow__", "CyclicWord.length", "CyclicWord.repeat",
]


def test_package_list_is_the_module_lists():
    assert scl_lab.__all__ == ["__version__",
                               *(name for mod in LAYERS for name in mod.__all__)]
    assert len(set(scl_lab.__all__)) == len(scl_lab.__all__)


@pytest.mark.parametrize("mod", LAYERS, ids=lambda mod: mod.__name__)
def test_every_listed_name_is_the_module_object(mod):
    for name in mod.__all__:
        assert getattr(scl_lab, name) is getattr(mod, name), name


def test_hand_listed_names_are_still_exported():
    assert len(HAND_LISTED) == 68
    missing = [name for name in HAND_LISTED if name not in scl_lab.__all__]
    assert missing == []



def test_readme_lists_the_removed_names():
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8").splitlines()
    start = lines.index("| removed | use instead |") + 2
    rows = itertools.takewhile(lambda line: line.startswith("| "),
                               lines[start:])
    assert [name for row in rows
            for name in re.findall(r"`([^`]+)`", row.split(" | ")[0])] \
        == REMOVED


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_gone(name):
    owner, _, attr = name.rpartition(".")
    if owner:
        assert not hasattr(getattr(scl_lab, owner), attr)
    else:
        assert name not in scl_lab.__all__
        assert not hasattr(scl_lab, name)
        assert not [mod.__name__ for mod in LAYERS if hasattr(mod, name)]
