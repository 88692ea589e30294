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
    Closed-form estimate calculators for tubes, Dehn surgery and cusp
    geometry, plus an exact proof of the inequalities behind the surgery
    length bound.
``sol_geometry``
    Sol lattices: commutator subgroup membership, explicit single
    commutator certificates, and a recursion whose certificate size grows
    logarithmically in the target.

The CLI (``python -m scl_lab`` or the ``scl-lab`` script) exposes the same
operations as JSON-line records.
"""

from scl_lab import (
    errors,
    free_words,
    hyperbolic_estimates,
    quasimorphisms,
    scl_engine,
    sol_geometry,
)
from scl_lab.errors import *  # noqa: F401,F403
from scl_lab.free_words import *  # noqa: F401,F403
from scl_lab.hyperbolic_estimates import *  # noqa: F401,F403
from scl_lab.quasimorphisms import *  # noqa: F401,F403
from scl_lab.scl_engine import *  # noqa: F401,F403
from scl_lab.sol_geometry import *  # noqa: F401,F403

__version__ = "0.1.0"

# the package exports exactly the names each layer module exports
__all__ = [
    "__version__",
    *errors.__all__,
    *free_words.__all__,
    *quasimorphisms.__all__,
    *scl_engine.__all__,
    *hyperbolic_estimates.__all__,
    *sol_geometry.__all__,
]
