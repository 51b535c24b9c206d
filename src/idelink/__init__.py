"""idelink: exact integer-lattice calculus for braid-closure link universes.

The package builds link universes from braid words, lifts them through
cyclic covers branched over the braid axis, and decides norm-principle
style identities between principal, pushforward, and meridian lattices
as exact integer computations.  See the CLI (``idelink --help``) for the
scenario-file front end.
"""

__version__ = "0.1.0"

from .kernel import BACKEND as KERNEL_BACKEND
from .links import (
    BraidWord,
    LinkUniverse,
    relabeled_universe,
    universe_from_braid,
)
from .zlattice import (
    AbelianInvariants,
    IntMatrix,
    SubLattice,
    lattice_equal,
    lattice_intersect,
    lattice_member,
    lattice_sum,
    preimage_lattice,
    quotient_invariants,
    relative_quotient_invariants,
    snf,
)
from .ideles import (
    IdeleVector,
    class_quotient,
    meridian_subgroup,
    principal_lattice,
)
from .covers import (
    CoverData,
    SplitRecord,
    branched_cover_order,
    deck_matrix,
    lift_braid,
    principal_pushforward,
    pushforward_image,
    pushforward_matrix,
    relabeled_cover,
)
from .hasse import (
    CHECKS,
    CheckRecord,
    SuiteResult,
    VerificationReport,
    run_scenario,
    run_suite,
)

__all__ = [
    "KERNEL_BACKEND",
    "__version__",
    # zlattice
    "AbelianInvariants",
    "IntMatrix",
    "SubLattice",
    "snf",
    "lattice_equal",
    "lattice_intersect",
    "lattice_member",
    "lattice_sum",
    "preimage_lattice",
    "quotient_invariants",
    "relative_quotient_invariants",
    # links
    "BraidWord",
    "LinkUniverse",
    "relabeled_universe",
    "universe_from_braid",
    # ideles
    "IdeleVector",
    "class_quotient",
    "meridian_subgroup",
    "principal_lattice",
    # covers
    "CoverData",
    "SplitRecord",
    "branched_cover_order",
    "deck_matrix",
    "lift_braid",
    "principal_pushforward",
    "pushforward_image",
    "pushforward_matrix",
    "relabeled_cover",
    # hasse
    "CHECKS",
    "CheckRecord",
    "SuiteResult",
    "VerificationReport",
    "run_scenario",
    "run_suite",
]
