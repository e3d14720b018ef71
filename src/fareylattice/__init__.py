"""Exact Farey sequences, their Boolean-lattice subsequences, and the
catalog of unimodular bijections and identities that tie them together."""

from types import ModuleType as _ModuleType

from .catalog import (
    MAP_NAMES,
    Counterexample,
    MapDescriptor,
    VerificationReport,
    catalog,
    matrix_coherence_checks,
    quarter_indices,
    verify_catalog,
    verify_map,
)
from .fracs import HALF, ONE, ZERO, Frac, UnimodularMap
from .identities import (
    IdentityReport,
    farey_boolean_rank,
    farey_boolean_size,
    farey_identities,
    farey_rank,
    farey_size,
    filter_partition,
    interior_duality,
    mobius,
    phi_interval,
    phi_interval_mobius,
    symmetric_identities,
)
from .lattice import (
    count_exact_intersection,
    enumerate_fractions,
    filter_cardinality_check,
)
from .neighbors import (
    next_in_farey,
    pred_in_boolean,
    prev_in_farey,
    solve_congruence_in_range,
    succ_in_boolean,
)
from .sequences import (
    FareySeq,
    SeqDescriptor,
    farey,
    farey_boolean,
    iter_pairs,
    iter_terms,
    left_half,
    materialize,
    right_half,
    upper_subsequence,
)

__version__ = "0.1.0"

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__all__.append("__version__")
