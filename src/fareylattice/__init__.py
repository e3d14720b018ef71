"""Exact Farey sequences, their Boolean-lattice subsequences, and the
catalog of unimodular bijections and identities that tie them together."""

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
    farey_boolean_size,
    farey_identities,
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

__all__ = [
    "Frac",
    "UnimodularMap",
    "ZERO",
    "HALF",
    "ONE",
    "SeqDescriptor",
    "FareySeq",
    "farey",
    "upper_subsequence",
    "farey_boolean",
    "left_half",
    "right_half",
    "materialize",
    "iter_pairs",
    "iter_terms",
    "next_in_farey",
    "prev_in_farey",
    "succ_in_boolean",
    "pred_in_boolean",
    "solve_congruence_in_range",
    "MapDescriptor",
    "VerificationReport",
    "Counterexample",
    "MAP_NAMES",
    "catalog",
    "verify_map",
    "verify_catalog",
    "matrix_coherence_checks",
    "quarter_indices",
    "IdentityReport",
    "mobius",
    "phi_interval",
    "phi_interval_mobius",
    "farey_size",
    "farey_boolean_size",
    "interior_duality",
    "filter_partition",
    "symmetric_identities",
    "farey_identities",
    "enumerate_fractions",
    "count_exact_intersection",
    "filter_cardinality_check",
    "__version__",
]
