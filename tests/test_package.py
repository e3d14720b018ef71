"""The package's public names, pinned: __all__ is derived from its imports."""

import copy
import pickle

import pytest

import fareylattice
from fareylattice import (
    Counterexample,
    HALF,
    ONE,
    ZERO,
    Frac,
    SeqDescriptor,
    UnimodularMap,
    catalog,
    farey,
    filter_partition,
    verify_map,
)

PUBLIC = {
    "Frac", "UnimodularMap", "ZERO", "HALF", "ONE",
    "SeqDescriptor", "FareySeq", "farey", "upper_subsequence", "farey_boolean",
    "left_half", "right_half", "materialize", "iter_pairs", "iter_terms",
    "next_in_farey", "prev_in_farey", "succ_in_boolean", "pred_in_boolean",
    "solve_congruence_in_range",
    "MapDescriptor", "VerificationReport", "Counterexample", "MAP_NAMES", "catalog",
    "verify_map", "verify_catalog", "matrix_coherence_checks", "quarter_indices",
    "IdentityReport", "mobius", "phi_interval", "phi_interval_mobius", "farey_size",
    "farey_boolean_size", "farey_rank", "farey_boolean_rank", "interior_duality",
    "filter_partition", "symmetric_identities", "farey_identities",
    "enumerate_fractions", "count_exact_intersection", "filter_cardinality_check",
    "__version__",
}


def test_all_is_the_public_name_set():
    assert len(PUBLIC) == 45
    assert sorted(fareylattice.__all__) == sorted(PUBLIC)


def test_star_import_resolves_every_name():
    namespace = {}
    exec("from fareylattice import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == PUBLIC
    assert all(namespace[name] is getattr(fareylattice, name) for name in PUBLIC)


@pytest.mark.parametrize("record, field", [
    (filter_partition(3, 1), "lhs"),
    (verify_map(catalog(12, 6)[0]), "counterexample"),
    (verify_map(catalog(12, 5)[0]._replace(codomain=SeqDescriptor("boolean", 12, 5))),
     "checks"),
    (Counterexample(Frac(1, 3), None, "reason"), "reason"),
    (catalog(12, 6)[0], "direction"),
    (SeqDescriptor("boolean", 12, 6), "n"),
], ids=lambda x: type(x).__name__ if isinstance(x, tuple) else x)
def test_every_record_is_a_read_only_named_tuple(record, field):
    before = getattr(record, field)
    assert isinstance(record, tuple) and field in record._asdict()
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is type(record) and clone == record
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is before


@pytest.mark.parametrize("value, field", [
    (Frac(1, 2), "h"),
    (farey(3), "terms"),
    (UnimodularMap(0, 1, 1, 0), "a"),
    (UnimodularMap(-1, 1, 0, 2, check=False), "d"),
], ids=lambda x: type(x).__name__ if not isinstance(x, str) else x)
def test_slot_values_copy_and_pickle_to_equals_and_refuse_assignment(value, field):
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(clone) is type(value) and clone == value
    with pytest.raises(AttributeError):
        setattr(value, field, None)


@pytest.mark.parametrize("value, field", [
    (ZERO, "h"),
    (HALF, "k"),
    (ONE, "h"),
    (farey(3), "terms"),
    (catalog(12, 6)[0].matrix, "a"),
    (UnimodularMap(-1, 1, 0, 2, check=False), "d"),
], ids=lambda x: type(x).__name__ if not isinstance(x, str) else x)
def test_slot_values_refuse_deletion(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError, match="immutable"):
        delattr(value, field)
    assert getattr(value, field) is before
    # the shared constants stay whole for every later caller
    assert [(f.h, f.k) for f in (ZERO, HALF, ONE)] == [(0, 1), (1, 2), (1, 1)]
