"""The record and configuration classes: repr, immutability, equality, validation.

The repr strings are what these classes printed as frozen dataclasses, so
output that shows a record (such as the open-mode-independence check, which
compares reprs) reads as before.
"""

import copy
import pickle

import pytest

from kdiss.averaging import AveragingConfig
from kdiss.errors import DomainError, SchemaError
from kdiss.formats import INDEX_COLUMNS, IndexRow
from kdiss.kernel import ComparisonResult, ObjectRecord, ProbeConfig, compare
from kdiss.pyramids import PyramidTable
from kdiss.report import IndicatorTable, ScatterSeries

RECORD = ObjectRecord("x", (("a", 1), ("b", 2.5)))
ROW = IndexRow("aa", 1.0, 2.0, 3.0, 4.0, 50.0, 5.0, 6.0, 0.5)


def test_reprs_are_unchanged():
    assert repr(RECORD) == "ObjectRecord(name='x', param_names=('a', 'b'), param_values=(1.0, 2.5))"
    assert repr(ProbeConfig()) == "ProbeConfig(delta=0.0001)"
    assert repr(AveragingConfig()) == "AveragingConfig(max_iterations=200)"
    result = compare(RECORD, ObjectRecord("y", (("a", 2), ("b", 2.5))), ProbeConfig(delta=0.01))
    assert repr(result) == (
        "ComparisonResult(query='x', target='y', delta=0.01, w_star=50.5, d=51, k=0.51, k_cont=0.505, "
        "increments={'a': 0.505, 'b': 0.0})"
    )
    assert repr(ROW) == (
        "IndexRow(name='aa', k_mt=1.0, k_ut=2.0, k_m_male=3.0, k_m_female=4.0, mu=50.0, d_un=5.0, "
        "d_e30=6.0, p_un=0.5)"
    )
    assert repr(ScatterSeries("s", ((1.0, 2.0, "a"),))) == (
        "ScatterSeries(label='s', points=((1.0, 2.0, 'a'),), fit=None, x_label='', y_label='')"
    )


@pytest.mark.parametrize(
    "instance, field",
    [
        (RECORD, "name"),
        (ProbeConfig(), "delta"),
        (AveragingConfig(), "max_iterations"),
        (ComparisonResult("q", "t", 0.5, 1.0, 1, 0.5, 1.0, {}), "k"),
        (ROW, "mu"),
        (ScatterSeries("s", ()), "fit"),
        (IndicatorTable({}), "values"),
        (PyramidTable.from_rows({"aa": [1.0] * 34}), "names"),
    ],
)
def test_attributes_cannot_be_set_or_deleted(instance, field):
    with pytest.raises(AttributeError):
        setattr(instance, field, None)
    with pytest.raises(AttributeError):
        delattr(instance, field)
    with pytest.raises(AttributeError):
        instance.new_attribute = 1


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: ProbeConfig(delta=0), DomainError, "delta must be positive and finite, got 0"),
        (lambda: ProbeConfig(delta=float("inf")), DomainError, "delta must be positive and finite, got inf"),
        (lambda: AveragingConfig(max_iterations=0), DomainError, "max_iterations must be >= 1"),
        (lambda: ObjectRecord("x", (("p", 1.0), ("p", 2.0))), SchemaError, "object 'x' has duplicate parameter names"),
        (lambda: ObjectRecord("x", (("p", -1.0),)), DomainError, "object 'x', parameter 'p': negative value -1.0"),
        (lambda: ObjectRecord("x", (("p", float("nan")),)), DomainError, "object 'x', parameter 'p': non-finite value nan"),
        (
            lambda: PyramidTable(("aa", "aa"), [[1.0] * 34] * 2),
            SchemaError,
            "need 2 distinct names and as many rows of 34 values",
        ),
    ],
)
def test_validation_errors_are_unchanged(make, error, message):
    with pytest.raises(error) as exc_info:
        make()
    assert str(exc_info.value) == message


def test_default_config_equals_the_explicit_one():
    assert ProbeConfig() == ProbeConfig(delta=1e-4)
    assert hash(ProbeConfig()) == hash(ProbeConfig(delta=1e-4))
    assert ProbeConfig(delta=1e-3) != ProbeConfig()
    assert AveragingConfig() == AveragingConfig(200)


def test_configs_hold_only_the_settings_callers_set():
    assert ProbeConfig._fields == ("delta",)
    assert AveragingConfig._fields == ("max_iterations",)


def test_records_compare_and_hash_by_value():
    assert RECORD == ObjectRecord("x", (("a", 1.0), ("b", 2.5)))
    assert hash(RECORD) == hash(ObjectRecord("x", (("a", 1.0), ("b", 2.5))))
    assert RECORD != ObjectRecord("y", RECORD.params)
    assert IndexRow(*ROW) == ROW


def test_pyramid_table_is_equal_only_to_itself():
    table = PyramidTable.from_rows({"aa": [1.0] * 34})
    assert table == table
    assert table != PyramidTable.from_rows({"aa": [1.0] * 34})


def test_index_row_fields_are_the_index_columns():
    assert IndexRow._fields == INDEX_COLUMNS


@pytest.mark.parametrize("instance", [RECORD, ProbeConfig(delta=0.01), PyramidTable.from_rows({"aa": [2.0] * 34})])
def test_copy_and_pickle_keep_every_field(instance):
    for clone in (copy.copy(instance), pickle.loads(pickle.dumps(instance))):
        assert type(clone) is type(instance)
        assert repr(clone) == repr(instance)
