import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ddrom.preprocess import (
    ScalingRecord,
    apply_record,
    center_scale,
    invert_record,
    transform_variables,
)

from conftest import make_set


def test_reciprocal_worked_example():
    sset = make_set(np.array([[2.0], [4.0]]), n_s=1)
    out = transform_variables(sset, ("reciprocal",))
    np.testing.assert_array_equal(out.data, [[0.5], [0.25]])


def test_reciprocal_refuses_zero():
    sset = make_set(np.array([[2.0], [0.0]]), n_s=1)
    with pytest.raises(ValueError, match="reciprocal transform hit zero"):
        transform_variables(sset, ("reciprocal",))


def test_identity_leaves_data_alone():
    sset = make_set(np.arange(6.0).reshape(3, 2) + 1.0)
    out = transform_variables(sset, None)
    np.testing.assert_array_equal(out.data, sset.data)


def test_max_abs_puts_training_block_in_unit_box():
    rng = np.random.default_rng(0)
    sset = make_set(10.0 * rng.standard_normal((8, 12)), n_s=2, n_train=9)
    scaled, record = center_scale(sset, kind="max_abs")
    train = scaled.data[:, :9]
    assert np.abs(train[:4]).max() == pytest.approx(1.0)
    assert np.abs(train[4:]).max() == pytest.approx(1.0)
    # centering removes the training mean of every row
    np.testing.assert_allclose(train.mean(axis=1) * record.scale[0], 0.0,
                               atol=1e-12)
    assert record.scaling_kind == "max_abs"


def test_std_dev_normalizes_variance():
    rng = np.random.default_rng(1)
    sset = make_set(3.0 + 0.5 * rng.standard_normal((5, 40)))
    scaled, _ = center_scale(sset, kind="std_dev")
    assert scaled.data.std() == pytest.approx(1.0)


def test_round_trip_within_tolerance():
    rng = np.random.default_rng(2)
    sset = make_set(rng.standard_normal((12, 7)) * 50.0 + 4.0, n_s=3, n_train=5)
    scaled, record = center_scale(sset)
    back = invert_record(scaled.data, sset.layout, record)
    err = np.abs(back - sset.data).max() / np.abs(sset.data).max()
    assert err <= 1e-12


def test_round_trip_with_reciprocal():
    rng = np.random.default_rng(3)
    raw = 2.0 + rng.random((6, 9))  # bounded away from zero
    sset = make_set(raw, n_s=2)
    transformed = transform_variables(sset, ("reciprocal", "identity"))
    scaled, record = center_scale(transformed, transforms=("reciprocal", "identity"))
    back = invert_record(scaled.data, sset.layout, record)
    np.testing.assert_allclose(back, raw, rtol=1e-12, atol=1e-14)


def test_constant_variable_is_an_error():
    data = np.ones((4, 5))
    data[2:] = np.arange(5.0)
    sset = make_set(data, n_s=2, names=("flat", "ramp"))
    with pytest.raises(ValueError, match="zero scale for variable 'flat'"):
        center_scale(sset)


def test_scale_is_training_only():
    # prediction columns may exceed the unit box; the scale must ignore them
    data = np.zeros((2, 4))
    data[:, :3] = [[1.0, -2.0, 0.5], [0.0, 1.0, -1.0]]
    data[:, 3] = 100.0
    sset = make_set(data, n_train=3)
    scaled, record = center_scale(sset)
    assert np.abs(scaled.data[:, :3]).max() == pytest.approx(1.0)
    assert np.abs(scaled.data[:, 3]).max() > 1.0


def test_apply_record_matches_center_scale():
    rng = np.random.default_rng(4)
    sset = make_set(rng.standard_normal((6, 8)), n_s=2)
    scaled, record = center_scale(sset)
    again = apply_record(sset.data, sset.layout, record)
    np.testing.assert_allclose(again, scaled.data, atol=1e-15)


def test_apply_and_invert_on_vectors():
    rng = np.random.default_rng(5)
    sset = make_set(rng.standard_normal((6, 8)) + 2.0, n_s=2)
    _, record = center_scale(sset)
    vec = sset.data[:, 3]
    fwd = apply_record(vec, sset.layout, record)
    assert fwd.ndim == 1
    np.testing.assert_allclose(invert_record(fwd, sset.layout, record), vec,
                               rtol=1e-12, atol=1e-14)


def test_invert_record_leaves_its_input_alone():
    rng = np.random.default_rng(7)
    sset = make_set(rng.standard_normal((6, 8)) + 2.0, n_s=2)
    scaled, record = center_scale(sset, transforms=("reciprocal", "identity"))
    data = np.array(scaled.data)
    invert_record(data, sset.layout, record)
    np.testing.assert_array_equal(data, scaled.data)


def test_record_validates_scale():
    with pytest.raises(ValueError):
        ScalingRecord(np.zeros(4), np.array([0.0]), "max_abs", ("identity",))


@settings(max_examples=40, deadline=None)
@given(
    data=hnp.arrays(
        np.float64,
        (6, 5),
        elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    )
)
def test_round_trip_property(data):
    # degenerate draws (a variable constant over training) are rejected by
    # center_scale; everything it accepts must round-trip
    sset = make_set(data, n_s=2)
    try:
        scaled, record = center_scale(sset)
    except ValueError:
        return
    back = invert_record(scaled.data, sset.layout, record)
    scale = max(np.abs(data).max(), 1.0)
    assert np.abs(back - data).max() <= 1e-12 * scale
