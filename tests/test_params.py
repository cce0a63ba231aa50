"""Parameter validation and unit-relabeling behavior."""
import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadmech import rescale_params, validate_params
from quadmech.params import (_NUMERIC, SYSTEM_NUMERIC, LinearizedParams,
                             NegativeValue, NonFinite, NonPositiveRate,
                             ParameterError, SystemParams, param_columns)

from conftest import make_linearized, make_system


def test_accepts_valid_record_unchanged():
    p = make_system(kappa=1.0, omega1=5.0, omega2=5.0)
    assert validate_params(p) == p


def test_theta_reduced_modulo_two_pi():
    p = make_system(theta=3.0 * math.pi)
    assert validate_params(p).theta == pytest.approx(math.pi, abs=1e-12)
    q = make_system(theta=-0.5)
    assert validate_params(q).theta == pytest.approx(2.0 * math.pi - 0.5)


@pytest.mark.parametrize("field,value,exc", [
    ("kappa", 0.0, NonPositiveRate),
    ("kappa", -1.0, NonPositiveRate),
    ("omega1", 0.0, NonPositiveRate),
    ("omega2", -2.0, NonPositiveRate),
    ("eta", -1.0, NegativeValue),
    ("gamma1", -1e-9, NegativeValue),
    ("nbar2", -0.1, NegativeValue),
    ("delta_c", math.nan, NonFinite),
    ("g2", math.inf, NonFinite),
])
def test_rejections(field, value, exc):
    with pytest.raises(exc):
        make_system(**{field: value})


@settings(max_examples=150, deadline=None)
@given(theta=st.floats(-50.0, 50.0))
def test_validate_idempotent(theta):
    p = make_system(theta=theta)
    once = validate_params(p)
    assert validate_params(once) == once
    assert 0.0 <= once.theta < 2.0 * math.pi


def test_rescale_divides_every_rate():
    p = make_system()
    q = rescale_params(p, 5.0)
    assert q.omega1 == pytest.approx(1.0)
    assert q.eta == pytest.approx(19.0)
    assert q.theta == p.theta
    assert q.nbar1 == p.nbar1


def test_rescale_rejects_bad_factor():
    with pytest.raises(ParameterError):
        rescale_params(make_system(), 0.0)
    with pytest.raises(ParameterError):
        rescale_params(make_system(), math.nan)


def _reference_columns(p, kind=SystemParams):
    """param_columns as a conversion of every record: each numeric field
    through asarray (complex for the complex fields), at least 1-D, and
    broadcast against the others."""
    if not isinstance(p, tuple(_NUMERIC)):
        records = list(p)
        first = (records[0] if records
                 else kind(**dict.fromkeys(_NUMERIC[kind][0], 0.0)))
        p = replace(first, **{name: [getattr(r, name) for r in records]
                              for name in _NUMERIC[type(first)][0]})
    numeric, complex_fields = _NUMERIC[type(p)]
    vals = [np.asarray(getattr(p, name),
                       complex if name in complex_fields else float)
            for name in numeric]
    scalar = all(v.ndim == 0 for v in vals)
    cols = np.broadcast_arrays(*(np.atleast_1d(v) for v in vals))
    return replace(p, **dict(zip(numeric, cols))), scalar


def _same_columns(got, want) -> bool:
    (a, a_scalar), (b, b_scalar) = got, want
    if type(a) is not type(b) or a_scalar != b_scalar:
        return False
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if not isinstance(y, np.ndarray):
            if x != y:
                return False
        elif not (type(x) is np.ndarray and x.dtype == y.dtype
                  and x.shape == y.shape and x.tobytes() == y.tobytes()):
            return False
    return True


def test_param_columns_passes_column_records_through():
    k = 5
    p = replace(make_system(), **{name: np.linspace(1.0, 2.0, k)
                                  for name in SYSTEM_NUMERIC})
    got = param_columns(p)
    assert got[0] is p and got[1] is False
    lp = param_columns([make_linearized(g1_eff=0.1 + 0.2j),
                        make_linearized()], LinearizedParams)[0]
    assert param_columns(lp, LinearizedParams)[0] is lp
    empty = param_columns([])[0]
    assert param_columns(empty)[0] is empty


def test_param_columns_converts_as_before():
    k = 4
    base, lin = make_system(), make_linearized()
    mixed = replace(base, eta=np.array([2.0]), omega1=np.linspace(1.0, 2.0, k))
    cases = [
        (base, SystemParams),                               # scalar record
        (lin, LinearizedParams),
        ([base, replace(base, eta=3.0)], SystemParams),     # sequences
        ([lin, replace(lin, g22=-0.1 + 0.3j)], LinearizedParams),
        ([], SystemParams), ([], LinearizedParams),
        (replace(base, eta=np.arange(k)), SystemParams),    # int array
        (replace(base, eta=np.array(7.0)), SystemParams),   # 0-d arrays
        (replace(base, eta=np.array(7)), SystemParams),
        (mixed, SystemParams),                              # length 1 and k
        (replace(base, eta=np.linspace(1.0, 2.0, k),        # float32, lists
                 kappa=np.ones(k, dtype=np.float32),
                 g1=[0.1] * k), SystemParams),
        (replace(lin, g1_eff=np.linspace(0.1, 0.2, k)),     # floats in
         LinearizedParams),                                 # complex fields
        (replace(lin, g22=-0.01), LinearizedParams),
        (replace(lin, g2_eff=np.array([1, 2, 3, 4])), LinearizedParams),
        (replace(lin, g2_eff=np.array([0.1, 0.2])[[0, 1, 0, 1]],
                 kappa=np.linspace(1.0, 2.0, 8)[::2]), LinearizedParams),
    ]
    for p, kind in cases:
        assert _same_columns(param_columns(p, kind),
                             _reference_columns(p, kind)), p
    # a record that is already columns keeps the reference's values too
    q = param_columns(mixed)[0]
    assert _same_columns(param_columns(q), _reference_columns(q))
