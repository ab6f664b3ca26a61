"""The closed forms on a column of dimensions: one call over a 1-D integer
array of d gives, at each d, the scalar call's value bit for bit, and raises
exactly when some scalar call in the column would, with that call's error."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phaseclone
from phaseclone import channels, cli, crb, qfim
from phaseclone.channels import ParamChannel, eta_pqcm, eta_uqcm
from phaseclone.cli import main
from phaseclone.crb import qfim_eigenvalues, total_variance_bound
from phaseclone.qfim import (
    CLOSED_FORM_DMAX,
    closed_entries,
    qfim_pqcm_entries,
    qfim_pure_entries,
    qfim_shrink_entries,
    qfim_uqcm_entries,
)

KINDS = [ParamChannel("pure"), ParamChannel("uqcm"), ParamChannel("pqcm"), ParamChannel("shrink", 0.4)]

# name -> function of d; each is called with one int d and with a column
CLOSED_FORMS = {
    "eta_uqcm": eta_uqcm,
    "eta_pqcm": eta_pqcm,
    "qfim_pure_entries": qfim_pure_entries,
    "qfim_uqcm_entries": qfim_uqcm_entries,
    "qfim_pqcm_entries": qfim_pqcm_entries,
    "qfim_shrink_entries(0.4)": partial(qfim_shrink_entries, eta=0.4),
    "qfim_shrink_entries(eta_uqcm)": lambda d: qfim_shrink_entries(d, eta_uqcm(d)),
    "qfim_shrink_entries(eta_pqcm)": lambda d: qfim_shrink_entries(d, eta_pqcm(d)),
    **{f"closed_entries({ch.kind})": partial(closed_entries, ch) for ch in KINDS},
    **{f"shrinking_factor({ch.kind})": ch.shrinking_factor for ch in KINDS},
    **{
        f"qfim_eigenvalues({ch.kind})": partial(lambda ch, d: qfim_eigenvalues(d, *closed_entries(ch, d)), ch)
        for ch in KINDS
    },
    "total_variance_bound(1.0)": partial(total_variance_bound, eta=1.0),
    "total_variance_bound(0.3)": partial(total_variance_bound, eta=0.3),
    "total_variance_bound(eta_uqcm)": lambda d: total_variance_bound(d, eta_uqcm(d)),
    "total_variance_bound(eta_pqcm)": lambda d: total_variance_bound(d, eta_pqcm(d)),
}


def outputs(result) -> tuple:
    return result if isinstance(result, tuple) else (result,)


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_column_equals_scalar_calls_bit_for_bit(name):
    # the range holds d = 808, where Python's float ** 2 and x * x round apart
    fn = CLOSED_FORMS[name]
    dims = np.arange(2, 2001)
    columns = outputs(fn(dims))
    scalars = [outputs(fn(d)) for d in dims.tolist()]
    # one d gives numpy floats, not 0-d arrays, which bits() would let through
    assert all(isinstance(x, float) for s in scalars for x in s)
    for k, column in enumerate(columns):
        assert column.shape == dims.shape
        assert bits(column) == bits([s[k] for s in scalars]), f"output {k}"


def test_a_list_is_a_column_and_a_0d_array_is_one_d():
    # d is read through np.asarray: a list of integers runs as the column it spells,
    # a 0-d integer array as its one d, and an integer past uint64 is no integer dtype
    for fn in (qfim_uqcm_entries, partial(total_variance_bound, eta=0.3), ParamChannel("pure").shrinking_factor):
        assert bits(outputs(fn([2, 3, 4]))) == bits(outputs(fn(np.arange(2, 5))))
        assert bits(outputs(fn(np.array(5)))) == bits(outputs(fn(5)))
        with pytest.raises(ValueError, match="dimension must be an integer"):
            fn(2**64)
    # so is eta: a list of them runs as the column it spells
    for fn, d, eta in ((total_variance_bound, 5, [0.5]), (qfim_shrink_entries, np.arange(2, 4), [0.5, 0.6])):
        assert bits(outputs(fn(d, eta))) == bits(outputs(fn(d, np.array(eta))))


def outcome(fn, d, eta):
    try:
        return outputs(fn(d, eta))
    except ValueError as exc:
        return str(exc)


# functions of (d, eta), for each closed form that can reject a dimension or an eta
REJECTING = [
    qfim_shrink_entries,
    total_variance_bound,
    lambda d, eta: closed_entries(ParamChannel("shrink", eta), d),
    lambda d, eta: qfim_uqcm_entries(d),
    lambda d, eta: qfim_pqcm_entries(d),
    lambda d, eta: qfim_pure_entries(d),
]


# ranges at small d, across CLOSED_FORM_DMAX and anywhere between; eta near 1,
# below 1e-6, and at the underflow edge |F_off| = tiny of some d in the range,
# near eta = sqrt(tiny d / 2), where the edges of d and d + 1 are 1/(2d) apart
@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    dmin=st.one_of(
        st.integers(2, 100),
        st.integers(CLOSED_FORM_DMAX - 40, CLOSED_FORM_DMAX + 5),
        st.integers(2, CLOSED_FORM_DMAX),
    ),
    width=st.integers(0, 40),
)
def test_column_raises_exactly_when_a_scalar_call_does(data, dmin, width):
    d_edge = data.draw(st.integers(dmin, dmin + width))
    edge = np.sqrt(np.finfo(float).tiny * d_edge / 2) * data.draw(st.floats(1 - 1 / d_edge, 1 + 1 / d_edge))
    eta = data.draw(st.one_of(st.floats(1e-6, 1.0), st.floats(1e-160, 1e-6), st.just(edge)))
    dims = np.arange(dmin, dmin + width + 1)
    for fn in REJECTING:
        scalar = [outcome(fn, d, eta) for d in dims.tolist()]
        errors = [s for s in scalar if isinstance(s, str)]
        column = outcome(fn, dims, eta)
        if errors:
            # the error of the largest d that raises
            assert column == errors[-1]
        else:
            assert not isinstance(column, str), column
            for k, values in enumerate(column):
                assert bits(values) == bits([s[k] for s in scalar])


# every closed form, under every name the package holds it by
COUNTED = [
    channels.eta_uqcm, channels.eta_pqcm, qfim.qfim_pure_entries, qfim.qfim_shrink_entries,
    qfim.qfim_uqcm_entries, qfim.qfim_pqcm_entries, qfim.closed_entries, crb.qfim_eigenvalues,
    crb.total_variance_bound,
]


@pytest.fixture
def closed_form_calls(monkeypatch):
    """Counts of closed-form calls by function name, wrapped as the benchmark tracer wraps them."""
    counts = {}

    def counted(fn):
        def wrapper(*args, **kwargs):
            counts[fn.__qualname__] = counts.get(fn.__qualname__, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for fn in COUNTED:
        for module in (phaseclone, channels, qfim, crb, cli):
            for key, val in list(vars(module).items()):
                if val is fn:
                    monkeypatch.setattr(module, key, counted(fn))
    monkeypatch.setattr(ParamChannel, "shrinking_factor", counted(ParamChannel.shrinking_factor))
    return counts


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--machine", "pure"],
        ["compute", "--machine", "uqcm"],
        ["compute", "--machine", "pqcm"],
        ["compute", "--machine", "shrink", "--eta", "0.4"],
        ["figure", "1"],
        ["figure", "2"],
        ["figure", "3"],
    ],
    ids=["compute-pure", "compute-uqcm", "compute-pqcm", "compute-shrink", "figure1", "figure2", "figure3"],
)
def test_closed_form_calls_do_not_grow_with_dmax(closed_form_calls, capsys, argv):
    seen = []
    for dmax in ("20", "2000"):
        closed_form_calls.clear()
        assert main([*argv, "--dmax", dmax]) == 0
        capsys.readouterr()
        seen.append(dict(closed_form_calls))
    assert seen[0] == seen[1]
    assert 0 < sum(seen[0].values()) <= 10
