"""The phase-point routines on a stack: one call over a (k, d-1) stack of
points gives, at each point, the single-point call's result bit for bit, and
an empty stack gives an empty result of the single-point dtype."""

import re
import typing
from functools import partial

import numpy as np
import pytest

import phaseclone
from phaseclone import (
    ParamChannel, PhaseVector, SpectralDecomposition, attainability_closed, attainability_numeric, equatorial_state,
    oracle, phase_shift_unitary, qfim_from_spectral, qfim_numeric, shrink_output, spectral_output,
)
from phaseclone.states import basis_derivatives, complement_basis

KINDS = [ParamChannel("pure"), ParamChannel("uqcm"), ParamChannel("pqcm"), ParamChannel("shrink", 0.4)]

# the spectral route reads each channel's density: the pure input (eta = 1), a
# shrinking output at eta = 0.3 and the traced universal cloner (eta = eta_uqcm)
ETAS = {"1.0": ParamChannel("pure"), "0.3": ParamChannel("shrink", 0.3), "eta_uqcm": ParamChannel("uqcm")}


def spectral(fn, ch):
    return lambda p: fn(spectral_output(ch.density(p)))


def spectral_fields(p):
    """spectral_output's two fields, each per point."""
    sd = spectral_output(ETAS["0.3"].density(p))
    return sd.eigenvalues, sd.eigenvectors


def sld_fields(ch):
    """sld_pass's three fields: rho, gram and residual."""
    return lambda p: tuple(vars(oracle.sld_pass(ch, p)).values())


# name -> function of a PhaseVector, giving an array or a tuple of them; each is
# called with a stack and with each of its points.  A name starts with the routine
# whose stack promise its row checks.
ROUTINES = {
    "equatorial_state": equatorial_state,
    "phase_shift_unitary": phase_shift_unitary,
    "complement_basis": complement_basis,
    "basis_derivatives": basis_derivatives,
    "shrink_output(0.3)": partial(shrink_output, eta=0.3),
    **{f"density({ch.kind})": ch.density for ch in KINDS},
    **{
        f"_central_differences({name})": partial(oracle._central_differences, fn, h=1e-5)
        for name, fn in [("equatorial_state", equatorial_state), ("complement_basis", complement_basis)]
        + [(f"density({ch.kind})", ch.density) for ch in KINDS]
    },
    "spectral_output(0.3)": spectral_fields,
    **{
        f"{fn.__name__}(spectral_output({e}))": spectral(fn, ch)
        for fn in (qfim_from_spectral, attainability_closed)
        for e, ch in ETAS.items()
    },
    **{f"qfim_numeric({ch.kind})": partial(qfim_numeric, ch) for ch in KINDS},
    **{f"attainability_numeric({ch.kind})": partial(attainability_numeric, ch) for ch in KINDS},
    **{f"sld_pass({ch.kind})": sld_fields(ch) for ch in KINDS},
}


def outputs(result) -> tuple:
    return result if isinstance(result, tuple) else (result,)


def bits(x) -> tuple:
    return x.shape, x.dtype, x.tobytes()


def check_stack(fn, d, ks=None):
    """fn on the stack of the first k of ten points has shape (k,) + point shape
    and equals fn at each point bit for bit, for each k in ks, and the (0, d-1)
    stack gives an empty result of the point's dtype.  The first point is within
    1e-9 of the 2*pi wrap.  ks defaults to 1, d-1, d and 10: d-1 and d are the
    sizes that a (d-1, ...) or (d, ...) broadcast would silently mix up, and 10
    is verify's draw stack."""
    rng = np.random.default_rng(d)
    rows = rng.uniform(0.0, 2 * np.pi, size=(10, d - 1))
    rows[0] = rng.choice([-1e-10, 1e-12, 2 * np.pi - 1e-12, 2 * np.pi + 1e-10], size=d - 1)
    stack = PhaseVector(d, rows)
    points = [outputs(fn(PhaseVector(d, row))) for row in stack.phases]
    for k in sorted({1, d - 1, d, 10} if ks is None else ks):
        for i, got in enumerate(outputs(fn(PhaseVector(d, stack.phases[:k])))):
            assert got.shape == (k,) + points[0][i].shape, (d, k, i)
            assert [bits(row) for row in got] == [bits(point[i]) for point in points[:k]], (d, k, i)
    for i, empty in enumerate(outputs(fn(PhaseVector(d, np.zeros((0, d - 1)))))):
        assert empty.shape == (0,) + points[0][i].shape and empty.dtype == points[0][i].dtype, (d, i)


@pytest.mark.parametrize("name", ROUTINES)
def test_stack_equals_each_point_bit_for_bit(name):
    for d in (2, 3, 4, 5, 9):
        check_stack(ROUTINES[name], d)


def takes_a_point(fn) -> bool:
    hints = typing.get_type_hints(fn)
    return any(hint in (PhaseVector, SpectralDecomposition) for arg, hint in hints.items() if arg != "return")


def test_every_stack_routine_has_a_row():
    public = {name: getattr(phaseclone, name) for name in phaseclone.__all__}
    routines = {name for name, fn in public.items() if callable(fn) and not isinstance(fn, type) and takes_a_point(fn)}
    assert takes_a_point(ParamChannel.density)
    routines.add("density")
    missing = routines - {re.match(r"\w+", row)[0] for row in ROUTINES}
    assert not missing, f"no ROUTINES row for {sorted(missing)}"
