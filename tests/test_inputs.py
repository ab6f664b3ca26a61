"""The library's input rules in one place.  A sweep: every public routine (the callables
of phaseclone.__all__ and the public methods of its classes) rejects each bad value of a
parameter named in RULES with a ValueError naming the rule, never a bare Python or numpy
error.  A table: the rejections that the sweep cannot express, one call each."""

import inspect
from functools import partial
from math import inf, nan
from types import SimpleNamespace

import numpy as np
import pytest

import phaseclone
from phaseclone import (
    ParamChannel, PhaseVector, attainability_closed, attainability_numeric, closed_entries, closed_qfim,
    equatorial_state, phase_shift_unitary, qfim_eigenvalues, qfim_from_spectral, qfim_numeric, qfim_shrink_entries,
    qfim_uqcm_entries, reconstruct_density, run_verification, shrink_output, sld_solve, spectral_output,
    total_variance_bound,
)
from phaseclone.channels import reduce_first_qudit
from phaseclone.oracle import rho_derivative, sld_pass
from phaseclone.qfim import CLOSED_FORM_DMAX
from phaseclone.states import basis_derivatives, complement_basis
from phaseclone.verify import DMAX_FULL_LIMIT

# parameter name -> its rule, as (message, bad values) pairs
DIM = [("dimension must be an integer >= 2", [1, 0, 2.5, 2.0, "3", None, 3 + 0j, True, [[3]]])]
RULES = {
    "d": DIM, "dim": DIM, "dmax_full": DIM,
    "eta": [(r"shrinking factor must lie in \(0, 1\]", [0.0, -0.5, 1.0001, nan, inf, -inf]),
            (r"shrinking factor must be a real number in \(0, 1\]", ["0.5", None, 0.5 + 0j, True])],
    "h": [("step must be a finite positive real number",
           [0, -1e-5, nan, inf, -inf, "1e-5", None, 1e-5j, True, [1e-5], np.array([1e-5])]),
          (r"too small: 1/\(2h\) overflows", [1e-320, np.float64(5e-324)])],
    "k": [("stack size k must be an integer >= 0", [-1, 2.5, "2", True, 2 + 0j, [2]])],
    "seed": [("seed must be an integer >= 0", [-1, 1.5, "1", None, True, [1], 1 + 0j])],
}

KINDS = [ParamChannel("pure"), ParamChannel("uqcm"), ParamChannel("pqcm"), ParamChannel("shrink", 0.4)]
P = PhaseVector(3, [0.5, 1.0])

# routine -> valid keyword arguments, one dict per call that each sweep id makes with one
# of them replaced by a bad value; a method takes its instance as self
ARGS = {
    "PhaseVector": [dict(dim=3, phases=[0.1, 0.2])],
    "PhaseVector.zero": [dict(dim=3)],
    "PhaseVector.random": [dict(dim=3, rng=np.random.default_rng(0), k=2)],
    "ParamChannel": [dict(kind="shrink", eta=0.4)],
    "ParamChannel.shrinking_factor": [dict(self=ch, d=3) for ch in KINDS],
    **dict.fromkeys(["eta_uqcm", "eta_pqcm", "qfim_pure_entries", "qfim_uqcm_entries", "qfim_pqcm_entries"],
                    [dict(d=3)]),
    **dict.fromkeys(["qfim_shrink_entries", "total_variance_bound"], [dict(d=3, eta=0.4)]),
    "qfim_eigenvalues": [dict(d=3, fdiag=1.0, foff=-0.5)],
    **dict.fromkeys(["closed_entries", "closed_qfim"], [dict(channel=ch, d=3) for ch in KINDS]),
    "shrink_output": [dict(p=P, eta=0.4)],
    **dict.fromkeys(["qfim_numeric", "attainability_numeric"], [dict(channel=ch, p=P, h=1e-5) for ch in KINDS]),
    "run_verification": [dict(dmax_full=2, seed=0)],
}


def public_routines() -> dict:
    found = {}
    for name in phaseclone.__all__:
        obj = getattr(phaseclone, name)
        if callable(obj):
            found[name] = obj
        for attr, member in vars(obj).items() if isinstance(obj, type) else ():
            if not attr.startswith("_") and (inspect.isfunction(member) or isinstance(member, classmethod)):
                found[f"{name}.{attr}"] = getattr(obj, attr)
    return found


def ruled_parameters(fn) -> list:
    return [p for p in inspect.signature(fn).parameters.values() if p.name in RULES]


def sweep():
    routines = public_routines()
    for name in ARGS:
        for param in ruled_parameters(routines[name]):
            for message, values in RULES[param.name]:
                for bad in values:
                    if bad is not param.default:  # ParamChannel's eta=None means "no eta", a rule of the table
                        yield pytest.param(name, param.name, bad, message, id=f"{name}-{param.name}-{bad!r}")


@pytest.mark.parametrize("name, param, bad, message", sweep())
def test_bad_value(name, param, bad, message):
    for args in ARGS[name]:
        with pytest.raises(ValueError, match=message):
            public_routines()[name](**{**args, param: bad})


def test_every_ruled_routine_has_a_row_and_runs_on_it():
    routines = public_routines()
    ruled = {name for name, fn in routines.items() if ruled_parameters(fn)}
    assert {"PhaseVector.zero", "PhaseVector.random", "ParamChannel.shrinking_factor"} <= ruled
    assert ruled == set(ARGS), f"routines without a row: {sorted(ruled - set(ARGS))}"
    for name, calls in ARGS.items():
        for args in calls:
            routines[name](**args)


def off_support_density(p):
    """|0><0| at phases (0.5, 1.0): d rho/d phi_1 couples |0> and |1>, and
    d rho/d phi_2 = diag(0, 1, -1) lies entirely off the support."""
    x, y = p.phases[..., 0, None, None] - 0.5, p.phases[..., 1, None, None] - 1.0
    return np.diag([1.0, 0, 0]) + x * np.array([[0, 1.0, 0], [1, 0, 0], [0, 0, 0]]) + y * np.diag([0, 1.0, -1])


EMPTY_SUPPORT = np.zeros((3, 3))
FINITE, ONE_ETA, DIM_MESSAGE = "phases must be finite", "expected one eta", DIM[0][0]
DENSITY = r"density matrix must be a numeric \(\.\.\., d, d\) array with d >= 2"

# (id, call, exception, message)
CASES = [
    ("PhaseVector-phases-wrong-length", partial(PhaseVector, 3, [0.1]), ValueError, "expected 2 phases for dim=3"),
    *[(f"PhaseVector-phases-shape-{'x'.join(map(str, shape))}", partial(PhaseVector, 4, np.zeros(shape)), ValueError,
       "expected 3 phases for dim=4") for shape in [(3, 4), (2, 3, 3), (3, 2)]],
    # a complex array's imaginary part would be dropped with only a warning, and a bool read as 0 or 1
    *[(f"PhaseVector-phases-{kind}", partial(PhaseVector, 3, ph), ValueError, "phases must be real numbers")
      for kind, ph in [("complex-list", [1 + 1j, 0]), ("complex-array", np.array([1 + 1j, 0])),
                       ("bool", [True, False]), ("object", np.array([0.1, 0.2], dtype=object))]],
    ("PhaseVector-phases-nan", partial(PhaseVector, 2, [nan]), ValueError, FINITE),
    # bad as the last phase of one row of a (3, 2) stack
    *[(f"PhaseVector-phases-{bad}-in-row-{row}",
       partial(PhaseVector, 3, np.where(np.arange(6).reshape(3, 2) == 2 * row + 1, bad, 0.0)), ValueError, FINITE)
      for bad in (nan, inf, -inf) for row in (0, 2)],
    # one output per point takes one eta: an array would broadcast into a wrong matrix
    *[(f"shrink_output-eta-array-{'x'.join(map(str, np.shape(eta)))}", partial(shrink_output, P, np.array(eta)),
       ValueError, ONE_ETA) for eta in ([0.2, 0.5, 0.9], [0.2, 0.5], [[0.5]])],
    ("ParamChannel-eta-array", partial(ParamChannel, "shrink", np.array([0.3, 0.5])), ValueError, ONE_ETA),
    ("ParamChannel-unknown-kind", partial(ParamChannel, "nope"), ValueError, "unknown channel kind 'nope'"),
    ("ParamChannel-shrink-without-eta", partial(ParamChannel, "shrink"), ValueError, "shrink channel requires eta"),
    ("ParamChannel-uqcm-with-eta", partial(ParamChannel, "uqcm", 0.5), ValueError, "eta is not a parameter of"),
    # numpy's min() of an empty array would raise its own "zero-size array" error
    *[(f"{fn.__name__}-eta-empty", partial(fn, d, np.array([])), ValueError, "eta must hold at least one value")
      for fn, d in ((total_variance_bound, 5), (qfim_shrink_entries, np.arange(2, 5)))],
    # |F_off(3)| = 4 eta^2/(3 (2 + eta)) is subnormal or zero, on each route to it
    *[(f"{call.func.__name__}-eta-{eta!r}-too-small", call, ValueError, "too small: the QFIM entries underflow at d=3")
      for eta in (1e-160, 1e-170, 5e-324) for call in [partial(qfim_shrink_entries, 3, eta),
       partial(total_variance_bound, 3, eta), partial(closed_qfim, ParamChannel("shrink", eta), 3)]],
    ("qfim_shrink_entries-d-above-the-cap", partial(qfim_shrink_entries, CLOSED_FORM_DMAX + 1, 0.5), ValueError,
     "closed forms are limited to d <= 1000000, got 1000001"),
    *[(f"qfim_uqcm_entries-column-{kind}", partial(qfim_uqcm_entries, dims), ValueError, DIM_MESSAGE)
      for kind, dims in [("float", np.array([2.0, 3.0])), ("2-D", np.array([[2, 3]])),
                         ("empty", np.array([], dtype=int)), ("below-2", np.array([3, 1]))]],
    # the entry forms take a column of d; the (d-1, d-1) matrix takes one d
    ("closed_qfim-column", partial(closed_qfim, KINDS[1], np.arange(2, 5)), ValueError, DIM_MESSAGE),
    # the entries of a column of d are columns of the same shape
    ("qfim_eigenvalues-entries-str", partial(qfim_eigenvalues, 3, "a", "b"), ValueError,
     r"QFIM entries must be real numbers of d's shape \(\)"),
    ("qfim_eigenvalues-scalar-entries-beside-a-column", partial(qfim_eigenvalues, np.arange(2, 5), 1.0, -0.5),
     ValueError, r"QFIM entries must be real numbers of d's shape \(3,\)"),
    # the spectral route reads any density matrix, or a stack of them
    *[(f"spectral_output-{kind}", partial(spectral_output, rho), ValueError, DENSITY)
      for kind, rho in [("vector", np.ones(3)), ("non-square", np.ones((2, 3))), ("1x1", np.ones((1, 1))),
                        ("string", "rho"), ("bool", np.eye(3, dtype=bool)), ("object", np.eye(3, dtype=object))]],
    *[(f"spectral_output-{bad}-entry", partial(spectral_output, np.where(np.eye(3, dtype=bool), bad, 0.0)), ValueError,
       "density matrix must have finite entries") for bad in (nan, inf)],
    ("spectral_output-empty-support", partial(spectral_output, EMPTY_SUPPORT), ValueError,
     "density matrix has empty support"),
    ("spectral_output-empty-support-in-a-stack", partial(spectral_output, np.stack((np.eye(3), EMPTY_SUPPORT))),
     ValueError, "density matrix has empty support"),
    *[(f"{fn.__name__}-empty-support", lambda fn=fn: fn(spectral_output(EMPTY_SUPPORT)), ValueError,
       "density matrix has empty support") for fn in (qfim_from_spectral, attainability_closed)],
    # an object of the wrong type where a PhaseVector, ParamChannel or Generator belongs
    *[(f"PhaseVector.random-rng-{rng!r}", partial(PhaseVector.random, 3, rng), ValueError,
       "rng must be a numpy.random.Generator") for rng in (42, None)],
    ("closed_entries-channel-str", partial(closed_entries, "uqcm", 3), ValueError, "expected a ParamChannel"),
    *[(f"{fn.__name__}-matrix", partial(fn, np.eye(3)), ValueError, "expected a SpectralDecomposition")
      for fn in (qfim_from_spectral, attainability_closed)],
    *[(f"{fn.__name__}-channel-str", partial(fn, "uqcm", PhaseVector.zero(3)), ValueError, "expected a ParamChannel")
      for fn in (qfim_numeric, attainability_numeric)],
    *[(f"{fn.__name__}-list", partial(fn, [0.1, 0.2]), ValueError, "expected a PhaseVector")
      for fn in (equatorial_state, phase_shift_unitary, complement_basis, basis_derivatives, KINDS[1].density)],
    ("shrink_output-list", partial(shrink_output, [0.1, 0.2], 0.4), ValueError, "expected a PhaseVector"),
    # the type is checked before p.dim or sd.eigenvectors is read
    *[(f"density({ch.kind})-list", partial(ch.density, [0.1, 0.2]), ValueError, "expected a PhaseVector")
      for ch in (KINDS[0], KINDS[3])],
    *[(f"{fn.__name__}-list", partial(fn, KINDS[1], [0.1, 0.2]), ValueError, "expected a PhaseVector")
      for fn in (sld_pass, qfim_numeric, attainability_numeric)],
    ("rho_derivative-list", partial(rho_derivative, KINDS[1], [0.1, 0.2], 1), ValueError, "expected a PhaseVector"),
    ("reconstruct_density-str", partial(reconstruct_density, "x"), ValueError, "expected a SpectralDecomposition"),
    ("sld_solve-off-support", partial(sld_solve, np.diag([1.0, 0, 0]), np.diag([0, 1.0, -1])), ValueError,
     "no weight on the support"),
    *[(f"{fn.__name__}-off-support", partial(fn, SimpleNamespace(density=off_support_density), P), ValueError,
       "no weight on the support") for fn in (qfim_numeric, attainability_numeric)],
    # the solve's arguments, checked before eigh or a matmul reads them; a NaN is computed through
    ("sld_solve-rho-string", partial(sld_solve, "x", np.eye(2)), ValueError, r"rho must be a numeric \(\.\.\., d, d\)"),
    ("sld_solve-drho-none", partial(sld_solve, np.eye(2) / 2, None), ValueError, "drho must be a numeric array"),
    ("sld_solve-drho-other-d", partial(sld_solve, np.eye(3) / 3, np.eye(2)), ValueError,
     r"drho must be a numeric array of rho's \(d, d\) slices, got float64 of shape \(2, 2\)"),
    ("sld_solve-stacks-do-not-broadcast", partial(sld_solve, np.stack([np.eye(2) / 2] * 3), np.zeros((2, 2, 2))),
     ValueError, r"drho's stack \(2,\) does not broadcast against rho's \(3,\)"),
    # mu = 0 would otherwise shift phi_{d-1}; mu = d would hit a bare numpy IndexError; True is no index
    *[(f"rho_derivative-mu-{mu}", partial(rho_derivative, KINDS[1], PhaseVector.zero(4), mu), IndexError,
       r"parameter index must be in 1\.\.d-1") for mu in (0, -1, 4, 1.5, True)],
    ("run_verification-dmax-above-the-limit", partial(run_verification, DMAX_FULL_LIMIT + 1), ValueError,
     f"dmax is limited to {DMAX_FULL_LIMIT}, to bound verify's run time; got {DMAX_FULL_LIMIT + 1}"),
    # checked before any check runs, next to the seed
    ("run_verification-progress-int", partial(run_verification, 2, progress=1), ValueError,
     "progress must be None or callable, got 1"),
    ("run_verification-mutate-str", partial(run_verification, 2, mutate="x"), ValueError,
     "mutate must be a bool, got 'x'"),
    *[(f"reduce_first_qudit-length-{n}", partial(reduce_first_qudit, np.zeros(n, dtype=complex)), ValueError,
       f"state length {n} is not a qudit-cube") for n in (100, 1)],
]


@pytest.mark.parametrize("call, exception, message", [pytest.param(*c[1:], id=c[0]) for c in CASES])
def test_rejection(call, exception, message):
    with pytest.raises(exception, match=message):
        call()
