"""Reference kernel that gauges how fast the host runs at the moment.

On a shared host other tenants slow whole stretches of a run, by half or
more, and the program slows with them.  The benchmark runs this fixed kernel
next to every timed pass and every timed import, and reports those times
rescaled to the host speed at which the kernel takes REFERENCE_S:

    calibrated = measured * REFERENCE_S / kernel time next to it

The kernel uses only numpy, never phaseclone, so a change to the program
cannot move it.  It mixes what phaseclone's passes do: small complex
Hermitian eigendecompositions, einsum contractions and plain Python loops,
single-threaded.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# The kernel's fastest time on an idle core of a 2.1 GHz Xeon (two vCPUs,
# numpy 2 with OpenBLAS).  It only sets the scale: calibrated times read as
# seconds on that host when nothing else runs on it.
REFERENCE_S = 0.040

_rng = np.random.default_rng(0)
_a = _rng.standard_normal((24, 24)) + 1j * _rng.standard_normal((24, 24))
_H = _a + _a.conj().T


def _round() -> float:
    w, v = np.linalg.eigh(_H)
    acc = float(np.einsum("ij,ij->", v, v.conj()).real) + float(w[0])
    return acc + sum(k * 0.5 for k in range(200))


def kernel_s(rounds: int = 250) -> float:
    """Wall time of `rounds` fixed rounds, after one untimed round."""
    _round()
    t0 = perf_counter()
    for _ in range(rounds):
        _round()
    return perf_counter() - t0
