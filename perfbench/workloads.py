"""The benchmark's workloads: CLI command lines and the check for each output.

Every workload is closed-loop with one client: its commands run back to
back, and a pass is one run over all of them.  The workload seed is passed
to each command that takes `--seed`.

A pass takes 0.5 to 1 s on a 2.1 GHz Xeon, so a 35 s run gives a median
over 25 to 60 passes.  Longer passes (d up to 64 for `dense-sweep`, 400 for
`figure 3`, 16 for `verify`) leave two to five passes a run, too few for a
median that holds still on a shared host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import reference


@dataclass(frozen=True)
class Command:
    argv: list[str]
    check: Callable[[str], list[str]]


def compute(machine: str, dmin: int, dmax: int, seed: int) -> Command:
    argv = ["compute", "--machine", machine, "--dmin", str(dmin), "--dmax", str(dmax), "--seed", str(seed)]
    rows = [reference.compute_row(machine, d) for d in range(dmin, dmax + 1)]
    return Command(argv, lambda text: reference.check_csv(text, rows, [f"# seed={seed}"]))


def figure(which: int, dmax: int) -> Command:
    rows = [reference.figure_row(which, d) for d in range(2, dmax + 1)]
    return Command(["figure", str(which), "--dmax", str(dmax)], lambda text: reference.check_csv(text, rows, []))


def verify(dmax: int, seed: int) -> Command:
    return Command(["verify", "--dmax", str(dmax), "--seed", str(seed)], reference.check_verify_report)


WORKLOADS: dict[str, Callable[[int], list[Command]]] = {
    # d <= DENSE_DMAX on every row: complement basis, (d-1, d, d) derivative
    # tensor and the attainability matrix are built for each d.
    "dense-sweep": lambda seed: [compute("uqcm", 2, 32, seed)],
    # Closed forms and the dense-inverse cross-check only; never touches the
    # derivative path or the oracle.
    "closed-large-d": lambda seed: [
        figure(1, 2000),
        figure(2, 2000),
        figure(3, 250),
        compute("pqcm", 65, 2000, seed),
    ],
    # Full tripartite unitaries, partial trace and the finite-difference
    # oracle, plus many small-d derivative tensors.
    "verify-oracle": lambda seed: [verify(8, seed)],
    # Every path at d <= 8, for the smoke run of the harness itself.
    "smoke": lambda seed: [
        compute("uqcm", 2, 8, seed),
        compute("pqcm", 2, 8, seed),
        figure(1, 8),
        figure(2, 8),
        figure(3, 8),
        verify(4, seed),
    ],
}
