"""Command-line interface.

Subcommands:
  compute  per-dimension closed-form QFIM entries, eigenvalues, variance
           bounds, and an attainability flag, which is the analytic result:
           the attainability matrix vanishes identically for the
           equatorial family under every shrinking channel
  figure   CSV data for the three summary curves (input vs scaled bound vs
           cloned output; UQCM vs PQCM diagonals; total variances)
  verify   run the built-in verification suite and emit a JSON report

Exit codes: 0 success, 1 runtime/numerical failure, 2 usage error,
3 verification failure.

Options may also be supplied through a key=value config file (--config);
explicit flags win over file values, and a key that names no option of the
subcommand is a usage error.  CSV output uses a header row, 12
significant digits, and LF line endings, so fixed inputs give byte-identical
files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .channels import FULL_UNITARY_DMAX, MACHINES, ParamChannel, eta_pqcm, eta_uqcm
from .crb import qfim_eigenvalues, total_variance_bound
from .oracle import DEFAULT_FD_STEP
from .qfim import (
    CLOSED_FORM_DMAX,
    closed_entries,
    qfim_pqcm_entries,
    qfim_pure_entries,
    qfim_uqcm_entries,
)
from .verify import DEFAULT_SEED, TOLERANCES, CheckResult, run_verification

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_VERIFY = 3

_TINY = np.finfo(float).tiny


class UsageError(Exception):
    pass


@dataclass
class SweepConfig:
    machine: str
    eta: float | None = None
    d_min: int = 2
    d_max: int = 20
    phases: list[float] | None = None
    seed: int = DEFAULT_SEED
    fd_step: float = DEFAULT_FD_STEP
    out: str | None = None
    fmt: str = "csv"
    tolerances: dict[str, float] = field(default_factory=dict)

    def validate(self) -> ParamChannel:
        """Check the sweep settings and return the machine they name."""
        try:
            channel = ParamChannel(self.machine, self.eta)
        except ValueError as exc:
            raise UsageError(f"machine={self.machine}: {exc}") from exc
        if self.seed < 0:
            raise UsageError("--seed must be a non-negative integer")
        if not 2 <= self.d_min <= self.d_max:
            raise UsageError("--dmin/--dmax must satisfy 2 <= dmin <= dmax")
        if self.d_max > CLOSED_FORM_DMAX:
            raise UsageError(f"--dmax must not exceed {CLOSED_FORM_DMAX}")
        # |F_off| is the smallest entry and shrinks with d: normal at dmax keeps every row finite
        if channel.kind == "shrink" and abs(closed_entries(channel, self.d_max)[1]) < _TINY:
            raise UsageError(
                f"--eta {self.eta} is too small: QFIM entries underflow at d={self.d_max}"
            )
        if self.fmt not in ("csv", "json"):
            raise UsageError("--format must be csv or json")
        if self.phases is not None:
            if self.d_min != self.d_max:
                raise UsageError("--phases requires dmin == dmax")
            if len(self.phases) != self.d_min - 1:
                raise UsageError(
                    f"--phases needs exactly {self.d_min - 1} values for d={self.d_min}"
                )
            if not np.all(np.isfinite(self.phases)):
                raise UsageError("--phases must be finite numbers")
        return channel


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _csv_text(header: list[str], rows: list[list], comments: list[str] | None = None) -> str:
    lines = list(comments or [])
    lines.append(",".join(header))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def cmd_compute(cfg: SweepConfig) -> int:
    channel = cfg.validate()
    header = [
        "d", "eta", "f_diag", "f_offdiag",
        "lambda1", "lambda2", "total_variance_min", "attainable",
    ]
    rows = []
    for d in range(cfg.d_min, cfg.d_max + 1):
        eta = channel.shrinking_factor(d)
        fdiag, foff = closed_entries(channel, d)
        lam1, lam2 = qfim_eigenvalues(d, fdiag, foff)
        var_min = total_variance_bound(d, eta)
        # the attainability matrix vanishes identically for the equatorial
        # family; verify's spectral and oracle checks carry the numerical evidence
        rows.append([d, eta, fdiag, foff, lam1, lam2, var_min, True])

    if cfg.fmt == "json":
        def jsonable(v):
            if isinstance(v, float) and np.isnan(v):
                return None  # keep the output strict JSON
            return v

        payload = {
            "seed": None if cfg.phases is not None else cfg.seed,
            "rows": [{k: jsonable(v) for k, v in zip(header, row)} for row in rows],
        }
        text = json.dumps(payload, indent=2, default=float) + "\n"
    else:
        comments = (
            [f"# phases={','.join(_fmt(v) for v in cfg.phases)}"]
            if cfg.phases is not None
            else [f"# seed={cfg.seed}"]
        )
        text = _csv_text(header, rows, comments)
    _emit(text, cfg.out)
    return EXIT_OK


def cmd_figure(which: int, d_max: int, out: str | None) -> int:
    if which not in (1, 2, 3):
        raise UsageError("figure selector must be 1, 2, or 3")
    if d_max < 3:
        raise UsageError("--dmax must be at least 3 for figure data")
    if d_max > CLOSED_FORM_DMAX:
        raise UsageError(f"--dmax must not exceed {CLOSED_FORM_DMAX}")
    dims = range(2, d_max + 1)
    if which == 1:
        header = ["d", "f_in_diag", "scaled_bound", "f_out_diag"]
        rows = [
            [d, qfim_pure_entries(d)[0], eta_uqcm(d) * qfim_pure_entries(d)[0], qfim_uqcm_entries(d)[0]]
            for d in dims
        ]
    elif which == 2:
        header = ["d", "f_uqcm_diag", "f_pqcm_diag"]
        rows = [[d, qfim_uqcm_entries(d)[0], qfim_pqcm_entries(d)[0]] for d in dims]
    else:
        header = ["d", "e_in", "e_uqcm", "e_pqcm"]
        rows = [
            [
                d,
                total_variance_bound(d, 1.0),
                total_variance_bound(d, eta_uqcm(d)),
                total_variance_bound(d, eta_pqcm(d)),
            ]
            for d in dims
        ]
    _emit(_csv_text(header, rows), out)
    return EXIT_OK


def cmd_verify(cfg: SweepConfig, mutate: bool = False) -> int:
    if not 2 <= cfg.d_max <= FULL_UNITARY_DMAX:
        raise UsageError(f"--dmax must satisfy 2 <= dmax <= {FULL_UNITARY_DMAX}")
    if not (np.isfinite(cfg.fd_step) and cfg.fd_step > 0):
        raise UsageError("--fd-step must be a finite positive number")
    unknown = sorted(set(cfg.tolerances) - set(TOLERANCES))
    if unknown:
        raise UsageError("config keys name no check: " + ", ".join(f"tol_{n}" for n in unknown))
    cfg.validate()  # the checks shared with compute, such as the seed

    def progress(res: CheckResult) -> None:
        mark = "pass" if res.passed else "FAIL"
        print(
            f"[{mark}] {res.name}: max_error={res.max_error:.3e} tolerance={res.tolerance:.1e}",
            file=sys.stderr,
        )

    results = run_verification(
        dmax_full=cfg.d_max, seed=cfg.seed, fd_step=cfg.fd_step, mutate=mutate,
        progress=progress, tolerances=cfg.tolerances,
    )
    report = [r.as_dict() for r in results]
    _emit(json.dumps(report, indent=2) + "\n", cfg.out)
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed", file=sys.stderr)
    return EXIT_OK if n_fail == 0 else EXIT_VERIFY


def _parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, val = line.split("=", 1)
        values[key.strip().lower().replace("-", "_")] = val.strip()
    return values


def _cast(key: str, raw: str, cast):
    try:
        return cast(raw)
    except ValueError as exc:
        raise UsageError(f"config value {key}={raw!r}: {exc}") from exc


def _file_options(parser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """A subcommand's value options by config key (--fd-step -> fd_step)."""
    return {
        a.option_strings[-1].lstrip("-").replace("-", "_"): a
        for a in parser._actions
        if a.option_strings and a.nargs != 0 and a.dest != "config"
    }


def _apply_config_file(args: argparse.Namespace) -> dict[str, str]:
    """Fill options not given as flags from --config; return the file's values.

    Every key must name a value option of the subcommand; verify also takes
    tol_<check> keys, which cmd_verify checks against the declared checks.
    """
    if args.config is None:
        return {}
    file_values = _parse_config_file(args.config)
    unknown = [
        k for k in file_values
        if k not in args.file_options and not (args.command == "verify" and k.startswith("tol_"))
    ]
    if unknown:
        raise UsageError(f"config keys name no option of {args.command}: " + ", ".join(unknown))
    for key, action in args.file_options.items():
        if key in file_values and getattr(args, action.dest) is None:
            setattr(args, action.dest, _cast(key, file_values[key], action.type or str))
    return file_values


def _or(value, default):
    return default if value is None else value


def _parse_phases(text: str) -> list[float]:
    if text.strip() == "":
        raise UsageError("--phases is empty; give d-1 comma-separated numbers or leave it out")
    tokens = text.split(",")
    if any(tok.strip() == "" for tok in tokens):
        raise UsageError(f"--phases has an empty entry: {text!r}")
    try:
        return [float(tok) for tok in tokens]
    except ValueError as exc:
        raise UsageError(f"--phases expects comma-separated numbers: {exc}") from exc


def _tolerance_overrides(file_values: dict[str, str]) -> dict[str, float]:
    out = {}
    for key, raw in file_values.items():
        if key.startswith("tol_"):
            tol = _cast(key, raw, float)
            if not (np.isfinite(tol) and tol >= 0):
                raise UsageError(f"config value {key}={raw!r}: tolerance must be finite and >= 0")
            out[key[4:]] = tol
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phaseclone",
        description="Multi-phase quantum Fisher information for cloned equatorial qudits.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="closed-form QFIM sweep over dimensions")
    pc.add_argument("--machine", choices=MACHINES)
    pc.add_argument("--eta", type=float)
    pc.add_argument("--dmin", type=int)
    pc.add_argument("--dmax", type=int)
    pc.add_argument(
        "--phases", type=str,
        help="comma-separated phases (requires dmin==dmax); label only: the CSV '# phases=' line",
    )
    pc.add_argument("--seed", type=int, help="label only: the CSV '# seed=' line and JSON 'seed'")
    pc.add_argument("--out", type=str)
    pc.add_argument("--format", dest="fmt", choices=("csv", "json"))
    pc.add_argument("--config", type=str)

    pf = sub.add_parser("figure", help="CSV data for one of the three summary figures")
    pf.add_argument("which", type=int, choices=(1, 2, 3))
    pf.add_argument("--dmax", type=int)
    pf.add_argument("--out", type=str)
    pf.add_argument("--config", type=str)

    pv = sub.add_parser("verify", help="run the verification suite, emit a JSON report")
    pv.add_argument("--dmax", type=int, help="cap for full-unitary checks (default 8)")
    pv.add_argument("--seed", type=int)
    pv.add_argument("--fd-step", dest="fd_step", type=float)
    pv.add_argument("--out", type=str)
    pv.add_argument("--config", type=str)
    pv.add_argument(
        "--mutate",
        action="store_true",
        help="inject a deliberate shrinking-factor error (self-test; must fail)",
    )
    for p in (pc, pf, pv):
        p.set_defaults(file_options=_file_options(p))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        file_values = _apply_config_file(args)

        if args.command == "compute":
            if not args.machine:
                raise UsageError("--machine is required (pure, uqcm, pqcm, or shrink)")
            cfg = SweepConfig(
                machine=args.machine,
                eta=args.eta,
                d_min=_or(args.dmin, 2),
                d_max=_or(args.dmax, 20),
                phases=_parse_phases(args.phases) if args.phases is not None else None,
                seed=_or(args.seed, DEFAULT_SEED),
                out=args.out,
                fmt=_or(args.fmt, "csv"),
            )
            return cmd_compute(cfg)

        if args.command == "figure":
            return cmd_figure(args.which, _or(args.dmax, 20), args.out)

        cfg = SweepConfig(
            machine="pure",
            d_max=_or(args.dmax, 8),
            seed=_or(args.seed, DEFAULT_SEED),
            fd_step=_or(args.fd_step, DEFAULT_FD_STEP),
            out=args.out,
            tolerances=_tolerance_overrides(file_values),
        )
        return cmd_verify(cfg, mutate=args.mutate)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - surfaced as exit code 1
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
