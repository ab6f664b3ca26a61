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

Each option and its default is declared once, in build_parser.  main builds
one parser per process, on its first call, and then only reads it.  Each
command line is parsed once, by its subcommand's parser alone; the top-level
parser handles only --help, --version and a missing or unknown command.  A
key=value config file (--config) is read as UTF-8 flags: each line becomes
--option=value, placed after the command name and ahead of the command line's
own flags, and the whole line is parsed again on the same parser.  So each
value is checked as its flag is, and explicit flags win.  A key that names no
option of the subcommand is a usage error.  verify's tolerances
and oracle step are fixed in the verify module; no key or flag sets them.
verify (with the oracle) and json are imported by the commands that use
them, so compute and figure start with the closed forms alone.
compute and figure call each closed form once, on the whole column of
dimensions, and write each CSV row from one %-template.  CSV output uses a
header row, 12 significant digits, and LF line endings, so fixed inputs give
byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

import numpy as np

from . import __version__
from .channels import MACHINES, ParamChannel, eta_pqcm, eta_uqcm
from .crb import qfim_eigenvalues, total_variance_bound
from .qfim import CLOSED_FORM_DMAX, closed_entries, qfim_pqcm_entries, qfim_pure_entries, qfim_uqcm_entries
from .states import DEFAULT_SEED, DMAX_FULL_LIMIT

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_VERIFY = 3


class UsageError(Exception):
    pass


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise UsageError("--seed must be a non-negative integer")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _check_out(out: str | None) -> None:
    if out is not None:  # "a": an existing file keeps its text if the run fails
        open(out, "a").close()


def _dim_column(dmin: int, dmax: int) -> np.ndarray:
    if dmax > CLOSED_FORM_DMAX:  # checked before the column is built
        raise UsageError(f"--dmax must not exceed {CLOSED_FORM_DMAX}")
    return np.arange(dmin, dmax + 1)


def _rows(columns) -> zip:
    """Rows of equal-length array columns, as tuples of Python numbers."""
    return zip(*(c.tolist() for c in columns))


def _csv_text(header: list[str], row_format: str, columns, comments: list[str] = ()) -> str:
    """CSV text with one row_format line per row of the columns."""
    lines = [*comments, ",".join(header), *(row_format % row for row in _rows(columns))]
    return "\n".join(lines) + "\n"


def cmd_compute(args: argparse.Namespace) -> int:
    if not args.machine:
        raise UsageError("--machine is required (pure, uqcm, pqcm, or shrink)")
    try:
        channel = ParamChannel(args.machine, args.eta)
    except ValueError as exc:
        raise UsageError(f"machine={args.machine}: {exc}") from exc
    _check_seed(args.seed)
    if not 2 <= args.dmin <= args.dmax:
        raise UsageError("--dmin/--dmax must satisfy 2 <= dmin <= dmax")
    dims = _dim_column(args.dmin, args.dmax)
    try:  # each closed form once, over the whole column
        eta = channel.shrinking_factor(dims)
        fdiag, foff = closed_entries(channel, dims)
        var_min = total_variance_bound(dims, eta)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _check_out(args.out)
    lam1, lam2 = qfim_eigenvalues(dims, fdiag, foff)

    header = [
        "d", "eta", "f_diag", "f_offdiag",
        "lambda1", "lambda2", "total_variance_min", "attainable",
    ]
    # the attainability matrix vanishes identically for the equatorial family;
    # verify's spectral and oracle checks carry the numerical evidence
    columns = (dims, eta, fdiag, foff, lam1, lam2, var_min)
    if args.fmt == "json":
        import json
        rows = [  # NaN (lambda2 at d = 2) -> null keeps the output strict JSON
            {**{k: None if v != v else v for k, v in zip(header, row)}, "attainable": True}
            for row in _rows(columns)
        ]
        text = json.dumps({"seed": args.seed, "rows": rows}, indent=2) + "\n"
    else:
        text = _csv_text(header, "%d" + ",%.12g" * 6 + ",true", columns, [f"# seed={args.seed}"])
    _emit(text, args.out)
    return EXIT_OK


def cmd_figure(args: argparse.Namespace) -> int:
    if args.dmax < 3:
        raise UsageError("--dmax must be at least 3 for figure data")
    dims = _dim_column(2, args.dmax)
    _check_out(args.out)
    if args.which == 1:
        header = ["d", "f_in_diag", "scaled_bound", "f_out_diag"]
        f_in = qfim_pure_entries(dims)[0]
        columns = (dims, f_in, eta_uqcm(dims) * f_in, qfim_uqcm_entries(dims)[0])
    elif args.which == 2:
        header = ["d", "f_uqcm_diag", "f_pqcm_diag"]
        columns = (dims, qfim_uqcm_entries(dims)[0], qfim_pqcm_entries(dims)[0])
    else:
        header = ["d", "e_in", "e_uqcm", "e_pqcm"]
        columns = (
            dims,
            total_variance_bound(dims, 1.0),
            total_variance_bound(dims, eta_uqcm(dims)),
            total_variance_bound(dims, eta_pqcm(dims)),
        )
    _emit(_csv_text(header, "%d" + ",%.12g" * (len(header) - 1), columns), args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    import json

    from . import verify  # looked up at each call: a wrapper bound on the module is reached
    try:
        verify.check_arguments(args.dmax)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _check_seed(args.seed)
    _check_out(args.out)  # before the first check; a failed run keeps the old report

    def progress(res: verify.CheckResult) -> None:
        mark = "pass" if res.passed else "FAIL"
        print(
            f"[{mark}] {res.name}: max_error={res.max_error:.3e} tolerance={res.tolerance:.1e}",
            file=sys.stderr,
        )

    results = verify.run_verification(dmax_full=args.dmax, seed=args.seed, mutate=args.mutate, progress=progress)
    report = [r.as_dict() for r in results]
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed", file=sys.stderr)
    return EXIT_OK if n_fail == 0 else EXIT_VERIFY


def _parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
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


def _file_options(parser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """A subcommand's value options by config key: the long flag, "--" dropped and "-" as "_"."""
    return {
        a.option_strings[-1].lstrip("-").replace("-", "_"): a
        for a in parser._actions
        if a.option_strings and a.nargs != 0 and a.dest != "config"
    }


def _config_flags(args: argparse.Namespace, subparser: argparse.ArgumentParser) -> list[str]:
    """The --config file's values as flags of the subcommand, one --option=value each.

    Every key must name a value option of the subcommand.
    """
    file_values = _parse_config_file(args.config)
    options = _file_options(subparser)
    unknown = [k for k in file_values if k not in options]
    if unknown:
        raise UsageError(f"config keys name no option of {args.command}: " + ", ".join(unknown))
    return [f"{options[k].option_strings[-1]}={v}" for k, v in file_values.items()]


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
    pc.add_argument("--dmin", type=int, default=2)
    pc.add_argument("--dmax", type=int, default=20)
    pc.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="label only: the CSV '# seed=' line and JSON 'seed'",
    )
    pc.add_argument("--out", type=str)
    pc.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    pc.add_argument("--config", type=str)

    pf = sub.add_parser("figure", help="CSV data for one of the three summary figures")
    pf.add_argument("which", type=int, choices=(1, 2, 3))
    pf.add_argument("--dmax", type=int, default=20)
    pf.add_argument("--out", type=str)
    pf.add_argument("--config", type=str)

    pv = sub.add_parser("verify", help="run the verification suite, emit a JSON report")
    pv.add_argument(
        "--dmax", type=int, default=8,
        help=f"largest d of the cloner and oracle checks, at most {DMAX_FULL_LIMIT} (default %(default)s)",
    )
    pv.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pv.add_argument("--out", type=str)
    pv.add_argument("--config", type=str)
    pv.add_argument(
        "--mutate",
        action="store_true",
        help="inject a deliberate shrinking-factor error (self-test; must fail)",
    )
    parser.commands = sub.choices  # subcommand name -> its parser
    return parser


@cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of every call: built once, then only read."""
    return build_parser()


def _parse(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Parse argv once: a leading subcommand name hands the rest to its parser."""
    if argv and argv[0] in parser.commands:
        return parser.commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    return parser.parse_args(argv)  # help, version, a missing or unknown command


def main(argv=None) -> int:
    if argv is None:  # the installed entry point passes nothing
        argv = sys.argv[1:]
    try:
        parser = _shared_parser()
        args = _parse(parser, argv)
        if args.config is not None:  # argv[0] is the command; the later flag of two wins
            args = _parse(parser, [argv[0], *_config_flags(args, parser.commands[argv[0]]), *argv[1:]])
        if args.command == "compute":
            return cmd_compute(args)
        if args.command == "figure":
            return cmd_figure(args)
        return cmd_verify(args)
    except SystemExit as exc:  # argparse: --help, --version and usage errors
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - surfaced as exit code 1
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
