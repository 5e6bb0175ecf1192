"""Command-line interface: gen / depth / betti / sdepth / decomp / verify.

Exit codes: 0 success (and no verification violation), 1 at least one
verification violation, 2 usage error or violated precondition, 141
(128 + SIGPIPE, as a shell reports a writer that a closed pipe ended)
when the reader of stdout went away first.  All numeric output is exact
integers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .betti import RATIONALS, GF2, depth_quotient, hochster_betti
from .graphs import cycle_ideal, line_ideal
from .ideals import MAX_AMBIENT, MonomialIdeal
from .sdepth import StanleyCertificate, stanley_depth, validate_decomposition
from .oracle import FAMILIES, verify_suite

FIELDS = {"q": RATIONALS, "f2": GF2}
GRAPHS = {"line": line_ideal, "cycle": cycle_ideal}


class UsageError(Exception):
    pass


# 128 + SIGPIPE (13), the status a shell gives a writer the signal ended
PIPE_CLOSED = 141


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return value


def _read_json(path: str):
    """The value in a JSON file; a file that does not parse is a usage error."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError:
            raise UsageError(f"{path} is not JSON") from None


def _load_module(args) -> tuple[MonomialIdeal, MonomialIdeal]:
    """Resolve the (J, I) pair from --graph/--n/--m or --ideal-file."""
    module = getattr(args, "module", "quotient")
    if getattr(args, "ideal_file", None):
        if args.graph or args.n is not None or args.m is not None:
            raise UsageError("--ideal-file excludes --graph/--n/--m")
        if module == "subquotient":
            raise UsageError("--module subquotient needs a named graph family")
        ideal = MonomialIdeal.from_dict(_read_json(args.ideal_file))
        return MonomialIdeal.whole_ring(ideal.n), ideal
    if not args.graph or args.n is None or args.m is None:
        raise UsageError("need --graph, --n and --m (or --ideal-file)")
    ideal = GRAPHS[args.graph](args.n, args.m)
    if module == "subquotient":
        if args.graph != "cycle":
            raise UsageError("--module subquotient applies to cycle ideals")
        return ideal, line_ideal(args.n, args.m)
    return MonomialIdeal.whole_ring(args.n), ideal


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def cmd_gen(args) -> int:
    ideal = GRAPHS[args.graph](args.n, args.m)
    if args.format == "json":
        _emit(json.dumps(ideal.to_dict()), args.out)
    else:
        _emit(str(ideal), args.out)
    return 0


def cmd_depth(args) -> int:
    _, ideal = _load_module(args)
    _emit(str(depth_quotient(ideal, FIELDS[args.field])), args.out)
    return 0


def cmd_betti(args) -> int:
    _, ideal = _load_module(args)
    table = hochster_betti(ideal, FIELDS[args.field])
    if args.format == "json":
        rows = [{"i": i, "sigma": list(s), "beta": b} for i, s, b in table.rows()]
        _emit(json.dumps(rows), args.out)
    else:
        lines = ["i,sigma,beta"]
        for i, s, b in table.rows():
            lines.append(f"{i},{' '.join(map(str, s))},{b}")
        _emit("\n".join(lines), args.out)
    return 0


def _load_nonzero_module(args) -> tuple[MonomialIdeal, MonomialIdeal]:
    """The (J, I) pair of sdepth and decomp, which refuse J = I."""
    j_ideal, i_ideal = _load_module(args)
    if j_ideal == i_ideal:
        raise UsageError("J = I gives the zero module")
    return j_ideal, i_ideal


def _run_sdepth(args):
    j_ideal, i_ideal = _load_nonzero_module(args)
    return stanley_depth(j_ideal, i_ideal, node_budget=args.budget_nodes)


def _certificate_json(res) -> str:
    """The certificate of a result, marked when the budget cut the search."""
    if res.exact:
        return res.certificate.to_json()
    return json.dumps({"exact": False, **res.certificate.to_dict()}, indent=2)


def cmd_sdepth(args) -> int:
    res = _run_sdepth(args)
    if args.certificate:
        with open(args.certificate, "w") as fh:
            fh.write(_certificate_json(res) + "\n")
    _emit(str(res.sdepth) if res.exact
          else f"unknown >= {res.sdepth}, <= {res.upper}", args.out)
    return 0


def cmd_decomp(args) -> int:
    if args.check:
        j_ideal, i_ideal = _load_nonzero_module(args)
        cert = StanleyCertificate.from_dict(_read_json(args.check), j_ideal.n)
        result = validate_decomposition(cert, j_ideal, i_ideal)
        if result:
            _emit("valid", args.out)
            return 0
        _emit(f"invalid: {result.reason}", args.out)
        return 1
    res = _run_sdepth(args)
    _emit(_certificate_json(res), args.out)
    return 0


def cmd_verify(args) -> int:
    if args.n_min > args.n_max:
        raise UsageError(f"--n-min {args.n_min} exceeds --n-max {args.n_max}")
    if args.n_max > MAX_AMBIENT:
        # past it no ideal exists, so every row would be SKIPPED
        raise UsageError(f"--n-max {args.n_max} exceeds {MAX_AMBIENT}")
    report = verify_suite(args.suite, args.n_min, args.n_max,
                          field_choice=FIELDS[args.field],
                          node_budget=args.budget_nodes)
    if args.format == "json":
        text = json.dumps(report.to_json_obj(), indent=2)
    elif args.format == "csv":
        text = "\n".join(report.to_csv_lines())
    else:
        text = "\n".join(report.to_table_lines())
    _emit(text, args.out)
    return 1 if report.has_violation else 0


def _add_module_opts(p, subquotient: bool = True):
    p.add_argument("--graph", choices=GRAPHS)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--ideal-file", help="JSON ideal {'n':..,'gens':[[..],..]}")
    if subquotient:
        p.add_argument("--module", choices=["quotient", "subquotient"],
                       default="quotient")
    p.add_argument("--out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathdepth",
        description="Exact depth / Stanley depth engines for path ideals "
                    "of line and cyclic graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="print a path ideal")
    p.add_argument("--graph", choices=GRAPHS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("depth", help="depth of S/I")
    _add_module_opts(p, subquotient=False)
    p.add_argument("--field", choices=FIELDS, default="q")
    p.set_defaults(func=cmd_depth)

    p = sub.add_parser("betti", help="multigraded Betti numbers of S/I")
    _add_module_opts(p, subquotient=False)
    p.add_argument("--field", choices=FIELDS, default="q")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("sdepth", help="Stanley depth of S/I or J/I")
    _add_module_opts(p)
    p.add_argument("--certificate", help="write the certificate JSON here")
    p.add_argument("--budget-nodes", type=_positive_int)
    p.set_defaults(func=cmd_sdepth)

    p = sub.add_parser("decomp", help="emit or check a Stanley decomposition")
    _add_module_opts(p)
    p.add_argument("--check", help="validate this certificate JSON instead")
    p.add_argument("--budget-nodes", type=_positive_int)
    p.set_defaults(func=cmd_decomp)

    p = sub.add_parser("verify", help="run the verification harness")
    p.add_argument("--suite", default="all", choices=["all", *FAMILIES])
    p.add_argument("--n-min", type=_positive_int, default=3)
    p.add_argument("--n-max", type=_positive_int, default=9)
    p.add_argument("--field", choices=FIELDS, default="q")
    p.add_argument("--budget-nodes", type=_positive_int)
    p.add_argument("--format", choices=["json", "csv", "table"],
                   default="table")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)
    return parser


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        status = args.func(args)
        # a closed pipe shows up here, not in the flush at exit
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader left, as `head` does: what is left of stdout goes to
        # devnull, so the flush at exit has nothing to complain about
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return PIPE_CLOSED
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
