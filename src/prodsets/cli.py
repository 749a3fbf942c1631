"""Command-line front end.

Subcommands run the experiment suites and emit machine-readable reports
(JSON to stdout, CSV dumps to files); outputs are byte-stable for identical
inputs.  Exit codes: 0 ok, 1 selftest violation, 2 bad flags or values,
3 desk-scale guard.  A named command is parsed by its own parser alone; the
full parser is built only to report an unrecognized argument or a missing or
unknown command.  The cover file is read as UTF-8.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import stat
import sys
from fractions import Fraction

from . import acceptance, auxgraph, extremal, polyseq, sequences
from .arith import DeskScaleError
from .coverlemma import Bipartite, cover_sequence, verify_cover
from .productset import BaseSet, sequence_members


def _parse_fraction(token: str) -> Fraction:
    try:
        return Fraction(token)
    except ZeroDivisionError:   # a bad value (exit 2), not a program fault
        raise ValueError(f"zero denominator in {token.strip()!r}") from None


_parse_fraction.__name__ = "Fraction"   # argparse names the type in "invalid ... value"


def _parse_exact(token: str):
    token = token.strip()
    if "/" in token:
        return _parse_fraction(token)
    return int(token)


def _parse_set(text: str) -> BaseSet:
    tokens = [t for t in text.split(",") if t.strip()]
    if not tokens:
        raise ValueError("empty base set")
    return BaseSet(_parse_exact(t) for t in tokens)


def _parse_poly(text: str) -> polyseq.PolynomialZ:
    return polyseq.PolynomialZ([int(t.strip()) for t in text.split(",")])


def _parse_factors(text: str) -> list[polyseq.PolynomialZ]:
    return [_parse_poly(part) for part in text.split(";") if part.strip()]


def _parse_seq(text: str):
    if text == "fib":
        return sequences.FIBONACCI
    if text == "lucasV":
        return sequences.LUCAS_V
    if text.startswith("lucasU:"):
        try:
            p, q = map(int, text[len("lucasU:"):].split(","))
        except ValueError:
            pass
        else:
            return sequences.LucasSpec(p, q)
    raise ValueError(f"unknown sequence: {text!r} (use fib, lucasV or lucasU:P,Q)")


def _write_atomic(path: str, text: str) -> None:
    """Write through a temporary file renamed onto the real target, so a
    symlink is written through.  The file gets the mode open(path, "w") would
    give it: its own if it exists, else 0o666 less the umask, which os.open
    applies.  A target that is neither a regular file nor a directory (a
    FIFO, a device) is refused before any temporary file is made."""
    try:
        if not path:
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT))
        real = os.path.realpath(path)
        try:
            mode = os.stat(real).st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None and not (stat.S_ISREG(mode) or stat.S_ISDIR(mode)):
            raise ValueError(f"not a regular file: {path!r}")
        tmp = os.path.join(os.path.dirname(real), f".tmp-{os.urandom(8).hex()}")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            if mode is not None:
                os.chmod(tmp, stat.S_IMODE(mode))
            os.replace(tmp, real)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:             # name the path asked for, not the temporary file
        raise OSError(exc.errno, exc.strerror, path) from None


def _print_json(payload: dict, out: str | None = None) -> None:
    """Print the report; with ``out``, also write it there atomically."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out is not None:
        _write_atomic(out, text)
    print(text, end="")


def _cmd_fib_extremal(args) -> int:
    count, witness = extremal.max_fib_count(args.universe, args.size)
    _print_json({
        "universe_max": args.universe,
        "set_size": args.size,
        "max_count": count,
        "witness": [int(e) for e in witness],
    }, args.out)
    return 0


def _cmd_lucas_bound(args) -> int:
    base = _parse_set(args.set)
    kind = _parse_seq(args.seq)
    report = extremal.lucas_count_check(base, kind)
    _print_json(report._asdict() | {"members": [[str(v), i] for v, i in report.members]})
    return 0


def _cmd_graph(args) -> int:
    base = _parse_set(args.set)
    kind = _parse_seq(args.seq)
    members = sequence_members(base, kind)
    graph = auxgraph.build_aux_graph(base, members, args.mode)
    report = auxgraph.edge_bound_report(graph)
    if args.dump is not None:
        _write_atomic(args.dump, auxgraph.dump_edges_csv(graph))
    _print_json(report._asdict() | {
        "cycle": None if report.cycle is None else [str(v) for v in report.cycle],
        "members": [str(m.value) for m in members],
    })
    return 0


def _cmd_window(args) -> int:
    stats = polyseq.window_stats(_parse_poly(args.poly), args.r, args.R, args.filter,
                                 admissible=args.residue == "auto")
    csv_text = polyseq.window_stats_csv(stats)
    if args.out is not None:
        _write_atomic(args.out, csv_text)
        summary = {k: v for k, v in stats._asdict().items() if k != "records"}
        _print_json(summary | {"terms": len(stats.records), "out": args.out})
    else:
        print(csv_text, end="")
    return 0


def _cmd_witness(args) -> int:
    factors = _parse_factors(args.poly_factors)
    report = polyseq.window_witness(factors, args.r, args.R, gamma=args.gamma)
    try:
        # the default gamma is the int 2; an explicit --gamma is echoed as a float
        gamma = report.gamma if isinstance(report.gamma, int) else float(report.gamma)
    except OverflowError:
        raise ValueError("--gamma is too large to echo as a float") from None
    _print_json({
        "case": report.case,
        "R": report.window_length,
        "r": report.r,
        "k": report.k,
        "B_lower_bound": report.b_lower_bound,
        "gamma": gamma,
        "num_terms": len(report.terms),
        "num_primes": len(report.primes),
        "degree_bound": report.degree_bound,
        "cover": list(report.cover),
    }, args.out)
    return 0


def _cmd_cover(args) -> int:
    adjacency: dict[str, list[str]] = {}
    with open(args.graph, encoding="utf-8") as handle:
        for line in handle:
            tokens = line.split()
            if not tokens or tokens[0].startswith("#"):
                continue
            b, neighbours = tokens[0], tokens[1:]
            if b in adjacency:
                raise ValueError(f"duplicate b-vertex line: {b}")
            adjacency[b] = neighbours
    graph = Bipartite(adjacency)
    seq = cover_sequence(graph)
    bound = graph.degree_bound
    _print_json({
        "sequence": seq,
        "k": len(seq),
        "b_count": len(adjacency),
        "degree_bound": bound,
        "bound_ok": len(seq) * bound >= len(adjacency),
        "verified": verify_cover(graph, seq),
    })
    return 0


def _cmd_selftest(args) -> int:
    return 0 if acceptance.run_all() else 1


# each adds a subcommand's arguments and sets its handler
def _fib_extremal_args(p) -> None:
    p.add_argument("--universe", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_fib_extremal)

def _lucas_bound_args(p) -> None:
    p.add_argument("--set", required=True)
    p.add_argument("--seq", required=True, help="fib, lucasV, or lucasU:P,Q")
    p.set_defaults(handler=_cmd_lucas_bound)

def _graph_args(p) -> None:
    p.add_argument("--set", required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--mode", choices=(auxgraph.ONE_CLASS, auxgraph.TWO_CLASS),
                   default=auxgraph.ONE_CLASS)
    p.add_argument("--dump", default=None, help="write the edge list CSV here")
    p.set_defaults(handler=_cmd_graph)

def _window_args(p) -> None:
    p.add_argument("--poly", required=True,
                   help="comma-separated coefficients, constant term first")
    p.add_argument("--r", type=int, required=True, metavar="r")
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--filter", choices=(polyseq.ABOVE_R, polyseq.MID_RANGE), required=True)
    p.add_argument("--residue", choices=("auto",), default=None,
                   help="filter to the admissible residue class and divide by the content")
    p.add_argument("--out", default=None, help="write the CSV here")
    p.set_defaults(handler=_cmd_window)

def _witness_args(p) -> None:
    p.add_argument("--poly-factors", required=True,
                   help="semicolon-separated irreducible factors, e.g. '1,0,1;0,1'")
    p.add_argument("--r", type=int, required=True, metavar="r")
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--gamma", type=_parse_fraction, default=2)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_witness)

def _cover_args(p) -> None:
    p.add_argument("--graph", required=True,
                   help="file with lines 'b a1 a2 ...' (whitespace separated)")
    p.set_defaults(handler=_cmd_cover)

def _selftest_args(p) -> None:
    p.set_defaults(handler=_cmd_selftest)


_COMMANDS = {   # name: (help, the function that adds its arguments and handler)
    "fib-extremal": ("max Fibonacci count over all subsets of {1..N}", _fib_extremal_args),
    "lucas-bound": ("distinct sequence terms in B.B versus 2|B| + 30", _lucas_bound_args),
    "graph": ("representation graph for sequence members of B.B", _graph_args),
    "window": ("per-term factor statistics of {f(r+1)..f(r+R)}", _window_args),
    "witness": ("lower bound on |B| from a window inside B.B", _witness_args),
    "cover": ("fresh-neighbour cover of a bipartite graph", _cover_args),
    "selftest": ("run the acceptance suite", _selftest_args),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prodsets",
        description="Exact experiments on integer sequences in product sets B.B")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """The namespace ``build_parser().parse_args(argv)`` gives, read by the
    named command's own parser alone when that parser takes every argument."""
    if argv and argv[0] in _COMMANDS:
        parser = argparse.ArgumentParser(prog=f"prodsets {argv[0]}")
        parser.set_defaults(command=argv[0])
        _COMMANDS[argv[0]][1](parser)
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            return args
    # no command, an unknown one or an argument left over: the full parser reports it
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.handler(args)
    except DeskScaleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
