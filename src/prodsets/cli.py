"""Command-line front end.

Subcommands run the experiment suites and emit machine-readable reports
(JSON to stdout, CSV dumps to files); outputs are byte-stable for identical
inputs.  Exit codes: 0 ok, 1 selftest violation, 2 bad flags or values,
3 desk-scale guard.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from fractions import Fraction

from . import acceptance, auxgraph, extremal, polyseq, sequences
from .arith import DeskScaleError
from .coverlemma import Bipartite, cover_sequence, verify_cover
from .productset import BaseSet, build_product_set, sequence_members


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
        p_str, q_str = text[len("lucasU:"):].split(",")
        return sequences.LucasSpec(int(p_str), int(q_str))
    raise ValueError(f"unknown sequence: {text!r} (use fib, lucasV or lucasU:P,Q)")


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _print_json(payload: dict, out: str | None = None) -> None:
    """Print the report; with ``out``, also write it there atomically."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
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
    # vars, not asdict: the fields are flat, and asdict deep-copies each one
    _print_json(vars(report) | {"members": [[str(v), i] for v, i in report.members]})
    return 0


def _cmd_graph(args) -> int:
    base = _parse_set(args.set)
    kind = _parse_seq(args.seq)
    ps = build_product_set(base)
    members = sequence_members(ps, kind)
    mode = auxgraph.ONE_CLASS if args.mode == "one" else auxgraph.TWO_CLASS
    graph = auxgraph.build_aux_graph(base, members, mode)
    report = auxgraph.edge_bound_report(graph)
    if args.dump:
        _write_atomic(args.dump, auxgraph.dump_edges_csv(graph))
    _print_json(vars(report) | {
        "cycle": None if report.cycle is None else [str(v) for v in report.cycle],
        "members": [str(m.value) for m in members],
    })
    return 0


def _cmd_window(args) -> int:
    f = _parse_poly(args.poly)
    prime_filter = polyseq.ABOVE_R if args.filter == "above" else polyseq.MID_RANGE
    residue = None
    if args.residue == "auto":
        modulus, a = polyseq.admissible_residue(f)
        residue = (a, modulus)
    stats = polyseq.window_stats(f, args.r, args.R, prime_filter, residue=residue)
    csv_text = polyseq.window_stats_csv(stats)
    if args.out:
        _write_atomic(args.out, csv_text)
        _print_json({
            "terms": len(stats.records),
            "above_count": stats.above_count,
            "mid_count": stats.mid_count,
            "log_smooth": stats.log_smooth,
            "content": stats.content,
            "residue": None if stats.residue is None else list(stats.residue),
            "out": args.out,
        })
    else:
        print(csv_text, end="")
    return 0


def _cmd_witness(args) -> int:
    factors = _parse_factors(args.poly_factors)
    report = polyseq.window_witness(factors, args.r, args.R, gamma=args.gamma)
    _print_json({
        "case": report.case,
        "R": report.window_length,
        "r": report.r,
        "k": report.k,
        "B_lower_bound": report.b_lower_bound,
        # the default gamma is the int 2; an explicit --gamma is echoed as a float
        "gamma": report.gamma if isinstance(report.gamma, int) else float(report.gamma),
        "num_terms": len(report.terms),
        "num_primes": len(report.primes),
        "degree_bound": report.degree_bound,
        "cover": list(report.cover),
    }, args.out)
    return 0


def _cmd_cover(args) -> int:
    adjacency: dict[str, list[str]] = {}
    with open(args.graph) as handle:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prodsets",
        description="Exact experiments on integer sequences in product sets B.B")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fib-extremal",
                       help="max Fibonacci count over all subsets of {1..N}")
    p.add_argument("--universe", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_fib_extremal)

    p = sub.add_parser("lucas-bound",
                       help="distinct sequence terms in B.B versus 2|B| + 30")
    p.add_argument("--set", required=True)
    p.add_argument("--seq", required=True, help="fib, lucasV, or lucasU:P,Q")
    p.set_defaults(handler=_cmd_lucas_bound)

    p = sub.add_parser("graph",
                       help="representation graph for sequence members of B.B")
    p.add_argument("--set", required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--mode", choices=("one", "two"), default="one")
    p.add_argument("--dump", default=None, help="write the edge list CSV here")
    p.set_defaults(handler=_cmd_graph)

    p = sub.add_parser("window",
                       help="per-term factor statistics of {f(r+1)..f(r+R)}")
    p.add_argument("--poly", required=True,
                   help="comma-separated coefficients, constant term first")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--filter", choices=("above", "mid"), required=True)
    p.add_argument("--residue", choices=("auto",), default=None,
                   help="filter to the admissible residue class and divide by the content")
    p.add_argument("--out", default=None, help="write the CSV here")
    p.set_defaults(handler=_cmd_window)

    p = sub.add_parser("witness",
                       help="lower bound on |B| from a window inside B.B")
    p.add_argument("--poly-factors", required=True,
                   help="semicolon-separated irreducible factors, e.g. '1,0,1;0,1'")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--gamma", type=_parse_fraction, default=2)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("cover", help="fresh-neighbour cover of a bipartite graph")
    p.add_argument("--graph", required=True,
                   help="file with lines 'b a1 a2 ...' (whitespace separated)")
    p.set_defaults(handler=_cmd_cover)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.set_defaults(handler=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
