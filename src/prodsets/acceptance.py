"""Acceptance suite: the checks behind ``prodsets selftest`` and
tests/test_acceptance.py.

Each check returns a one-line summary on success and raises CheckFailure when
a bound is violated.  Randomised corpora use fixed seeds so every run sees the
same inputs.
"""

from __future__ import annotations

import math
import random
import sys
import time
from itertools import product as iter_product

from . import arith, auxgraph, coverlemma, extremal, polyseq, sequences
from .productset import BaseSet, sequence_members


class CheckFailure(AssertionError):
    """An acceptance bound was violated."""


def _require(condition: bool, message: str, *args) -> None:
    """Raise CheckFailure unless condition holds; the message is formatted
    as ``message % args`` only then, so hot loops pay nothing for it."""
    if not condition:
        raise CheckFailure(message % args if args else message)


def check_01_fib_count_exhaustive() -> str:
    """Every B in {1..30} with |B| <= 5 has at most |B| Fibonacci values in B.B.

    B's values are those of its core part S (``extremal.core``), and
    |S| <= |B| with S itself such a B, so checking each core subset S once
    covers every B."""
    members = sequence_members(BaseSet(range(1, 31)), sequences.FIBONACCI)
    for subset, pairs in extremal.core_subsets(members, 5):
        _require(len(pairs) <= len(subset),
                 "S = %s: %d Fibonacci values", tuple(subset), len(pairs))
    total = sum(math.comb(30, size) for size in range(1, 6))
    return f"{total} subsets checked, count never exceeds the set size"


def check_02_sharp_examples() -> str:
    """sharp_example(k) really puts k Fibonacci values in its product set, k = 1..8."""
    for k in range(1, 9):
        base = extremal.sharp_example(k)
        _require(len(base) == k, f"witness for k={k} has size {len(base)}")
        found = sequence_members(base, sequences.FIBONACCI)
        _require(len(found) == k,
                 f"k={k}: witness {base} yields {len(found)} values")
    return "witnesses hit their set size exactly for k = 1..8"


def check_03_gcd_square_bound() -> str:
    """gcd(F_m, F_n)^2 < F_n for all 1 <= m < n <= 60 with n > 2."""
    fib_cache = [0] + [sequences.lucas_u(sequences.FIBONACCI, n) for n in range(1, 61)]
    pairs = 0
    for n in range(3, 61):
        for m in range(1, n):
            g = math.gcd(fib_cache[m], fib_cache[n])
            _require(g * g < fib_cache[n],
                     f"gcd(F_{m}, F_{n}) = {g} has square >= F_{n}")
            pairs += 1
    return f"{pairs} pairs: gcd(F_m, F_n)^2 < F_n"


def check_04_strong_divisibility() -> str:
    """gcd(F_m, F_n) = F_gcd(m, n) for all m, n <= 100."""
    fib_cache = [0] + [sequences.lucas_u(sequences.FIBONACCI, n) for n in range(1, 101)]
    for m in range(1, 101):
        for n in range(1, 101):
            expected = fib_cache[math.gcd(m, n)]
            _require(math.gcd(fib_cache[m], fib_cache[n]) == expected,
                     f"gcd(F_{m}, F_{n}) != F_gcd({m},{n})")
    return "10000 pairs: gcd(F_m, F_n) = F_gcd(m, n)"


def _trial_prime_set(n: int) -> set[int]:
    # independent factoring oracle: plain trial division
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def check_05_primitive_divisors() -> str:
    """Indices without a primitive divisor: exactly {2, 6, 12} for Fibonacci up
    to 60, exactly {6} for the pair (3, 2) up to 20, pinned against a
    trial-division oracle."""
    absent_fib = [n for n in range(2, 61)
                  if sequences.primitive_divisor(sequences.FIBONACCI, n) is None]
    _require(absent_fib == [2, 6, 12], f"Fibonacci absent set {absent_fib}")

    mersenne = sequences.LucasSpec(3, 2)  # U_n = 2^n - 1
    absent_m = [n for n in range(2, 21)
                if sequences.primitive_divisor(mersenne, n) is None]
    terms = [2**k - 1 for k in range(1, 21)]
    oracle_absent = []
    for n in range(2, 21):
        fresh = any(all(terms[k] % p != 0 for k in range(n - 1))
                    for p in _trial_prime_set(terms[n - 1]))
        if not fresh:
            oracle_absent.append(n)
    _require(oracle_absent == [6], f"oracle absent set {oracle_absent}")
    _require(absent_m == oracle_absent, f"module absent set {absent_m}")
    return "absent sets pinned: Fibonacci {2, 6, 12} (n <= 60), pair (3,2) {6} (n <= 20)"


def check_06_lucas_term_bound() -> str:
    """1000 random B in {1..10^4}, |B| <= 20: Lucas-number count < 2|B| + 30;
    constructed witness sets keep the index >= 31 count <= 2|B| - 1."""
    rng = random.Random(1729)
    for _ in range(1000):
        size = rng.randint(1, 20)
        base = BaseSet(rng.sample(range(1, 10**4 + 1), size))
        report = extremal.lucas_count_check(base, sequences.LUCAS_V)
        _require(report.ok,
                 f"{report.count} Lucas numbers in B.B for |B| = {size}")

    for extra in range(2, 7):
        elems = [1] + [sequences.lucas_u(sequences.FIBONACCI, 30 + j)
                       for j in range(1, extra + 1)]
        report = extremal.lucas_count_check(BaseSet(elems), sequences.FIBONACCI)
        _require(report.high_index_count == extra,
                 f"expected {extra} high-index terms, saw {report.high_index_count}")
        _require(report.high_index_ok,
                 f"high-index count {report.high_index_count} exceeds "
                 f"{report.high_index_bound}")

        lelems = [1] + [sequences.lucas_v(sequences.FIBONACCI, 30 + j)
                        for j in range(1, extra + 1)]
        lreport = extremal.lucas_count_check(BaseSet(lelems), sequences.LUCAS_V)
        _require(lreport.high_index_count == extra and lreport.high_index_ok,
                 f"Lucas-number witness failed at size {extra + 1}")
    return "1000 random sets under 2|B| + 30; witness sets under 2|B| - 1"


def _acyclic_representations(universe_max: int, max_size: int) -> int:
    """Every representation assignment of every B in {1..universe_max} with
    |B| <= max_size leaves the one-class Fibonacci graph cycle-free, with at
    most two self-loops, always on the values 1 and 144; returns the number
    of (B, assignment) graphs this covers.

    B's graphs are those of its core part S (``extremal.core``) plus
    isolated vertices, which change no cycle and no self-loop.  So each
    distinct member map of the core walk is checked once, building the graph
    of every assignment's edges (a, b, v), and each S of size j counts for
    the sets that pad it with 0 .. max_size - j inactive elements.
    """
    members = sequence_members(BaseSet(range(1, universe_max + 1)), sequences.FIBONACCI)
    pad = universe_max - len(extremal.core(members))
    padded = [sum(math.comb(pad, size - j) for size in range(j, max_size + 1))
              for j in range(max_size + 1)]
    graphs_checked = 0
    seen = set()
    for subset, pairs in extremal.core_subsets(members, max_size):
        if not pairs:
            continue
        items = tuple(sorted((v, tuple(ps)) for v, ps in pairs.items()))
        graphs_checked += padded[len(subset)] * math.prod(len(ps) for _, ps in items)
        if items in seen:
            continue
        seen.add(items)
        combo = tuple(subset)
        square_values = {v for v, ps in items if any(b1 == b2 for b1, b2 in ps)}
        _require(square_values <= {1, 144},
                 "B = %s: square member values %s", combo, square_values)
        choice_sets = [[(a, b, v) for a, b in ps] for v, ps in items]
        for edges in iter_product(*choice_sets):
            graph = auxgraph.AuxGraph(auxgraph.ONE_CLASS, combo, edges)
            _require(auxgraph.find_cycle(graph) is None,
                     "B = %s: cycle under assignment %s", combo, edges)
            loops = graph.self_loops
            _require(len(loops) <= 2, "B = %s: %d self-loops", combo, len(loops))
            _require({e[2] for e in loops} <= {1, 144},
                     "B = %s: unexpected self-loop values", combo)
    return graphs_checked


def check_07_acyclic_representations() -> str:
    """Over the same corpus: every representation assignment leaves the
    one-class Fibonacci graph cycle-free, with at most two self-loops, always
    on the values 1 and 144."""
    graphs_checked = _acyclic_representations(30, 5)
    return f"{graphs_checked} representation graphs cycle-free, loops within {{1, 144}}"


def check_08_cover_bound() -> str:
    """500 random bipartite graphs (|B| <= 50) with a-degrees capped at a
    drawn bound <= 5: n, the largest a-degree, is within that cap, the cover
    sequence verifies and k * n >= |B|."""
    rng = random.Random(8451)
    for _ in range(500):
        bound = rng.randint(1, 5)
        b_count = rng.randint(1, 50)
        min_a = -(-b_count // bound)
        a_count = rng.randint(min_a, min_a + 10)
        # deal each b one slot, then up to two more while slots last; a
        # repeated a collapses in the set, so a-degrees stay within bound
        slots = [a for a in range(a_count) for _ in range(bound)]
        rng.shuffle(slots)
        neighbours = {b: {slots.pop()} for b in range(b_count)}
        for b in range(b_count):
            for _ in range(min(rng.randint(0, 2), len(slots))):
                neighbours[b].add(slots.pop())
        adjacency = {b: sorted(s) for b, s in neighbours.items()}
        graph = coverlemma.Bipartite(adjacency)
        n = graph.degree_bound
        seq = coverlemma.cover_sequence(graph)
        _require(n <= bound, "largest degree %d above the drawn cap %d", n, bound)
        _require(coverlemma.verify_cover(graph, seq),
                 "cover failed verification (|B|=%d, n=%d)", b_count, n)
        _require(len(seq) * n >= b_count,
                 "k=%d too short for |B|=%d, n=%d", len(seq), b_count, n)
    return "500 random graphs: covers verify and k * n >= |B|"


def check_09_large_prime_floor() -> str:
    """f = x^2 + 1 filtered to its admissible class (M = 4, a = 0), r = 0:
    at R = 1000 the count of terms with a prime factor > R is at least
    R / (3M); counts at R = 100 and 300 are recorded only."""
    f = polyseq.PolynomialZ([1, 0, 1])
    counts = []
    for R in (100, 300, 1000):
        stats = polyseq.window_stats(f, 0, R, polyseq.ABOVE_R, admissible=True)
        _require(stats.residue == (0, 4), f"admissible residue gave (a, M) = {stats.residue}")
        counts.append(stats.above_count)
    _require(counts[2] * 3 * 4 >= 1000, f"count {counts[2]} is below 1000 / 12")
    return (f"R=1000: {counts[2]} terms with a prime factor > R "
            f"(floor 84; recorded R=100: {counts[0]}, R=300: {counts[1]})")


def check_10_mid_prime_floor() -> str:
    """f = x, r = 0, R in {100, 200, 400}: at least as many qualifying terms
    as there are primes in (R/2, R] (each such prime is itself a term)."""
    f = polyseq.PolynomialZ([0, 1])
    parts = []
    for R in (100, 200, 400):
        stats = polyseq.window_stats(f, 0, R, polyseq.MID_RANGE)
        floor = len([p for p in arith.primes_upto(R) if p > R // 2])
        _require(stats.mid_count >= floor,
                 f"R={R}: {stats.mid_count} qualifying terms < {floor} primes")
        parts.append(f"R={R}: {stats.mid_count} >= {floor}")
    return "; ".join(parts)


def check_11_witness_soundness() -> str:
    """P = x^2 + 1, r = 0, R = 50: every cover element brings a qualifying
    prime missing from all earlier elements, and the lower bound respects the
    canonical containing set {1} and the window values."""
    f = polyseq.PolynomialZ([1, 0, 1])
    report = polyseq.window_witness([f], 0, 50)
    _require(report.case == 1, f"expected case 1, got {report.case}")
    _require(report.k >= 1, "empty cover")
    seen: set[int] = set()
    for value in report.cover:
        primes = {p for p, _ in arith.factorize(value).factors}
        fresh = {p for p in primes if p > report.window_length} - seen
        _require(bool(fresh), f"cover element {value} adds no fresh prime")
        seen |= primes
    base = BaseSet([1] + [f(i) for i in range(1, 51)])
    _require(report.b_lower_bound <= len(base),
             f"lower bound {report.b_lower_bound} exceeds |B| = {len(base)}")
    return (f"case 1, k = {report.k}, lower bound {report.b_lower_bound} "
            f"<= |B| = {len(base)}")


CHECKS = (
    ("fib-count-exhaustive", check_01_fib_count_exhaustive),
    ("sharp-examples", check_02_sharp_examples),
    ("gcd-square-bound", check_03_gcd_square_bound),
    ("strong-divisibility", check_04_strong_divisibility),
    ("primitive-divisors", check_05_primitive_divisors),
    ("lucas-term-bound", check_06_lucas_term_bound),
    ("acyclic-representations", check_07_acyclic_representations),
    ("cover-bound", check_08_cover_bound),
    ("large-prime-floor", check_09_large_prime_floor),
    ("mid-prime-floor", check_10_mid_prime_floor),
    ("witness-soundness", check_11_witness_soundness),
)


def run_all() -> bool:
    """Run every check, print one PASS/FAIL line each; True iff all passed.

    One ``name cpu_s wall_s`` line per check goes to stderr.
    """
    all_ok = True
    for name, check in CHECKS:
        cpu, wall = time.process_time(), time.perf_counter()
        try:
            detail = check()
        except CheckFailure as exc:
            all_ok = False
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}: {detail}")
        print(f"{name} {time.process_time() - cpu:.3f} {time.perf_counter() - wall:.3f}",
              file=sys.stderr)
    return all_ok
