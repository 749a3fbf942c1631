"""Seeded job generators, one per workload.

A generator takes the seed and a work directory, writes the input files its
jobs read into that directory, and returns one *cycle*: the list of jobs the
timed phase replays in order.  The cycle's shape (how many jobs of each kind,
window lengths, term sizes) is fixed per workload and the seed draws the
parameters inside it, so every seed puts the same kind and amount of work on
each layer and runs of different seeds are comparable.

Inputs are drawn without regard to the program's known defects: Lucas pairs
come from a small box that includes degenerate and invalid pairs.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

from oracle import fib_terms, lucas_u_terms, lucas_v_terms


@dataclass(frozen=True)
class Job:
    """One CLI call: ``prodsets.cli.main(argv)``.

    ``params`` holds the generated inputs the oracle recomputes from;
    ``outputs`` names the files the job writes; ``expect`` is the exit code
    of a deliberate guard (3) or bad-input (2) job, None for the others.
    """

    kind: str
    argv: tuple
    params: dict = field(default_factory=dict)
    outputs: tuple = ()
    expect: int | None = None


def _poly_arg(coeffs):
    return ",".join(str(c) for c in coeffs)


def _window(coeffs, r, R, filt, work=None, name=None, residue=False):
    argv = ["window", "--poly", _poly_arg(coeffs), "--r", str(r), "--R", str(R),
            "--filter", filt]
    params = {"poly": list(coeffs), "r": r, "R": R, "filter": filt,
              "residue": residue}
    outputs = ()
    if residue:
        argv += ["--residue", "auto"]
    if name is not None:
        out = os.path.join(work, name)
        argv += ["--out", out]
        params["out"] = out
        outputs = (out,)
    return Job("window", tuple(argv), params, outputs)


def _witness(factors, r, R, gamma="2", work=None, name=None):
    argv = ["witness", "--poly-factors", ";".join(_poly_arg(f) for f in factors),
            "--r", str(r), "--R", str(R), "--gamma", gamma]
    params = {"factors": [list(f) for f in factors], "r": r, "R": R, "gamma": gamma}
    outputs = ()
    if name is not None:
        out = os.path.join(work, name)
        argv += ["--out", out]
        params["out"] = out
        outputs = (out,)
    return Job("witness", tuple(argv), params, outputs)


# Irreducible polynomials (constant term first) and |disc| * d^2, the modulus
# of their admissible residue class.
RESIDUE_QUADRATICS = {(1, 0, 1): 4, (1, 1, 1): 3}
RESIDUE_CUBICS = {(1, -1, 0, 1): 23, (1, 1, 0, 1): 31}


def _next_prime(n):
    """Smallest prime >= n (n small enough for trial division)."""
    while any(n % p == 0 for p in range(2, math.isqrt(n) + 1)):
        n += 1
    return n


def _bands(rng, n, lo, hi):
    """One value from each of n equal bands of [lo, hi), in band order."""
    step = (hi - lo) / n
    return [lo + step * (k + rng.random()) for k in range(n)]


def window_long(seed, work):
    """Long windows (R 390-2000, degrees 1-4, r 10^5-10^6, terms <= 66 bits).

    The two hand-timed baselines open the cycle unchanged.  Ten seeded jobs
    follow, two of each kind, sized to one cost class (about 0.4-0.6 s each
    here) so that the median job latency falls among many similar executions;
    with two cost tiers it would fall in the gap between them.  Each slot has
    a fixed polynomial, and the seed draws r from 950,000-1,000,000 and R
    from a narrow band: trial division runs up to the square root of the
    unfactored part, so per-term cost moves with the size of the terms (by
    a fifth across r = 800,000-1,000,000) and with the polynomial, and a
    seed that drew cheap slots moved the median job by a tenth.  The linear
    window's slope is a prime: a slope with small prime factors bars those
    primes from every term (or puts them in every term), which moved its
    cost 4x by seed."""
    rng = random.Random(f"window-long:{seed}")
    near_million = (950_000, 10**6)
    jobs = [
        _window([1, 0, 1], 10**6, 2000, "above"),
        _window([1, 0, 0, 0, 1], 10**5, 500, "above"),
    ]
    quads = sorted(RESIDUE_QUADRATICS.items())
    cubics = sorted(RESIDUE_CUBICS.items())
    for n in range(2):
        quad, quad_m = quads[n]
        cubic, cubic_m = cubics[n]
        a = rng.randint(0, 14)
        filt = ("above", "mid")[n]
        jobs += [
            _witness([[(2, 6)[n], 0, 1]], rng.randint(*near_million),
                     rng.randint(*((390, 410), (480, 500))[n]), work=work,
                     name=f"witness-long-{n}.json"),
            _witness([[a, 1], [a + rng.randint(1, 15), 1]], rng.randint(*near_million),
                     rng.randint(1900, 2000)),
            _window([rng.randint(1, 999), _next_prime(rng.randint(*near_million))],
                    rng.randint(*near_million), rng.randint(440, 480), filt),
            _window(quad, rng.randint(*near_million), quad_m * rng.randint(320, 330),
                    filt, work, f"residue-quad-{n}.csv", residue=True),
            _window(cubic, rng.randint(*near_million), cubic_m * rng.randint(58, 64),
                    filt, work, f"residue-cubic-{n}.csv", residue=True),
        ]
    return jobs


def window_short(seed, work):
    """Short windows (R 10-60) of 62-68-bit terms at large r: both filters,
    --residue auto, and witness jobs in cases 1, 2 and 3.

    Per-term cost depends on the polynomial and, for the linear-pair
    witnesses, whose factors are trial-divided up to their square root, on
    the size of the terms (2.5 times as many trial primes at 68 bits as
    at 62).  So every slot of the
    cycle has a fixed polynomial from a small family, a fixed band of R and
    a fixed band of term sizes, 0.1 bits wide; the seed draws r and R inside
    the bands and the linear coefficients.  The 48 jobs that keep every
    term have R in 20-50, so the median job sits among many of similar
    cost; the residue-filtered and guard jobs cover the short end.  Even so
    a job's cost moves by a tenth or more with the seed, because the few
    terms whose cofactor is a product of two large primes cost rho up to
    ten times a plain term, so the cycle holds 58 distinct jobs and is
    replayed only twice in a run.
    Terms stop at 68 bits: beyond ~70 bits a cofactor made of two large
    primes costs rho up to seconds, and the few terms of a cycle that hit
    this would decide its throughput."""
    rng = random.Random(f"window-short:{seed}")
    reps = 4
    lengths = iter(map(int, _bands(rng, 12 * reps, 20, 50)))
    residue_lengths = iter(map(int, _bands(rng, 2 * reps, 10, 60)))
    term_bits = iter(_bands(rng, 14 * reps, 62, 68))

    def r_for(degree):
        """An r at which a monic degree-``degree`` polynomial takes values of
        the slot's size, from its band of 62-68 bits."""
        return int(2 ** (next(term_bits) / degree))

    jobs = []
    plain = ([1, 0, 1], [1, 1, 0, 0, 1], [1, -1, 0, 1], [1, 1, 1], [2, 0, 0, 1],
             [1, 0, 0, 0, 1])
    for rep in range(reps):
        for n, coeffs in enumerate(plain):
            jobs.append(_window(coeffs, r_for(len(coeffs) - 1), next(lengths),
                                ("above", "mid")[(n + rep) % 2]))
        for n in range(2):  # case 1: a quadratic factor times a linear one
            quad = [rng.randint(1, 9), 0, 1]
            lin = [rng.randint(0, 9), 1]
            jobs.append(_witness([quad, lin], r_for(3), next(lengths), work=work,
                                 name=f"short-witness-{rep}-{n}.json"))
        for n in range(4):  # linear pairs: r > R^2 is case 2, gamma ~ log_R r case 3
            a, b = sorted(rng.sample(range(0, 30), 2))
            r = r_for(2)
            R = next(lengths)
            if n % 2 == 0:
                gamma = "2"
            else:
                gamma = str(math.ceil(math.log(r) / math.log(R)) + rng.choice((0, 0.5)))
            jobs.append(_witness([[a, 1], [b, 1]], r, R, gamma))
    for k in range(reps // 2):
        for n, coeffs in enumerate(([1, 0, 1], [1, 1, 1], [2, 0, 1], [1, -1, 0, 1])):
            jobs.append(_window(coeffs, r_for(len(coeffs) - 1), next(residue_lengths),
                                ("above", "mid")[n % 2], work,
                                f"short-residue-{k}-{n}.csv", residue=True))
    jobs.append(Job("window", ("window", "--poly", "1,0,1", "--r", str(2**62),
                               "--R", "20", "--filter", "above"), expect=3))
    jobs.append(Job("witness", ("witness", "--poly-factors", "-1,0,1", "--r", "1000",
                                "--R", "20"), expect=2))
    rng.shuffle(jobs)
    return jobs


def _seq_terms(seq, count):
    if seq == "fib":
        return fib_terms(count)
    if seq == "lucasV":
        return lucas_v_terms(count)
    p, q = (int(t) for t in seq[len("lucasU:"):].split(","))
    return lucas_u_terms(p, q, count)


def _term_set(rng, seq, size, spread):
    """Positive sequence terms of index <= 25 mixed with random integers."""
    terms = [t for t in _seq_terms(seq, 25) if 1 <= t <= 10**6]
    picked = set(rng.sample(terms, min(len(terms), rng.randint(1, size))))
    while len(picked) < size:
        picked.add(rng.randint(1, spread))
    return sorted(picked)


def _seq_choice(rng, i):
    kind = i % 3
    if kind == 0:
        return "fib"
    if kind == 1:
        return "lucasV"
    return f"lucasU:{rng.randint(-4, 4)},{rng.randint(-4, 4)}"


def _fraction_set(rng, seq):
    q = rng.randint(2, 7)
    terms = [t for t in _seq_terms(seq, 20) if t >= 1]
    picked = rng.sample(terms, min(len(terms), rng.randint(2, 6)))
    elems = {str(q)} | {f"{t}/{q}" for t in picked}
    for _ in range(rng.randint(0, 3)):
        elems.add(f"{rng.randint(1, 60)}/{rng.randint(1, 9)}")
    return ",".join(sorted(elems))


def _cyclic_set(rng, seq):
    """A rational set holding a triangle u, v, w whose products uv, vw, wu are
    three distinct terms A, B, C: v = sqrt(A B / C) = sqrt(A B C) / C."""
    terms = sorted({t for t in _seq_terms(seq, 15) if t >= 1})
    triples = [(a, b, c) for a, b, c in permutations(terms, 3)
               if math.isqrt(a * b * c) ** 2 == a * b * c]
    if not triples:
        return _fraction_set(rng, seq)
    a, b, c = rng.choice(triples)
    v = Fraction(math.isqrt(a * b * c), c)
    elems = {a / v, v, b / v} | {Fraction(rng.randint(1, 99)) for _ in range(rng.randint(0, 4))}
    return ",".join(sorted(str(e) for e in elems))


def _cover_file(rng, path, b_count, bound):
    """A random bipartite graph in which every a-vertex has degree <= bound."""
    a_count = -(-b_count // bound) + rng.randint(0, 10)
    capacity = dict.fromkeys(range(a_count), bound)
    neighbours = {}
    for b in range(b_count):
        a = rng.choice([a for a, c in capacity.items() if c > 0])
        capacity[a] -= 1
        neighbours[b] = [a]
    for b in range(b_count):
        for a in rng.sample(range(a_count), k=min(rng.randint(0, 2), a_count)):
            if capacity[a] > 0 and a not in neighbours[b]:
                capacity[a] -= 1
                neighbours[b].append(a)
    with open(path, "w") as handle:
        handle.write("# b-vertex followed by its a-neighbours\n")
        for b in rng.sample(range(b_count), b_count):
            handle.write(f"b{b} " + " ".join(f"a{a}" for a in neighbours[b]) + "\n")


def sets(seed, work):
    """Millisecond jobs on small sets plus a minority of subset searches."""
    rng = random.Random(f"sets:{seed}")
    jobs = []
    for i in range(48):
        seq = _seq_choice(rng, i)
        mode = ("one", "two")[(i // 3) % 2]
        if i % 8 == 3:
            set_text = _fraction_set(rng, seq)
        elif i % 8 == 7:  # a triangle lifts to a path in two-class mode
            set_text = _cyclic_set(rng, seq)
            mode = "one"
        else:
            set_text = ",".join(map(str, _term_set(rng, seq, rng.randint(3, 12), 500)))
        dump = os.path.join(work, f"edges-{i}.csv")
        jobs.append(Job("graph", ("graph", "--set", set_text, "--seq", seq, "--mode",
                                  mode, "--dump", dump),
                        {"set": set_text, "seq": seq, "mode": mode, "dump": dump},
                        (dump,)))
    drawn = set()
    for i in range(60):
        # one-element sets repeat now and then; a cycle holds no argv twice
        while True:
            seq = _seq_choice(rng, i)
            set_text = ",".join(map(str, _term_set(rng, seq, rng.randint(1, 20), 10**4)))
            if (seq, set_text) not in drawn:
                break
        drawn.add((seq, set_text))
        jobs.append(Job("lucas-bound", ("lucas-bound", "--set", set_text, "--seq", seq),
                        {"set": set_text, "seq": seq}))
    for i in range(30):
        path = os.path.join(work, f"cover-{i}.txt")
        _cover_file(rng, path, rng.randint(5, 60), rng.randint(1, 5))
        jobs.append(Job("cover", ("cover", "--graph", path), {"graph": path}))
    # Subset searches: the four universe-30 searches that the selftest's
    # exhaustive check also runs, plus two seeded searches per size.
    for size in range(2, 6):
        for universe in (30, rng.randint(12, 17), rng.randint(18, 22)):
            argv = ["fib-extremal", "--universe", str(universe), "--size", str(size)]
            params = {"universe": universe, "size": size}
            outputs = ()
            if universe == 30:
                out = os.path.join(work, f"extremal-{size}.json")
                argv += ["--out", out]
                params["out"] = out
                outputs = (out,)
            jobs.append(Job("fib-extremal", tuple(argv), params, outputs))
    bad_cover = os.path.join(work, "cover-duplicate.txt")
    with open(bad_cover, "w") as handle:
        handle.write("b1 a1 a2\nb2 a2\nb1 a3\n")
    jobs += [
        Job("fib-extremal", ("fib-extremal", "--universe", str(rng.randint(200, 10**4)),
                             "--size", "3"), expect=3),
        Job("fib-extremal", ("fib-extremal", "--universe", "40",
                             "--size", str(rng.randint(7, 12))), expect=3),
        Job("fib-extremal", ("fib-extremal", "--universe", str(rng.randint(2, 5)),
                             "--size", "6"), expect=2),
        Job("fib-extremal", ("fib-extremal", "--universe", "0", "--size", "2"), expect=2),
        Job("graph", ("graph", "--set", f"0,{rng.randint(1, 99)}", "--seq", "fib"),
            expect=2),
        Job("lucas-bound", ("lucas-bound", "--set", "1,2,3", "--seq", "tribonacci"),
            expect=2),
        Job("graph", ("graph", "--set", "1,2,3", "--seq", "fib", "--mode", "three"),
            expect=2),
        Job("cover", ("cover", "--graph", bad_cover), expect=2),
    ]
    rng.shuffle(jobs)
    return jobs


def selftest(seed, work):
    """``prodsets selftest``; it takes no input, so the seed changes nothing."""
    return [Job("selftest", ("selftest",))]


GENERATORS = {
    "window-long": window_long,
    "window-short": window_short,
    "sets": sets,
    "selftest": selftest,
}
