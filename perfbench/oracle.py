"""Independent correctness checks for benchmark jobs.

Every job's output is checked here against values computed without the code
under test: factorizations and discriminants come from sympy, sequence terms
from plain recurrences in this file, cycles and components from a separate
union-find, and subset maxima from a brute force over itertools.combinations.
``check`` runs after the timed phase, so none of this is measured.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

# Index range scanned for general Lucas pairs; twice the program's own cap,
# so a member the program misses past its cap shows as a failure.
LUCAS_ORACLE_INDICES = 1000

# Coprime pairs whose root ratio is a root of unity (terms periodic, with
# zeros).  The program accepts them today; the fix rejects them with exit 2.
DEGENERATE_PAIRS = {(1, 1), (-1, 1), (0, 1), (0, -1)}

SELFTEST_CHECKS = (
    "fib-count-exhaustive", "sharp-examples", "gcd-square-bound",
    "strong-divisibility", "primitive-divisors", "lucas-term-bound",
    "acyclic-representations", "cover-bound", "large-prime-floor",
    "mid-prime-floor", "witness-soundness",
)


class Mismatch(Exception):
    """A job's output disagrees with the oracle."""


def _require(condition, message):
    if not condition:
        raise Mismatch(message)


# ---------------------------------------------------------------------------
# Sequences by plain recurrence (also used by the generators to build sets)
# ---------------------------------------------------------------------------

def fib_terms(n):
    """F_1..F_n."""
    out, a, b = [], 1, 1
    for _ in range(n):
        out.append(a)
        a, b = b, a + b
    return out


def lucas_v_terms(n):
    """V_1..V_n for the pair (1, -1): 1, 3, 4, 7, ..."""
    out, a, b = [], 1, 3
    for _ in range(n):
        out.append(a)
        a, b = b, a + b
    return out


def lucas_u_terms(p, q, n):
    """U_1..U_n(P, Q): U_1 = 1, U_2 = P, U_k = P U_{k-1} - Q U_{k-2}."""
    out, a, b = [], 1, p
    for _ in range(n):
        out.append(a)
        a, b = b, p * b - q * a
    return out


def parse_seq(text):
    """('fib',) / ('lucasV',) / ('lucasU', P, Q), or None when unknown."""
    if text in ("fib", "lucasV"):
        return (text,)
    if text.startswith("lucasU:"):
        p, q = text[len("lucasU:"):].split(",")
        return ("lucasU", int(p), int(q))
    return None


def pair_valid(p, q):
    return math.gcd(p, q) == 1 and p * p - 4 * q != 0


@lru_cache(maxsize=None)
def _lucas_u_index(p, q):
    table = {}
    for index, t in enumerate(lucas_u_terms(p, q, LUCAS_ORACLE_INDICES), start=1):
        if t >= 1:
            table.setdefault(t, index)
    return table


def index_table(seq, limit):
    """value -> smallest index, for the positive terms up to ``limit``
    (general Lucas pairs: for the first LUCAS_ORACLE_INDICES terms)."""
    if seq[0] == "lucasU":
        return _lucas_u_index(seq[1], seq[2])
    a, b = (1, 1) if seq[0] == "fib" else (1, 3)
    table, index = {}, 1
    while a <= limit:
        table.setdefault(a, index)
        a, b, index = b, a + b, index + 1
    return table


# ---------------------------------------------------------------------------
# Products, members, graphs
# ---------------------------------------------------------------------------

def parse_set(text):
    return sorted({Fraction(t.strip()) for t in text.split(",") if t.strip()})


def number_str(value):
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else str(value)


def members_of(base, seq):
    """Sorted (value, index) for integer products of base that are terms."""
    products = {a * b for i, a in enumerate(base) for b in base[i:]}
    ints = sorted(int(v) for v in products if v.denominator == 1)
    table = index_table(seq, ints[-1] if ints else 0)
    return [(v, table[v]) for v in ints if v in table]


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def _check_graph(params, payload, dump):
    base = parse_set(params["set"])
    seq = parse_seq(params["seq"])
    mode = params["mode"]
    members = members_of(base, seq)
    _require(payload["members"] == [str(v) for v, _ in members],
             f"members {payload['members']} != {[v for v, _ in members]}")
    lines = dump.decode().splitlines()
    _require(len(lines) == len(members), "dump has one line per member")
    edges = []
    base_set = set(base)
    for line, (value, _) in zip(lines, members):
        b1, b2, v = (Fraction(t) for t in line.split(","))
        _require(v == value, f"dump line {line!r} is not member {value}")
        _require(b1 <= b2 and b1 in base_set and b2 in base_set and b1 * b2 == v,
                 f"dump line {line!r} is not a representation over B")
        edges.append((b1, b2))
    if mode == "one":
        vertices = [number_str(b) for b in base]
        loops = sum(1 for b1, b2 in edges if b1 == b2)
        links = [(number_str(b1), number_str(b2)) for b1, b2 in edges if b1 != b2]
    else:
        vertices = [f"{side}:{number_str(b)}" for side in "LR" for b in base]
        loops = 0
        links = [(f"L:{number_str(b1)}", f"R:{number_str(b2)}") for b1, b2 in edges]
    uf = _UnionFind(vertices)
    cyclic = False
    for u, v in links:
        if not uf.union(u, v):
            cyclic = True
    components = len({uf.find(v) for v in vertices})
    _require(payload["mode"] == mode, "mode")
    _require(payload["num_vertices"] == len(vertices), "num_vertices")
    _require(payload["num_edges"] == len(edges), "num_edges")
    _require(payload["num_self_loops"] == loops, "num_self_loops")
    _require(payload["num_components"] == components, "num_components")
    _require(payload["acyclic"] is (not cyclic), "acyclic")
    expected_forest = None if cyclic else len(links) <= len(vertices) - 1
    _require(payload["forest_bound_ok"] is expected_forest, "forest_bound_ok")
    cycle = payload["cycle"]
    if not cyclic:
        _require(cycle is None, "cycle reported on a forest")
        return
    _require(isinstance(cycle, list) and len(cycle) >= 2, "cycle too short")
    _require(len(set(cycle)) == len(cycle) and set(cycle) <= set(vertices),
             f"cycle {cycle} repeats or leaves the vertex set")
    unused = {}
    for u, v in links:
        key = frozenset((u, v))
        unused[key] = unused.get(key, 0) + 1
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        key = frozenset((u, v))
        _require(unused.get(key, 0) > 0, f"cycle step {u}-{v} is not a free edge")
        unused[key] -= 1


def _check_lucas_bound(params, payload):
    base = parse_set(params["set"])
    seq = parse_seq(params["seq"])
    members = members_of(base, seq)
    size = len(base)
    high = sum(1 for _, i in members if i >= 31)
    expected = {
        "set_size": size,
        "count": len(members),
        "bound": 2 * size + 30,
        "ok": len(members) < 2 * size + 30,
        "high_index_count": high,
        "high_index_bound": 2 * size - 1,
        "high_index_ok": high <= 2 * size - 1,
        "members": [[str(v), i] for v, i in members],
    }
    _require(payload == expected, f"lucas-bound report {payload} != {expected}")


# ---------------------------------------------------------------------------
# Polynomial windows
# ---------------------------------------------------------------------------

def poly_value(coeffs, x):
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def value_content(coeffs):
    g = 0
    for x in range(2 * len(coeffs) + 2):
        g = math.gcd(g, poly_value(coeffs, x))
    return g


# sympy is imported on first use: the generators import this module before
# the timed phase, and the run's peak RSS must not include sympy.

def _sympy_disc(coeffs):
    import sympy
    x = sympy.Symbol("x")
    return int(sympy.discriminant(sympy.Poly(list(reversed(coeffs)), x)))


def _factor(n):
    import sympy
    return sympy.factorint(n)


def _primes_upto(n):
    import sympy
    return list(sympy.primerange(2, n + 1))


def _check_lpf(value, lpf_text):
    """The reported largest prime factor, verified: it is prime, divides the
    value, and what is left after dividing it out has only smaller primes."""
    import sympy
    if value == 1:
        _require(lpf_text == "", f"value 1 has largest prime factor {lpf_text!r}")
        return None
    lpf = int(lpf_text)
    _require(lpf > 1 and value % lpf == 0 and sympy.isprime(lpf),
             f"{lpf} is not a prime factor of {value}")
    rest = value
    while rest % lpf == 0:
        rest //= lpf
    _require(rest == 1 or max(_factor(rest)) < lpf,
             f"{value} has a prime factor above {lpf}")
    return lpf


def _check_window(params, stdout, files):
    coeffs, r, R, filt = params["poly"], params["r"], params["R"], params["filter"]
    out = params.get("out")
    summary = json.loads(stdout) if out else None
    csv_text = files[out].decode() if out else stdout
    if params.get("residue"):
        d = value_content(coeffs)
        modulus = abs(_sympy_disc(coeffs)) * d * d
        a, m = summary["residue"]
        _require(m == modulus, f"residue modulus {m} != |disc| d^2 = {modulus}")
        _require(0 <= a < m, "residue out of range")
        for p in _factor(m):
            _require((poly_value(coeffs, a) // d) % p != 0,
                     f"class {a} mod {m} is not admissible at {p}")
        indices = [i for i in range(1, R + 1) if (r + i - a) % m == 0]
    else:
        d = 1
        indices = list(range(1, R + 1))
        _require(summary is None or summary["residue"] is None, "unrequested residue")
    lines = csv_text.splitlines()
    _require(lines[0] == "i,value,largest_prime_factor,qualifies", "CSV header")
    rows = lines[1:]
    _require(len(rows) == len(indices), f"{len(rows)} rows for {len(indices)} terms")
    small = _primes_upto(R)
    mid_primes = [p for p in small if R < 2 * p]
    above = mid = 0
    log_smooth = 0.0
    for row, i in zip(rows, indices):
        value = poly_value(coeffs, r + i) // d
        fields = row.split(",")
        _require(len(fields) == 4 and fields[:2] == [str(i), str(value)],
                 f"row {row!r} is not term {i} = {value}")
        lpf = _check_lpf(value, fields[2])
        has_large = lpf is not None and lpf > R
        has_mid = any(value % p == 0 for p in mid_primes)
        qualifies = has_large if filt == "above" else has_mid
        _require(fields[3] == ("true" if qualifies else "false"),
                 f"row {row!r}: qualifies should be {qualifies}")
        above += has_large
        mid += has_mid
        if summary is not None:
            for p in small:
                while value % p == 0:
                    value //= p
                    log_smooth += math.log(p)
    if summary is not None:
        _require(summary["terms"] == len(indices), "summary terms")
        _require(summary["above_count"] == above, "summary above_count")
        _require(summary["mid_count"] == mid, "summary mid_count")
        _require(summary["content"] == d, "summary content")
        _require(math.isclose(summary["log_smooth"], log_smooth,
                              rel_tol=1e-9, abs_tol=1e-9), "summary log_smooth")
        _require(summary["out"] == out, "summary out path")
    return len(indices)


def _check_witness(params, payload):
    factors, r, R = params["factors"], params["r"], params["R"]
    gamma = Fraction(params["gamma"])
    if any(len(f) > 2 for f in factors):
        case = 1
    elif r ** gamma.denominator > R ** gamma.numerator:
        case = 2
    else:
        case = 3

    def qualifying(p):
        return p > R if case in (1, 2) else p <= R < 2 * p

    # The primes of a product value are those of its factors' values, which
    # are far smaller to factor.
    qualifiers = {}
    for i in range(1, R + 1):
        parts = [poly_value(f, r + i) for f in factors]
        qs = {p for part in parts for p in _factor(part) if qualifying(p)}
        if qs:
            qualifiers[math.prod(parts)] = qs
    degree = {}
    for qs in qualifiers.values():
        for p in qs:
            degree[p] = degree.get(p, 0) + 1
    bound = max(degree.values(), default=1)
    cover = payload["cover"]
    k = len(cover)
    _require(payload["case"] == case, f"case {payload['case']} != {case}")
    _require(payload["R"] == R and payload["r"] == r, "window echo")
    _require(payload["gamma"] == float(params["gamma"]), "gamma echo")
    _require(payload["num_terms"] == len(qualifiers), "num_terms")
    _require(payload["num_primes"] == len(degree), "num_primes")
    _require(payload["degree_bound"] == bound, "degree_bound")
    _require(payload["k"] == k, "k")
    _require(payload["B_lower_bound"] == (k + 2) // 2, "B_lower_bound")
    _require(len(set(cover)) == k, "cover repeats a term")
    seen = set()
    for v in cover:
        _require(v in qualifiers, f"cover element {v} is not a qualifying term")
        _require(bool(qualifiers[v] - seen), f"cover element {v} has no fresh prime")
        seen |= qualifiers[v]
    _require(k * bound >= len(qualifiers), "k * n < |B|")
    return R


# ---------------------------------------------------------------------------
# Subset search, covers, selftest
# ---------------------------------------------------------------------------

def _check_fib_extremal(params, payload):
    universe, size = params["universe"], params["size"]
    fibs = set(fib_terms(64))
    best, best_combo = -1, None
    for combo in combinations(range(1, universe + 1), size):
        count = len({a * b for i, a in enumerate(combo) for b in combo[i:]} & fibs)
        if count > best:
            best, best_combo = count, combo
    expected = {"universe_max": universe, "set_size": size,
                "max_count": best, "witness": list(best_combo)}
    _require(payload == expected, f"fib-extremal {payload} != {expected}")


def _check_cover(payload, graph_text):
    adjacency, order = {}, []
    for line in graph_text.splitlines():
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        adjacency[tokens[0]] = set(tokens[1:])
        order.append(tokens[0])
    degree = {}
    for neighbours in adjacency.values():
        for a in neighbours:
            degree[a] = degree.get(a, 0) + 1
    bound = max(degree.values(), default=1)
    seq = payload["sequence"]
    covered = set()
    _require(len(set(seq)) == len(seq) and seq, "cover empty or repeats")
    for b in seq:
        _require(b in adjacency, f"{b} is not a b-vertex")
        _require(bool(adjacency[b] - covered), f"{b} has no fresh neighbour")
        covered |= adjacency[b]
    _require(payload["k"] == len(seq), "k")
    _require(payload["b_count"] == len(order), "b_count")
    _require(payload["degree_bound"] == bound, "degree_bound")
    _require(payload["bound_ok"] is True and len(seq) * bound >= len(order),
             "k * n < |B|")
    _require(payload["verified"] is True, "verified")


def _check_selftest(stdout):
    lines = stdout.splitlines()
    _require(len(lines) == len(SELFTEST_CHECKS), f"{len(lines)} selftest lines")
    for line, name in zip(lines, SELFTEST_CHECKS):
        _require(line.startswith(f"PASS {name}: "), f"selftest line {line!r}")
    subsets = sum(math.comb(30, k) for k in range(1, 6))
    _require(f"{subsets} subsets checked" in lines[0], "subset total")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def expected_exit(job):
    """Exit codes the job may return: the generator's label for guard and
    bad-input jobs, else 0 (2 as well for a degenerate Lucas pair)."""
    if job.expect is not None:
        return {job.expect}
    seq = job.params.get("seq")
    parsed = parse_seq(seq) if seq else ("fib",)
    if parsed is None:
        return {2}
    if parsed[0] == "lucasU":
        p, q = parsed[1], parsed[2]
        if not pair_valid(p, q):
            return {2}
        if (p, q) in DEGENERATE_PAIRS:
            return {0, 2}
    return {0}


def known_defect(job):
    """ROADMAP defect the job's input hits, or None."""
    seq = job.params.get("seq")
    parsed = parse_seq(seq) if seq else None
    if parsed and parsed[0] == "lucasU" and (parsed[1], parsed[2]) in DEGENERATE_PAIRS:
        return f"degenerate Lucas pair ({parsed[1]}, {parsed[2]}) accepted"
    return None


def check(job, rc, stdout, files):
    """Raise Mismatch unless the job's exit code and output are right.

    Returns the number of window terms the job processed (0 for others).
    """
    allowed = expected_exit(job)
    _require(rc in allowed, f"exit code {rc}, expected one of {sorted(allowed)}")
    if rc != 0:
        _require(stdout == "", "output printed on a failing exit")
        return 0
    kind, params = job.kind, job.params
    if kind == "window":
        return _check_window(params, stdout, files)
    if kind == "selftest":
        _check_selftest(stdout)
        return 0
    payload = json.loads(stdout)
    if kind == "witness":
        terms = _check_witness(params, payload)
    elif kind == "graph":
        _check_graph(params, payload, files[params["dump"]])
        terms = 0
    elif kind == "lucas-bound":
        _check_lucas_bound(params, payload)
        terms = 0
    elif kind == "fib-extremal":
        _check_fib_extremal(params, payload)
        terms = 0
    elif kind == "cover":
        with open(params["graph"]) as handle:
            _check_cover(payload, handle.read())
        terms = 0
    else:
        raise Mismatch(f"no oracle for job kind {kind!r}")
    if params.get("out") and kind in ("witness", "fib-extremal"):
        _require(files[params["out"]].decode() == stdout, "--out file differs from stdout")
    return terms
