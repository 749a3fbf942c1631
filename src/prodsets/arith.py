"""Exact integer arithmetic: primality, factorization, a sieve, CRT.

Everything works on arbitrary-precision Python ints and is exact.  All
functions are pure; the only shared state is constant tables: the
trial-division primes and their product, built at import, the product of
the primes in (2^10, 2^16], built on the first ``factorize_batch`` call that
needs it, and ECM's, built on its first use.  ``factorize`` tests each
prime once: trial division proves those below 2^20, Miller-Rabin
(``is_prime``) larger ones below psi_13 ~ 3.3e24, with the fewest bases
proven for their size (Jaeschke 1993, Math. Comp. 61; the sets of sympy's
``isprime`` up to 2^64; OEIS A014233 and Sorenson and Webster 2017, Math.
Comp. 86, above it), and above psi_13 Baillie-PSW, a probable-prime test,
passes them; ``factorize_batch`` also proves those below 2^32 without a
test.  One split loop serves both: Pollard rho splits the composites of a
round in lanes of up to 4 walked modulo their product, and each lane gets
the factor its own walk gives.  The walk stops at a step
budget; the composites it leaves open go to Lenstra's elliptic curve method
on Montgomery curves (Montgomery 1987, Math. Comp. 48), whose curves run in
lanes the same way, and one that ECM's fixed schedule does not split goes
back to rho with no budget.  That cut the 100-term window of x^2+1 at
r = 2^47 + 12345 (95-bit terms) from 8.8 s to 1.2 s.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from typing import Callable, Iterable


class DeskScaleError(ValueError):
    """An argument exceeds the enforced desk-scale budget."""


# trial division below this, Pollard rho above: rho finds a prime p in about
# sqrt(p) steps where trial division takes pi(p); a limit of 2^12 or 2^13
# behind the gcd stage of ``factorize`` measured no faster than 2^10
TRIAL_DIVISION_LIMIT = 2**10
# factorize_batch strips the primes up to this with gcds over chunks of the
# batch; the least composite with no prime factor up to it is 65537^2 > 2^32
_MEDIUM_PRIME_LIMIT = 2**16
PRIME_RANGE_LIMIT = 10**8     # _sieve allocates one byte per candidate
# rho and ECM walk at most this many composites at once, modulo their
# product: a lane shares the interpreter's work of a step, but a reduction
# grows with the square of the product.  One rho step on 64-bit lanes took
# 317 ns per lane at 1 lane, 184 at 4, 193 at 6, 232 at 8 and 339 at 16; ECM
# stage 1 at B1 = 250, 0.77 ms per lane at 1 lane, 0.44 at 4 and 0.82 at 16
# (best of 5, Python 3.11, 2-CPU shared host)
_LANES = 4
# _split walks rho only while Brent's r is at most this, about 4k steps, and
# hands the lanes still open to ECM.  Per semiprime, one-lane rho and ECM took
# 2.1 and 2.0 ms at a 24-bit least prime, 12.9 and 3.8 ms at 28 bits, 42 and
# 5.6 ms at 32.  At 4 lanes, replays of the window cycles' split rounds timed
# 2^9 and 2^10 alike and 2^11 15% slower; a smaller budget sends ECM
# composites of smaller primes, whose curves meet every prime at once more
# often (every curve does on 2017 * 2417)
_RHO_BUDGET = 2**10
# ECM's curves: (B1, count) with B2 = 50 * B1 and Suyama's sigma = 6, 7, ...
# over the whole schedule.  On the 264 composites of the benchmark's window
# cycles (seeds 101-105) that the budget leaves, least primes of 21-33 bits,
# one-lane ECM took 0.9 s where rho with no budget took 3.4 s, and it split
# every one
_ECM_SCHEDULE = ((250, 40), (500, 60), (1000, 200))
_ECM_WHOLE_RUN = 8   # ECM gives n up after this many curves in a row meet it whole
_ECM_D = 210   # stage 2's giant step: baby steps j < 105 prime to it pair every prime


def _sieve(left: int, hi: int) -> list[int]:
    """All primes in [left, hi], left >= 2 (sieve of Eratosthenes): one byte
    window crossed off with the primes up to isqrt(hi), sieved the same way."""
    if hi > PRIME_RANGE_LIMIT:
        raise DeskScaleError(f"prime ranges capped at {PRIME_RANGE_LIMIT} "
                             f"(PRIME_RANGE_LIMIT); got hi = {hi}")
    if left > hi:
        return []
    flags = bytearray([1]) * (hi - left + 1)
    for p in _sieve(2, math.isqrt(hi)):
        first = max(p * p, -(-left // p) * p)   # past hi: an empty slice
        flags[first - left::p] = b"\x00" * ((hi - first) // p + 1)
    return list(itertools.compress(range(left, hi + 1), flags))


def primes_upto(n: int) -> list[int]:
    """All primes <= n."""
    return _sieve(2, n)


_TRIAL_PRIMES = tuple(primes_upto(TRIAL_DIVISION_LIMIT))
_PRIMORIAL = math.prod(_TRIAL_PRIMES)   # gcd(n, _PRIMORIAL): the trial primes dividing n


# ---------------------------------------------------------------------------
# Primality
# ---------------------------------------------------------------------------

_SMALL_PRIMES = _TRIAL_PRIMES[:13]   # 2..41
_SMALL_PRIMORIAL = math.prod(_SMALL_PRIMES)   # 2 * 3 * ... * 41
# (bound, bases): below the bound the bases are a proven deterministic
# Miller-Rabin witness set, each base taken mod n.  {2, 7, 61}: Jaeschke 1993
# (Math. Comp. 61).  The 3- to 7-base sets up to 2^64: those of
# sympy.ntheory.primetest.isprime (sympy 1.14).  Then the first 12 and 13
# primes below psi_12 and psi_13, the least odd composites that are strong
# pseudoprimes to all of them (OEIS A014233; Sorenson and Webster 2017,
# Math. Comp. 86).
_MR_BASE_SETS = (
    (4_759_123_141, (2, 7, 61)),
    (350_269_456_337, (4230279247111683200, 14694767155120705706, 16641139526367750375)),
    (55_245_642_489_451, (2, 141889084524735, 1199124725622454117, 11096072698276303650)),
    (7_999_252_175_582_851, (2, 4130806001517, 149795463772692060, 186635894390467037,
                             3967304179347715805)),
    (585_226_005_592_931_977, (2, 123635709730000, 9233062284813009, 43835965440333360,
                               761179012939631437, 1263739024124850375)),
    (2**64, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),
    (318_665_857_834_031_151_167_461, _SMALL_PRIMES[:12]),
    (3_317_044_064_679_887_385_961_981, _SMALL_PRIMES))
# Proven bound of all 13 bases 2..41; from it on a strong Lucas round is added.
_MR_PROVEN_BOUND = _MR_BASE_SETS[-1][0]


def _miller_rabin(n: int, base: int) -> bool:
    # n odd, n > 2; True means "no compositeness witness for this base".  The
    # base is taken mod n and a residue of 0 witnesses nothing, the
    # convention under which the large bases of _MR_BASE_SETS are proven
    # (sympy.ntheory.primetest.mr)
    base %= n
    if base == 0:
        return True
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    # n odd positive
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    # Strong Lucas test (Baillie and Wagstaff 1980, Math. Comp. 35) with
    # Selfridge's D, the first of 5, -7, 9, ... with (D/n) = -1, P = 1 and
    # Q = (1 - D) / 4; n + 1 = d 2^s with d odd.  Montgomery's V chain carries
    # (V_k, V_k+1, Q^k) up the bits of d, and U_d = 0 reads 2 V_d+1 = V_d
    # (mod n): D U_k = 2 V_k+1 - P V_k, and (D/n) = -1 makes D prime to n.
    # Caller guarantees n odd, n > 37, no factor among _SMALL_PRIMES.
    if math.isqrt(n) ** 2 == n:
        return False
    d = 5
    while (j := _jacobi(d, n)) != -1:
        if j == 0 and abs(d) < n:
            return False
        d = -(d + 2) if d > 0 else -(d - 2)
    q, s = (1 - d) // 4 % n, ((n + 1) & -(n + 1)).bit_length() - 1
    v, w, qk = 2, 1, 1   # (V_k, V_k+1, Q^k) at k = 0
    for bit in bin((n + 1) >> s)[2:]:
        if bit == "1":
            v, w, qk = (v * w - qk) % n, (w * w - 2 * qk * q) % n, qk * qk * q % n
        else:
            v, w, qk = (v * v - 2 * qk) % n, (v * w - qk) % n, qk * qk % n
    if 2 * w % n == v or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Deterministic primality test.

    Below 2^64, Miller-Rabin with the fewest bases proven for the size of n:
    {2, 7, 61} below 4,759,123,141 (Jaeschke 1993, Math. Comp. 61), then the
    3- to 7-base sets of sympy's ``isprime`` (sympy 1.14).  Above it the
    first 12 prime bases (2..37) below psi_12 ~ 3.2e23 and 13 (2..41) below
    psi_13 ~ 3.3e24 (OEIS A014233; Sorenson and Webster 2017, Math. Comp.
    86).  From 3.3e24 on all 13 bases run and a strong Lucas round is added
    (the Baillie-PSW combination), which has no known counterexample but is
    proven only below 2^64.
    """
    if n < 2:
        return False
    if math.gcd(n, _SMALL_PRIMORIAL) != 1:
        return n in _SMALL_PRIMES
    bases = next((row for bound, row in _MR_BASE_SETS if n < bound), _SMALL_PRIMES)
    for base in bases:
        if not _miller_rabin(n, base):
            return False
    return n < _MR_PROVEN_BOUND or _strong_lucas_prp(n)


# ---------------------------------------------------------------------------
# Factorization
# ---------------------------------------------------------------------------

class Factorization(namedtuple("Factorization", "subject factors")):
    """Prime factorization of ``subject`` as (prime, exponent) pairs.

    Primes strictly increasing, exponents >= 1, and the product of the
    prime powers reconstructs the subject; all of this is validated, though
    ``factorize`` and ``factorize_batch`` skip the primality test of the
    primes they have proven.
    """

    __slots__ = ()

    def __new__(cls, subject: int, factors: tuple[tuple[int, int], ...]):
        self = super().__new__(cls, subject, factors)
        self._validate(prove_primes=True)
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))   # _replace validates too

    def _validate(self, prove_primes: bool) -> None:
        if self.subject < 1:
            raise ValueError("subject must be >= 1")
        previous = 1
        product = 1
        for p, e in self.factors:
            if p <= previous:
                raise ValueError("primes must be strictly increasing")
            if e < 1:
                raise ValueError("exponents must be >= 1")
            if prove_primes and not is_prime(p):
                raise ValueError(f"{p} is not prime")
            previous = p
            product *= p**e
        if product != self.subject:
            raise ValueError("factors do not multiply back to the subject")


def _rho_lanes(composites: list[int], budget: float = math.inf) -> dict[int, int]:
    """A nontrivial factor of each of some distinct odd composites with no
    small prime factor, by Brent's variant of Pollard rho with q reduced once
    per two comparison steps (the same residue at every gcd).  Up to _LANES
    composites are walked as lanes modulo their product: a step pays the
    interpreter once for all of them, and one reduction modulo the larger
    product.  A lane's residues are those of its own walk: it leaves at the
    gcd where that walk stops, with the factor that walk gives.  The
    parameter c is swept deterministically, so concurrent and repeated calls
    agree.  Under a finite ``budget`` a walk stops once Brent's r passes it,
    its group's sweep with it, and the composites it leaves unsplit are
    missing from the result."""
    factors = {}
    for start in range(0, len(composites), _LANES):
        group = composites[start:start + _LANES]
        for c in range(1, 100):
            lanes = [n for n in group if n not in factors]
            if not lanes:
                break
            n_all = math.prod(lanes)
            # from y_2, r = 2: the r = 1 block's one product, 2 - y_2 =
            # -(c + 2)(c + 7), has only primes below 107, and so splits no lane
            y, r, q = (4 + c)**2 + c, 2, 1
            while lanes and r <= budget:
                x = y
                for _ in range(r):
                    y = (y * y + c) % n_all
                k = 0
                while k < r and lanes:
                    ys = y
                    for _ in range(min(128, r - k) >> 1):   # two steps per reduction of q
                        y1 = (y * y + c) % n_all
                        y = (y1 * y1 + c) % n_all
                        q = q * (x - y1) * (x - y) % n_all
                    g = math.gcd(q, n_all)
                    k += 128
                    for n in [n for n in lanes if math.gcd(g, n) > 1]:
                        f = math.gcd(g, n)
                        if f == n:   # back up over the block on this lane alone
                            f, z = 1, ys % n
                            while f == 1:
                                z = (z * z + c) % n
                                f = math.gcd(x - z, n)
                        if f < n:    # else the lane waits for the next c
                            factors[n] = f
                        lanes.remove(n)
                        n_all //= n
                    y, x, q = y % n_all, x % n_all, q % n_all
                r *= 2
            if lanes:
                break
    for n in composites:
        if n not in factors and budget == math.inf:
            raise ArithmeticError(f"rho parameter sweep exhausted on {n}")
    return factors


def _ladder(k: int, x: int, z: int, a24: int, n: int) -> tuple[int, int, int, int]:
    """kP and (k+1)P from P = (x : z) on the Montgomery curve
    b y^2 = x^3 + a x^2 + x modulo n, a24 = (a + 2) / 4: Montgomery's x-only
    ladder in projective coordinates, from the point at infinity (1 : 0)."""
    x1, z1, x2, z2 = 1, 0, x, z
    for bit in bin(k)[2:]:
        if bit == "1":
            x1, z1, x2, z2 = x2, z2, x1, z1
        u, v = (x1 - z1) * (x2 + z2), (x1 + z1) * (x2 - z2)   # the sum, difference P
        x2, z2 = z * (u + v) ** 2 % n, x * (u - v) ** 2 % n
        s, d = (x1 + z1) ** 2 % n, (x1 - z1) ** 2 % n         # the double
        x1, z1 = s * d % n, (s - d) * (d + a24 * (s - d)) % n
        if bit == "1":
            x1, z1, x2, z2 = x2, z2, x1, z1
    return x1, z1, x2, z2


@functools.cache
def _ecm_tables(b1: int) -> tuple[int, int, list[list[int]]]:
    """ECM's stage-1 multiplier for bound b1, lcm(1, ..., b1), the product of
    the prime powers up to b1; and its stage 2 from giant step m0 on: for
    each m, the j < _ECM_D / 2 with m * _ECM_D +- j a prime in (b1, 50 * b1].
    Built on first use, not at import."""
    by_m: dict[int, set[int]] = {}
    for q in _sieve(b1 + 1, 50 * b1):
        m = (q + _ECM_D // 2) // _ECM_D
        by_m.setdefault(m, set()).add(abs(q - m * _ECM_D))
    m0 = min(by_m)
    stage2 = [sorted(by_m.get(m, ())) for m in range(m0, max(by_m) + 1)]
    return math.lcm(*range(1, b1 + 1)), m0, stage2


def _leave(residue: int, lanes: list[int], met: dict[int, int]) -> int:
    """Moves each lane n with gcd(residue, n) > 1 from ``lanes`` to ``met``,
    with that gcd, and returns the product of the lanes left."""
    for n in [n for n in lanes if math.gcd(residue, n) > 1]:
        met[n] = math.gcd(residue, n)
        lanes.remove(n)
    return math.prod(lanes)


def _ecm_lanes(composites: list[int]) -> dict[int, int]:
    """A nontrivial factor of each of some distinct odd composites with no
    small prime factor and no perfect power, by Lenstra's elliptic curve
    method on Montgomery curves with Suyama's parametrisation (Montgomery
    1987, Math. Comp. 48).  Each curve of ``_ECM_SCHEDULE`` runs, in order, on
    the composites still open, in lanes of up to _LANES modulo their product.
    Stage 1 multiplies a point by ``_ecm_tables``' multiplier with the x-only
    ladder; stage 2 takes baby steps jQ for odd j < _ECM_D / 2 and giant
    steps m * _ECM_D * Q from m = m0 on, one product x_m z_j - x_j z_m per
    pair that covers a prime, and a gcd per giant step.  A lane leaves the
    curve at its first gcd above 1, as its own run would, so a lane's factor
    is its one-lane factor; a curve that meets every prime of n at once
    (g = n) gives way to the next.  A composite is missing from the result
    when the schedule ends unsplit or ``_ECM_WHOLE_RUN`` curves in a row meet
    it whole.  Tables are built only for a curve that some lane runs."""
    factors, whole = {}, dict.fromkeys(composites, 0)   # open n: curves in a row that met n whole
    sigmas = itertools.count(6)
    for b1, curves in _ECM_SCHEDULE:
        for sigma in itertools.islice(sigmas, curves):
            if not whole:
                return factors
            multiplier, m0, stage2 = _ecm_tables(b1)
            u, v = sigma * sigma - 5, 4 * sigma
            met = dict.fromkeys(whole, 1)   # n: the gcd above 1 at which n left the curve
            opened = list(whole)
            for start in range(0, len(opened), _LANES):
                lanes = opened[start:start + _LANES]
                n_all = _leave(16 * u**3 * v, lanes, met)
                a24 = (v - u) ** 3 * (3 * u + v) * pow(16 * u**3 * v, -1, n_all) % n_all
                x, z, _, _ = _ladder(multiplier, u**3 % n_all, v**3 % n_all, a24, n_all)
                n_all = _leave(z, lanes, met)
                if not lanes:
                    continue
                x, z, a24 = x % n_all, z % n_all, a24 % n_all
                _, _, x2, z2 = _ladder(1, x, z, a24, n_all)
                baby, back, point = {}, (x, z), (x, z)
                for j in range(1, _ECM_D // 2, 2):   # jQ + 2Q = (j + 2)Q, difference (j - 2)Q
                    baby[j] = point
                    s, d = (point[0] - point[1]) * (x2 + z2), (point[0] + point[1]) * (x2 - z2)
                    back, point = point, (back[1] * (s + d) ** 2 % n_all,
                                          back[0] * (s - d) ** 2 % n_all)
                xd, zd, _, _ = _ladder(_ECM_D, x, z, a24, n_all)
                xm, zm, xn, zn = _ladder(m0, xd, zd, a24, n_all)
                product = 1
                for js in stage2:
                    for j in js:
                        product = product * (xm * baby[j][1] - baby[j][0] * zm) % n_all
                    if math.gcd(product, n_all) > 1:
                        n_all = _leave(product, lanes, met)
                        if not lanes:
                            break
                        xm, zm, xn, zn, xd, zd = (t % n_all for t in (xm, zm, xn, zn, xd, zd))
                        baby = {j: (bx % n_all, bz % n_all) for j, (bx, bz) in baby.items()}
                    s, d = (xn - zn) * (xd + zd), (xn + zn) * (xd - zd)
                    xm, zm, xn, zn = xn, zn, zm * (s + d) ** 2 % n_all, xm * (s - d) ** 2 % n_all
            for n, g in met.items():
                whole[n] = whole[n] + 1 if g == n else 0
                if 1 < g < n:
                    factors[n] = g
                if 1 < g < n or whole[n] == _ECM_WHOLE_RUN:
                    del whole[n]
    return factors


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 1, by integer Newton steps."""
    if k == 2:
        return math.isqrt(n)
    x = 1 << -(-n.bit_length() // k)   # 2^ceil(bits/k) > root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(m: int) -> tuple[int, int]:
    """(r, k) with r^k = m and k a prime, or (m, 1) when m is no such power.

    m has no prime factor below TRIAL_DIVISION_LIMIT = 2^10, so a root r is
    above 2^10 and only exponents k <= bit_length / 10 can occur.  In
    ``factorize_batch`` m is a cofactor with no prime factor up to 2^16, or
    a product h of primes in (2^10, 2^16]; the bound holds for both.
    """
    limit = m.bit_length() // 10
    for k in _TRIAL_PRIMES:
        if k > limit:
            break
        r = _iroot(m, k)
        if r**k == m:
            return r, k
    return m, 1


def _trial_stage(n: int) -> tuple[dict[int, int], int]:
    """The primes below TRIAL_DIVISION_LIMIT that divide n, read off
    gcd(n, their product), with their exponents, and what is left of n: 1 or
    a product of primes above the limit.  The primes of the gcd are taken in
    order while p^2 is at most what is left of it; then that rest is 1 or its
    last prime, which is stripped directly."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    small = math.gcd(n, _PRIMORIAL)
    primes = []
    for p in _TRIAL_PRIMES:
        if p * p > small:
            break
        if small % p == 0:
            small //= p
            primes.append(p)
    if small > 1:
        primes.append(small)
    found: dict[int, int] = {}
    remaining = n
    for p in primes:
        e = 0
        while remaining % p == 0:
            remaining //= p
            e += 1
        found[p] = e
    return found, remaining


def _split(staged: dict[int, tuple[dict[int, int], int]],
           proven: Callable[[int], bool]) -> dict[int, Factorization]:
    """The factorization of each n of ``staged``, which maps n to the prime
    powers stripped so far and the rest m, a product of primes.  A piece of m
    is prime when ``proven`` says so, asked once per distinct piece of each
    n; a composite is split by an exact-root test or, with every composite
    of the round, by ``_rho_lanes`` under ``_RHO_BUDGET``, then by
    ``_ecm_lanes``, then by ``_rho_lanes`` with no budget."""
    pending = {n: {m: 1} for n, (_, m) in staged.items() if m > 1}   # factor: multiplicity
    while pending:
        walks = []   # (n, composite, multiplicity)
        for n, pieces in pending.items():
            found = staged[n][0]
            for m, e in pieces.items():
                # rho takes about sqrt(p) steps on p^k, an exact root far less
                while not (m in found or proven(m)):
                    root, k = _perfect_power(m)
                    if k == 1:
                        walks.append((n, m, e))
                        break
                    m, e = root, e * k
                else:
                    found[m] = found.get(m, 0) + e
        composites = list(dict.fromkeys(m for _, m, _ in walks))
        factors = _rho_lanes(composites, _RHO_BUDGET)
        factors.update(_ecm_lanes([m for m in composites if m not in factors]))
        factors.update(_rho_lanes([m for m in composites if m not in factors]))
        pending = {}
        for n, m, e in walks:
            pieces = pending.setdefault(n, {})
            for f in (factors[m], m // factors[m]):
                pieces[f] = pieces.get(f, 0) + e
    result = {}
    for n, (found, _) in staged.items():
        # not through __new__: the primes are proven
        result[n] = tuple.__new__(Factorization, (n, tuple(sorted(found.items()))))
        result[n]._validate(prove_primes=False)
    return result


def factorize(n: int) -> Factorization:
    """Exact prime factorization: trial division by the primes below
    TRIAL_DIVISION_LIMIT that divide gcd(n, their product), then ``_split``
    of the rest by exact roots, the budgeted rho lanes, ECM and rho with no
    budget.  A factor left after trial division is prime if below
    TRIAL_DIVISION_LIMIT**2, else tested once by ``is_prime``."""
    return _split({n: _trial_stage(n)},
                  lambda m: m < TRIAL_DIVISION_LIMIT**2 or is_prime(m))[n]


@functools.cache
def _medium_primorial() -> int:
    """The product of the 6,370 primes in (TRIAL_DIVISION_LIMIT,
    _MEDIUM_PRIME_LIMIT], 92,608 bits; built on first use, not at import,
    from products of 128 primes, which beats one running product."""
    primes = _sieve(TRIAL_DIVISION_LIMIT + 1, _MEDIUM_PRIME_LIMIT)
    return math.prod(math.prod(primes[i:i + 128]) for i in range(0, len(primes), 128))


def factorize_batch(values: Iterable[int]) -> dict[int, Factorization]:
    """``factorize`` of each distinct value, with one shared stage between
    its trial division and its split rounds.

    For each chunk of 128 cofactors c >= 2^20 left by trial division, the
    gcd of the product of the primes in (2^10, 2^16] with the product of
    the chunk keeps the primes that divide some c of it; the gcd of that
    with c is h, the product of the primes in (2^10, 2^16] that divide c.
    The distinct h are split together by the same rounds, which take a
    factor of h below 2^20 as one prime, two of them multiplying past it,
    and test none; their primes are stripped from c with their exponents.
    What is left has no prime factor up to 2^16, so the rounds take a factor
    of it below 2^32 < 65537^2 as prime without a test.
    """
    staged = {n: _trial_stage(n) for n in dict.fromkeys(values)}
    large = [n for n, (_, rest) in staged.items() if rest >= TRIAL_DIVISION_LIMIT**2]
    medium = {}   # n: the product of the primes in (2^10, 2^16] dividing its cofactor
    # chunks of 64 to 256 cost about the same per cofactor; 32 and 1,024 cost more
    for start in range(0, len(large), 128):
        chunk = large[start:start + 128]
        hit = math.gcd(_medium_primorial(), math.prod(staged[n][1] for n in chunk))
        medium.update((n, math.gcd(hit, staged[n][1])) for n in chunk)
    primes = _split({h: ({}, h) for h in medium.values()},
                    lambda m: m < TRIAL_DIVISION_LIMIT**2)
    for n, h in medium.items():
        found, c = staged[n]
        for p, _ in primes[h].factors:
            e = 0
            while c % p == 0:
                c //= p
                e += 1
            found[p] = e
        staged[n] = found, c
    return _split(staged, lambda m: m < _MEDIUM_PRIME_LIMIT**2 or is_prime(m))


def primes_in_range(lo_exclusive: int, hi_inclusive: int) -> list[int]:
    """All primes p with lo < p <= hi, ascending."""
    if lo_exclusive >= hi_inclusive:
        raise ValueError("need lo_exclusive < hi_inclusive")
    return _sieve(max(lo_exclusive + 1, 2), hi_inclusive)


# ---------------------------------------------------------------------------
# CRT
# ---------------------------------------------------------------------------

def crt_solve(congruences: Iterable[tuple[int, int]]) -> int:
    """Unique x modulo the product of the moduli with x = residue (mod modulus)
    for every (residue, modulus) pair.

    Moduli must be pairwise coprime; the empty system yields 0.
    """
    x, modulus = 0, 1
    for residue, mod in congruences:
        if mod < 1:
            raise ValueError("moduli must be >= 1")
        if not 0 <= residue < mod:
            raise ValueError("residues must lie in [0, modulus)")
        if math.gcd(modulus, mod) != 1:
            raise ValueError("moduli are not pairwise coprime")
        shift = (residue - x) % mod
        x += modulus * (shift * pow(modulus, -1, mod) % mod)
        modulus *= mod
    return x
