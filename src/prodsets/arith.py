"""Exact integer arithmetic: primality, factorization, sieves, CRT.

Everything works on arbitrary-precision Python ints and is exact.  All
functions are pure; the only shared state is the table of trial-division
primes, built once at import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable


class DeskScaleError(ValueError):
    """An argument exceeds the enforced desk-scale budget."""


# trial division below this, Pollard rho above: rho finds a prime p in about
# sqrt(p) steps where trial division takes pi(p), so rho wins from about 10^4
TRIAL_DIVISION_LIMIT = 2**10
PRIME_RANGE_LIMIT = 10**8     # segmented-sieve guard for primes_in_range


def primes_upto(n: int) -> list[int]:
    """All primes <= n (byte sieve of Eratosthenes)."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            start = i * i
            sieve[start::i] = b"\x00" * ((n - start) // i + 1)
    return [i for i in range(2, n + 1) if sieve[i]]


_TRIAL_PRIMES = tuple(primes_upto(TRIAL_DIVISION_LIMIT))


# ---------------------------------------------------------------------------
# Primality
# ---------------------------------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# (psi_k, k): below psi_k the first k primes are a proven deterministic
# Miller-Rabin witness set, psi_k being the least odd composite that is a
# strong pseudoprime to all of them (OEIS A014233; Jaeschke 1993,
# Sorenson-Webster 2015).  psi_8 = psi_7 and psi_11 = psi_10 = psi_9, so 8,
# 10 and 11 bases prove nothing more than 7 and 9.
_MR_BASE_COUNTS = ((2_047, 1), (1_373_653, 2), (25_326_001, 3), (3_215_031_751, 4),
                   (2_152_302_898_747, 5), (3_474_749_660_383, 6),
                   (341_550_071_728_321, 7), (3_825_123_056_546_413_051, 9),
                   (318_665_857_834_031_151_167_461, 12),
                   (3_317_044_064_679_887_385_961_981, 13))
# Proven bound of all 13 bases 2..41; from it on a strong Lucas round is added.
_MR_PROVEN_BOUND = _MR_BASE_COUNTS[-1][0]


def _miller_rabin(n: int, base: int) -> bool:
    # n odd, n > base; True means "no compositeness witness for this base"
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
    # Standard strong Lucas probable-prime test with Selfridge parameters.
    # Caller guarantees n odd, n > 37, no factor among _SMALL_PRIMES.
    if is_perfect_square(n):
        return False
    d = 5
    while True:
        j = _jacobi(d % n, n)
        if j == -1:
            break
        if j == 0 and abs(d) < n:
            return False
        d = -(d + 2) if d > 0 else -(d - 2)
    p, q = 1, (1 - d) // 4
    m = n + 1
    s = (m & -m).bit_length() - 1
    dd = m >> s
    u, v, qk = 1, p, q % n
    for bit in bin(dd)[3:]:
        u = u * v % n
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = p * u + v, d * u + p * v
            if u & 1:
                u += n
            if v & 1:
                v += n
            u = (u >> 1) % n
            v = (v >> 1) % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if v == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Deterministic primality test.

    Miller-Rabin with the first k prime bases, k the least count proven for
    the size of n: 12 bases (2..37) below ~3.2e23, 13 bases (2..41) below
    ~3.3e24.  From 3.3e24 on all 13 bases run and a strong Lucas round is
    added (the Baillie-PSW combination), which has no known counterexample
    but is proven only below 2^64.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 43 * 43:
        return True
    count = next((k for bound, k in _MR_BASE_COUNTS if n < bound), len(_SMALL_PRIMES))
    for base in _SMALL_PRIMES[:count]:
        if not _miller_rabin(n, base):
            return False
    if n >= _MR_PROVEN_BOUND and not _strong_lucas_prp(n):
        return False
    return True


# ---------------------------------------------------------------------------
# Factorization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Factorization:
    """Prime factorization of ``subject`` as (prime, exponent) pairs.

    Primes strictly increasing, exponents >= 1, and the product of the
    prime powers reconstructs the subject; all of this is re-validated on
    construction.
    """

    subject: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.subject < 1:
            raise ValueError("subject must be >= 1")
        previous = 1
        product = 1
        for p, e in self.factors:
            if p <= previous:
                raise ValueError("primes must be strictly increasing")
            if e < 1:
                raise ValueError("exponents must be >= 1")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            previous = p
            product *= p**e
        if product != self.subject:
            raise ValueError("factors do not multiply back to the subject")


def _pollard_rho(n: int) -> int:
    """Nontrivial factor of an odd composite with no small prime factor.

    Brent's cycle-finding variant; the polynomial parameter is swept
    deterministically so concurrent and repeated calls agree.
    """
    for c in range(1, 100):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
    raise ArithmeticError(f"rho parameter sweep exhausted on {n}")


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
    above 2^10 and only exponents k <= bit_length / 10 can occur.
    """
    limit = m.bit_length() // 10
    for k in _TRIAL_PRIMES:
        if k > limit:
            break
        r = _iroot(m, k)
        if r**k == m:
            return r, k
    return m, 1


def factorize(n: int) -> Factorization:
    """Exact prime factorization: trial division by the primes below
    TRIAL_DIVISION_LIMIT, then Pollard rho splitting of the rest, each
    composite first tested for being an exact power."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    found: dict[int, int] = {}
    remaining = n
    for p in _TRIAL_PRIMES:
        if p * p > remaining:
            break
        if remaining % p == 0:
            e = 0
            while remaining % p == 0:
                remaining //= p
                e += 1
            found[p] = e
    # remaining is now 1, prime, or a product of primes above the
    # trial-division limit; the stack holds (factor, multiplicity)
    stack = [(remaining, 1)] if remaining > 1 else []
    while stack:
        m, e = stack.pop()
        if is_prime(m):
            found[m] = found.get(m, 0) + e
            continue
        # rho takes about sqrt(p) steps on p^k, an exact root far less
        root, k = _perfect_power(m)
        if k > 1:
            stack.append((root, e * k))
        else:
            f = _pollard_rho(m)
            stack.append((f, e))
            stack.append((m // f, e))
    return Factorization(n, tuple(sorted(found.items())))


def primes_in_range(lo_exclusive: int, hi_inclusive: int) -> list[int]:
    """All primes p with lo < p <= hi, ascending (segmented sieve)."""
    if lo_exclusive >= hi_inclusive:
        raise ValueError("need lo_exclusive < hi_inclusive")
    if hi_inclusive > PRIME_RANGE_LIMIT:
        raise DeskScaleError(f"prime ranges capped at {PRIME_RANGE_LIMIT} "
                             f"(PRIME_RANGE_LIMIT); got hi = {hi_inclusive}")
    hi = hi_inclusive
    if hi < 2:
        return []
    base = primes_upto(math.isqrt(hi))
    out: list[int] = []
    segment = 1 << 16
    start = max(lo_exclusive + 1, 2)
    for left in range(start, hi + 1, segment):
        right = min(left + segment - 1, hi)
        flags = bytearray([1]) * (right - left + 1)
        for p in base:
            if p * p > right:
                break
            first = max(p * p, ((left + p - 1) // p) * p)
            if first > right:
                continue
            flags[first - left :: p] = b"\x00" * ((right - first) // p + 1)
        out.extend(left + i for i, f in enumerate(flags) if f)
    return out


# ---------------------------------------------------------------------------
# Squares and CRT
# ---------------------------------------------------------------------------

def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


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
