"""Host speed, sampled while the jobs run, to put job times on one scale.

The benchmark shares its cores with other tenants, and the speed of a core
moves by a third within seconds as their load changes (hyperthread siblings,
caches, frequency).  Process CPU time does not leave that out: the same
``selftest`` job takes 2.7 s or 3.6 s of CPU time from one minute to the
next.  So while the jobs run, a fixed reference kernel is timed every
``INTERVAL_S`` of process CPU time, from a ``SIGPROF`` handler, and each
job's CPU time is divided by the mean kernel time around it and multiplied
by ``REFERENCE_S``: the result is the job's time on a core on which the kernel
takes ``REFERENCE_S``.  Measured here, alternating a 0.4 s window job and a
3 s selftest job for 200 s, the quartile spread of the raw CPU times was
0.23 and 0.14 of their medians and that of the normalised times 0.02 and
0.03.

The kernel is benchmark code and trial-divides fixed 62-bit integers by the
primes below 20,000, the interpreter work that dominates the window
workloads; it takes about 1.5 ms, so sampling costs about 6% of CPU time,
which is taken out of each job's time.  A process-wide CPU timer makes
``time.process_time`` tick-granular on Linux, so all times here are the
main thread's CPU time (``time.thread_time``); the program runs no threads.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.025
WINDOW_S = 0.25
REFERENCE_S = 0.0015


def _primes_below(n):
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for i in range(2, int(n ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, n, i)))
    return [i for i, flag in enumerate(sieve) if flag]


PRIMES = _primes_below(20_000)
NUMBERS = [3 * (2**61 - 1) + 7919 * k for k in range(12)]


def kernel():
    """Fixed reference work; returns a checksum so none of it is skipped."""
    found = {}
    checksum = 0
    for n in NUMBERS:
        m = n
        for p in PRIMES:
            if m % p == 0:
                m //= p
                found[p] = found.get(p, 0) + 1
        checksum ^= m
    return checksum + len(found)


def kernel_times(count):
    """Thread CPU time of ``count`` runs of the kernel."""
    times = []
    for _ in range(count):
        t0 = time.thread_time()
        kernel()
        times.append(time.thread_time() - t0)
    return times


def normalise(cpu_s, kernel_s):
    """``cpu_s`` on a core on which the kernel takes REFERENCE_S."""
    return cpu_s * REFERENCE_S / statistics.fmean(kernel_s)


class Pace:
    """Samples the kernel every INTERVAL_S of process CPU time while active;
    ``with Pace() as pace:`` around the jobs, then ``pace.normalised``."""

    def __init__(self):
        self.ends: list[float] = []      # thread time at the end of each sample
        self.kernel_s: list[float] = []  # thread time each sample took

    def _sample(self, signum=None, frame=None):
        t0 = time.thread_time()
        kernel()
        t1 = time.thread_time()
        self.ends.append(t1)
        self.kernel_s.append(t1 - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self._sample()

    def _range(self, start, end):
        return bisect.bisect_right(self.ends, start), bisect.bisect_right(self.ends, end)

    def normalised(self, start, end):
        """(CPU time of the job that ran from thread time ``start`` to
        ``end``, less the samples taken during it; that time normalised by
        the samples within WINDOW_S of the job)."""
        lo, hi = self._range(start, end)
        cpu_s = end - start - sum(self.kernel_s[lo:hi])
        lo, hi = self._range(start - WINDOW_S, end + WINDOW_S)
        return cpu_s, normalise(cpu_s, self.kernel_s[lo:hi])
