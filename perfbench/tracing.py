"""Span tracing of the prodsets layers, installed from outside the package.

``Tracer.install`` replaces every public function of every prodsets module
with a timing wrapper, under each name it is bound to (including the names
other modules import with ``from .arith import factorize``), wraps the
constructor of ``coverlemma.Bipartite`` and each entry of
``acceptance.CHECKS``.  ``uninstall`` puts the originals back.  No file of the
package is touched.

Spans ``(span, parent, job, name, start, end)`` are kept in memory and
written out when the run ends.  Self time is a span's duration minus the
durations of its child spans; the harness opens one root span per job, whose
self time is the job time no wrapped function covers (``other``).  Jobs that
run in a forked copy of the process record into the copy's tracer;
``recorded`` hands that record back and ``absorb`` adds it to the tracer of
the process that forked.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import math
import pkgutil
import statistics
import time
from array import array

JOB = "job"
COUNTS = ("rho_needed", "window_terms", "b_vertices", "subsets_in_search",
          "values_tested", "members")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.job = -1
        self._ids = {}
        self._next_span = 0
        self._patches: list[tuple] = []
        self.rho_limit = 0
        self.clear()
        self._name_id(JOB)

    def clear(self):
        """Forget what has been recorded; names and span numbers stay."""
        # per name: [calls, errors, self_s, total_s]
        self.stats: list[list] = [[0, 0, 0.0, 0.0] for _ in self.names]
        self._stack = [[0.0, 0.0, -1]]  # frames: [start, child time, span id]
        self._spans = {key: array(code) for key, code in
                       (("span", "q"), ("parent", "q"), ("job", "q"),
                        ("name", "l"), ("start", "d"), ("end", "d"))}
        # derived counts, from arguments and results of the wrapped calls
        self.factorize_bits: list[int] = []
        self.counts = dict.fromkeys(COUNTS, 0)

    def recorded(self):
        """What has been recorded since ``clear``, for ``absorb``."""
        return {"names": self.names, "stats": self.stats, "spans": self._spans,
                "bits": self.factorize_bits, "counts": self.counts,
                "next_span": self._next_span}

    def absorb(self, record):
        """Add the record of a forked copy of this tracer."""
        if record["names"] != self.names:
            raise RuntimeError("a traced job registered names the tracer does not have")
        for mine, theirs in zip(self.stats, record["stats"]):
            for k, value in enumerate(theirs):
                mine[k] += value
        for key, column in record["spans"].items():
            self._spans[key].extend(column)
        self.factorize_bits += record["bits"]
        for key, value in record["counts"].items():
            self.counts[key] += value
        self._next_span = record["next_span"]

    # -- span bookkeeping ---------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.stats.append([0, 0, 0.0, 0.0])
        return self._ids[name]

    def _close(self, nid, frame, end, failed):
        parent = self._stack[-1]
        duration = end - frame[0]
        parent[1] += duration
        stat = self.stats[nid]
        stat[0] += 1
        stat[1] += failed
        stat[2] += duration - frame[1]
        stat[3] += duration
        spans = self._spans
        spans["span"].append(frame[2])
        spans["parent"].append(parent[2])
        spans["job"].append(self.job)
        spans["name"].append(nid)
        spans["start"].append(frame[0])
        spans["end"].append(end)

    def _open(self):
        frame = [time.perf_counter(), 0.0, self._next_span]
        self._next_span += 1
        self._stack.append(frame)
        return frame

    def wrap(self, name, fn, observe=None):
        nid = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._open()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._close(nid, frame, end, failed)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def run_job(self, job_id, call):
        """Run ``call()`` as job ``job_id`` under a root span."""
        self.job = job_id
        frame = self._open()
        failed = True
        try:
            result = call()
            failed = False
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._close(self._name_id(JOB), frame, end, failed)
        return result

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        pkg = self.package
        modules = {info.name: importlib.import_module(f"{pkg.__name__}.{info.name}")
                   for info in pkgutil.iter_modules(pkg.__path__)
                   if not info.name.startswith("_")}
        # a result with two prime factors above the trial-division limit
        # needed rho to split them
        self.rho_limit = getattr(modules.get("arith"), "TRIAL_DIVISION_LIMIT", 10**6)
        observers = {
            "arith.factorize": self._observe_factorize,
            "polyseq.window_stats": self._observe_window_stats,
            "polyseq.window_witness": self._observe_window_witness,
            "extremal.max_fib_count": self._observe_max_fib_count,
            "productset.sequence_members": self._observe_sequence_members,
        }
        wrappers = {}
        for short, mod in modules.items():
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or (short == "acceptance" and name.startswith("check_"))):
                    continue
                full = f"{short}.{name}"
                wrappers[obj] = self.wrap(full, obj, observers.get(full))
        for mod in [pkg, *modules.values()]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, name, wrappers[obj])
        if "coverlemma" in modules:
            bipartite = modules["coverlemma"].Bipartite
            self._patch(bipartite, "__init__",
                        self.wrap("coverlemma.Bipartite", bipartite.__init__,
                                  self._observe_bipartite))
        if "acceptance" in modules:
            acceptance = modules["acceptance"]
            self._patch(acceptance, "CHECKS", tuple(
                (name, self.wrap(f"acceptance.{name}", check))
                for name, check in acceptance.CHECKS))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- observers ----------------------------------------------------------

    def _observe_factorize(self, args, kwargs, result):
        self.factorize_bits.append(args[0].bit_length())
        if sum(e for p, e in result.factors if p > self.rho_limit) >= 2:
            self.counts["rho_needed"] += 1

    def _observe_window_stats(self, args, kwargs, result):
        self.counts["window_terms"] += len(result.records)

    def _observe_window_witness(self, args, kwargs, result):
        self.counts["window_terms"] += result.window_length

    def _observe_max_fib_count(self, args, kwargs, result):
        # the size of the search the arguments ask for, C(universe, size);
        # not a count of what the search visited
        universe = args[0] if args else kwargs["universe_max"]
        size = args[1] if len(args) > 1 else kwargs["set_size"]
        self.counts["subsets_in_search"] += math.comb(universe, size)

    def _observe_sequence_members(self, args, kwargs, result):
        self.counts["values_tested"] += len(args[0])
        self.counts["members"] += len(result)

    def _observe_bipartite(self, args, kwargs, result):
        self.counts["b_vertices"] += len(args[0].b_vertices)

    # -- results ------------------------------------------------------------

    def stat(self, name):
        """[calls, errors, self_s, total_s] for a traced name."""
        return self.stats[self._ids[name]]

    @property
    def span_count(self):
        return len(self._spans["span"])

    def bits_p50(self):
        return statistics.median_low(self.factorize_bits) if self.factorize_bits else 0

    def write_spans(self, path):
        s = self._spans
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("span,parent,job,name,start,end\n")
            names = self.names
            for row in zip(s["span"], s["parent"], s["job"], s["name"],
                           s["start"], s["end"]):
                handle.write(f"{row[0]},{row[1]},{row[2]},{names[row[3]]},"
                             f"{row[4]:.9f},{row[5]:.9f}\n")
