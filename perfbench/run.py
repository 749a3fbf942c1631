"""prodsets benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory.  One client drives a closed loop: each job is a call to
``prodsets.cli.main(argv)`` with stdout captured, and the next job starts when
the previous one returns.  The workload's cycle of jobs (workloads.py) is
replayed in order, whole cycles only, at least twice and until S seconds have
passed, so every argv also runs twice and must give the same bytes.  Each
cycle runs in a fresh fork of the benchmark process, taken after import and
first-use set-up, so no state a cycle leaves behind speeds up the next.
After the timed phase each distinct job's output is checked by the
independent oracle in oracle.py.

The end-to-end times are CPU times normalised to a reference host speed
that is sampled while the jobs run (pace.py), because this runs on cores
shared with other tenants; raw CPU and wall-clock figures are reported
beside them on stderr.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json.  --trace 1
wraps the package's public functions from outside (tracing.py), runs whole
traced cycles for about S/2 seconds, replays as many cycles untraced to
measure the tracing overhead, and reports the per-layer metrics per cycle.
``--workload all`` runs the four workloads one after another, each in its own
process, and prints every metric.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  A readable report goes to stderr; the full result, and
for traced runs the spans, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pickle
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("window-long", "window-short", "sets", "selftest")
WINDOW_WORKLOADS = ("window-long", "window-short")
MIN_CYCLES = 2
SETUP_PROBES = 11
DEADLINE_S = 170
P90_MIN_JOBS = 100

# First-use set-up a CLI invocation pays before its first answer: window and
# selftest jobs factor, which builds the trial-division prime table.
SETUP_CODE = {
    "window-long": "prodsets.factorize(2)",
    "window-short": "prodsets.factorize(2)",
    "sets": "pass",
    "selftest": "prodsets.factorize(2)",
}

PROBE = """\
import sys, time
sys.path.insert(0, {here!r})
import pace
before = pace.kernel_times(3)
t0 = time.thread_time()
sys.path.insert(0, {src!r})
import prodsets, prodsets.cli
{setup}
setup_s = time.thread_time() - t0
print(repr(pace.normalise(setup_s, before + pace.kernel_times(3))))
"""


class Deadline(BaseException):
    """The run overran its time limit."""


def _on_alarm(signum, frame):
    raise Deadline(f"run exceeded {DEADLINE_S} s")


def log(text=""):
    print(text, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Running jobs
# ---------------------------------------------------------------------------

def execute(cli, job):
    """Run one job in this process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(job.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception as exc:  # a crash is a failed job, not a failed run
            rc = f"crash: {exc!r}"
    return rc, out.getvalue()


def run_cycle(cli, cycle, first_job, tracer):
    """Every job of the cycle in order, in this process.  Returns per job
    (exit code, stdout, wall time, CPU time, normalised CPU time (pace.py),
    all in s, {path: bytes written}), and the tracer's record (None when not
    tracing).  Traced cycles are not paced, so that no sample lands in a
    span; their normalised time is None."""
    import pace

    if tracer is not None:
        tracer.clear()
    runs = []
    with contextlib.nullcontext() if tracer is not None else pace.Pace() as sampler:
        for offset, job in enumerate(cycle):
            for path in job.outputs:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(path)
            t0, c0 = time.perf_counter(), time.thread_time()
            if tracer is None:
                rc, stdout = execute(cli, job)
            else:
                rc, stdout = tracer.run_job(first_job + offset, lambda: execute(cli, job))
            latency, c1 = time.perf_counter() - t0, time.thread_time()
            files = {}
            for path in job.outputs:
                with contextlib.suppress(FileNotFoundError), open(path, "rb") as handle:
                    files[path] = handle.read()
            runs.append((rc, stdout, latency, c0, c1, files))
    results = []
    for rc, stdout, latency, c0, c1, files in runs:
        cpu, norm = sampler.normalised(c0, c1) if sampler else (c1 - c0, None)
        results.append((rc, stdout, latency, cpu, norm, files))
    return results, None if tracer is None else tracer.recorded()


def in_fork(call):
    """``call()`` in a forked copy of this process; returns its result.  The
    copy is always waited for."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(call()))
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read()
        os.waitpid(pid, 0)
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)
        raise
    if not data:
        raise RuntimeError("the forked process ended without a result")
    return pickle.loads(data)


class Outcomes:
    """First output of every job, and per execution whether it repeated it."""

    def __init__(self):
        self.first = {}        # job index -> (rc, stdout, {path: bytes})
        # (job index, wall s, CPU s, normalised CPU s, same bytes as first)
        self.executions = []

    def record(self, index, latency, cpu, norm, rc, stdout, files):
        outcome = (rc, stdout, files)
        same = self.first.setdefault(index, outcome) == outcome
        self.executions.append((index, latency, cpu, norm, same))

    def output_bytes(self):
        """Bytes one pass over the cycle prints or writes."""
        return sum(len(out.encode()) + sum(map(len, files.values()))
                   for _, out, files in self.first.values())


def run_cycles(cli, cycle, outcomes, seconds, min_cycles, max_cycles=None,
               tracer=None):
    """Replay whole cycles, each in a fresh fork of this process, so that
    nothing a cycle leaves in memory reaches the next; returns per cycle the
    sums of its jobs' wall, CPU and normalised CPU times (None if traced)."""
    busy = []
    start = time.perf_counter()
    while True:
        first_job = len(outcomes.executions)
        results, record = in_fork(lambda: run_cycle(cli, cycle, first_job, tracer))
        if tracer is not None:
            tracer.absorb(record)
        for index, (rc, stdout, latency, cpu, norm, files) in enumerate(results):
            outcomes.record(index, latency, cpu, norm, rc, stdout, files)
        busy.append((sum(r[2] for r in results), sum(r[3] for r in results),
                     None if tracer is not None else sum(r[4] for r in results)))
        if max_cycles is not None and len(busy) >= max_cycles:
            break
        if len(busy) >= min_cycles and time.perf_counter() - start >= seconds:
            break
    return busy


def judge(cycle, outcomes):
    """Oracle verdict per distinct job: (failures {index: reason}, terms {index: n})."""
    import oracle

    failures, terms = {}, {}
    for index, (rc, stdout, files) in sorted(outcomes.first.items()):
        try:
            terms[index] = oracle.check(cycle[index], rc, stdout, files)
        except oracle.Mismatch as exc:
            failures[index] = str(exc)
        except Exception as exc:  # unreadable output is a failed job
            failures[index] = f"oracle could not read the output: {exc!r}"
    return failures, terms


def correct_flags(outcomes, failures):
    """Per execution: the job passed the oracle and repeated its first output."""
    return [same and i not in failures for i, *_, same in outcomes.executions]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def measure_setup(workload):
    """Median over several fresh interpreters of the CPU time of import plus
    first-use set-up, each normalised by kernel samples taken just before
    and after it (pace.py)."""
    code = PROBE.format(here=str(HERE), src=str(SRC), setup=SETUP_CODE[workload])
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, timeout=60,
                              capture_output=True, text=True, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def warm_up(prodsets, workload):
    exec(SETUP_CODE[workload], {"prodsets": prodsets})


def end_to_end(prodsets, cli, workload, cycle, seconds):
    t0 = time.perf_counter()
    setup_s = measure_setup(workload)
    warm_up(prodsets, workload)
    probe_s = time.perf_counter() - t0
    outcomes = Outcomes()
    busy = run_cycles(cli, cycle, outcomes, seconds, MIN_CYCLES)
    # the cycles ran in forks of this process, the largest of which counts
    rss_mb = max(resource.getrusage(who).ru_maxrss
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024
    t0 = time.perf_counter()
    failures, terms = judge(cycle, outcomes)
    oracle_s = time.perf_counter() - t0
    good = correct_flags(outcomes, failures)
    n = len(cycle)

    def per_cycle_rate(times):
        # The median over cycles of each cycle's rate: a burst of load from
        # outside the process slows a few cycles and leaves the median alone.
        return statistics.median(sum(good[c * n:(c + 1) * n]) / t
                                 for c, t in enumerate(times))

    wall, cpu, norm = zip(*busy)
    wall_ms, cpu_ms, norm_ms = ([e[k] * 1000 for e in outcomes.executions]
                                for k in (1, 2, 3))
    metrics = {
        "setup_s": setup_s,
        "jobs_per_s_norm": per_cycle_rate(norm),
        "job_ms_p50_norm": statistics.median(norm_ms),
        "peak_rss_mb": rss_mb,
    }
    extra = {"cycles": len(busy), "busy_wall_s": sum(wall), "busy_cpu_s": sum(cpu),
             "jobs": len(norm_ms),
             "cpu_jobs_per_s": per_cycle_rate(cpu),
             "cpu_job_ms_p50": statistics.median(cpu_ms),
             "wall_jobs_per_s": per_cycle_rate(wall),
             "wall_job_ms_p50": statistics.median(wall_ms),
             "host_speed": sum(norm) / sum(cpu),
             "setup_probes_s": probe_s, "oracle_s": oracle_s}
    if len(norm_ms) >= P90_MIN_JOBS:
        extra["job_ms_p90_norm"] = statistics.quantiles(norm_ms, n=10)[-1]
    if workload in WINDOW_WORKLOADS:
        extra["terms_per_s_norm"] = sum(terms.get(e[0], 0) for e, ok
                                        in zip(outcomes.executions, good) if ok) / sum(norm)
    return metrics, extra, outcomes, failures


def per_layer(prodsets, cli, workload, cycle, seconds, listed, spans_path):
    from tracing import JOB, Tracer

    setup_tracer = Tracer(prodsets)
    setup_tracer.install()
    try:
        setup_tracer.run_job(-1, lambda: warm_up(prodsets, workload))
    finally:
        setup_tracer.uninstall()

    tracer = Tracer(prodsets)
    outcomes = Outcomes()
    tracer.install()
    try:
        traced_busy = run_cycles(cli, cycle, outcomes, seconds / 2, 1, tracer=tracer)
    finally:
        tracer.uninstall()
    cycles, traced_s = len(traced_busy), sum(cpu for _, cpu, _ in traced_busy)
    plain_s = sum(cpu for _, cpu, _ in run_cycles(cli, cycle, outcomes, 0, cycles,
                                                  max_cycles=cycles))
    failures, _ = judge(cycle, outcomes)
    tracer.write_spans(spans_path)

    values, table = {}, {}
    unlisted_s = 0.0
    for name, (calls, errors, self_s, total_s) in zip(tracer.names, tracer.stats):
        table[name] = {"calls": calls / cycles, "errors": errors / cycles,
                       "self_s": self_s / cycles, "total_s": total_s / cycles}
        if name == JOB:
            continue
        for key in ("calls", "self_s", "errors"):
            values[f"{name}.{key}"] = table[name][key]
        if f"{name}.self_s" not in listed:
            unlisted_s += self_s / cycles
    jobs, _, other_s, job_wall = tracer.stat(JOB)
    accounted = sum(s[2] for s in tracer.stats)
    if abs(accounted - job_wall) > 1e-6 * max(1.0, job_wall):
        raise RuntimeError(f"self times sum to {accounted} s, job wall is {job_wall} s")

    def ratio(num, den):
        return num / den if den else 0

    counts = tracer.counts
    values.update({
        "arith.factorize.bits_p50": tracer.bits_p50(),
        "arith.factorize.rho_needed": counts["rho_needed"] / cycles,
        "arith.is_prime.per_factorize": ratio(tracer.stat("arith.is_prime")[0],
                                              tracer.stat("arith.factorize")[0]),
        "polyseq.terms": counts["window_terms"] / cycles,
        "polyseq.terms_per_s": counts["window_terms"] / plain_s,
        "coverlemma.b_vertices": counts["b_vertices"] / cycles,
        "extremal.subsets_in_search": counts["subsets_in_search"] / cycles,
        "extremal.subsets_per_s": ratio(counts["subsets_in_search"],
                                        tracer.stat("extremal.max_fib_count")[3]),
        "productset.member_ratio": ratio(counts["members"], counts["values_tested"]),
        "auxgraph.find_cycle.per_graph": ratio(tracer.stat("auxgraph.find_cycle")[0],
                                               tracer.stat("auxgraph.build_aux_graph")[0]),
        "cli.output_bytes": outcomes.output_bytes(),
        "other.self_s": other_s / cycles,
        "setup.arith.primes_upto.self_s": setup_tracer.stat("arith.primes_upto")[2],
        "setup.wall_s": setup_tracer.stat(JOB)[3],
        "trace.overhead_ratio": plain_s / traced_s,
        "trace.unlisted.self_s": unlisted_s,
        "trace.job_wall_s": job_wall / cycles,
        "trace.spans": (tracer.span_count - jobs) / cycles,
    })
    extra = {"cycles": cycles, "traced_cpu_s": traced_s,
             "untraced_cpu_s": plain_s, "jobs": len(outcomes.executions),
             "functions": table}
    return values, extra, outcomes, failures


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def select(values, entries):
    """The metrics BENCHMARK.json names, with their units.  A name the run did
    not compute, such as a function the package no longer has, is an error."""
    missing = [entry["name"] for entry in entries if entry["name"] not in values]
    if missing:
        raise KeyError(f"metrics not computed: {', '.join(missing)}")
    return {entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
            for entry in entries}


def run_one(args, spec):
    sys.path.insert(0, str(SRC))
    import prodsets
    import prodsets.cli as cli
    if Path(prodsets.__file__).resolve().parent != SRC / "prodsets":
        raise RuntimeError(f"imported prodsets from {prodsets.__file__}, not {SRC}")
    import oracle
    import workloads

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(prefix=f"work-{tag}-", dir=OUT) as work:
        cycle = workloads.GENERATORS[args.workload](args.seed, work)
        if args.trace:
            listed = {m["name"] for m in spec["per_layer"]}
            values, extra, outcomes, failures = per_layer(
                prodsets, cli, args.workload, cycle, args.seconds, listed,
                OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")
            metrics = select(values, spec["per_layer"])
        else:
            values, extra, outcomes, failures = end_to_end(
                prodsets, cli, args.workload, cycle, args.seconds)
            metrics = select(values, spec["end_to_end"])

    attempted = len(outcomes.executions)
    failed = attempted - sum(correct_flags(outcomes, failures))
    extra["failed_ratio"] = failed / attempted
    defects = sorted({oracle.known_defect(job) for job in cycle} - {None})
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    log(f"== {args.workload} seed {args.seed} trace {args.trace}: "
        f"{attempted} jobs in {extra['cycles']} cycles of {len(cycle)}, {failed} failed")
    for name, m in metrics.items():
        log(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    for key, value in extra.items():
        if key != "functions":
            log(f"  ({key:<42} {value:.6g})")
    if not args.trace and "job_ms_p90_norm" not in extra:
        log(f"  (job_ms_p90_norm not reported: {attempted} jobs < {P90_MIN_JOBS})")
    for index, reason in sorted(failures.items()):
        log(f"  FAILED {' '.join(cycle[index].argv)}: {reason}")
    for index, (*_, same) in enumerate(outcomes.executions):
        if not same:
            log(f"  NOT REPEATABLE: execution {index}")
    for text in defects:
        log(f"  known defect hit (oracle accepts exit 0 or 2): {text}")

    latencies = {}
    for index, _, cpu, norm, _ in outcomes.executions:
        latencies.setdefault(index, []).append(norm if norm is not None else cpu)
    job_ms = [{"argv": " ".join(job.argv),
               "median_ms": statistics.median(latencies[i]) * 1000}
              for i, job in enumerate(cycle)]
    with open(OUT / f"result-{tag}.json", "w") as handle:
        json.dump({**result, "extra": extra, "known_defects": defects, "job_ms": job_ms,
                   "failures": {" ".join(cycle[i].argv): r for i, r in failures.items()}},
                  handle, indent=1, sort_keys=True)
    print(json.dumps(result))


def run_all(args):
    """Each workload in its own process; prints every metric of each."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(total))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "prodsets" / "__init__.py").is_file() or not spec_path.is_file():
        log(f"error: no prodsets sources under {SRC} or no {spec_path}")
        return 2
    if args.workload == "all":
        run_all(args)
        return 0
    with open(spec_path) as handle:
        spec = json.load(handle)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    try:
        run_one(args, spec)
    except Deadline as exc:
        log(f"error: {exc}")
        return 3
    finally:
        signal.alarm(0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
