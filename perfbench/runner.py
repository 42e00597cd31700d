"""The benchmark runner: set-up, timed phases, metrics, result line.

See ``run.py`` for the command line.  A run has two timed parts:
set-up, repeated :data:`SETUP_REPEATS` times into fresh directories
(``setup_s`` is the median), then ``--seconds`` of operations in
:data:`ROUNDS` rounds.  A round gives the workload's ``primary_share``
of its time to a slice of the window, in which each lane runs the
workload's deck of primary operations closed-loop, and the rest to
probes of the other operation classes, taken in turn from one
repeating :data:`PROBE_CYCLE`.  Every class is thus sampled across the
whole run, not in one stretch that a slowdown of the machine could
fill, and never alongside the primary load.  Work that runs on the
main thread alone moves to the next CPU every round (see
:func:`on_cpu`).
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import threading
import time
from pathlib import Path
from typing import Iterator

from repro.claims import obligation_counters

from layers import sweep
from spans import OFF, Tracer
from workloads import OP_CLASSES, WORKLOADS, Lane, Workload

ROOT = Path(__file__).resolve().parent.parent

SETUP_REPEATS = 5
#: Rounds of a run.  The shared machine this was sized on switches
#: between a fast and a slow state (about 1.6 times slower) every
#: second or so, and short operations see one state or the other; with
#: many short rounds each class samples both states in the proportion
#: the whole run had, so its median does not jump between them.
ROUNDS = 40
#: Operations of each probe class in one probe cycle: about as many
#: samples of each heavy class (checks, service queries) and more of
#: the light ones, whose tails need them.
PROBE_CYCLE = {"check": 1, "parallel": 1, "query": 1, "edit": 4, "read": 8}


def percentile(samples: "list[float]", q: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


class Recorder:
    """Latencies and outcomes of every operation, by class and by
    whether it was traced."""

    def __init__(self, workload: "Workload", tracer: "Tracer | None") -> None:
        self.workload = workload
        self.tracer = tracer
        self.samples: "dict[tuple[str, bool], list[float]]" = {}
        self.attempted = 0
        self.failed = 0
        self.failed_by_class: "dict[str, int]" = {}
        self.errors: "list[str]" = []
        self.proofs = 0
        self.hits = 0
        self.lock = threading.Lock()

    def run(self, op_class: str, lane: Lane) -> None:
        lane.n = lane.counts.get(op_class, 0)
        lane.counts[op_class] = lane.n + 1
        traced = self.tracer is not None and lane.n % 2 == 1
        t = self.tracer if traced else OFF
        op = getattr(self.workload, f"op_{op_class}")
        self.workload.before_op(op_class, lane)
        if self.tracer is not None:
            before = obligation_counters()
        start = time.perf_counter()
        try:
            with t.operation(op_class):
                ok = op(t, lane)
        except Exception as error:  # a failed operation, not a failed run
            ok = False
            self.errors.append(f"{op_class}: {type(error).__name__}: {error}")
        elapsed = time.perf_counter() - start
        with self.lock:
            self.samples.setdefault((op_class, traced), []).append(elapsed)
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failed_by_class[op_class] = \
                    self.failed_by_class.get(op_class, 0) + 1
            if self.tracer is not None:
                after = obligation_counters()
                # A cold-cache operation resets the counters first.
                if after[0] < before[0] or after[1] < before[1]:
                    before = (0, 0)
                self.proofs += after[0] - before[0]
                self.hits += after[1] - before[1]

    def ms(self, op_class: str, traced: bool = False) -> "list[float]":
        return [s * 1e3 for s in self.samples.get((op_class, traced), [])]

    def loop(self, lane: Lane, deck: "dict[str, int]", seconds: float) -> int:
        """``deck``, closed-loop and reshuffled each pass, until
        ``seconds`` have passed; returns the operations run."""
        order = [c for c, count in deck.items() for _ in range(count)]
        start = time.perf_counter()
        done = 0
        while True:
            lane.rng.shuffle(order)
            for op_class in order:
                if time.perf_counter() - start >= seconds:
                    return done
                self.run(op_class, lane)
                done += 1


def run_window(rec: Recorder, lanes: "list[Lane]",
               seconds: float) -> "tuple[int, float]":
    """A slice of the window: every lane's closed loop, one thread per
    lane; returns the operations run and the slice's length."""
    decks = rec.workload.decks()
    done = [0] * len(lanes)

    def drive(index: int) -> None:
        done[index] = rec.loop(lanes[index], decks[index], seconds)

    # Flush pending writes, so their writeback does not land on the
    # window's own.
    os.sync()
    start = time.perf_counter()
    if len(lanes) == 1:
        drive(0)
    else:
        threads = [threading.Thread(target=drive, args=(index,))
                   for index in range(len(lanes))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return sum(done), time.perf_counter() - start


@contextlib.contextmanager
def on_cpu(cpus: "set[int] | None") -> "Iterator[None]":
    """Keep the calling thread on ``cpus`` (``None``: leave it be).

    The scheduler keeps a lone busy thread on one CPU for long
    stretches, and the CPUs of the shared machine this was sized on
    differed in speed for minutes at a time (one about 1.6 times slower
    than the other), so a single-threaded phase's medians depended on
    which CPU the run happened to get.  Rotating the phases over the
    CPUs gives every run the same share of each.  Threads and
    processes started meanwhile would inherit the pin, so a window
    with several lanes (a thread each) is not pinned; the parallel
    checks' worker pool is started in set-up.
    """
    if cpus is None:
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def run_probes(rec: Recorder, lane: Lane, cycle: "Iterator[str]",
               seconds: float) -> None:
    """One round's probes on ``lane``: the next classes of ``cycle``
    until ``seconds`` have passed, at least one."""
    start = time.perf_counter()
    while True:
        rec.run(next(cycle), lane)
        if time.perf_counter() - start >= seconds:
            return


def run_rounds(rec: Recorder, seconds: float) -> "tuple[int, float]":
    """Every round of the run; returns the operations the window ran and
    its length."""
    workload = rec.workload
    cycle = itertools.cycle([c for c in OP_CLASSES if c not in workload.deck
                             for _ in range(PROBE_CYCLE[c])])
    lanes = workload.lanes()
    probe_lane = workload.lane(len(lanes))
    share = workload.primary_share
    cpus = sorted(os.sched_getaffinity(0))
    ops, window = 0, 0.0
    try:
        for index in range(ROUNDS):
            cpu = {cpus[index % len(cpus)]}
            with on_cpu(cpu if len(lanes) == 1 else None):
                done, length = run_window(rec, lanes,
                                          seconds * share / ROUNDS)
            ops += done
            window += length
            with on_cpu(cpu):
                run_probes(rec, probe_lane, cycle,
                           seconds * (1 - share) / ROUNDS)
    finally:
        for lane in [*lanes, probe_lane]:
            if lane.client is not None:
                lane.client.close()
    return ops, window


def end_to_end(rec: Recorder, setup: "list[float]", ops: int,
               window: float) -> "dict[str, float]":
    p50 = lambda c: statistics.median(rec.ms(c))  # noqa: E731
    p90 = lambda c: percentile(rec.ms(c), 90)  # noqa: E731
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": statistics.median(setup),
        "check_p50_ms": p50("check"),
        "check_p90_ms": p90("check"),
        "parallel_p50_ms": p50("parallel"),
        "edit_p50_ms": p50("edit"),
        "edit_p90_ms": p90("edit"),
        "read_p50_ms": p50("read"),
        "read_p90_ms": p90("read"),
        "query_p50_ms": p50("query"),
        "ops_per_s": ops / window,
        "peak_rss_mb": rss + rec.workload.server_rss_mb,
    }


def per_layer(rec: Recorder, tracer: "Tracer") -> "tuple[dict, list[str]]":
    metrics, errors = sweep(rec.workload, tracer)
    lookups = rec.proofs + rec.hits
    metrics["obligations.hit_ratio"] = rec.hits / lookups if lookups else 0.0
    for op_class in ("check", "edit", "read"):
        traced = statistics.median(rec.ms(op_class, traced=True))
        untraced = statistics.median(rec.ms(op_class))
        metrics[f"trace.{op_class}_overhead_ms"] = traced - untraced
    return metrics, errors


def replay_record(args: argparse.Namespace, why: str) -> "dict[str, object]":
    """What a later run needs to reproduce this one."""
    return {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "python": platform.python_version(),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "nproc": os.cpu_count(),
        "store_fsync": os.environ.get("REPRO_STORE_FSYNC",
                                      "unset (fsync on)"),
        "mp_start": os.environ.get(
            "REPRO_MP_START",
            "unset (engine picks fork while single-threaded, else "
            "forkserver)"),
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="case sizes; smoke is for the benchmark's tests")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        parser.error(f"unknown workload {args.workload!r}")
    print(json.dumps({"replay": replay_record(args, whys[args.workload])}))
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    workload = WORKLOADS[args.workload](args.seed, args.size)
    tracer = Tracer() if args.trace else None
    rec = Recorder(workload, tracer)
    try:
        workload.generate()
        setup = []
        for index in range(SETUP_REPEATS):
            workload.teardown()
            shutil.rmtree(work / f"setup{index - 1}", ignore_errors=True)
            start = time.perf_counter()
            workload.setup(work / f"setup{index}")
            setup.append(time.perf_counter() - start)
        errors = workload.before_window()
        ops, window = run_rounds(rec, args.seconds)
        errors += workload.verify_end()
        workload.teardown()
        if tracer is None:
            metrics = end_to_end(rec, setup, ops, window)
            names = spec["end_to_end"]
        else:
            metrics, sweep_errors = per_layer(rec, tracer)
            errors += sweep_errors
            names = spec["per_layer"]
            trace_file = ROOT / ".perfbench" / (
                f"trace-{args.workload}-seed{args.seed}.jsonl")
            tracer.write(trace_file)
            print(json.dumps({"self_time_s": tracer.self_times(),
                              "spans": len(tracer.spans),
                              "trace_file": str(trace_file.relative_to(ROOT))}))
    finally:
        workload.teardown()
        shutil.rmtree(work, ignore_errors=True)
    errors += workload.errors + rec.errors
    attempted = max(1, rec.attempted)
    print(json.dumps({"summary": {
        "samples": {c: len(rec.ms(c)) + len(rec.ms(c, True))
                    for c, _ in sorted(rec.samples)},
        "failed": rec.failed_by_class,
        "error_rate": rec.failed / attempted,
        "errors": errors[:5],
    }}))
    result = {
        "correct": not errors and rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in names
        },
    }
    print(json.dumps(result))
    return 0

