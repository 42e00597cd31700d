"""The traced run's layer sweep: direct, timed calls into each layer.

End-to-end operations go through ``repro.check`` and the service, which
hide where their time goes.  The sweep calls each layer's public
functions directly on the workload's own case, inside spans of one
operation, and reports the per-layer metrics named in
``BENCHMARK.json``.  Repeated calls report their median.  Where a
workload's case gives a layer no work (the gate binds no obligations,
say), the metric is the measured cost of that empty call.

Obligation results are cached in-process, so the ``analysis.*`` and
``checking.*`` calls run with a warm cache and measure the rule
engine.  Parallel workers keep their own caches, so
``analysis.parallel_*`` include proofs on cases that bind obligations.
``claims.*``, ``obligations.*`` and ``logic.*`` measure a seeded proof
module, the same on every workload (see :func:`_claims_and_logic`).
"""

from __future__ import annotations

import random
import statistics
import time
from pathlib import Path
from typing import Any, Callable

import repro
from repro import IncrementalChecker, StoredArgument, run_rules
from repro.claims import (
    OBLIGATION_KEY,
    compile_module,
    discharge,
    obligation_counters,
    parse_module,
    reset_obligation_cache,
)
from repro.claims.obligations import obligation_specs
from repro.core.analysis import shutdown_parallel_pools
from repro.core.query import select, text_contains
from repro.logic.propositional import Not, cnf_clauses, parse
from repro.logic.sat import solve

import cases
from workloads import (
    Server,
    Workload,
    note_delta,
    search_terms,
    violation_key,
)

REPEATS = 3
POINT_READS = 30
EDIT_ROUNDS = 10


def _store_bytes(store: Path) -> int:
    return sum(path.stat().st_size for path in store.iterdir()
               if path.is_file())


class Sweep:
    """Times each call inside a span and keeps the medians."""

    def __init__(self, tracer: Any) -> None:
        self.t = tracer
        self.metrics: "dict[str, float]" = {}
        self.errors: "list[str]" = []

    def time(self, name: str, layer: str, call: Callable[[], Any]) -> Any:
        """One timed call; returns ``(seconds, result)``."""
        with self.t.span(name, layer):
            start = time.perf_counter()
            result = call()
            seconds = time.perf_counter() - start
        return seconds, result

    def median_ms(self, metric: str, layer: str,
                  call: Callable[[], Any], repeats: int = REPEATS) -> Any:
        samples = []
        for _ in range(repeats):
            seconds, result = self.time(metric, layer, call)
            samples.append(seconds)
        self.metrics[metric] = statistics.median(samples) * 1e3
        return result


def sweep(workload: Workload, tracer: Any) -> "tuple[dict, list[str]]":
    """Run every direct layer call on ``workload``'s case.

    Runs after the workload's own operations and its end verification,
    with any service stopped; it edits and appends to the store.
    """
    s = Sweep(tracer)
    with tracer.operation("layer-sweep"):
        _store_reader(s, workload)
        _analysis(s, workload)
        _claims_and_logic(s, workload)
        _query_and_search(s, workload)
        _editing(s, workload)
        _service(s, workload)
    return s.metrics, s.errors


def _store_reader(s: Sweep, w: Workload) -> None:
    m = s.metrics
    handle = s.median_ms("store.open_ms", "store.reader",
                         lambda: StoredArgument(w.store))
    records = s.median_ms(
        "store.decode_ms", "store.reader",
        lambda: sum(1 for _ in StoredArgument(w.store).iter_node_records()),
    )

    def hydrate() -> int:
        fresh = StoredArgument(w.store)
        return sum(1 for _ in fresh.iter_nodes()) + \
            sum(1 for _ in fresh.iter_links())

    s.median_ms("store.hydrate_ms", "store.reader", hydrate)
    m["store.records"] = records
    m["store.bytes_per_node"] = _store_bytes(w.store) / handle.node_count
    rng = random.Random(w.seed)
    goals = [f"G{rng.randint(1, w.hazards)}" for _ in range(POINT_READS)]
    handle.node(goals[0])
    nodes = [s.time("store.node_ms", "store.reader",
                    lambda g=g: handle.node(g))[0] for g in goals]
    subtrees = [s.time("store.subtree_ms", "store.reader",
                       lambda g=g: handle.subtree(g))[0] for g in goals]
    m["store.node_ms"] = statistics.median(nodes) * 1e3
    m["store.subtree_ms"] = statistics.median(subtrees) * 1e3


def _analysis(s: Sweep, w: Workload) -> None:
    m = s.metrics
    scoped = tuple(w.rules.rules)
    hydrated = StoredArgument(w.store).load()
    run_rules(hydrated, scoped, mode="serial")  # warm the proof cache
    serial = s.median_ms("analysis.serial_ms", "core.analysis",
                         lambda: run_rules(hydrated, scoped, mode="serial"))
    streaming = s.median_ms(
        "analysis.streaming_ms", "core.analysis",
        lambda: run_rules(StoredArgument(w.store), scoped, mode="streaming"),
    )
    shutdown_parallel_pools()

    def parallel() -> Any:
        return run_rules(StoredArgument(w.store), scoped, mode="parallel",
                         workers=2)

    seconds, first = s.time("analysis.parallel_first_ms", "core.analysis",
                            parallel)
    m["analysis.parallel_first_ms"] = seconds * 1e3
    warm = s.median_ms("analysis.parallel_ms", "core.analysis", parallel)
    m["analysis.violations"] = len(serial)
    if not (violation_key(serial) == violation_key(streaming)
            == violation_key(first) == violation_key(warm)):
        s.errors.append("serial, streaming and parallel run_rules disagree")

    # checking: the facade's own cost over run_rules in the same mode.
    checks, rules = [], []
    for _ in range(REPEATS):
        checks.append(s.time(
            "checking.check", "checking",
            lambda: repro.check(StoredArgument(w.store), w.rules))[0])
        rules.append(s.time(
            "checking.run_rules", "core.analysis",
            lambda: run_rules(StoredArgument(w.store), scoped,
                              mode="streaming"))[0])
    m["checking.report_ms"] = (statistics.median(checks)
                               - statistics.median(rules)) * 1e3


def _claims_and_logic(s: Sweep, w: Workload) -> None:
    """The proof module: 300 claims over the workload's argument, all
    five obligation kinds, a ``sat``/``valid`` width ramp of 2-9
    disjuncts, one in five built to fail.  Compiled, discharged per
    kind, checked cold (every obligation proved exactly once, the
    failures exactly the ones built to fail), and its propositional
    formulas fed to the logic layer directly."""
    m = s.metrics
    rng = random.Random(w.seed + 4)
    case = cases.claim_module(
        "proofs", w.base, rng,
        cases.proofs_specs(rng, w.size["claims"], w.size["max_width"]),
    )
    compiled = s.median_ms("claims.compile_ms", "claims.compiler",
                           lambda: compile_module(parse_module(case.source)))
    by_kind: "dict[str, list]" = {}
    for _, obligation in compiled.obligations():
        by_kind.setdefault(obligation.kind, []).append(obligation)
    total = 0.0
    for kind in ("sat", "valid", "entails", "fol", "ltl"):
        seconds, _ = s.time(
            f"obligations.{kind}_ms", "claims.obligations",
            lambda k=kind: [discharge(o) for o in by_kind[k]],
        )
        m[f"obligations.{kind}_ms"] = seconds * 1e3
        total += seconds
    m["obligations.discharge_ms"] = total * 1e3

    stamped = w.base.copy()
    compiled.apply(stamped)
    reset_obligation_cache()
    _, report = s.time("checking.cold_check", "checking",
                       lambda: repro.check(stamped, compiled))
    m["obligations.proved"] = obligation_counters()[0]
    failed = {outcome.evidence for outcome in report.failed}
    if m["obligations.proved"] != case.obligations or failed != case.failing:
        s.errors.append(
            f"a cold check proved {m['obligations.proved']} of "
            f"{case.obligations} obligations; {len(failed)} failed where "
            f"{len(case.failing)} were built to fail")

    formulas = [parse(body) if kind == "sat" else Not(parse(body))
                for kind, body in case.formulas]
    seconds, clause_sets = s.time(
        "logic.cnf_ms", "logic", lambda: [cnf_clauses(f) for f in formulas])
    m["logic.cnf_ms"] = seconds * 1e3
    sizes = [len(clauses) for clauses in clause_sets]
    m["logic.cnf_clauses"] = sum(sizes)
    m["logic.cnf_max_clauses"] = max(sizes)
    seconds, _ = s.time("logic.solve_ms", "logic",
                        lambda: [solve(clauses) for clauses in clause_sets])
    m["logic.solve_ms"] = seconds * 1e3


def _query_and_search(s: Sweep, w: Workload) -> None:
    handle = StoredArgument(w.store)
    words = random.Random(w.seed).sample(cases.WORDS, REPEATS)
    selects = iter(words)
    found = []
    s.median_ms("query.select_ms", "core.query",
                lambda: found.append(select(handle,
                                            text_contains(next(selects)))))
    expected = search_terms(handle.load())
    for word, nodes in zip(words, found):
        if {node.identifier for node in nodes} != expected[word]:
            s.errors.append(f"select text_contains {word!r} returned "
                            "other nodes than contain it")
    searches = iter(words)
    s.median_ms("search.query_ms", "store.search",
                lambda: handle.search(next(searches)))


def _editing(s: Sweep, w: Workload) -> None:
    """Edit rounds on a live argument loaded from the store, then
    direct journal appends through a second handle (last: they leave the
    live argument behind the store)."""
    m = s.metrics
    live = StoredArgument(w.store).load()
    scoped = tuple(w.rules.rules)
    stamped = sorted(node.identifier for node in live.nodes
                     if obligation_specs(node))
    checker = IncrementalChecker(live, scoped)
    checker.check()
    rng = random.Random(w.seed + 2)
    mutate, append, incremental, grown = [], [], [], 0
    for k in range(EDIT_ROUNDS):

        def edit(k: int = k) -> None:
            if stamped and k % 2:
                node = live.node(rng.choice(stamped))
                spec = cases.obligation("sat", f"s{k}", 1, passes=True)
                live.replace_node(node.with_metadata({OBLIGATION_KEY: (spec,)}))
            else:
                cases.structure_edit(live, rng, w.hazards, f"s{k}")

        mutate.append(s.time("argument.mutate_ms", "core.argument", edit)[0])
        before = _store_bytes(w.store)
        append.append(s.time("journal.append_ms", "store.journal",
                             lambda: live.save(w.store, journal=True))[0])
        grown += _store_bytes(w.store) - before
        incremental.append(s.time("analysis.incremental_ms", "core.analysis",
                                  checker.check)[0])
    m["argument.mutate_ms"] = statistics.median(mutate) * 1e3
    m["journal.append_ms"] = statistics.median(append) * 1e3
    m["analysis.incremental_ms"] = statistics.median(incremental) * 1e3
    m["journal.bytes_per_edit"] = grown / EDIT_ROUNDS
    m["journal.segments"] = len(StoredArgument(w.store).journal_segments)
    if violation_key(checker.check()) != violation_key(
            run_rules(live, scoped, mode="serial")):
        s.errors.append("incremental checker differs from a serial check")
    s.median_ms("journal.full_save_ms", "store.journal",
                lambda: live.save(w.store))
    handle = StoredArgument(w.store)
    tags = iter(range(REPEATS))
    s.median_ms("journal.append_delta_ms", "store.journal",
                lambda: handle.append_delta(
                    note_delta("G1", f"sweep{next(tags)}")))


def _service(s: Sweep, w: Workload) -> None:
    """Round trips to a fresh service over the workload's store."""
    m = s.metrics
    server = Server(w.store.parent, w.store.name)
    name = w.store.name
    rng = random.Random(w.seed + 3)
    try:
        with server.client() as client:
            goals = [f"G{rng.randint(1, w.hazards)}"
                     for _ in range(POINT_READS)]
            for metric, call in (
                ("service.node_rtt_ms", lambda g: client.node(name, g)),
                ("service.subtree_rtt_ms", lambda g: client.subtree(name, g)),
                ("service.summary_rtt_ms", lambda g: client.store(name)),
            ):
                samples = [s.time(metric, "service", lambda g=g: call(g))[0]
                           for g in goals]
                m[metric] = statistics.median(samples) * 1e3
            words = rng.sample(cases.WORDS, REPEATS)
            s.median_ms("service.query_rtt_ms", "service",
                        lambda: client.query(
                            name, {"text_contains": words[0]}))
            # Each search follows an append, as searches do on a store
            # with writers: the append moves the service to a new
            # snapshot, and the search pays for loading its sidecar.
            appends, searches = [], []
            for index, word in enumerate(words):
                generation = client.store(name)["generation"]
                appends.append(s.time(
                    "service.append_rtt_ms", "service",
                    lambda: client.append(
                        name, note_delta("G1", f"rtt{index}"),
                        expect_generation=generation))[0])
                searches.append(s.time(
                    "service.search_rtt_ms", "service",
                    lambda: client.search(name, word))[0])
            m["service.append_rtt_ms"] = statistics.median(appends) * 1e3
            m["service.search_rtt_ms"] = statistics.median(searches) * 1e3
        m["service.server_rss_mb"] = max(server.peak_rss_mb(),
                                         w.server_rss_mb)
    finally:
        server.stop()
    m["service.framing_ms"] = m["service.node_rtt_ms"] - m["store.node_ms"]
    m["service.conflict_ratio"] = w.conflicts / max(1, len(w.acked))
