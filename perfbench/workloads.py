"""The benchmark workloads.

Each workload owns one generated case and implements the five
operation classes the end-to-end metrics are named after:

``check``     ``repro.check`` in the default mode
``parallel``  ``repro.check(..., mode="parallel", workers=2)``
``edit``      one editing round on a copy of the case carrying stamped
              claims: batch mutation, ``save(journal=True)``,
              ``repro.check(..., mode="incremental")``
``read``      in-process, a reader's visit to one hazard: a fresh open
              of the store and the hazard's node (one shard decoded);
              on ``service_mix``, one HTTP point read
``query``     a ranked ``search`` for a word, the words taken in turn

``service_mix`` adds ``write``: one HTTP append of a two-op delta.

A workload's *deck* holds its primary classes, the load it exists
for, and only they run in the window (each lane runs the deck in a
closed loop).  Every other class runs as a probe between slices of the
window, so every named metric is reported on every workload without
the probes sharing the window with the primary load.

Every operation checks its own output and returns ``False`` (counted
in ``error_rate``) when it is wrong; the checks a workload makes
outside the timed operations are in ``before_window``, ``before_op``
and ``verify_end``.

Pitfalls met while sizing these workloads:

* ``mode="parallel"`` starts worker processes.  With the ``forkserver``
  or ``spawn`` start method, which the engine picks as soon as the
  parent has a helper thread (see ``REPRO_MP_START``), the workers
  re-import the main module, so ``run.py`` keeps its entry point under
  ``if __name__ == "__main__"``.
* Compacting a store through a second ``StoredArgument`` handle makes
  the live argument's next ``save(journal=True)`` raise
  ``StoreConflictError``; a plain ``save(directory)`` succeeds.  The
  editor therefore bounds journal growth with a periodic full save
  instead of a compaction.  (Recorded as a candidate issue, not
  worked around in the program.)
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import threading
from pathlib import Path
from typing import Any

import repro
from repro import LinkKind, Node, NodeType, StoredArgument, check
from repro.claims import (
    OBLIGATION_KEY,
    compile_module,
    obligation_counters,
    parse_module,
)
from repro.core.analysis import shutdown_parallel_pools
from repro.core.argument import Argument, Link, MutationDelta
from repro.service import ServiceClient
from repro.service.client import ServiceClientError

import cases
from spans import OFF

#: The classes every workload reports (``write`` is ``service_mix``'s).
OP_CLASSES = ("check", "parallel", "read", "query", "edit")

#: Case sizes; ``claims`` and ``max_width`` size the proof module of
#: the traced run.  ``smoke`` is for the benchmark's own tests.
SIZES = {
    "full": {"nodes": 10_000, "stamped": 200, "claims": 300,
             "max_width": 9},
    "smoke": {"nodes": 300, "stamped": 20, "claims": 30, "max_width": 3},
}

#: Edit rounds between full saves (bounds journal growth).
FULL_SAVE_EVERY = 100
#: Edit rounds between fresh serial checks of the incremental result.
VERIFY_EVERY = 20



class Lane:
    """One closed-loop client: its own random stream and connection.

    ``n`` is the number of earlier operations of the class now running,
    which the operations use to rotate through their variants.
    """

    def __init__(self, index: int, rng: random.Random,
                 client: "ServiceClient | None" = None) -> None:
        self.index = index
        self.rng = rng
        self.client = client
        self.counts: "dict[str, int]" = {}
        self.n = 0


def violation_key(violations: Any) -> tuple:
    """Violations as comparable ``(rule, subject, detail)`` tuples."""
    return tuple(
        (v["rule"], v["subject"], v["detail"]) if isinstance(v, dict)
        else (v.rule, v.subject, v.detail)
        for v in violations
    )


def note_delta(goal: str, tag: str) -> MutationDelta:
    """A reviewer note: a context node attached to ``goal``.  Leaves
    every rule's verdict unchanged, so checks after writes still agree."""
    note = Node(f"W{tag}", NodeType.CONTEXT, f"Reviewer note {tag}")
    return MutationDelta((
        ("add_node", note),
        ("add_link", Link(goal, note.identifier, LinkKind.IN_CONTEXT_OF)),
    ))


def search_terms(argument: Argument) -> "dict[str, frozenset]":
    """Each search word with the nodes whose text contains it.  No
    search word occurs inside another word of a generated text, so this
    answers both a ``text_contains`` select and a token search."""
    return {
        word: frozenset(node.identifier for node in argument.nodes
                        if word in node.text.lower())
        for word in cases.WORDS
    }


def search_ok(hits: Any, expected: frozenset) -> bool:
    """A ranked search returned the right number of matching nodes."""
    identifiers = [hit.identifier for hit in hits]
    return (len(identifiers) == min(10, len(expected))
            and set(identifiers) <= expected)


class Editor:
    """Editing rounds on a live argument saved to a journaled store.

    With ``stamped`` evidence nodes, odd rounds replace one node's
    obligation with a fresh spec (exactly one new proof); even rounds
    are structural edits.  Every :data:`FULL_SAVE_EVERY`-th round saves
    in full instead of appending to the journal.
    """

    def __init__(self, live: Argument, store: Path, rules: Any,
                 hazards: int, stamped: "list[str]",
                 rng: random.Random) -> None:
        self.live = live
        self.store = store
        self.rules = rules
        self.hazards = hazards
        self.stamped = stamped
        self.rng = rng
        self.rounds = 0
        self.last: Any = None

    def round(self, t: Any) -> bool:
        k = self.rounds
        self.rounds += 1
        evidence = bool(self.stamped) and k % 2 == 1
        with t.span("argument.mutate", "core.argument"):
            if evidence:
                node = self.live.node(self.rng.choice(self.stamped))
                spec = cases.obligation(
                    "sat", f"e{self.rng.randrange(10**6)}r{k}", 1,
                    passes=k % 4 == 1,
                )
                self.live.replace_node(
                    node.with_metadata({OBLIGATION_KEY: (spec,)})
                )
            else:
                cases.structure_edit(self.live, self.rng, self.hazards,
                                     f"r{k}")
        if k % FULL_SAVE_EVERY == FULL_SAVE_EVERY - 1:
            with t.span("journal.full_save", "store.journal"):
                self.live.save(self.store)
        else:
            with t.span("journal.append", "store.journal"):
                self.live.save(self.store, journal=True)
        proofs_before = obligation_counters()[0]
        with t.span("checking.incremental", "checking"):
            self.last = check(self.live, self.rules, mode="incremental")
        proofs = obligation_counters()[0] - proofs_before
        return (self.last.mode == "incremental"
                and proofs == (1 if evidence else 0))

    def verify(self) -> "list[str]":
        """The incremental result equals a fresh serial check."""
        if self.last is None:
            return []
        fresh = check(self.live, self.rules, mode="serial")
        if violation_key(self.last) != violation_key(fresh):
            return [f"edit round {self.rounds}: incremental check "
                    "differs from a fresh serial check"]
        return []


class Workload:
    """A generated case plus the operation classes over it.

    ``deck`` gives the primary classes and how many operations of each
    one pass of a lane's closed loop runs, in an order shuffled per
    pass; ``primary_share`` is the share of the run the window gets.
    The other classes run as probes after each slice of the window.
    """

    name = ""
    deck: "dict[str, int]" = {}
    primary_share = 0.5

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        self.size = SIZES[size]
        self.rng = random.Random(seed)
        self.errors: "list[str]" = []
        self.server: "Server | None" = None
        self.editor: "Editor | None" = None
        self.rules: Any = repro.GSN_STANDARD_RULES
        self.reader: "StoredArgument | None" = None
        self.acked: "list[str]" = []
        self.conflicts = 0
        self.lock = threading.Lock()
        self.server_rss_mb = 0.0

    # -- life cycle ---------------------------------------------------------

    def generate(self) -> None:
        """Build the inputs.  Not timed: the program only receives them."""
        raise NotImplementedError

    def setup(self, directory: Path) -> None:
        """Program-side set-up into a fresh ``directory`` (timed)."""
        raise NotImplementedError

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def before_window(self) -> "list[str]":
        """Verify the set-up and prepare the probes (not timed)."""
        return []

    def verify_end(self) -> "list[str]":
        """The editor's last incremental result equals a fresh serial
        check, and a reload of its store equals its live argument."""
        errors = self.editor.verify()
        if StoredArgument(self.editor.store).load() != self.editor.live:
            errors.append("the reloaded store differs from the live argument")
        return errors

    def lane(self, index: int) -> Lane:
        return Lane(index, random.Random(self.seed * 7919 + index))

    def lanes(self) -> "list[Lane]":
        """One lane per deck."""
        return [self.lane(index) for index in range(len(self.decks()))]

    def decks(self) -> "list[dict[str, int]]":
        """Each lane's deck."""
        return [self.deck]

    # -- stores -------------------------------------------------------------

    @property
    def store(self) -> Path:
        """The workload's store."""
        return self.directory / "case.store"

    def edit_copy(self, live: Argument) -> None:
        """Give ``edit`` probes a copy of ``live`` in a store of their
        own, so the window keeps reading an unchanged store.  The copy
        carries a claim module binding cheap obligations to
        ``stamped`` solutions, so an evidence edit re-proves one."""
        rng = random.Random(self.seed + 1)
        editing = live.copy()
        claims = cases.claim_module(
            "editing", editing, rng,
            cases.editing_specs(self.size["stamped"]))
        compiled = compile_module(parse_module(claims.source))
        compiled.apply(editing)
        edit_store = self.directory / "edit.store"
        editing.save(edit_store)
        self.editor = Editor(editing, edit_store, compiled.rule_set,
                             self.hazards, sorted(compiled.bindings), rng)
        self.editor.last = check(editing, compiled.rule_set,
                                 mode="incremental")

    # -- the in-process operations --------------------------------------------

    def pick_goal(self, lane: Lane) -> str:
        return f"G{lane.rng.randint(1, self.hazards)}"

    def pick_word(self, lane: Lane) -> str:
        """The words in turn, so every run queries the same mix."""
        return cases.WORDS[lane.n % len(cases.WORDS)]

    def op_read(self, t: Any, lane: Lane) -> bool:
        goal = self.pick_goal(lane)
        with t.span("store.open", "store.reader"):
            handle = StoredArgument(self.store)
        with t.span("store.node", "store.reader"):
            node = handle.node(goal)
        return (node.identifier == goal
                and (handle.node_count, handle.link_count)
                == self.expected_counts)

    def op_query(self, t: Any, lane: Lane) -> bool:
        word = self.pick_word(lane)
        with t.span("search.query", "store.search"):
            hits = self.reader.search(word)
        return search_ok(hits, self.search_index[word])

    def op_edit(self, t: Any, lane: Lane) -> bool:
        return self.editor.round(t)

    def before_op(self, op_class: str, lane: Lane) -> None:
        """Untimed work an operation depends on, run before it is
        timed (only probe classes have any).  Every
        :data:`VERIFY_EVERY`-th edit round, the editor's incremental
        result is compared with a fresh serial check.  An ``edit``
        starts with nothing else waiting to be written back, so it
        times its own flush rather than whatever came before it."""
        if op_class == "edit":
            rounds = self.editor.rounds
            if rounds and rounds % VERIFY_EVERY == 0:
                self.errors.extend(self.editor.verify())
            os.sync()

    def stored_check(self, t: Any, mode: str, store: Path,
                     expected: tuple) -> bool:
        with t.span("store.open", "store.reader"):
            handle = StoredArgument(store)
        workers = 2 if mode == "parallel" else None
        with t.span(f"checking.{mode}", "checking"):
            report = check(handle, self.rules, mode=mode, workers=workers)
        return violation_key(report) == expected


# -- gate -----------------------------------------------------------------------


class Gate(Workload):
    name = "gate"
    deck = {"check": 1, "parallel": 1}
    #: The window's checks take about half a second a pair; the probes
    #: are light.
    primary_share = 0.75

    def generate(self) -> None:
        self.base = cases.gsn_argument(self.size["nodes"], self.rng, "gate")
        self.hazards = cases.gsn_hazards(self.size["nodes"])

    def setup(self, directory: Path) -> None:
        self.directory = directory
        rng = random.Random(self.seed)
        self.live = self.base.copy()
        self.live.save(self.store, search_index=True)
        for round_index in range(cases.GATE_JOURNAL_ROUNDS):
            cases.structure_edit(self.live, rng, self.hazards,
                                 f"j{round_index}")
            self.live.save(self.store, journal=True)
        StoredArgument(self.store).node_count
        shutdown_parallel_pools()
        check(StoredArgument(self.store), mode="parallel", workers=2)

    def before_window(self) -> "list[str]":
        """The streaming, parallel and serial checks agree.  Then the
        probes' state: the counts reads expect, a handle for searches
        with its index loaded, the editing copy."""
        streaming = check(StoredArgument(self.store))
        parallel = check(StoredArgument(self.store), mode="parallel",
                         workers=2)
        serial = check(StoredArgument(self.store).load(), mode="serial")
        self.expected = violation_key(streaming)
        self.expected_counts = (len(self.live), len(self.live.links))
        self.search_index = search_terms(self.live)
        self.reader = StoredArgument(self.store)
        self.reader.search(cases.WORDS[0])
        self.edit_copy(self.live)
        if (streaming.mode, parallel.mode) != ("streaming", "parallel"):
            return [f"gate ran modes {streaming.mode}/{parallel.mode}"]
        if not self.expected:
            return ["gate case has no violations to compare"]
        if violation_key(parallel) != self.expected or \
                violation_key(serial) != self.expected:
            return ["streaming, parallel and serial checks disagree"]
        return []

    def op_check(self, t: Any, lane: Lane) -> bool:
        return self.stored_check(t, "auto", self.store, self.expected)

    def op_parallel(self, t: Any, lane: Lane) -> bool:
        return self.stored_check(t, "parallel", self.store, self.expected)


# -- service_mix ----------------------------------------------------------------------


class Server:
    """``python -m repro.service ROOT --port 0`` in a child process."""

    def __init__(self, root: Path, store_name: str) -> None:
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        self.log = (root / "server.log").open("wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.service", str(root),
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=self.log, env=env,
            start_new_session=True,
        )
        line = self.process.stdout.readline().decode()
        if "http://" not in line:
            self.stop()
            raise RuntimeError(f"service did not start: {line!r}")
        self.host, port = line.rsplit("/", 1)[-1].strip().rsplit(":", 1)
        self.port = int(port)
        with self.client() as client:
            client.store(store_name)  # first 200: the store is open

    def client(self) -> ServiceClient:
        return ServiceClient(self.host, self.port)

    def peak_rss_mb(self) -> float:
        """The server's resident-set high-water mark."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        return 0.0

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(30)
            except subprocess.TimeoutExpired:
                # Killed, the service leaves its worker pool behind, so
                # kill its whole process group.
                os.killpg(self.process.pid, signal.SIGKILL)
                self.process.wait(30)
        self.process.stdout.close()
        self.log.close()


class ServiceMix(Workload):
    name = "service_mix"
    #: One client's pass: reads and appends racing, 4 to 1.  Queries,
    #: checks and edits run as probes.  Every query after an
    #: append reloads the store's search sidecar (about 0.3 s at 10k
    #: nodes on 2 cores), so at even a few percent of requests queries
    #: held the server's interpreter lock most of the time, and read and
    #: write latencies spread 30-60% between runs with how they
    #: interleaved.  As a probe each query follows an append, as
    #: on a store with writers, so ``query_p50_ms`` is that reload.
    deck = {"read": 28, "write": 7}
    #: Reads and appends take a millisecond or a few; the probes'
    #: checks and queries through the service, a few hundred.
    primary_share = 0.3
    #: Closed-loop clients, one connection each (the machine's 2 cores).
    CLIENTS = 2

    def generate(self) -> None:
        self.base = cases.gsn_argument(self.size["nodes"], self.rng,
                                       "service-mix")
        self.hazards = cases.gsn_hazards(self.size["nodes"])
        self.expected_nodes = len(self.base)
        self.search_index = search_terms(self.base)

    def setup(self, directory: Path) -> None:
        self.directory = directory
        self.base.save(self.store, search_index=True)
        self.server = Server(directory, self.store.name)

    def lane(self, index: int) -> Lane:
        lane = super().lane(index)
        lane.client = self.server.client()
        return lane

    def decks(self) -> "list[dict[str, int]]":
        return [self.deck] * self.CLIENTS

    def before_window(self) -> "list[str]":
        """Record the served store's violations and make the editing
        copy.  ``check``, ``parallel`` and ``query`` probes go through
        the service; ``edit`` probes run in-process on a copy of the
        starting case, as the served store grows with every append."""
        self.expected = violation_key(check(StoredArgument(self.store)))
        self.edit_copy(self.base)
        return []

    def op_read(self, t: Any, lane: Lane) -> bool:
        kind = lane.n % 3
        goal = self.pick_goal(lane)
        name = self.store.name
        if kind == 0:
            with t.span("service.node", "service"):
                payload = lane.client.node(name, goal)
            return payload["node"]["id"] == goal
        if kind == 1:
            with t.span("service.subtree", "service"):
                payload = lane.client.subtree(name, goal)
            return bool(payload["nodes"])
        with t.span("service.summary", "service"):
            payload = lane.client.store(name)
        return payload["nodes"] >= self.expected_nodes

    def before_op(self, op_class: str, lane: Lane) -> None:
        super().before_op(op_class, lane)
        if op_class == "query":
            self.op_write(OFF, lane)

    def op_query(self, t: Any, lane: Lane) -> bool:
        word = self.pick_word(lane)
        with t.span("service.query", "service"):
            payload = lane.client.query(self.store.name,
                                        {"text_contains": word})
        found = {node["id"] for node in payload["nodes"]}
        return found == self.search_index[word]

    def op_write(self, t: Any, lane: Lane) -> bool:
        name = self.store.name
        tag = f"c{lane.index}w{lane.n}"
        delta = note_delta(self.pick_goal(lane), tag)
        with t.span("service.append", "service"):
            while True:
                generation = lane.client.store(name)["generation"]
                try:
                    lane.client.append(name, delta,
                                       expect_generation=generation)
                    break
                except ServiceClientError as error:
                    if error.status != 409:
                        raise
                    with self.lock:
                        self.conflicts += 1
        self.acked.append(f"W{tag}")
        return True

    def http_check(self, t: Any, mode: str) -> bool:
        with self.server.client() as client:
            with t.span(f"service.check.{mode}", "service"):
                payload = client.check(
                    self.store.name, mode=mode,
                    workers=2 if mode == "parallel" else None)
        return violation_key(payload["violations"]) == self.expected

    def op_check(self, t: Any, lane: Lane) -> bool:
        return self.http_check(t, "streaming")

    def op_parallel(self, t: Any, lane: Lane) -> bool:
        return self.http_check(t, "parallel")

    def verify_end(self) -> "list[str]":
        """Every acknowledged append is in the store the service wrote,
        read once the service has stopped (keeping its peak RSS)."""
        errors = super().verify_end()
        self.server_rss_mb = self.server.peak_rss_mb()
        self.teardown()
        final = StoredArgument(self.store)
        missing = [i for i in self.acked if i not in final]
        if missing:
            errors.append(f"{len(missing)} acknowledged appends are "
                          f"missing, e.g. {missing[0]}")
        return errors


WORKLOADS: "dict[str, type[Workload]]" = {
    cls.name: cls for cls in (Gate, ServiceMix)
}
