"""Scoped rule analysis over arguments and stored arguments.

Every well-formedness rule declares *how much of the graph it needs*
(its :class:`Scope`), and one engine runs a rule set over a live
:class:`~repro.core.argument.Argument` or a
:class:`~repro.store.StoredArgument` — the latter without hydration.

The scoped-rule contract
========================

``Scope.NODE`` (:func:`per_node`)
    ``fn(node, ctx) -> list[Violation]``.  The rule sees one
    :class:`~repro.core.nodes.Node` at a time.  Beyond the node itself it
    may ask the context only :meth:`RuleContext.cites_support` *about
    that node* — whether the node is the source of at least one
    SupportedBy link.  It must not reach for other nodes or links.

``Scope.LINK`` (:func:`per_link`)
    ``fn(link, ctx) -> list[Violation]``.  The rule sees one
    :class:`~repro.core.argument.Link` and may ask the context only
    :meth:`RuleContext.node_type` *of the link's own endpoints*.

``Scope.GLOBAL`` (:func:`global_rule`)
    ``fn(ctx) -> list[Violation]``.  The rule needs whole-graph services:
    :meth:`RuleContext.roots`, :meth:`RuleContext.find_cycle`, the
    support-reachability probes, and :attr:`RuleContext.name`.

The locality restrictions are what buy the execution modes: because a
node rule touches one node plus one bit of context and a link rule
touches one link plus two node types, any partition of the node and link
streams evaluates independently.

One context (:class:`RuleContext`)
==================================

Every rule reads the same concrete class: a dict sidecar holding node
types, insertion order, SupportedBy out/in *counts*, and SupportedBy
adjacency.  Node texts and metadata are never retained.  The engine
builds it four ways:

* **serial** — from a live argument's ``links`` then ``nodes``, through
  :meth:`RuleContext.add_link` and :meth:`RuleContext.add_node`;
* **streaming** — the same calls, fed by one pass over a store's link
  shards and one over its node shards; :meth:`RuleContext.finalise`
  then sorts the streamed nodes into insertion order (shards interleave
  their sequence numbers);
* **parallel** — the parent merges the node and link columns its
  workers ship back; each worker judges its node rules against a small
  context built from its own link shard;
* **incremental** — patched record by record with
  :meth:`RuleContext.apply_op`, from a live argument's delta log or a
  store's append journal alike.

Execution modes (:func:`run_rules`)
===================================

``serial`` / ``streaming``
    Synonyms for one path.  Links first (filling the sidecar's support
    aggregates and buffering the lightweight link triples), then nodes
    (registering types and running node rules as records arrive), then
    link rules over the buffer and the global rules.  A
    :class:`~repro.store.StoredArgument` is checked **without
    hydration**: every shard parses exactly once, sequentially (no heap
    merge), and memory stays O(sidecar + links) — no
    :class:`~repro.core.argument.Argument` is constructed.  A live
    argument reports ``serial``, a stored one ``streaming``.

``parallel``
    Stored arguments only.  A **self-balancing work queue** over
    ``concurrent.futures`` worker processes, one task per node shard.
    The parent pins its handle's :class:`~repro.store.StoreGeneration`
    and ships the token to every worker, which reopens the store *at
    that generation* (journal segments appended mid-check are rewound
    away; a base rotated by a concurrent compaction or a coalesced
    journal raises ``StoreConflictError`` naming both generations —
    never a silent mix of snapshots).  Each task parses its link shard —
    links shard by source id with the same hash as nodes, so one link
    shard yields exactly its node shard's support counts — then its
    node shard, running node rules, and ships both fragments back as
    flat value columns (far cheaper to pickle than Node/Link objects).
    The parent parses nothing: it merges the columns into its sidecar in
    completion order and judges link rules grouped by (source shard,
    target shard) the moment both endpoint type fragments land — link
    work overlaps the remaining shard scans.  Global rules run in the
    parent after the merge.  A worker exception cancels every
    not-yet-started task (``cancel_futures``) and re-raises with the
    failing shard noted on the exception.  Worker start method: ``fork``
    only while the parent is single-threaded, otherwise
    ``forkserver``/``spawn``; the ``REPRO_MP_START`` environment
    variable overrides the choice.  A live argument — or fewer than two
    effective workers — runs the serial/streaming path instead and
    reports the mode it used.

``incremental`` (:class:`IncrementalChecker`)
    A stateful checker over a live argument (consuming
    :meth:`~repro.core.argument.Argument.delta_since`) or, via
    :meth:`IncrementalChecker.from_store`, a persisted case (consuming
    its append journal, :mod:`repro.store.journal`).  Both patch the
    same sidecar with the same records; per-rule violation maps are
    cached by subject and only the touched subjects re-evaluate, plus
    the global rules.  A rotated delta log, a compaction, or a full
    rewrite of the store forces one rebuild.  A store-backed checker
    never hydrates: the odd node it must re-judge comes from the
    store's lazy per-shard lookup.

To check a hydrated copy of a stored case, check ``stored.load()``.

All modes produce the same violation list: rules in rule-set order, and
within one rule the violations in canonical ``(subject, detail)`` order —
so results are directly comparable across modes, processes, and storage.

The rule-authoring contract (statically enforced)
=================================================

Everything above holds **only if rules keep their scope promises** — the
mode equivalence is a theorem about rules that read nothing beyond their
declared context slice.  The contract a rule author signs, and that the
rule-scope auditor (:mod:`repro.analysis_static`) verifies from the
rule's AST at definition time:

*What a scoped rule may read.*  A rule may read **its subject** (the
one node or link it was handed — any attribute) and **its context
surface** — exactly the :class:`RuleContext` attributes
:data:`SCOPE_SURFACE` lists for its scope:

========  ==========================================================
scope     ``RuleContext`` surface
========  ==========================================================
node      ``name``, ``cites_support`` (about the subject node only)
link      ``name``, ``node_type`` (of the link's own endpoints only)
global    ``name``, ``node_type``, ``cites_support``, ``roots``,
          ``find_cycle``, ``has_support``, ``supported_walk``
========  ==========================================================

Everything on that table is answered from the sidecar without
hydrating a stored case.  The shared module-level helpers
:func:`iter_subject_nodes` / :func:`iter_subject_links` are likewise
stream-safe for whole-argument scans.

*What a scoped rule may not do.*  Rules are pure functions of
``(subject, permitted context)``:

* **no undeclared context access** — asking the context anything
  outside the scope's surface breaks partitioning (a parallel worker's
  context holds only its own shard's support counts);
* **no mutation** — assigning to, deleting from, or calling mutators on
  the subject or the context corrupts the sidecar other rules read;
* **no nondeterminism** — ``time``/``random``/``id()`` reads or
  iteration over sets feeding the violation output make the modes
  (and journal replays) disagree.

*How to interpret auditor findings.*  The auditor emits structured
findings (``kind``, ``severity``, rule name, ``file:line``):
``undeclared-context-access``, ``mutation`` and ``nondeterminism`` are
errors in every scope; ``unreadable-source`` is a warning (the auditor
could not obtain the callable's AST — C functions, interactively
defined rules).  ``RuleSet.audit()`` runs the auditor over a whole rule
set, and :mod:`repro.analysis_static.gate` re-audits everything the
repo ships at import time.

*Formal obligations.*  A rule may carry **formal proof work** — the
claim language (:mod:`repro.claims`) binds evidence nodes to SAT /
propositional-entailment / finite-domain-FOL / LTL problems — but only
inside the contract: obligations ride on the subject node's
``metadata`` (under :data:`repro.claims.obligations.OBLIGATION_KEY`),
so the shipped discharge rule is an ordinary **per-node** rule reading
nothing but its subject.  Discharge must be a *pure, total,
deterministic* function of the spec text: a malformed spec becomes a
deterministic violation, never an exception, and proof results may be
cached only under a content fingerprint of the spec (sha256 — never
:func:`hash`, which varies per process) so that parallel workers,
journal replays, and fresh processes agree byte-for-byte.  Under those
terms every execution mode discharges identically, and the incremental
checker's touched-node refresh re-proves exactly the obligations an
edit reached — the selective-re-proof property the claims benchmarks
measure.

This module is also the home of the shared storage duck-typing helpers
(:func:`is_stored_argument`, :func:`ensure_argument`,
:func:`iter_subject_nodes`, :func:`iter_subject_links`) that
:mod:`repro.core.wellformed` and :mod:`repro.core.query` previously each
reimplemented.  They stay duck-typed so this module never imports
:mod:`repro.store` (which imports it transitively).
"""

from __future__ import annotations

import enum
import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

from .argument import Argument, Link, LinkKind
from .nodes import Node, NodeType

__all__ = [
    "Violation",
    "Scope",
    "ScopedRule",
    "SCOPE_SURFACE",
    "per_node",
    "per_link",
    "global_rule",
    "RuleContext",
    "run_rules",
    "IncrementalChecker",
    "is_stored_argument",
    "ensure_argument",
    "iter_subject_nodes",
    "iter_subject_links",
]


@dataclass(frozen=True)
class Violation:
    """One rule violation found in an argument."""

    rule: str
    subject: str  # node identifier or link rendering
    detail: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.subject}: {self.detail}"


class Scope(enum.Enum):
    """How much of the graph a rule needs (see the module docstring)."""

    NODE = "node"
    LINK = "link"
    GLOBAL = "global"


#: The stream-safe :class:`RuleContext` surface per scope — the
#: rule-authoring contract's single source of truth, shared between this
#: module's documentation and the static rule-scope auditor
#: (:mod:`repro.analysis_static.auditor`).  Every attribute listed here
#: is answered from sidecar aggregates without hydrating a stored case.
SCOPE_SURFACE: "dict[Scope, frozenset[str]]" = {
    Scope.NODE: frozenset({"name", "cites_support"}),
    Scope.LINK: frozenset({"name", "node_type"}),
    Scope.GLOBAL: frozenset({
        "name", "node_type", "cites_support", "roots", "find_cycle",
        "has_support", "supported_walk",
    }),
}

@dataclass(frozen=True)
class ScopedRule:
    """A named well-formedness rule with a declared evaluation scope.

    ``fn`` takes ``(node, ctx)``, ``(link, ctx)``, or ``(ctx)`` depending
    on ``scope`` and returns a list of :class:`Violation`.  For parallel
    execution ``fn`` must be a module-level function (worker processes
    import it by qualified name); global rules always run in the parent
    process, so closures are fine there.

    ``node_types`` (node rules) and ``link_kind`` (link rules) are
    optional *dispatch filters*: the engine only invokes ``fn`` for
    subjects matching them, which on a 100k-element stream saves tens of
    thousands of no-op calls.  A filter is a promise, not a check — it
    must be consistent with ``fn`` (the rule can only ever fire on
    matching subjects); ``fn`` should still guard itself so direct calls
    stay correct.

    ``delta_fn`` (global rules only) is the optional *incremental hook*:
    ``delta_fn(ctx, records, previous)`` receives the mutation records
    since the last check and the rule's previous violations, and returns
    the new violations — or ``None`` to decline, in which case the
    checker falls back to the full ``fn``.  It must return exactly what
    ``fn`` would.
    """

    name: str
    description: str
    scope: Scope
    fn: Callable[..., "list[Violation]"]
    node_types: "frozenset[NodeType] | None" = None
    link_kind: "LinkKind | None" = None
    delta_fn: "Callable[..., list[Violation] | None] | None" = None


def per_node(
    name: str,
    description: str,
    fn: Callable[..., "list[Violation]"],
    *,
    node_types: "Iterable[NodeType] | None" = None,
) -> ScopedRule:
    """A rule evaluated once per node (see the scoped-rule contract)."""
    return ScopedRule(
        name, description, Scope.NODE, fn,
        node_types=None if node_types is None else frozenset(node_types),
    )


def per_link(
    name: str,
    description: str,
    fn: Callable[..., "list[Violation]"],
    *,
    kind: "LinkKind | None" = None,
) -> ScopedRule:
    """A rule evaluated once per link (see the scoped-rule contract)."""
    return ScopedRule(
        name, description, Scope.LINK, fn, link_kind=kind,
    )


def global_rule(
    name: str,
    description: str,
    fn: Callable[..., "list[Violation]"],
    *,
    delta_fn: "Callable[..., list[Violation] | None] | None" = None,
) -> ScopedRule:
    """A rule needing whole-graph services (roots, cycles, reachability)."""
    return ScopedRule(name, description, Scope.GLOBAL, fn, delta_fn=delta_fn)


# -- shared storage duck-typing helpers ------------------------------------


def is_stored_argument(subject: Any) -> bool:
    """True for duck-typed ``StoredArgument`` handles.

    Probes the store-specific streaming surface (``iter_nodes`` +
    ``iter_links`` + ``load``), not just a generic ``load`` attribute:
    ``AssuranceCase`` and arbitrary objects also have ``load`` methods
    and must *not* be mis-dispatched.
    """
    return (
        not isinstance(subject, Argument)
        and hasattr(subject, "iter_nodes")
        and hasattr(subject, "iter_links")
        and hasattr(subject, "load")
    )


def ensure_argument(subject: Any) -> Argument:
    """A live in-memory argument — the hydration *fallback*.

    Live arguments pass through; stored arguments hydrate via their
    shard-streaming ``load()``.  Anything else gets a clear TypeError.
    """
    if isinstance(subject, Argument):
        return subject
    if is_stored_argument(subject):
        return subject.load()
    raise TypeError(
        "expected an Argument or a StoredArgument, got "
        f"{type(subject).__name__}"
    )


def iter_subject_nodes(subject: Any) -> Iterator[Node]:
    """Stream nodes from a live or stored argument, insertion-ordered."""
    if isinstance(subject, Argument):
        return iter(subject.nodes)
    if is_stored_argument(subject):
        return subject.iter_nodes()
    raise TypeError(
        "expected an Argument or a StoredArgument, got "
        f"{type(subject).__name__}"
    )


def iter_subject_links(subject: Any) -> Iterator[Link]:
    """Stream links from a live or stored argument, insertion-ordered."""
    if isinstance(subject, Argument):
        return iter(subject.links)
    if is_stored_argument(subject):
        return subject.iter_links()
    raise TypeError(
        "expected an Argument or a StoredArgument, got "
        f"{type(subject).__name__}"
    )


# -- the rule context -------------------------------------------------------


def _bump(counts: dict[str, int], key: str, delta: int) -> None:
    value = counts.get(key, 0) + delta
    if value:
        counts[key] = value
    else:
        counts.pop(key, None)


def _colouring_cycle(
    ordered: Iterable[str], adjacency: "dict[str, dict[str, None]]"
) -> "list[str] | None":
    """One white/grey/black DFS over a SupportedBy adjacency map.

    Mirrors ``Argument._iter_supported_by_back_edges`` — same start
    order, same neighbour order — so every mode reports the identical
    cycle rendering.
    """
    colour: dict[str, int] = {}
    path: list[str] = []
    path_index: dict[str, int] = {}
    for start in ordered:
        if colour.get(start, 0):
            continue
        colour[start] = 1
        path_index[start] = len(path)
        path.append(start)
        stack: list[tuple[str, Iterator[str]]] = [
            (start, iter(adjacency.get(start, ())))
        ]
        while stack:
            identifier, targets = stack[-1]
            advanced = False
            for target in targets:
                state = colour.get(target, 0)
                if state == 1:
                    return path[path_index[target]:]
                if state == 0:
                    colour[target] = 1
                    path_index[target] = len(path)
                    path.append(target)
                    stack.append(
                        (target, iter(adjacency.get(target, ())))
                    )
                    advanced = True
                    break
            if not advanced:
                colour[identifier] = 2
                path.pop()
                del path_index[identifier]
                stack.pop()
    return None


class RuleContext:
    """What a scoped rule may ask about the graph around its subject.

    A dict sidecar: node types, insertion order, per-node SupportedBy
    out/in counts (counts, not bits — removing one of two support links
    must not clear the flag), and the SupportedBy adjacency the global
    rules walk.  Memory is O(types + support links).  The module
    docstring lists the four ways the engine builds one.
    """

    __slots__ = (
        "name", "types", "order", "out_support", "in_support",
        "adjacency", "_streamed",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.types: dict[str, NodeType] = {}
        self.order: dict[str, None] = {}
        self.out_support: dict[str, int] = {}
        self.in_support: dict[str, int] = {}
        self.adjacency: dict[str, dict[str, None]] = {}
        self._streamed: list[tuple[int, str]] = []

    # -- building -------------------------------------------------------

    def add_link(self, link: Link) -> None:
        """Count one link into the support aggregates."""
        if link.kind is LinkKind.SUPPORTED_BY:
            source, target = link.source, link.target
            self.out_support[source] = self.out_support.get(source, 0) + 1
            self.in_support[target] = self.in_support.get(target, 0) + 1
            self.adjacency.setdefault(source, {})[target] = None

    def add_node(self, seq: int, identifier: str, node_type: NodeType) -> None:
        """Register a node; ``seq`` is its global insertion rank."""
        self.types[identifier] = node_type
        self._streamed.append((seq, identifier))

    def finalise(self) -> None:
        """Fix insertion order once every :meth:`add_node` is in."""
        self._streamed.sort()
        self.order = dict.fromkeys(
            (identifier for _, identifier in self._streamed), None
        )
        self._streamed = []

    def apply_op(self, op: str, payload: Any) -> None:
        """Patch the sidecar with one delta or journal record."""
        if op == "add_node":
            identifier = payload.identifier
            self.types[identifier] = payload.node_type
            # A re-added identifier must order last, like a live
            # argument's insertion-ordered dict.
            self.order.pop(identifier, None)
            self.order[identifier] = None
        elif op == "remove_node":
            # Incident links were removed by earlier records of the
            # same delta (remove_node logs them first).
            self.types.pop(payload.identifier, None)
            self.order.pop(payload.identifier, None)
        elif op == "replace_node":
            _, new = payload
            self.types[new.identifier] = new.node_type
        elif op == "add_link":
            self.add_link(payload)
        elif op == "remove_link" and payload.kind is LinkKind.SUPPORTED_BY:
            _bump(self.out_support, payload.source, -1)
            _bump(self.in_support, payload.target, -1)
            targets = self.adjacency.get(payload.source)
            if targets is not None:
                targets.pop(payload.target, None)

    # -- what rules may ask (see SCOPE_SURFACE) ---------------------------

    def node_type(self, identifier: str) -> NodeType:
        """The type of a node — for link rules, the link's endpoints."""
        return self.types[identifier]

    def cites_support(self, identifier: str) -> bool:
        """Does the node source at least one SupportedBy link?"""
        return identifier in self.out_support

    def roots(self) -> list[str]:
        """Claim-like nodes with no incoming support (global rules only)."""
        return [
            identifier
            for identifier in self.order
            if self.types[identifier].is_claim_like
            and identifier not in self.in_support
        ]

    def find_cycle(self) -> "list[str] | None":
        """A SupportedBy cycle, if any (global rules only)."""
        return _colouring_cycle(self.order, self.adjacency)

    def has_support(self, source: str, target: str) -> bool:
        """Is there a SupportedBy link ``source -> target``?  (Global
        rules and their delta hooks only.)"""
        return target in self.adjacency.get(source, ())

    def supported_walk(self, start: str) -> Iterator[str]:
        """Identifiers reachable from ``start`` over SupportedBy links,
        ``start`` included (global delta hooks only)."""
        seen = {start}
        stack = [start]
        while stack:
            identifier = stack.pop()
            yield identifier
            for target in self.adjacency.get(identifier, ()):
                if target not in seen:
                    seen.add(target)
                    stack.append(target)


# -- the engine -------------------------------------------------------------


_MODES = ("auto", "serial", "streaming", "parallel")

_IndexedRules = list[tuple[int, ScopedRule]]


def _split_rules(
    rules: Sequence[ScopedRule],
) -> tuple[_IndexedRules, _IndexedRules, _IndexedRules]:
    node_rules: _IndexedRules = []
    link_rules: _IndexedRules = []
    global_rules: _IndexedRules = []
    for index, rule in enumerate(rules):
        if rule.scope is Scope.NODE:
            node_rules.append((index, rule))
        elif rule.scope is Scope.LINK:
            link_rules.append((index, rule))
        else:
            global_rules.append((index, rule))
    return node_rules, link_rules, global_rules


def _node_dispatch(
    node_rules: _IndexedRules,
) -> "dict[NodeType, _IndexedRules]":
    """Node rules applicable per node type (the dispatch-filter table)."""
    return {
        node_type: [
            (index, rule)
            for index, rule in node_rules
            if rule.node_types is None or node_type in rule.node_types
        ]
        for node_type in NodeType
    }


def _link_dispatch(
    link_rules: _IndexedRules,
) -> "dict[LinkKind, _IndexedRules]":
    """Link rules applicable per link kind (the dispatch-filter table)."""
    return {
        kind: [
            (index, rule)
            for index, rule in link_rules
            if rule.link_kind is None or rule.link_kind is kind
        ]
        for kind in LinkKind
    }


def _judge_nodes(
    nodes: Iterable[Node],
    dispatch: "dict[NodeType, _IndexedRules]",
    ctx: RuleContext,
    buckets: list[list[Violation]],
) -> None:
    """Run each node's applicable rules, collecting by rule index."""
    for node in nodes:
        for index, rule in dispatch[node.node_type]:
            found = rule.fn(node, ctx)
            if found:
                buckets[index].extend(found)


def _judge_links(
    links: Iterable[Link],
    dispatch: "dict[LinkKind, _IndexedRules]",
    ctx: RuleContext,
    buckets: list[list[Violation]],
) -> None:
    """Run each link's applicable rules, collecting by rule index."""
    for link in links:
        for index, rule in dispatch[link.kind]:
            found = rule.fn(link, ctx)
            if found:
                buckets[index].extend(found)


def _violation_key(violation: Violation) -> tuple[str, str]:
    return (violation.subject, violation.detail)


def _assemble(buckets: list[list[Violation]]) -> list[Violation]:
    """Rule-set order outside, canonical (subject, detail) order inside."""
    out: list[Violation] = []
    for bucket in buckets:
        bucket.sort(key=_violation_key)
        out.extend(bucket)
    return out


def run_rules(
    subject: Any,
    rules: Sequence[ScopedRule],
    *,
    mode: str = "auto",
    workers: int | None = None,
) -> list[Violation]:
    """Evaluate scoped rules over a live or stored argument.

    ``mode`` is one of ``auto``, ``serial``/``streaming`` (synonyms —
    one process, no hydration), or ``parallel`` (a work queue over
    process workers for stored subjects, checked at the handle's pinned
    generation; ``workers`` defaults to the CPU count and
    ``REPRO_MP_START`` overrides the worker start method).  A live
    argument, or fewer than two effective workers, runs the
    serial/streaming path.  Every mode returns the identical violation
    list.
    """
    return _run_rules(subject, rules, mode, workers)[1]


def _run_rules(
    subject: Any,
    rules: Sequence[ScopedRule],
    mode: str = "auto",
    workers: int | None = None,
) -> tuple[str, list[Violation]]:
    """:func:`run_rules`, also naming the mode it actually used."""
    if mode not in _MODES:
        raise ValueError(f"unknown analysis mode {mode!r} (not in {_MODES})")
    rules = tuple(rules)
    if isinstance(subject, Argument):
        return "serial", _run_serial(
            subject.name, subject.links, enumerate(subject.nodes), rules
        )
    if not is_stored_argument(subject):
        raise TypeError(
            "expected an Argument or a StoredArgument, got "
            f"{type(subject).__name__}"
        )
    if mode == "parallel":
        effective = workers if workers is not None else (os.cpu_count() or 1)
        if effective >= 2:
            return "parallel", _run_parallel(subject, rules, effective)
    shards = range(subject.shard_count)
    return "streaming", _run_serial(
        subject.name,
        map(itemgetter(1), chain.from_iterable(
            map(subject.iter_shard_links, shards)
        )),
        chain.from_iterable(map(subject.iter_shard_nodes, shards)),
        rules,
    )


def _registered(
    ctx: RuleContext, nodes: Iterable[tuple[int, Node]]
) -> Iterator[Node]:
    """Yield ``(seq, node)`` records' nodes, registering each in ``ctx``."""
    for seq, node in nodes:
        ctx.add_node(seq, node.identifier, node.node_type)
        yield node


def _run_serial(
    name: str,
    links: Iterable[Link],
    nodes: Iterable[tuple[int, Node]],
    rules: tuple[ScopedRule, ...],
) -> list[Violation]:
    """The serial/streaming path: links, then nodes, then link rules.

    One pass over the links fills the sidecar's support aggregates and
    buffers the lightweight link triples; one pass over the
    ``(seq, node)`` records registers types and runs node rules as
    records arrive (a stored argument's node payloads are never
    retained); link rules then judge the buffer against the complete
    type map, and the global rules the finished sidecar.  For a stored
    argument each shard is parsed exactly once, in shard order —
    canonical output order makes record order irrelevant, and the
    insertion order roots and cycles need comes from each node's seq.
    """
    node_rules, link_rules, global_rules = _split_rules(rules)
    ctx = RuleContext(name)
    buffered = list(links)
    for link in buffered:
        ctx.add_link(link)
    buckets: list[list[Violation]] = [[] for _ in rules]
    _judge_nodes(
        _registered(ctx, nodes), _node_dispatch(node_rules), ctx, buckets
    )
    ctx.finalise()
    if link_rules:
        _judge_links(buffered, _link_dispatch(link_rules), ctx, buckets)
    for index, rule in global_rules:
        buckets[index].extend(rule.fn(ctx))
    return _assemble(buckets)


# -- parallel execution -----------------------------------------------------


def _mp_context() -> Any:
    """Pick the worker-pool start method the parent can afford.

    ``fork`` keeps worker start cheap and inherits ``sys.path`` and
    imports — but forking a multi-threaded parent is undefined
    behaviour (the child may inherit held locks mid-operation), and the
    asyncio service checks stores from executor threads.  So ``fork``
    is used only while the parent is single-threaded; any live helper
    thread switches to ``forkserver`` (POSIX) or ``spawn``.  Every
    worker task function and every shipped rule callable is
    module-level precisely so the spawn path can import them by
    qualified name.  The ``REPRO_MP_START`` environment variable
    overrides the selection (``fork`` / ``forkserver`` / ``spawn``; CI
    pins it to exercise each path) — an unknown name raises
    ``ValueError`` loudly rather than falling back.
    """
    import multiprocessing

    override = os.environ.get("REPRO_MP_START")
    if override:
        return multiprocessing.get_context(override)
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods and _foreign_thread_count() == 1:
        return multiprocessing.get_context("fork")
    for method in ("forkserver", "spawn"):
        if method in methods:
            return multiprocessing.get_context(method)
    return None  # pragma: no cover - no known platform lands here


#: Thread-name prefixes of the pool machinery this engine (and the
#: stdlib executor underneath it) runs itself.  ``ProcessPoolExecutor``
#: forks additional workers while its own manager and queue-feeder
#: threads are live, so these do not disqualify ``fork``; any *other*
#: live thread does.
_POOL_THREAD_PREFIXES = (
    "ExecutorManagerThread", "QueueFeederThread", "QueueManagerThread",
)


def _foreign_thread_count() -> int:
    """Live threads that are not the engine's own pool machinery."""
    return sum(
        1
        for thread in threading.enumerate()
        if not thread.name.startswith(_POOL_THREAD_PREFIXES)
    )


#: Idle worker pools kept warm between parallel checks, keyed by
#: ``(start method, max workers)``.  Spinning a pool up costs more than
#: checking a mid-sized store, so the engine checks a pool *out* for
#: the duration of one run and returns it afterwards — a "persistent"
#: pool in the work-queue sense: the same worker processes pull shard
#: tasks across however many checks the parent issues.  A pool that
#: saw a failure is shut down instead of returned (its queue was
#: cancelled mid-flight), and concurrent checks simply build a second
#: pool rather than share one.
_IDLE_POOLS: "dict[tuple[str, int], ProcessPoolExecutor]" = {}
_IDLE_POOLS_LOCK = threading.Lock()


def _acquire_pool(
    workers: int,
) -> "tuple[tuple[str, int], ProcessPoolExecutor]":
    context = _mp_context()
    method = context.get_start_method() if context is not None else "default"
    key = (method, workers)
    with _IDLE_POOLS_LOCK:
        pool = _IDLE_POOLS.pop(key, None)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
    return key, pool


def _release_pool(key: "tuple[str, int]", pool: ProcessPoolExecutor) -> None:
    with _IDLE_POOLS_LOCK:
        if key not in _IDLE_POOLS:
            _IDLE_POOLS[key] = pool
            return
    # A concurrent check already parked a pool under this key: let the
    # spare wind down (idle workers exit; nothing is waited on).
    pool.shutdown(wait=False)


def shutdown_parallel_pools() -> None:
    """Shut down every cached idle worker pool (tests, service exit)."""
    with _IDLE_POOLS_LOCK:
        pools = list(_IDLE_POOLS.values())
        _IDLE_POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=False)


def _note_failure(error: BaseException, detail: str) -> None:
    """Attach the failing work unit to the error (``add_note``, 3.11+)."""
    note = getattr(error, "add_note", None)
    if note is not None:
        note(detail)


#: Enum members keyed by wire value, for rebuilding shipped rows.
_NODE_TYPE_BY_VALUE = {member.value: member for member in NodeType}
_LINK_KIND_BY_VALUE = {member.value: member for member in LinkKind}

#: What one shard-scan task returns to the parent: node-rule buckets,
#: the node fragment as ``(seqs, ids, type values)`` columns, and the
#: link shard as ``(sources, targets, kind values)`` columns.  Flat
#: str/int columns pickle far cheaper than Node/Link objects (or even
#: per-record tuples), and the parent merges them into its sidecar
#: while workers keep scanning.
_ScanResult = tuple[
    "list[list[Violation]]",
    "tuple[list[int], list[str], list[Any]]",
    "tuple[list[str], list[str], list[Any]]",
]


#: The worker-process handle cache: one open ``StoredArgument`` keyed
#: by (directory, generation, torn-tail decision).  Pool workers are
#: persistent, so every scan task of a run — and of later runs over
#: the same snapshot — reuses one verified handle instead of re-reading
#: the manifest and re-parsing the journal overlay per task.  A cache
#: hit is a pinned reader that already verified its generation at open
#: time; content-addressed files keep serving it until an explicit gc.
_SCAN_HANDLE: "tuple[tuple[str, str, bool], Any] | None" = None


def _scan_handle(
    directory: str, generation: Any, ignore_torn_tail: bool
) -> Any:
    global _SCAN_HANDLE
    # Runtime import: repro.store imports this module transitively.
    from ..store.reader import StoredArgument

    key = (directory, str(generation), ignore_torn_tail)
    if _SCAN_HANDLE is not None and _SCAN_HANDLE[0] == key:
        return _SCAN_HANDLE[1]
    handle = StoredArgument(
        directory, ignore_torn_tail=ignore_torn_tail, generation=generation
    )
    _SCAN_HANDLE = (key, handle)
    return handle


def _stored_scan_task(
    directory: str,
    index: int,
    node_rules: tuple[ScopedRule, ...],
    generation: Any = None,
    ignore_torn_tail: bool = False,
) -> _ScanResult:
    """One shard's scan — the work-queue unit of the parallel path.

    The worker opens the store **at the parent's pinned generation**
    (opening verifies the token and rewinds any journal segments
    appended mid-check, so every worker parses the one committed
    snapshot the parent pinned — a rotated base raises
    ``StoreConflictError`` instead of silently mixing generations).  It
    then parses only shard ``index``: the link shard first, into a
    small :class:`RuleContext` — links shard by *source* id with the
    same hash as nodes, so the shard's SupportedBy counts cover exactly
    its own nodes — then the node shard, judging node rules against
    that context.  Both fragments return as flat value columns; the
    parent owns every cross-shard judgement.
    """
    stored = _scan_handle(directory, generation, ignore_torn_tail)
    ctx = RuleContext(stored.name)
    sources: list[str] = []
    targets: list[str] = []
    kinds: list[Any] = []
    for _, link in stored.iter_shard_links(index):
        ctx.add_link(link)
        sources.append(link.source)
        targets.append(link.target)
        kinds.append(link.kind.value)
    records = list(stored.iter_shard_nodes(index))
    nodes = [node for _, node in records]
    buckets: list[list[Violation]] = [[] for _ in node_rules]
    _judge_nodes(
        nodes, _node_dispatch(list(enumerate(node_rules))), ctx, buckets
    )
    return (
        buckets,
        (
            [seq for seq, _ in records],
            [node.identifier for node in nodes],
            [node.node_type.value for node in nodes],
        ),
        (sources, targets, kinds),
    )


def _run_parallel(
    stored: Any, rules: tuple[ScopedRule, ...], workers: int
) -> list[Violation]:
    """Work-queue parallel check of a stored argument.

    One scan task per shard, pulled from the pool's queue on demand —
    a skewed shard occupies one worker while the rest keep draining
    the queue.  The parent pins the handle's generation and ships the
    token to every worker (snapshot isolation: concurrent appends
    rewind, concurrent compaction raises ``StoreConflictError``).

    The parent parses nothing.  It merges each worker's columns into
    its sidecar in completion order and groups links by (source shard,
    target shard); a group is judged the moment both its endpoint
    shards' type fragments have arrived, overlapping the remaining
    shard scans.  Global rules run after the merge.  The first worker
    failure cancels every not-yet-started task and re-raises with the
    failing shard noted on the exception.
    """
    # Runtime import: repro.store imports this module transitively.
    from ..store.format import shard_of

    node_rules, link_rules, global_rules = _split_rules(rules)
    node_fns = tuple(rule for _, rule in node_rules)
    link_dispatch = _link_dispatch(link_rules)
    directory = str(stored.path)
    # Workers reopen the store themselves at the parent's pinned
    # generation; a torn-tail-recovered parent handle must also hand
    # its recovery decision down or the workers raise.
    torn_tail = bool(getattr(stored, "ignore_torn_tail", False))
    generation = stored.pin()
    shard_count = stored.shard_count
    buckets: list[list[Violation]] = [[] for _ in rules]
    ctx = RuleContext(stored.name)
    arrived: set[int] = set()
    #: Links grouped by (source shard, target shard); judgeable once
    #: both shards' type fragments have merged.
    pending: dict[tuple[int, int], list[Link]] = {}

    def _judge(pair: "tuple[int, int]") -> None:
        try:
            _judge_links(pending.pop(pair), link_dispatch, ctx, buckets)
        except BaseException as error:
            _note_failure(
                error,
                f"parallel check: link rules over shard {pair[0]} -> "
                f"shard {pair[1]} links failed (store {directory})",
            )
            raise

    pool_key, pool = _acquire_pool(workers)
    try:
        scans: "dict[Future[_ScanResult], int]" = {
            pool.submit(
                _stored_scan_task, directory, index, node_fns,
                generation, torn_tail,
            ): index
            for index in range(shard_count)
        }
        for job in as_completed(scans):
            index = scans[job]
            try:
                node_parts, node_cols, link_cols = job.result()
            except BaseException as error:
                _note_failure(
                    error,
                    f"parallel check: scan of shard {index} failed "
                    f"(store {directory})",
                )
                raise
            for (rule_index, _), part in zip(node_rules, node_parts):
                buckets[rule_index].extend(part)
            for seq, identifier, type_value in zip(*node_cols):
                ctx.add_node(seq, identifier, _NODE_TYPE_BY_VALUE[type_value])
            # Sources are disjoint across link shards (sharded by
            # source id) and columns keep shard seq order, so merging
            # preserves per-source adjacency order.
            for source, target, kind_value in zip(*link_cols):
                link = Link(source, target, _LINK_KIND_BY_VALUE[kind_value])
                ctx.add_link(link)
                if link_rules:
                    pending.setdefault(
                        (index, shard_of(target, shard_count)), []
                    ).append(link)
            arrived.add(index)
            for pair in [
                pair for pair in pending
                if pair[0] in arrived and pair[1] in arrived
            ]:
                _judge(pair)
        for pair in sorted(pending):
            # Unreachable for in-range shards (every scan arrived);
            # kept so an out-of-contract store fails loudly here rather
            # than silently dropping links.
            _judge(pair)
        ctx.finalise()
        for rule_index, rule in global_rules:
            buckets[rule_index].extend(rule.fn(ctx))
    except BaseException:
        # Surface the failure immediately: cancel every queued task and
        # retire this pool (its workers may still be draining cancelled
        # state) instead of running the backlog to completion.
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    _release_pool(pool_key, pool)
    return _assemble(buckets)


# -- incremental checking ---------------------------------------------------


class IncrementalChecker:
    """Re-check only what the mutation delta touched, plus global rules.

    Holds per-rule violation maps keyed by subject (node identifier for
    node rules, the :class:`~repro.core.argument.Link` itself for link
    rules), storing only non-empty entries.  :meth:`check` patches the
    :class:`RuleContext` sidecar with the records since the last check
    — a live argument's
    :meth:`~repro.core.argument.Argument.delta_since`, or a stored
    case's append journal (:meth:`from_store`) — and re-evaluates
    exactly the touched subjects:

    * added nodes/links evaluate fresh; removed ones drop their entries;
    * a replaced node re-evaluates its node rules, and — when its *type*
      changed — the link rules of every link touching it;
    * any link mutation re-evaluates the node rules of both endpoints
      (support-dependent rules like ``undeveloped-unmarked`` read them).

    Global rules refresh on every :meth:`check` (through their delta
    hooks where offered), and a rotated delta log — or, for a store, a
    compaction or full rewrite — forces one rebuild, so the result
    always equals a fresh full check.  Besides the sidecar the checker
    keeps a link index (all links, by source and by target) to find
    what a retype must re-judge.
    """

    def __init__(
        self, argument: Argument, rules: Iterable[ScopedRule]
    ) -> None:
        if not isinstance(argument, Argument):
            raise TypeError(
                "IncrementalChecker needs a live Argument, got "
                f"{type(argument).__name__} (for a StoredArgument use "
                "IncrementalChecker.from_store)"
            )
        self._setup(argument, None, rules)

    @classmethod
    def from_store(
        cls, stored: Any, rules: Iterable[ScopedRule]
    ) -> "IncrementalChecker":
        """A checker over a persisted case — no hydration, ever.

        Builds the violation maps with one streaming pass over the
        store (journal replayed), then each :meth:`check` consumes only
        the journal records appended since — the deltas
        ``Argument.save(journal=True)`` persists.  ``stored.hydrated``
        stays ``False``: single-node re-evaluation uses lazy per-shard
        lookups.  A compaction or full rewrite of the store (a new
        base-shard generation) triggers one streaming rebuild.
        """
        if not is_stored_argument(stored):
            raise TypeError(
                "from_store needs a StoredArgument, got "
                f"{type(stored).__name__}"
            )
        checker = cls.__new__(cls)
        checker._setup(None, stored, rules)
        return checker

    def _setup(
        self, argument: "Argument | None", stored: Any,
        rules: Iterable[ScopedRule],
    ) -> None:
        self._argument = argument
        self._stored = stored
        self._rules = tuple(rules)
        self._node_rules, self._link_rules, self._global_rules = \
            _split_rules(self._rules)
        # Dispatch tables indexed by slot (position within the scope).
        self._node_dispatch = _node_dispatch(
            list(enumerate(rule for _, rule in self._node_rules))
        )
        self._link_dispatch = _link_dispatch(
            list(enumerate(rule for _, rule in self._link_rules))
        )
        self._links: dict[Link, None] = {}
        self._out_links: dict[str, dict[Link, None]] = {}
        self._in_links: dict[str, dict[Link, None]] = {}
        self._node_hits: list[dict[str, tuple[Violation, ...]]] = [
            {} for _ in self._node_rules
        ]
        self._link_hits: list[dict[Link, tuple[Violation, ...]]] = [
            {} for _ in self._link_rules
        ]
        self._global_hits: list[tuple[Violation, ...]] = [
            () for _ in self._global_rules
        ]
        self._seq = -1
        self._base_key: Any = None
        self._journal_key: tuple[str, ...] = ()
        self._rebuild()

    @property
    def argument(self) -> "Argument | None":
        """The live argument, or ``None`` for a store-backed checker."""
        return self._argument

    def _index_link(self, op: str, link: Link) -> None:
        if op == "add_link":
            self._links[link] = None
            self._out_links.setdefault(link.source, {})[link] = None
            self._in_links.setdefault(link.target, {})[link] = None
        elif op == "remove_link":
            self._links.pop(link, None)
            self._out_links.get(link.source, {}).pop(link, None)
            self._in_links.get(link.target, {}).pop(link, None)

    def _rebuild(self) -> None:
        """One pass over the subject: sidecar, link index, violations.

        Links first (the support aggregates node rules read), then
        nodes (judged as they stream — a store's node payloads are not
        retained), then link rules over the link index and the global
        rules over the finished sidecar.  For a store this is the
        streaming check's cost, paid at attach and again only if the
        base shards are replaced underneath the checker.
        """
        subject = self._stored if self._argument is None else self._argument
        ctx = self._ctx = RuleContext(subject.name)
        self._links.clear()
        self._out_links.clear()
        self._in_links.clear()
        for node_hits in self._node_hits:
            node_hits.clear()
        for link_hits in self._link_hits:
            link_hits.clear()
        for link in iter_subject_links(subject):
            ctx.add_link(link)
            self._index_link("add_link", link)
        for seq, node in enumerate(iter_subject_nodes(subject)):
            ctx.add_node(seq, node.identifier, node.node_type)
            self._refresh_node(node)
        ctx.finalise()
        for link in self._links:
            self._refresh_link(link)
        for slot, (_, rule) in enumerate(self._global_rules):
            self._global_hits[slot] = tuple(rule.fn(ctx))
        if self._argument is not None:
            self._seq = self._argument.mutation_seq
        else:
            self._seq = len(self._stored.journal_ops())
            self._base_key = self._stored.base_key()
            self._journal_key = tuple(self._stored.journal_segments)

    def _refresh_node(self, node: Node) -> None:
        found: list[list[Violation]] = [[] for _ in self._node_hits]
        _judge_nodes((node,), self._node_dispatch, self._ctx, found)
        for hits, violations in zip(self._node_hits, found):
            if violations:
                hits[node.identifier] = tuple(violations)
            else:
                hits.pop(node.identifier, None)

    def _refresh_link(self, link: Link) -> None:
        found: list[list[Violation]] = [[] for _ in self._link_hits]
        _judge_links((link,), self._link_dispatch, self._ctx, found)
        for hits, violations in zip(self._link_hits, found):
            if violations:
                hits[link] = tuple(violations)
            else:
                hits.pop(link, None)

    def _drop_node(self, identifier: str) -> None:
        for hits in self._node_hits:
            hits.pop(identifier, None)

    def _drop_link(self, link: Link) -> None:
        for hits in self._link_hits:
            hits.pop(link, None)

    def _pending_records(self) -> "tuple[tuple[str, Any], ...] | None":
        """Records since the last check, or ``None`` to force a rebuild.

        A live argument's bounded delta log may have rotated past the
        cursor.  A store is re-read first (``refresh()``); anything but
        a pure journal extension forces a rebuild — the base shards
        unchanged *and* the consumed segment names a prefix of the
        current journal.  Position alone is not enough, because a
        compaction can reproduce identical base shards (the names are
        content-addressed) while resetting the journal, after which a
        regrown journal of the same length holds different records.
        """
        if self._argument is not None:
            delta = self._argument.delta_since(self._seq)
            if delta is None:
                return None
            self._seq = self._argument.mutation_seq
            return delta.records
        stored = self._stored
        stored.refresh()
        segments = tuple(stored.journal_segments)
        if (
            stored.base_key() != self._base_key
            or segments[:len(self._journal_key)] != self._journal_key
        ):
            return None
        ops = stored.journal_ops()
        if len(ops) < self._seq:  # torn-tail recovery shrank the journal
            return None
        records = tuple(ops[self._seq:])
        self._seq = len(ops)
        self._journal_key = segments
        return records

    def _apply(self, records: tuple[tuple[str, Any], ...]) -> None:
        for op, payload in records:
            self._ctx.apply_op(op, payload)
            self._index_link(op, payload)
        types = self._ctx.types
        touched_nodes: set[str] = set()
        touched_links: set[Link] = set()
        for op, payload in records:
            if op == "add_node":
                touched_nodes.add(payload.identifier)
            elif op == "remove_node":
                self._drop_node(payload.identifier)
                touched_nodes.discard(payload.identifier)
            elif op == "replace_node":
                old, new = payload
                touched_nodes.add(new.identifier)
                if old.node_type is not new.node_type:
                    # A retype can flip link-rule verdicts on every link
                    # touching the node.
                    touched_links.update(
                        self._out_links.get(new.identifier, ())
                    )
                    touched_links.update(
                        self._in_links.get(new.identifier, ())
                    )
            elif op == "add_link":
                touched_links.add(payload)
                touched_nodes.add(payload.source)
                touched_nodes.add(payload.target)
            elif op == "remove_link":
                self._drop_link(payload)
                touched_links.discard(payload)
                touched_nodes.add(payload.source)
                touched_nodes.add(payload.target)
        for identifier in touched_nodes:
            if identifier not in types:
                self._drop_node(identifier)
            elif self._argument is not None:
                self._refresh_node(self._argument.node(identifier))
            else:
                self._refresh_node(self._stored.node(identifier))
        for link in touched_links:
            if link in self._links:
                self._refresh_link(link)
            else:
                self._drop_link(link)

    def _update_globals(
        self, records: tuple[tuple[str, Any], ...]
    ) -> None:
        """Refresh global rules, via their incremental hooks if offered."""
        for slot, (_, rule) in enumerate(self._global_rules):
            found: "list[Violation] | None" = None
            if rule.delta_fn is not None:
                found = rule.delta_fn(
                    self._ctx, records, self._global_hits[slot]
                )
            if found is None:  # no hook, or the hook declined
                found = rule.fn(self._ctx)
            self._global_hits[slot] = tuple(found)

    def check(self) -> list[Violation]:
        """Current violations; output identical to a fresh full check.

        With no mutations since the last call this is pure cache
        assembly; after mutations only touched subjects re-evaluate,
        global rules refresh through their incremental hooks (falling
        back to full evaluation), and a rotated delta log (or, for a
        store-backed checker, a replaced base-shard generation) forces
        a complete rebuild.
        """
        records = self._pending_records()
        if records is None:
            self._rebuild()
        elif records:
            self._apply(records)
            self._update_globals(records)
        buckets: list[list[Violation]] = [[] for _ in self._rules]
        for slot, (index, _) in enumerate(self._node_rules):
            for found in self._node_hits[slot].values():
                buckets[index].extend(found)
        for slot, (index, _) in enumerate(self._link_rules):
            for found in self._link_hits[slot].values():
                buckets[index].extend(found)
        for slot, (index, _) in enumerate(self._global_rules):
            buckets[index].extend(self._global_hits[slot])
        return _assemble(buckets)

    def is_well_formed(self) -> bool:
        return not self.check()
