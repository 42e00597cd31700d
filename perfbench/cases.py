"""Seeded inputs for the benchmark workloads.

Every generator takes a ``random.Random`` built from ``--seed`` and
returns plain program inputs (arguments, claim-module source, edit
rounds).  Sizes and cost-relevant counts are fixed; the seed moves
names, texts, which hazards carry context, metadata or claims, and the
order of the obligation band, so two seeds do the same amount of work
on different data.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import Argument, LinkKind, Node, NodeType

#: Words the node texts draw from, so search and text queries have
#: selectivity that differs between seeds.
WORDS = (
    "brake", "sensor", "valve", "pump", "alarm", "coolant", "software",
    "timing", "watchdog", "redundancy", "interlock", "operator",
    "firmware", "actuator", "hydraulic", "thermal", "voltage", "network",
    "torque", "pressure", "display", "override", "calibration", "fault",
)

GATE_JOURNAL_ROUNDS = 20


def _phrase(rng: random.Random, count: int = 2) -> str:
    return " ".join(rng.sample(WORDS, count))


def gsn_hazards(n: int) -> int:
    """Hazard goals ``G1..Gk`` in a :func:`gsn_argument` of ``n`` nodes."""
    return max(4, (n - 2) // 2 - n // 50)


def gsn_argument(n: int, rng: random.Random, name: str) -> Argument:
    """A GSN case of about ``n`` nodes: root goal, strategy, hazards.

    The shape of ``benchmarks/bench_graph_scale.gsn_case``: each hazard
    is a goal with one solution; about one goal in 25 carries a context
    and one in 10 a hazard annotation.  A few hazards are left
    undeveloped without the marker, so every check reports violations
    and the cross-mode comparison is over a non-empty list.
    """
    hazards = gsn_hazards(n)
    nodes = [
        Node("G0", NodeType.GOAL, "The system is acceptably safe"),
        Node("S0", NodeType.STRATEGY, "Argument over each identified hazard"),
    ]
    links: list[tuple[str, str, LinkKind]] = [
        ("G0", "S0", LinkKind.SUPPORTED_BY)
    ]
    undeveloped = set(rng.sample(range(1, hazards + 1), 3))
    for index in range(1, hazards + 1):
        goal = f"G{index}"
        metadata: tuple = ()
        if rng.random() < 0.1:
            severity = rng.choice(("catastrophic", "major", "minor"))
            metadata = (("hazard", (f"H{index}", severity)),)
        nodes.append(Node(
            goal, NodeType.GOAL,
            f"Hazard {index} of the {_phrase(rng)} is acceptably managed",
            metadata=metadata,
        ))
        links.append(("S0", goal, LinkKind.SUPPORTED_BY))
        if rng.random() < 0.04:
            context = f"C{index}"
            nodes.append(Node(context, NodeType.CONTEXT,
                              f"Operating context of the {_phrase(rng)}"))
            links.append((goal, context, LinkKind.IN_CONTEXT_OF))
        if index in undeveloped:
            continue
        solution = f"Sn{index}"
        nodes.append(Node(solution, NodeType.SOLUTION,
                          f"Verification record {_phrase(rng, 1)} VR-{index}"))
        links.append((goal, solution, LinkKind.SUPPORTED_BY))
    argument = Argument(name)
    argument.add_nodes(nodes)
    argument.add_links(links)
    return argument


def structure_edit(
    argument: Argument, rng: random.Random, hazards: int, tag: str
) -> None:
    """One batched structural edit: retext one of the ``hazards`` goals
    and add a hazard goal.

    The added goal has no solution, so it is a new violation of the
    "supported goal" rule in every rule set used here.
    """
    target = argument.node(f"G{rng.randint(1, hazards)}")
    with argument.batch():
        argument.replace_node(target.with_text(
            f"{target.text.split(' (')[0]} (revalidated {tag})"
        ))
        added = f"X{tag}"
        argument.add_node(Node(added, NodeType.GOAL,
                               f"Late hazard {tag} of the {_phrase(rng)} holds"))
        argument.add_link("S0", added, LinkKind.SUPPORTED_BY)


# -- claim modules --------------------------------------------------------


@dataclass(frozen=True)
class ClaimCase:
    """A claim module plus what its obligations must do.

    ``failing`` names the evidence nodes whose obligation is built to
    fail; every other bound obligation is built to discharge.
    ``formulas`` lists the ``(kind, body)`` of the propositional
    ``sat``/``valid`` obligations, which the traced run feeds straight
    to the logic layer.
    """

    source: str
    obligations: int
    failing: frozenset
    formulas: tuple


def _dnf(atoms: list[str], contradictory: bool) -> str:
    """``(a1 & b1) | ... | (aw & bw)``; ``(a & ~a)`` terms when
    ``contradictory``, so the formula is unsatisfiable."""
    parts = []
    for index in range(0, len(atoms), 2):
        a, b = atoms[index], atoms[index + 1]
        parts.append(f"({a} & ~{a})" if contradictory else f"({a} & {b})")
    return " | ".join(parts)


def _cnf(atoms: list[str], tautology: bool) -> str:
    """``(a1 | ~a1) & ...`` (valid) or ``(a1 | b1) & ...`` (not valid).

    Its negation is a DNF, so ``valid`` pays the same distributive
    blow-up as ``sat`` on a DNF of the same width.
    """
    parts = []
    for index in range(0, len(atoms), 2):
        a, b = atoms[index], atoms[index + 1]
        parts.append(f"({a} | ~{a})" if tautology else f"({a} | {b})")
    return " & ".join(parts)


def obligation(kind: str, tag: str, width: int, passes: bool) -> str:
    """One obligation spec of ``kind`` whose outcome is ``passes``.

    Atom names carry ``tag`` so no two specs share a cache entry.
    """
    atoms = [f"{name}{tag}_{i}" for i in range(width) for name in ("p", "q")]
    if kind == "sat":
        return f"sat: {_dnf(atoms, contradictory=not passes)}"
    if kind == "valid":
        return f"valid: {_cnf(atoms, tautology=passes)}"
    p, q = f"p{tag}", f"q{tag}"
    if kind == "entails":
        return (f"entails: {p} -> {q} ; {p} |- {q}" if passes
                else f"entails: {p} -> {q} ; {q} |- {p}")
    if kind == "fol":
        axiom = f"forall x:S{tag}. P{tag}(x)" if passes else f"P{tag}(a{tag})"
        return (f"fol: sort S{tag} = a{tag}, b{tag}, c{tag} ; "
                f"pred P{tag}(S{tag}) ; axiom {axiom} |- P{tag}(b{tag})")
    if kind == "ltl":
        trace = f"{p} ; {q} ; ." if passes else f"{p} ; . ; ."
        return f"ltl: G ({p} -> F {q}) @ {trace}"
    raise ValueError(f"unknown obligation kind {kind!r}")


def claim_module(
    name: str,
    argument: Argument,
    rng: random.Random,
    specs: "list[tuple[str, int, bool]]",
) -> ClaimCase:
    """A module binding one obligation per solution ``Sn<i>``.

    ``specs`` lists ``(kind, width, passes)`` per bound obligation; the
    seed shuffles which solution gets which.  Every bound solution's
    goal becomes a declared, supported claim.
    """
    solutions = sorted(
        (node.identifier for node in argument.nodes
         if node.node_type is NodeType.SOLUTION),
        key=lambda identifier: int(identifier[2:]),
    )
    chosen = rng.sample(solutions, len(specs))
    lines = [f"module {name}", ""]
    evidence: list[str] = []
    failing = set()
    formulas = []
    for identifier, (kind, width, passes) in zip(chosen, specs):
        index = identifier[2:]
        goal = argument.node(f"G{index}")
        lines.append(f'claim G{index} "{goal.text}" supported')
        spec = obligation(kind, f"{index}x{rng.randrange(1000)}", width,
                          passes)
        evidence.append(f'evidence {identifier} {kind} "{spec.split(": ", 1)[1]}"')
        if not passes:
            failing.add(identifier)
        if kind in ("sat", "valid"):
            formulas.append((kind, spec.split(": ", 1)[1]))
    lines += [
        "",
        "rule goals-cite-support require supported goal",
        "rule no-cycles          require acyclic",
        "rule one-root           require single_root",
        "",
        *evidence,
    ]
    return ClaimCase("\n".join(lines) + "\n", len(specs), frozenset(failing),
                     tuple(formulas))


def proofs_specs(rng: random.Random, claims: int, max_width: int) -> list:
    """The proof module's obligation mix: a ``sat``/``valid`` width ramp
    (2 .. ``max_width`` disjuncts, once per kind and outcome) plus
    small obligations of all five kinds; one in five is built to fail."""
    specs = [
        (kind, width, passes)
        for kind in ("sat", "valid")
        for passes in (True, False)
        for width in range(2, max_width + 1)
    ]
    kinds = ("sat", "valid", "entails", "fol", "ltl")
    for index in range(claims - len(specs)):
        round_ = index // len(kinds)
        specs.append((kinds[index % len(kinds)], 1 + round_ % 2,
                      round_ % 5 != 0))
    rng.shuffle(specs)
    return specs


def editing_specs(claims: int) -> list:
    """Cheap obligations for the stamped claims of the edited copy."""
    kinds = ("sat", "entails", "ltl", "valid", "fol")
    return [(kinds[index % 5], 1, True) for index in range(claims)]
