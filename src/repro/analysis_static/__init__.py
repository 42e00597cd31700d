"""Static assurance for the engine itself: auditor + offline fsck.

The paper asks whether formal assurance arguments pay their way; since
PR 4 the engine bets its own soundness on an *informal* contract —
scoped rules promise to read only their declared context slice, and the
serial/streaming/parallel/incremental equivalence (plus PR 5's journal
replay) holds only while they keep that promise.  Until now the promise
was checked solely by the randomized dynamic oracle, on whatever inputs
it happened to sample.  Following Resolute (Gacek et al.), where
argument soundness is established by *analysis of the artifact* rather
than by testing it, and Isabelle/SACM (Foster et al.), where evidence
is machine-checked before it is trusted, this package proves the
contract statically:

* :mod:`~repro.analysis_static.auditor` — the **rule-scope auditor**:
  an AST analysis of each scoped rule's callable (closures and helper
  calls resolved one level deep) verifying the rule touches only its
  declared :class:`~repro.core.analysis.RuleContext` surface, flagging
  undeclared context access, mutation of the subject or context, and
  nondeterminism sources — structured findings with severity, rule
  name, and source location;
* :mod:`~repro.analysis_static.fsck` — **casefsck**: an offline store
  verifier that cross-checks a store directory without loading it into
  the engine (manifest schema, shard CRC-32 + content-address + id-hash
  partition, journal segment seals, torn-tail classification, orphan
  inventory matching ``gc()``'s view); the CLI lives at
  ``python -m repro.store.fsck``;
* :mod:`~repro.analysis_static.gate` — the wiring: auditing everything
  the repo ships (``GSN_STANDARD_RULES``, ``DENNEY_PAI_RULES``, the
  streaming fallacy heuristics) at import time, backing
  ``RuleSet.audit()`` and the CI ``static-analysis`` job.
"""

from .auditor import (
    KIND_MUTATION,
    KIND_NONDETERMINISM,
    KIND_UNDECLARED,
    KIND_UNREADABLE,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    AuditFinding,
    audit_rule,
    audit_rule_set,
    audit_rules,
    audit_streaming_scan,
    errors_only,
)
from .fsck import (
    FSCK_FATAL,
    FSCK_NOTE,
    FSCK_RECOVERABLE,
    FsckFinding,
    FsckReport,
    fsck_store,
)

__all__ = [
    "AuditFinding",
    "audit_rule",
    "audit_rules",
    "audit_rule_set",
    "audit_streaming_scan",
    "errors_only",
    "KIND_UNDECLARED",
    "KIND_MUTATION",
    "KIND_NONDETERMINISM",
    "KIND_UNREADABLE",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "FsckFinding",
    "FsckReport",
    "fsck_store",
    "FSCK_FATAL",
    "FSCK_RECOVERABLE",
    "FSCK_NOTE",
]
