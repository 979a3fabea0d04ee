//! The stable lint-code registry.
//!
//! Codes are grouped by layer prefix: `IR` (typed bit-vector IR), `SMT`
//! (hash-consed term DAG), `SAT` (clause database and models), `CFG`
//! (unrolled DAGs and basis extraction), `HYB` (switching-logic guards),
//! `OGS` (component-based synthesized programs). Numbers are never reused;
//! retired codes stay reserved.

/// Use of a register with no dominating definition.
pub const IR001: &str = "IR001";
/// Width violation: function width outside 1..=64, or an immediate operand
/// that does not fit in the declared width.
pub const IR002: &str = "IR002";
/// Terminator malformation: jump/branch to a missing block, or an empty
/// function.
pub const IR003: &str = "IR003";
/// Register index out of the function's declared range.
pub const IR004: &str = "IR004";
/// Back edge in a function required to be loop-free.
pub const IR005: &str = "IR005";
/// Block unreachable from the entry block.
pub const IR006: &str = "IR006";

/// Recomputed sort of a term disagrees with the pool's recorded sort.
pub const SMT001: &str = "SMT001";
/// Hash-consing integrity: two distinct ids with structurally equal terms.
pub const SMT002: &str = "SMT002";
/// Dangling term reference: a child id that is not strictly older than its
/// parent (append-only pools force children to precede parents).
pub const SMT003: &str = "SMT003";
/// Extract/extend bounds malformed (hi < lo, hi ≥ width, or target width
/// smaller than the operand's).
pub const SMT004: &str = "SMT004";

/// Clause literal over a variable outside the solver's range.
pub const SAT001: &str = "SAT001";
/// Tautological clause (contains both x and ¬x).
pub const SAT002: &str = "SAT002";
/// Duplicate literal within one clause.
pub const SAT003: &str = "SAT003";
/// Certifying model check failed: a clause evaluates to false under the
/// claimed satisfying assignment.
pub const SAT004: &str = "SAT004";
/// Model malformed: wrong length for the variable count.
pub const SAT005: &str = "SAT005";

/// Cycle among DAG edges (the "DAG" is not acyclic).
pub const CFG001: &str = "CFG001";
/// Node unreachable from the source or unable to reach the sink.
pub const CFG002: &str = "CFG002";
/// Basis rank exceeds the ambient path-space dimension.
pub const CFG003: &str = "CFG003";
/// Basis path incoherent: edges do not form a source→sink walk.
pub const CFG004: &str = "CFG004";
/// Basis paths linearly dependent (claimed rank not achieved).
pub const CFG005: &str = "CFG005";

/// Guard count does not match the transition count.
pub const HYB001: &str = "HYB001";
/// Guard dimension differs from the state dimension.
pub const HYB002: &str = "HYB002";
/// Guard bound is NaN.
pub const HYB003: &str = "HYB003";
/// Empty guard on a learnable transition (the transition can never fire).
pub const HYB004: &str = "HYB004";
/// Guard vertex off the structure hypothesis' grid.
pub const HYB005: &str = "HYB005";
/// Transition endpoint references a missing mode.
pub const HYB006: &str = "HYB006";
/// Guard not contained in the supplied mode-invariant/domain box.
pub const HYB007: &str = "HYB007";

/// Operand references its own or a later line (synthesized program has a
/// cycle / is not in topological order).
pub const OGS001: &str = "OGS001";
/// Operand or output index outside the program's value range.
pub const OGS002: &str = "OGS002";
/// Line operand count does not match the component's arity.
pub const OGS003: &str = "OGS003";
/// Output arity does not match the library's output count.
pub const OGS004: &str = "OGS004";
/// Certifying re-evaluation failed: the program disagrees with a recorded
/// input/output example.
pub const OGS005: &str = "OGS005";

/// Portfolio winner's model falsifies a clause in a member's clause
/// database (original or learnt — learnt clauses are implied, so a
/// genuine model satisfies every member's database).
pub const PAR001: &str = "PAR001";
/// Portfolio verdict disagrees with an independent sequential re-solve,
/// or an UNSAT-under-assumptions outcome lacks a failed-assumption
/// witness.
pub const PAR002: &str = "PAR002";
/// Shared query-cache counters incoherent (insertions exceeding misses,
/// or evictions exceeding insertions).
pub const PAR003: &str = "PAR003";

/// Budget receipt records a counter exceeding its declared limit (a
/// forged overrun — refuse-at-limit metering can never spend past a
/// limit).
pub const BUD001: &str = "BUD001";
/// An `Unknown` verdict's exhaustion cause is not certified by any
/// parked budget receipt.
pub const BUD002: &str = "BUD002";
/// Budget receipt's logical clock differs from the sum of its counters.
pub const BUD003: &str = "BUD003";

/// An injected-fault exhaustion cause is not reproducible from the fault
/// plan's seed (the pure fault decision disagrees with the recorded
/// injection).
pub const FLT001: &str = "FLT001";
/// A faulted run's verdict flips a clean run's verdict (faults may only
/// degrade Known to Unknown, never change a Known answer).
pub const FLT002: &str = "FLT002";

/// A claimed refutation fails DRAT replay: a step is not RUP, or the
/// proof/CNF text is malformed.
pub const PRF001: &str = "PRF001";
/// A claimed refutation never derives the empty clause (truncated or
/// dropped final step).
pub const PRF002: &str = "PRF002";
/// A proof deletes a clause that is not in the live database (forged
/// deletion).
pub const PRF003: &str = "PRF003";
/// An SMT certificate's blasting map or assumption set is inconsistent
/// with its CNF (stale or tampered map).
pub const PRF004: &str = "PRF004";

/// A checkpoint journal diverges from its run: structural
/// self-consistency fails, the wire format does not round-trip, or a
/// replayed prefix disagrees with what the journal recorded.
pub const REC001: &str = "REC001";
/// A circuit breaker's audited state or event log is not reproducible
/// from its operation log (a forged grant or fabricated transition).
pub const REC002: &str = "REC002";
/// A retry event's backoff charge differs from the deterministic
/// schedule derived from the policy seed, or a retry was recorded for
/// attempt 0 (first tries are never retries).
pub const REC003: &str = "REC003";
/// A server protocol transcript is malformed: a job was served without
/// being admitted, a (tenant, id) pair appears twice, or a served
/// receipt fails its own coherence check.
pub const SRV001: &str = "SRV001";
/// A served verdict diverges from direct re-execution of the same job
/// through the library — the server-never-changes-verdicts invariant.
pub const SRV002: &str = "SRV002";
/// Admission accounting incoherent: a tenant account receipt fails
/// coherence, or the per-job receipts it settled do not sum to the
/// account's counters.
pub const SRV003: &str = "SRV003";

/// A durable record log is structurally corrupt *past recovery's reach*:
/// a frame surfaced by replay fails its CRC, claims an impossible
/// length, or (for typed logs) carries an undecodable payload.
/// Recovery truncates torn tails silently; this code fires only when
/// corruption would otherwise be *served*.
pub const DUR001: &str = "DUR001";
/// A record log's generation header does not match the reader's: a
/// stale on-disk format that must be reset, never misread.
pub const DUR002: &str = "DUR002";
/// A job WAL violates the admit/settle/respond state machine: a
/// settlement without an admission (forged), a duplicate settlement
/// (double charge), or a response without a settlement.
pub const DUR003: &str = "DUR003";

/// A shard supervision log is structurally malformed: a beat, death,
/// win, or kill recorded for an attempt that was never spawned, an
/// answer from an attempt with no earlier heartbeat, attempt numbers
/// that skip, more than one terminal event for a shard, a duplicate
/// winner, or a race that records both a winner and a degradation.
pub const SUP001: &str = "SUP001";
/// A shard supervision charge is off the books: a retry charge differs
/// from the deterministic backoff schedule derived from the policy
/// seed, a watchdog charge differs from the fixed kill charge, or the
/// supervision receipt's fuel does not equal the sum of the recorded
/// charges (supervision charges nothing else).
pub const SUP002: &str = "SUP002";
/// A shard race settled dishonestly: the winner/answer/cause fields
/// disagree with the event log, a degradation cause is uncertified by
/// the supervision receipt, or a give-up is unjustified by the recorded
/// deaths (fewer deaths than the retry policy demands).
pub const SUP003: &str = "SUP003";

/// Every registered code with its one-line description, for `scilint
/// --codes` and the docs table.
pub const ALL: &[(&str, &str)] = &[
    (IR001, "use of a register with no dominating definition"),
    (
        IR002,
        "width violation (function width or oversized immediate)",
    ),
    (IR003, "terminator targets a missing block / empty function"),
    (IR004, "register index out of declared range"),
    (IR005, "back edge in a function required to be loop-free"),
    (IR006, "block unreachable from entry"),
    (SMT001, "recomputed term sort disagrees with recorded sort"),
    (
        SMT002,
        "hash-consing violated: duplicate structurally-equal terms",
    ),
    (
        SMT003,
        "dangling term reference (child not older than parent)",
    ),
    (SMT004, "extract/extend bounds malformed"),
    (SAT001, "clause literal variable out of solver range"),
    (SAT002, "tautological clause"),
    (SAT003, "duplicate literal within a clause"),
    (
        SAT004,
        "model fails to satisfy a clause (certificate check)",
    ),
    (SAT005, "model has wrong length for variable count"),
    (CFG001, "cycle among DAG edges"),
    (CFG002, "DAG node off every source→sink path"),
    (CFG003, "basis rank exceeds path-space dimension"),
    (CFG004, "basis path edges not a source→sink walk"),
    (CFG005, "basis paths linearly dependent"),
    (HYB001, "guard count differs from transition count"),
    (HYB002, "guard dimension differs from state dimension"),
    (HYB003, "guard bound is NaN"),
    (HYB004, "empty guard on a learnable transition"),
    (HYB005, "guard vertex off the hypothesis grid"),
    (HYB006, "transition endpoint references a missing mode"),
    (HYB007, "guard escapes the mode-invariant/domain box"),
    (
        OGS001,
        "synthesized-program operand references a later line",
    ),
    (OGS002, "synthesized-program index out of range"),
    (OGS003, "component arity mismatch"),
    (OGS004, "output arity mismatch"),
    (
        OGS005,
        "program disagrees with a recorded example (certificate check)",
    ),
    (
        PAR001,
        "portfolio winner's model falsifies a member's clause database",
    ),
    (
        PAR002,
        "portfolio verdict diverges from a sequential re-solve",
    ),
    (PAR003, "shared query-cache counters incoherent"),
    (
        BUD001,
        "budget receipt counter exceeds its limit (forged overrun)",
    ),
    (
        BUD002,
        "unknown verdict's exhaustion cause uncertified by its receipt",
    ),
    (BUD003, "logical clock differs from the sum of the counters"),
    (
        FLT001,
        "injected fault not reproducible from the fault-plan seed",
    ),
    (
        FLT002,
        "faulted verdict flips a clean verdict (must be identical or unknown)",
    ),
    (
        PRF001,
        "refutation fails DRAT replay (non-RUP step or malformed proof)",
    ),
    (
        PRF002,
        "refutation never derives the empty clause (truncated proof)",
    ),
    (
        PRF003,
        "proof deletes a clause that is not live (forged deletion)",
    ),
    (
        PRF004,
        "certificate blasting map inconsistent with its CNF (stale map)",
    ),
    (
        REC001,
        "checkpoint journal diverges from its run (replay/round-trip)",
    ),
    (
        REC002,
        "breaker state not reproducible from its operation log",
    ),
    (
        REC003,
        "retry charge off the deterministic backoff schedule",
    ),
    (
        SRV001,
        "server transcript malformed (unadmitted serve, duplicate id, bad receipt)",
    ),
    (
        SRV002,
        "served verdict diverges from direct library re-execution",
    ),
    (
        SRV003,
        "tenant admission accounting incoherent with served receipts",
    ),
    (
        DUR001,
        "record log frame corrupt past recovery (bad CRC/length/payload)",
    ),
    (
        DUR002,
        "record log generation stale (format reset required)",
    ),
    (
        DUR003,
        "job WAL breaks admit/settle/respond (forged or double-charged)",
    ),
    (
        SUP001,
        "shard supervision log malformed (unspawned death/win, answer before any beat, double winner)",
    ),
    (
        SUP002,
        "shard supervision charge off the deterministic schedule",
    ),
    (
        SUP003,
        "shard race settlement dishonest (unjustified give-up or uncertified cause)",
    ),
];

/// Looks up the description of a code.
pub fn describe(code: &str) -> Option<&'static str> {
    ALL.iter().find(|(c, _)| *c == code).map(|(_, d)| *d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_described() {
        let mut seen = std::collections::HashSet::new();
        for (c, d) in ALL {
            assert!(seen.insert(*c), "duplicate code {c}");
            assert!(!d.is_empty());
        }
        assert_eq!(
            describe("SAT004"),
            Some("model fails to satisfy a clause (certificate check)")
        );
        assert_eq!(describe("ZZZ999"), None);
    }
}
