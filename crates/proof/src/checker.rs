//! The forward RUP/DRAT checker — the trusted core.
//!
//! Design goals, in order: *small*, *obviously correct*, *independent*. The
//! checker keeps the clause database in a flat literal arena and replays unit
//! propagation with two watched literals (the first two slots of each clause)
//! and no heuristics. An addition step is accepted iff the clause is RUP —
//! assuming its negation on top of the root-level trail and propagating to
//! fixpoint yields a conflict — and a deletion step is accepted iff it names
//! a clause that is actually alive. A proof certifies refutation iff it
//! explicitly adds the empty clause; a root-level conflict alone does not.
//!
//! Checking is forward: every lemma is checked in proof order, used or not.
//! Unit propagation reaches a conflict in every visiting order or in none, so
//! watched literals accept and reject exactly what a rescan of every clause
//! would (`tests/watched_vs_naive.rs` holds that naive checker as an oracle).

use crate::dimacs::CnfFormula;
use crate::format::{Proof, ProofStep};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, RandomState};

/// Why a proof (or certificate) was rejected.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CheckError {
    /// The DIMACS formula itself failed to parse.
    Dimacs(String),
    /// A proof step is syntactically unusable (e.g. a literal outside the
    /// variable range declared by the formula).
    Malformed {
        /// 0-based index of the offending step.
        step: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// An addition step is not RUP: assuming its negation and propagating
    /// does not yield a conflict, so the clause does not follow by unit
    /// propagation from the clauses alive at that point.
    NotRup {
        /// 0-based index of the offending step.
        step: usize,
        /// The clause that failed the check.
        clause: Vec<i64>,
    },
    /// A deletion step names a clause that is not alive in the database.
    ForgedDeletion {
        /// 0-based index of the offending step.
        step: usize,
        /// The clause the step claimed to delete.
        clause: Vec<i64>,
    },
    /// The proof ran out of steps without deriving the empty clause.
    NoEmptyClause,
    /// An SMT certificate's blasting map is stale or malformed (unknown
    /// width, literal outside the CNF range, duplicate name, …).
    BlastingMap(String),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Dimacs(msg) => write!(f, "bad DIMACS input: {msg}"),
            CheckError::Malformed { step, reason } => {
                write!(f, "proof step {step} malformed: {reason}")
            }
            CheckError::NotRup { step, clause } => {
                write!(f, "proof step {step} is not RUP: {}", fmt_clause(clause))
            }
            CheckError::ForgedDeletion { step, clause } => write!(
                f,
                "proof step {step} deletes a clause not in the database: {}",
                fmt_clause(clause)
            ),
            CheckError::NoEmptyClause => {
                write!(f, "proof ends without deriving the empty clause")
            }
            CheckError::BlastingMap(msg) => write!(f, "stale or malformed blasting map: {msg}"),
        }
    }
}

impl std::error::Error for CheckError {}

fn fmt_clause(c: &[i64]) -> String {
    if c.is_empty() {
        "(empty clause)".into()
    } else {
        c.iter()
            .map(|l| l.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Statistics from a successful check.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CheckOutcome {
    /// Total proof steps replayed.
    pub steps: usize,
    /// Addition steps accepted.
    pub additions: usize,
    /// Deletion steps accepted.
    pub deletions: usize,
    /// The length of the root trail when the proof ends: literals assigned
    /// at the root by unit clauses and unit propagation. Propagation stops
    /// at the first root-level conflict it meets, so once one has occurred
    /// this count depends on the order in which clauses were visited (the
    /// fig10 proof from `solver_bench` gives 34 with the earlier
    /// occurrence-list checker and 35 with watched literals). Without a
    /// root-level conflict from propagation it is order-independent.
    pub propagations: usize,
}

/// Checks a DRAT proof of unsatisfiability against a formula. Returns
/// statistics on success; the first failing step otherwise.
pub fn check_drat(cnf: &CnfFormula, proof: &Proof) -> Result<CheckOutcome, CheckError> {
    let mut chk = Checker::new(cnf.num_vars);
    for clause in &cnf.clauses {
        chk.add_clause(clause);
    }
    chk.propagate_root();
    let mut outcome = CheckOutcome::default();
    let mut refuted = false;
    for (idx, step) in proof.steps.iter().enumerate() {
        outcome.steps += 1;
        match step {
            ProofStep::Add(clause) => {
                chk.check_lits(idx, clause)?;
                // Once a root-level conflict exists, every clause is trivially
                // RUP — but refutation is only *certified* by an explicit,
                // accepted empty-clause step; a proof whose tail was dropped
                // still fails with `NoEmptyClause` below.
                if !chk.conflicted && !chk.is_rup(clause) {
                    return Err(CheckError::NotRup {
                        step: idx,
                        clause: clause.clone(),
                    });
                }
                if clause.is_empty() {
                    refuted = true;
                }
                chk.add_clause(clause);
                chk.propagate_root();
                outcome.additions += 1;
            }
            ProofStep::Delete(clause) => {
                if !chk.delete_clause(clause) {
                    return Err(CheckError::ForgedDeletion {
                        step: idx,
                        clause: clause.clone(),
                    });
                }
                outcome.deletions += 1;
            }
        }
    }
    if !refuted {
        return Err(CheckError::NoEmptyClause);
    }
    outcome.propagations = chk.trail.len();
    Ok(outcome)
}

/// Convenience wrapper: parses both texts, then runs [`check_drat`].
pub fn check_drat_text(cnf_text: &str, proof_text: &str) -> Result<CheckOutcome, CheckError> {
    let cnf = crate::dimacs::parse_dimacs(cnf_text)?;
    let proof = Proof::parse_drat(proof_text).map_err(|e| CheckError::Malformed {
        step: 0,
        reason: e.to_string(),
    })?;
    check_drat(&cnf, &proof)
}

/// A clause span in the flat arena.
#[derive(Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
    alive: bool,
}

impl Span {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// A watch-list entry: the clause, and another of its literals. A true
/// blocker means the clause is satisfied, so propagation skips it without
/// reading the arena.
#[derive(Clone, Copy)]
struct Watch {
    clause: u32,
    blocker: i64,
}

struct Checker {
    num_vars: usize,
    /// Flat literal storage for every clause ever added. The first two
    /// slots of a clause of length 2 or more are its watched literals.
    arena: Vec<i64>,
    spans: Vec<Span>,
    /// Watch lists indexed by literal code (`2*(v-1) + neg`): the clauses
    /// with that literal in one of their two watch slots. Entries of
    /// deleted clauses are dropped lazily, when propagation meets them.
    watches: Vec<Vec<Watch>>,
    /// Assignment per variable: 0 unassigned, 1 true, -1 false.
    assign: Vec<i8>,
    /// Assigned literals in order; a prefix of it is the propagation queue.
    trail: Vec<i64>,
    qhead: usize,
    /// Deletion index: hash of the sorted-deduped literal list -> alive
    /// clause indices in addition order. Built lazily: it covers
    /// `spans[..indexed]`, and only a deletion step extends it.
    by_key: HashMap<u64, Vec<u32>>,
    indexed: usize,
    /// Randomly keyed, so a crafted proof cannot pile its clauses into one
    /// bucket of the deletion index.
    key_hasher: RandomState,
    /// Scratch buffers for deletion keys.
    key_a: Vec<i64>,
    key_b: Vec<i64>,
    /// Set once unit propagation reaches a conflict at the root level.
    conflicted: bool,
}

/// The value of `lit` under `assign`: 1 true, -1 false, 0 unassigned.
fn value(assign: &[i8], lit: i64) -> i8 {
    let a = assign[lit.unsigned_abs() as usize - 1];
    if lit < 0 {
        -a
    } else {
        a
    }
}

/// Writes the sorted-deduped literal list of `clause` into `key`: equal
/// literal sets give equal keys whatever their order or repetition.
fn clause_key(clause: &[i64], key: &mut Vec<i64>) {
    key.clear();
    key.extend_from_slice(clause);
    key.sort_unstable();
    key.dedup();
}

impl Checker {
    fn new(num_vars: usize) -> Self {
        Checker {
            num_vars,
            arena: Vec::new(),
            spans: Vec::new(),
            watches: vec![Vec::new(); 2 * num_vars],
            assign: vec![0; num_vars],
            trail: Vec::new(),
            qhead: 0,
            by_key: HashMap::new(),
            indexed: 0,
            key_hasher: RandomState::new(),
            key_a: Vec::new(),
            key_b: Vec::new(),
            conflicted: false,
        }
    }

    fn code(lit: i64) -> usize {
        let v = lit.unsigned_abs() as usize - 1;
        2 * v + usize::from(lit < 0)
    }

    fn check_lits(&self, step: usize, clause: &[i64]) -> Result<(), CheckError> {
        for &l in clause {
            if l == 0 || l.unsigned_abs() as usize > self.num_vars {
                return Err(CheckError::Malformed {
                    step,
                    reason: format!(
                        "literal {l} outside the formula's range of {} variables",
                        self.num_vars
                    ),
                });
            }
        }
        Ok(())
    }

    /// Adds a clause to the database and keeps the root trail saturated.
    fn add_clause(&mut self, clause: &[i64]) {
        if clause.is_empty() {
            self.conflicted = true;
            return;
        }
        let start = self.arena.len();
        self.arena.extend_from_slice(clause);
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            start: start as u32,
            len: clause.len() as u32,
            alive: true,
        });
        // Move the non-false literals to the front, so the watch slots hold
        // non-false literals whenever the clause has two of them.
        let c = &mut self.arena[start..];
        let mut non_false = 0;
        let mut satisfied = false;
        for k in 0..c.len() {
            match value(&self.assign, c[k]) {
                -1 => {}
                v => {
                    satisfied |= v == 1;
                    c.swap(non_false, k);
                    non_false += 1;
                }
            }
        }
        if c.len() >= 2 {
            let (w0, w1) = (c[0], c[1]);
            self.watches[Self::code(w0)].push(Watch {
                clause: idx,
                blocker: w1,
            });
            self.watches[Self::code(w1)].push(Watch {
                clause: idx,
                blocker: w0,
            });
        }
        // If the new clause is unit (or falsified) under the root assignment,
        // propagate its consequence at the root.
        if satisfied {
            return;
        }
        match non_false {
            0 => self.conflicted = true,
            1 => {
                let unit = self.arena[start];
                self.enqueue(unit);
            }
            _ => {}
        }
    }

    /// Deletes the most recently added alive clause with the given literal
    /// set. Returns false if none exists.
    fn delete_clause(&mut self, clause: &[i64]) -> bool {
        while self.indexed < self.spans.len() {
            clause_key(
                &self.arena[self.spans[self.indexed].range()],
                &mut self.key_a,
            );
            let h = self.key_hasher.hash_one(&self.key_a);
            self.by_key.entry(h).or_default().push(self.indexed as u32);
            self.indexed += 1;
        }
        // A hash hit is confirmed by comparing the keys themselves.
        clause_key(clause, &mut self.key_a);
        let h = self.key_hasher.hash_one(&self.key_a);
        let Some(ids) = self.by_key.get_mut(&h) else {
            return false;
        };
        let found = ids.iter().rposition(|&ci| {
            clause_key(
                &self.arena[self.spans[ci as usize].range()],
                &mut self.key_b,
            );
            self.key_a == self.key_b
        });
        let Some(pos) = found else { return false };
        let idx = ids.remove(pos);
        if ids.is_empty() {
            self.by_key.remove(&h);
        }
        self.spans[idx as usize].alive = false;
        true
    }

    /// Assigns `lit` true. Returns true on conflict (lit already false).
    fn enqueue(&mut self, lit: i64) -> bool {
        match value(&self.assign, lit) {
            1 => false,
            -1 => true,
            _ => {
                self.assign[lit.unsigned_abs() as usize - 1] = if lit < 0 { -1 } else { 1 };
                self.trail.push(lit);
                false
            }
        }
    }

    /// Propagates the queue to fixpoint. Returns true on conflict.
    fn propagate(&mut self) -> bool {
        while self.qhead < self.trail.len() {
            let falsified = -self.trail[self.qhead];
            self.qhead += 1;
            let mut ws = std::mem::take(&mut self.watches[Self::code(falsified)]);
            let mut conflict = false;
            let mut kept = 0;
            let mut i = 0;
            while i < ws.len() {
                let w = ws[i];
                i += 1;
                if value(&self.assign, w.blocker) == 1 {
                    ws[kept] = w;
                    kept += 1;
                    continue;
                }
                let span = self.spans[w.clause as usize];
                if !span.alive {
                    continue;
                }
                let c = &mut self.arena[span.range()];
                if c[0] == falsified {
                    c.swap(0, 1);
                }
                // Slot 1 now holds the falsified watch.
                let other = c[0];
                let other_value = value(&self.assign, other);
                let w = Watch {
                    clause: w.clause,
                    blocker: other,
                };
                if other_value != 1 {
                    // Look for a non-false replacement for the falsified watch.
                    if let Some(k) = (2..c.len()).find(|&k| value(&self.assign, c[k]) != -1) {
                        c.swap(1, k);
                        self.watches[Self::code(c[1])].push(w);
                        continue;
                    }
                }
                ws[kept] = w;
                kept += 1;
                match other_value {
                    1 => {}
                    0 => {
                        self.enqueue(other);
                    }
                    _ => {
                        conflict = true;
                        break;
                    }
                }
            }
            // Keep the entries not yet visited when a conflict cut the scan.
            ws.copy_within(i.., kept);
            ws.truncate(kept + (ws.len() - i));
            self.watches[Self::code(falsified)] = ws;
            if conflict {
                return true;
            }
        }
        false
    }

    /// Propagates at the root, latching any conflict found there.
    fn propagate_root(&mut self) {
        if self.propagate() {
            self.conflicted = true;
        }
    }

    /// The RUP test: assume the negation of `clause` on top of the root
    /// trail, propagate, and report whether a conflict arises. The trail is
    /// restored afterwards; the watches stay where propagation moved them,
    /// which is sound because undoing assignments never falsifies a watch.
    fn is_rup(&mut self, clause: &[i64]) -> bool {
        let saved = self.trail.len();
        let mut conflict = false;
        for &l in clause {
            // A clause containing a root-true literal is entailed outright;
            // enqueueing its negation conflicts immediately.
            if self.enqueue(-l) {
                conflict = true;
                break;
            }
        }
        if !conflict {
            conflict = self.propagate();
        }
        for l in self.trail.drain(saved..) {
            self.assign[l.unsigned_abs() as usize - 1] = 0;
        }
        self.qhead = self.trail.len();
        conflict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dimacs::parse_dimacs;

    fn check(cnf: &str, proof: &str) -> Result<CheckOutcome, CheckError> {
        check_drat_text(cnf, proof)
    }

    // (1∨2) ∧ (1∨¬2) ∧ (¬1∨2) ∧ (¬1∨¬2): classic 2-variable unsat square.
    const SQUARE: &str = "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n";

    #[test]
    fn accepts_resolution_proof() {
        // Learn (1) by RUP, then (¬1) is RUP, then empty.
        let out = check(SQUARE, "1 0\n0\n").unwrap();
        assert_eq!(out.additions, 2);
    }

    #[test]
    fn accepts_proof_with_deletions() {
        let out = check(SQUARE, "1 0\nd 1 2 0\n0\n").unwrap();
        assert_eq!(out.deletions, 1);
    }

    #[test]
    fn rejects_non_rup_step() {
        let err = check(SQUARE, "0\n").unwrap_err();
        // The empty clause straight away is not RUP: root propagation of the
        // square formula alone finds no conflict.
        assert!(matches!(err, CheckError::NotRup { step: 0, .. }));
    }

    #[test]
    fn rejects_missing_empty_clause() {
        let err = check(SQUARE, "1 0\n").unwrap_err();
        assert!(matches!(err, CheckError::NoEmptyClause));
    }

    #[test]
    fn rejects_forged_deletion() {
        let err = check(SQUARE, "1 0\nd 1 -2 5 0\n0\n").unwrap_err();
        assert!(matches!(err, CheckError::ForgedDeletion { step: 1, .. }));
    }

    #[test]
    fn rejects_double_deletion() {
        let err = check(SQUARE, "1 0\nd 1 2 0\nd 1 2 0\n0\n").unwrap_err();
        assert!(matches!(err, CheckError::ForgedDeletion { step: 2, .. }));
    }

    #[test]
    fn rejects_out_of_range_literal() {
        let err = check(SQUARE, "7 0\n0\n").unwrap_err();
        assert!(matches!(err, CheckError::Malformed { step: 0, .. }));
    }

    #[test]
    fn root_conflict_still_needs_explicit_empty_clause() {
        // Units 1 and -1: the formula refutes itself under propagation, but
        // certification still requires the explicit empty-clause step — a
        // truncated proof must not be accepted.
        assert!(check("p cnf 1 2\n1 0\n-1 0\n", "0\n").is_ok());
        assert!(matches!(
            check("p cnf 1 2\n1 0\n-1 0\n", "").unwrap_err(),
            CheckError::NoEmptyClause
        ));
    }

    #[test]
    fn deletion_respects_multiset_identity() {
        // Deleting (2∨1) must match the alive (1∨2): lookup is by sorted
        // literal multiset, not by textual order.
        let cnf = "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n";
        assert!(check(cnf, "1 0\nd 2 1 0\n0\n").is_ok());
    }

    #[test]
    fn satisfiable_formula_rejects_empty_proof() {
        let err = check("p cnf 2 1\n1 2 0\n", "").unwrap_err();
        assert!(matches!(err, CheckError::NoEmptyClause));
    }

    #[test]
    fn pigeonhole_2_into_1_needs_no_learning() {
        // p1∈h1, p2∈h1, ¬(both): units make it collapse by propagation once
        // the RUP steps land.
        let cnf = "p cnf 2 3\n1 0\n2 0\n-1 -2 0\n";
        assert!(check(cnf, "0\n").is_ok());
        let cnf2 = parse_dimacs(cnf).unwrap();
        assert_eq!(cnf2.clauses.len(), 3);
    }

    #[test]
    fn steps_after_refutation_are_tolerated() {
        // Once the empty clause is derived, later steps are vacuous but must
        // still be well-formed.
        assert!(check(SQUARE, "1 0\n0\n-2 0\n").is_ok());
        assert!(matches!(
            check(SQUARE, "1 0\n0\n9 0\n").unwrap_err(),
            CheckError::Malformed { step: 2, .. }
        ));
    }
}
