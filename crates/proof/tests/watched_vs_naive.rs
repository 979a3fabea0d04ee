//! Differential test of the two-watched-literal checker against the
//! occurrence-list checker it replaced.
//!
//! `naive` below is a test-only copy of that earlier checker: it rescans
//! every clause on a falsified literal's occurrence list and keys every
//! addition for deletion lookup. It is the oracle here, not a second
//! production path. Unit propagation reaches a conflict in every order or
//! in none, so both checkers must return the same `Result` on every input:
//! the same error variant and failing step, and on success the same
//! `steps`/`additions`/`deletions`. `propagations` (the final root-trail
//! length) must match too whenever no root-level conflict was reached by
//! propagation; after one, how far the root trail got depends on the order
//! in which clauses were visited.
//!
//! Inputs: seeded random CNFs (with unit clauses, duplicate literals and
//! tautologies) paired with random and solver-emitted proofs, the four
//! mutation classes of `mutations.rs`, and hand-written edge cases.

use sciduction_proof::{
    check_drat, parse_dimacs, CheckError, CheckOutcome, CnfFormula, Proof, ProofStep,
};
use sciduction_rng::rngs::StdRng;
use sciduction_rng::{Rng, SeedableRng};
use sciduction_sat::{Lit, SolveResult, Solver, Var};

/// The occurrence-list checker, as it stood before watched literals.
mod naive {
    use super::*;
    use std::collections::HashMap;

    #[derive(Clone, Copy)]
    struct Span {
        start: u32,
        len: u32,
        alive: bool,
    }

    struct Checker {
        num_vars: usize,
        arena: Vec<i64>,
        spans: Vec<Span>,
        occs: Vec<Vec<u32>>,
        assign: Vec<i8>,
        trail: Vec<i64>,
        qhead: usize,
        by_key: HashMap<Vec<i64>, Vec<u32>>,
        conflicted: bool,
        /// Set when a root-level conflict came from propagation or from a
        /// falsified non-empty clause, rather than an explicit empty clause.
        root_conflict: bool,
    }

    /// Checks `proof`; the flag reports whether a root-level conflict was
    /// reached by propagation at any point.
    pub fn check(cnf: &CnfFormula, proof: &Proof) -> (Result<CheckOutcome, CheckError>, bool) {
        let mut chk = Checker::new(cnf.num_vars);
        let result = chk.run(cnf, proof);
        (result, chk.root_conflict)
    }

    impl Checker {
        fn new(num_vars: usize) -> Self {
            Checker {
                num_vars,
                arena: Vec::new(),
                spans: Vec::new(),
                occs: vec![Vec::new(); 2 * num_vars],
                assign: vec![0; num_vars],
                trail: Vec::new(),
                qhead: 0,
                by_key: HashMap::new(),
                conflicted: false,
                root_conflict: false,
            }
        }

        fn run(&mut self, cnf: &CnfFormula, proof: &Proof) -> Result<CheckOutcome, CheckError> {
            for clause in &cnf.clauses {
                self.add_clause(clause);
            }
            self.propagate_root();
            let mut outcome = CheckOutcome::default();
            let mut refuted = false;
            for (idx, step) in proof.steps.iter().enumerate() {
                outcome.steps += 1;
                match step {
                    ProofStep::Add(clause) => {
                        self.check_lits(idx, clause)?;
                        if !self.conflicted && !self.is_rup(clause) {
                            return Err(CheckError::NotRup {
                                step: idx,
                                clause: clause.clone(),
                            });
                        }
                        if clause.is_empty() {
                            refuted = true;
                        }
                        self.add_clause(clause);
                        self.propagate_root();
                        outcome.additions += 1;
                    }
                    ProofStep::Delete(clause) => {
                        if !self.delete_clause(clause) {
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
            outcome.propagations = self.trail.len();
            Ok(outcome)
        }

        fn code(lit: i64) -> usize {
            let v = lit.unsigned_abs() as usize - 1;
            2 * v + usize::from(lit < 0)
        }

        fn value(&self, lit: i64) -> i8 {
            let a = self.assign[lit.unsigned_abs() as usize - 1];
            if lit < 0 {
                -a
            } else {
                a
            }
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

        fn clause_key(clause: &[i64]) -> Vec<i64> {
            let mut key = clause.to_vec();
            key.sort_unstable();
            key.dedup();
            key
        }

        fn add_clause(&mut self, clause: &[i64]) {
            if clause.is_empty() {
                self.conflicted = true;
                return;
            }
            let start = self.arena.len() as u32;
            self.arena.extend_from_slice(clause);
            let idx = self.spans.len() as u32;
            self.spans.push(Span {
                start,
                len: clause.len() as u32,
                alive: true,
            });
            for &l in clause {
                self.occs[Self::code(l)].push(idx);
            }
            self.by_key
                .entry(Self::clause_key(clause))
                .or_default()
                .push(idx);
            let mut unassigned = None;
            let mut n_unassigned = 0;
            let mut satisfied = false;
            for &l in clause {
                match self.value(l) {
                    1 => satisfied = true,
                    0 => {
                        n_unassigned += 1;
                        unassigned = Some(l);
                    }
                    _ => {}
                }
            }
            if satisfied {
                return;
            }
            match n_unassigned {
                0 => {
                    self.conflicted = true;
                    self.root_conflict = true;
                }
                1 if self.enqueue(unassigned.unwrap()) => self.conflicted = true,
                _ => {}
            }
        }

        fn delete_clause(&mut self, clause: &[i64]) -> bool {
            let key = Self::clause_key(clause);
            let Some(ids) = self.by_key.get_mut(&key) else {
                return false;
            };
            let Some(idx) = ids.pop() else { return false };
            if ids.is_empty() {
                self.by_key.remove(&key);
            }
            self.spans[idx as usize].alive = false;
            true
        }

        fn enqueue(&mut self, lit: i64) -> bool {
            match self.value(lit) {
                1 => false,
                -1 => true,
                _ => {
                    self.assign[lit.unsigned_abs() as usize - 1] = if lit < 0 { -1 } else { 1 };
                    self.trail.push(lit);
                    false
                }
            }
        }

        fn propagate(&mut self) -> bool {
            while self.qhead < self.trail.len() {
                let lit = self.trail[self.qhead];
                self.qhead += 1;
                let falsified = Self::code(-lit);
                for oi in 0..self.occs[falsified].len() {
                    let ci = self.occs[falsified][oi] as usize;
                    let span = self.spans[ci];
                    if !span.alive {
                        continue;
                    }
                    let (start, end) = (span.start as usize, (span.start + span.len) as usize);
                    let mut satisfied = false;
                    let mut unassigned = None;
                    let mut n_unassigned = 0;
                    for i in start..end {
                        let l = self.arena[i];
                        match self.value(l) {
                            1 => {
                                satisfied = true;
                                break;
                            }
                            0 => {
                                n_unassigned += 1;
                                unassigned = Some(l);
                            }
                            _ => {}
                        }
                    }
                    if satisfied {
                        continue;
                    }
                    match n_unassigned {
                        0 => return true,
                        1 if self.enqueue(unassigned.unwrap()) => return true,
                        _ => {}
                    }
                }
            }
            false
        }

        fn propagate_root(&mut self) {
            if self.propagate() {
                self.conflicted = true;
                self.root_conflict = true;
            }
        }

        fn is_rup(&mut self, clause: &[i64]) -> bool {
            let saved = self.trail.len();
            let mut conflict = false;
            for &l in clause {
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
}

/// Tallies of what the differential inputs exercised, so a generator that
/// silently stops producing some outcome fails the test.
#[derive(Default, Debug)]
struct Tally {
    accepted: usize,
    not_rup: usize,
    forged: usize,
    malformed: usize,
    no_empty: usize,
    root_conflicts: usize,
}

/// Runs both checkers on one input and asserts they agree.
fn compare(label: &str, cnf: &CnfFormula, proof: &Proof, tally: &mut Tally) {
    let watched = check_drat(cnf, proof);
    let (naive, root_conflict) = naive::check(cnf, proof);
    let ctx = || format!("{label}\ncnf: {cnf:?}\nproof:\n{}", proof.to_drat());
    match (&watched, &naive) {
        (Ok(w), Ok(n)) => {
            assert_eq!(
                (w.steps, w.additions, w.deletions),
                (n.steps, n.additions, n.deletions),
                "{}",
                ctx()
            );
            if !root_conflict {
                assert_eq!(w.propagations, n.propagations, "{}", ctx());
            }
            tally.accepted += 1;
        }
        (Err(w), Err(n)) => {
            assert_eq!(w, n, "{}", ctx());
            match n {
                CheckError::NotRup { .. } => tally.not_rup += 1,
                CheckError::ForgedDeletion { .. } => tally.forged += 1,
                CheckError::Malformed { .. } => tally.malformed += 1,
                CheckError::NoEmptyClause => tally.no_empty += 1,
                other => panic!("unexpected error {other:?}\n{}", ctx()),
            }
        }
        _ => panic!("watched {watched:?} vs naive {naive:?}\n{}", ctx()),
    }
    tally.root_conflicts += usize::from(root_conflict);
}

fn random_lit(rng: &mut StdRng, num_vars: usize) -> i64 {
    let v = rng.random_range(1..=num_vars as i64);
    if rng.random_bool(0.5) {
        v
    } else {
        -v
    }
}

/// A random clause of `len` literals over `num_vars`; duplicates and
/// complementary pairs arise naturally on small variable counts.
fn random_clause(rng: &mut StdRng, num_vars: usize, len: usize) -> Vec<i64> {
    (0..len).map(|_| random_lit(rng, num_vars)).collect()
}

/// A random CNF mixing unit, binary and ternary clauses.
fn random_cnf(rng: &mut StdRng) -> CnfFormula {
    let num_vars = rng.random_range(3..=9usize);
    let n = rng.random_range(num_vars..=5 * num_vars);
    let clauses = (0..n)
        .map(|_| {
            let len = match rng.random_range(0..10u32) {
                0 => 1,
                1..=3 => 2,
                _ => 3,
            };
            random_clause(rng, num_vars, len)
        })
        .collect();
    CnfFormula { num_vars, clauses }
}

/// Solves `cnf` with proof logging on; the refutation if it is UNSAT.
fn refute(cnf: &CnfFormula) -> Option<Proof> {
    let mut s = Solver::new();
    s.enable_proof_logging();
    let vars: Vec<Var> = (0..cnf.num_vars).map(|_| s.new_var()).collect();
    for cl in &cnf.clauses {
        let lits: Vec<Lit> = cl
            .iter()
            .map(|&v| Lit::new(vars[(v.unsigned_abs() - 1) as usize], v < 0))
            .collect();
        s.add_clause(lits);
    }
    match s.solve() {
        SolveResult::Unsat => s.unsat_proof(),
        _ => None,
    }
}

/// A clause alive somewhere in the input, reordered and sometimes with a
/// literal repeated: deletion matches by literal set.
fn restated(rng: &mut StdRng, clause: &[i64]) -> Vec<i64> {
    let mut c = clause.to_vec();
    rng.shuffle(&mut c);
    if !c.is_empty() && rng.random_bool(0.2) {
        let l = c[rng.random_range(0..c.len())];
        c.push(l);
    }
    c
}

/// A random proof: lemmas that may or may not be RUP, deletions of real
/// and forged clauses (originals included, so reason clauses go too), the
/// odd out-of-range literal, and usually an empty clause somewhere.
fn random_proof(rng: &mut StdRng, cnf: &CnfFormula) -> Proof {
    let mut known: Vec<Vec<i64>> = cnf.clauses.clone();
    let mut steps = Vec::new();
    let n = rng.random_range(0..=12usize);
    for _ in 0..n {
        let step = match rng.random_range(0..20u32) {
            0..=8 => {
                let len = rng.random_range(1..=3usize);
                let c = random_clause(rng, cnf.num_vars, len);
                known.push(c.clone());
                ProofStep::Add(c)
            }
            9..=10 => {
                // Restating a known clause makes equal literal sets alive
                // together, so deletions must pick the right one.
                let pick = rng.random_range(0..known.len());
                let c = restated(rng, &known[pick]);
                known.push(c.clone());
                ProofStep::Add(c)
            }
            11..=13 => {
                let c = known[rng.random_range(0..known.len())].clone();
                ProofStep::Delete(restated(rng, &c))
            }
            14..=15 => ProofStep::Delete(random_clause(rng, cnf.num_vars, 2)),
            16 => ProofStep::Add(vec![cnf.num_vars as i64 + 1]),
            _ => ProofStep::Add(Vec::new()),
        };
        steps.push(step);
    }
    if rng.random_bool(0.5) {
        steps.push(ProofStep::Add(Vec::new()));
    }
    Proof { steps }
}

/// Perturbs a valid proof: deletes an original (often a reason for a root
/// assignment), adds a lemma containing root-false literals, or moves an
/// empty clause to the middle.
fn perturb(rng: &mut StdRng, cnf: &CnfFormula, proof: &mut Proof) {
    let pos = rng.random_range(0..=proof.steps.len());
    match rng.random_range(0..4u32) {
        0 if !cnf.clauses.is_empty() => {
            let units: Vec<&Vec<i64>> = cnf.clauses.iter().filter(|c| c.len() == 1).collect();
            let victim = if !units.is_empty() && rng.random_bool(0.7) {
                units[rng.random_range(0..units.len())].clone()
            } else {
                cnf.clauses[rng.random_range(0..cnf.clauses.len())].clone()
            };
            proof.steps.insert(pos, ProofStep::Delete(victim));
        }
        1 => {
            // Root-false literals: negations of the CNF's unit clauses.
            let mut c: Vec<i64> = cnf
                .clauses
                .iter()
                .filter(|c| c.len() == 1)
                .map(|c| -c[0])
                .collect();
            c.push(random_lit(rng, cnf.num_vars));
            proof.steps.insert(pos, ProofStep::Add(c));
        }
        2 => proof.steps.insert(pos, ProofStep::Add(Vec::new())),
        _ => {
            if !proof.steps.is_empty() {
                proof.steps.remove(rng.random_range(0..proof.steps.len()));
            }
        }
    }
}

/// The four mutation classes of `mutations.rs`: drop-empty,
/// forge-deletion, fresh-unit-front and empty-to-front.
fn mutate(rng: &mut StdRng, cnf: &CnfFormula, proof: &mut Proof, class: u32) {
    match class % 4 {
        0 => {
            if let Some(pos) = proof.steps.iter().rposition(ProofStep::is_empty_add) {
                proof.steps.remove(pos);
            }
        }
        1 => {
            let len = rng.random_range(2..=4usize);
            let forged = random_clause(rng, cnf.num_vars, len);
            let pos = rng.random_range(0..=proof.steps.len());
            proof.steps.insert(pos, ProofStep::Delete(forged));
        }
        2 => {
            let lit = random_lit(rng, cnf.num_vars);
            proof.steps.insert(0, ProofStep::Add(vec![lit]));
        }
        _ => {
            if let Some(pos) = proof.steps.iter().rposition(ProofStep::is_empty_add) {
                let step = proof.steps.remove(pos);
                proof.steps.insert(0, step);
            }
        }
    }
}

/// Pigeonhole principle PHP(n, m): UNSAT for n > m.
fn pigeonhole(n: usize, m: usize) -> CnfFormula {
    let var = |i: usize, j: usize| (i * m + j + 1) as i64;
    let mut clauses: Vec<Vec<i64>> = (0..n)
        .map(|i| (0..m).map(|j| var(i, j)).collect())
        .collect();
    for i1 in 0..n {
        for i2 in (i1 + 1)..n {
            for j in 0..m {
                clauses.push(vec![-var(i1, j), -var(i2, j)]);
            }
        }
    }
    CnfFormula {
        num_vars: n * m,
        clauses,
    }
}

#[test]
fn random_cnfs_with_random_and_solver_proofs() {
    let root = StdRng::seed_from_u64(0x3A7C_4ED5);
    let mut tally = Tally::default();
    let mut refuted = 0;
    for case in 0..1500u64 {
        let mut rng = root.fork(case);
        let cnf = random_cnf(&mut rng);
        compare(
            &format!("case {case}: random proof"),
            &cnf,
            &random_proof(&mut rng, &cnf),
            &mut tally,
        );
        let Some(proof) = refute(&cnf) else { continue };
        refuted += 1;
        compare(
            &format!("case {case}: solver proof"),
            &cnf,
            &proof,
            &mut tally,
        );
        for m in 0..3 {
            let mut mutant = proof.clone();
            perturb(&mut rng, &cnf, &mut mutant);
            compare(
                &format!("case {case}: perturbed #{m}"),
                &cnf,
                &mutant,
                &mut tally,
            );
            let mut mutant = proof.clone();
            let class = rng.random_range(0..4u32);
            mutate(&mut rng, &cnf, &mut mutant, class);
            compare(
                &format!("case {case}: mutant #{m}"),
                &cnf,
                &mutant,
                &mut tally,
            );
        }
    }
    assert!(refuted >= 100, "too few UNSAT instances: {refuted}");
    for (what, n) in [
        ("accepted", tally.accepted),
        ("not_rup", tally.not_rup),
        ("forged", tally.forged),
        ("malformed", tally.malformed),
        ("no_empty", tally.no_empty),
        ("root_conflicts", tally.root_conflicts),
    ] {
        assert!(
            n >= 20,
            "differential inputs under-exercise {what}: {tally:?}"
        );
    }
}

#[test]
fn solver_proofs_of_pigeonhole_and_their_mutants() {
    let mut tally = Tally::default();
    for (n, m) in [(4, 3), (5, 4), (6, 5)] {
        let cnf = pigeonhole(n, m);
        let proof = refute(&cnf).expect("pigeonhole is UNSAT");
        compare(&format!("php({n},{m})"), &cnf, &proof, &mut tally);
        let root = StdRng::seed_from_u64(0xD1AC_5EED ^ n as u64);
        for k in 0..64 {
            let mut rng = root.fork(k);
            let mut mutant = proof.clone();
            for _ in 0..rng.random_range(1..=3u32) {
                let class = rng.random_range(0..4u32);
                mutate(&mut rng, &cnf, &mut mutant, class);
            }
            compare(
                &format!("php({n},{m}) mutant #{k}"),
                &cnf,
                &mutant,
                &mut tally,
            );
        }
    }
    assert_eq!(tally.accepted, 3, "{tally:?}");
}

#[test]
fn edge_cases() {
    const SQUARE: &str = "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n";
    let cases = [
        // Unit clauses in the formula and in the proof.
        ("units", "p cnf 2 3\n1 0\n-1 2 0\n-2 -1 0\n", "0\n"),
        ("unit lemma", SQUARE, "1 0\n0\n"),
        // Duplicate literals count as separate slots in both checkers.
        ("dup lits", "p cnf 2 3\n1 1 2 0\n-2 0\n-1 -1 0\n", "0\n"),
        ("dup lemma", SQUARE, "1 1 0\n0\n"),
        (
            "dup deletion",
            "p cnf 2 3\n1 2 2 0\n-1 0\n-2 0\n",
            "d 2 1 0\n0\n",
        ),
        // Of two alive clauses with one literal set, a deletion removes the
        // later one; which survives decides whether (2) is RUP.
        (
            "latest of equal sets",
            "p cnf 3 4\n1 2 0\n1 1 2 0\n-1 3 0\n-1 -3 0\n",
            "d 2 1 0\n2 0\n",
        ),
        // Tautologies: always RUP, never propagate.
        ("tautology", "p cnf 2 2\n1 -1 2 0\n-2 0\n", "2 -2 0\n0\n"),
        // Lemmas with literals that are false at the root.
        (
            "root-false",
            "p cnf 3 4\n1 0\n2 0\n-1 -2 3 0\n-3 1 0\n",
            "-1 -2 0\n0\n",
        ),
        (
            "root-false unit",
            "p cnf 3 4\n1 0\n2 3 0\n-2 3 0\n-3 -1 0\n",
            "-1 3 0\n0\n",
        ),
        // Empty clause mid-proof, then further (unchecked) steps.
        (
            "empty mid-proof",
            "p cnf 2 2\n1 0\n-1 0\n",
            "0\n2 0\nd 1 0\n-2 0\n",
        ),
        (
            "non-RUP lemma after empty",
            "p cnf 2 2\n1 2 0\n-1 2 0\n",
            "0\n-2 0\n",
        ),
        // Deleting the reason for a root assignment keeps the assignment.
        (
            "delete reason",
            "p cnf 3 4\n1 0\n-1 2 0\n-2 3 0\n-3 -1 0\n",
            "d 1 0\nd -1 2 0\n0\n",
        ),
        (
            "delete unit then rup",
            "p cnf 2 3\n1 0\n-1 2 0\n-2 -1 0\n",
            "d 1 0\n2 0\n0\n",
        ),
        // Forged and repeated deletions, out-of-range literals.
        ("forged", "p cnf 2 2\n1 2 0\n-1 -2 0\n", "d 1 -2 0\n"),
        (
            "double delete",
            "p cnf 2 2\n1 2 0\n2 1 0\n",
            "d 1 2 0\nd 1 2 0\nd 2 1 0\n",
        ),
        ("out of range", "p cnf 2 1\n1 2 0\n", "3 0\n"),
        ("out of range deletion", "p cnf 2 1\n1 2 0\n", "d 3 0\n"),
        ("empty deletion", "p cnf 2 1\n1 2 0\n", "d 0\n"),
        // Root conflicts in the formula itself.
        (
            "root conflict",
            "p cnf 3 4\n1 0\n-1 2 0\n-2 -1 0\n3 2 0\n",
            "3 0\n0\n",
        ),
        ("empty in formula", "p cnf 2 2\n1 2 0\n0\n", "0\n"),
    ];
    let mut tally = Tally::default();
    for (label, cnf, proof) in cases {
        let cnf = parse_dimacs(cnf).unwrap_or_else(|e| panic!("{label}: {e}"));
        let proof = Proof::parse_drat(proof).unwrap_or_else(|e| panic!("{label}: {e}"));
        compare(label, &cnf, &proof, &mut tally);
    }
    assert!(tally.accepted >= 8 && tally.forged >= 2, "{tally:?}");
}
