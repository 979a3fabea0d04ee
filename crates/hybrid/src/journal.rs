//! Checkpoint journal for the guard-search fixpoint loop (DESIGN.md
//! §4.15).
//!
//! A [`GuardSearchJournal`] snapshots the loop state of
//! [`synthesize_switching`](crate::synthesize_switching) at every round
//! boundary: the guards (as raw `f64` bit patterns, so resume is
//! bit-exact), the completed round count, the oracle-query total, and
//! the budget ledger. Each fixpoint round is a pure function of the
//! current guards and the configuration, so restoring that state and
//! re-entering the loop reaches the same artifact as an uninterrupted
//! run — including identical budget accounting, because the meter is
//! restored from the journaled receipt rather than given a fresh
//! allowance.

use crate::hyperbox::HyperBox;
use sciduction::budget::{Budget, BudgetReceipt};
use sciduction::recover::{journal_list, read_journal, JournalError};

/// The checkpoint journal of one guard-search run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GuardSearchJournal {
    /// Bit pattern of the recording-grid precision (journals from a
    /// different grid are rejected at resume).
    pub grid: u64,
    /// The budget the run was accounted against.
    pub budget: Budget,
    /// Completed fixpoint rounds.
    pub rounds: usize,
    /// Reachability-oracle queries issued so far.
    pub oracle_queries: u64,
    /// SAT conflicts charged so far (always 0 for this loop; journaled
    /// so the receipt round-trips exactly).
    pub conflicts: u64,
    /// Engine steps charged so far (one per completed round).
    pub steps: u64,
    /// Fuel units charged so far (one per oracle query the meter
    /// accepted).
    pub fuel: u64,
    /// Guard snapshot per transition: `(lo, hi)` bounds as `f64` bit
    /// patterns.
    pub guards: Vec<(Vec<u64>, Vec<u64>)>,
}

impl Default for GuardSearchJournal {
    fn default() -> Self {
        GuardSearchJournal {
            grid: 0,
            budget: Budget::UNLIMITED,
            rounds: 0,
            oracle_queries: 0,
            conflicts: 0,
            steps: 0,
            fuel: 0,
            guards: Vec::new(),
        }
    }
}

impl GuardSearchJournal {
    /// Records the loop state at a round boundary.
    pub fn checkpoint(
        &mut self,
        guards: &[HyperBox],
        rounds: usize,
        oracle_queries: u64,
        receipt: &BudgetReceipt,
    ) {
        self.rounds = rounds;
        self.oracle_queries = oracle_queries;
        self.conflicts = receipt.conflicts;
        self.steps = receipt.steps;
        self.fuel = receipt.fuel;
        self.guards = guards
            .iter()
            .map(|g| {
                (
                    g.lo.iter().map(|v| v.to_bits()).collect(),
                    g.hi.iter().map(|v| v.to_bits()).collect(),
                )
            })
            .collect();
    }

    /// The budget receipt this journal certifies. The cause is `None`
    /// by construction: checkpoints are taken at round boundaries,
    /// before any charge has been refused. A counter sum past `u64::MAX`
    /// saturates the clock, which no coherent receipt can carry.
    pub fn receipt(&self) -> BudgetReceipt {
        BudgetReceipt {
            budget: self.budget,
            conflicts: self.conflicts,
            steps: self.steps,
            fuel: self.fuel,
            clock: self
                .conflicts
                .saturating_add(self.steps)
                .saturating_add(self.fuel),
            cause: None,
        }
    }

    /// Decodes the journaled guard snapshot back into hyperboxes.
    pub fn decode_guards(&self) -> Vec<HyperBox> {
        self.guards
            .iter()
            .map(|(lo, hi)| HyperBox {
                lo: lo.iter().map(|&b| f64::from_bits(b)).collect(),
                hi: hi.iter().map(|&b| f64::from_bits(b)).collect(),
            })
            .collect()
    }

    /// Structural self-consistency checks (the `REC001` ground truth for
    /// this journal): every guard must pair equally many lower and upper
    /// bounds, the step ledger must equal the round count (this loop
    /// charges exactly one step per round), and the spend must be
    /// coherent with the budget.
    ///
    /// # Errors
    ///
    /// [`JournalError::Divergence`] naming the first violated invariant.
    pub fn check(&self) -> Result<(), JournalError> {
        for (t, (lo, hi)) in self.guards.iter().enumerate() {
            if lo.len() != hi.len() {
                return Err(JournalError::Divergence {
                    at: t,
                    detail: format!(
                        "guard {t} pairs {} lower bounds with {} upper bounds",
                        lo.len(),
                        hi.len()
                    ),
                });
            }
        }
        if self.steps != self.rounds as u64 {
            return Err(JournalError::Divergence {
                at: self.rounds,
                detail: format!(
                    "step ledger {} disagrees with the completed round count {}",
                    self.steps, self.rounds
                ),
            });
        }
        if !self.receipt().coherent() {
            return Err(JournalError::Divergence {
                at: self.rounds,
                detail: "recorded spend is not coherent with the budget".into(),
            });
        }
        Ok(())
    }

    /// Serializes the journal to its line-oriented text format.
    pub fn serialize(&self) -> String {
        let mut out = String::from("hybrid-journal v1\n");
        out.push_str(&format!("grid {:016x}\n", self.grid));
        out.push_str(&format!(
            "budget {} {} {} {}\n",
            self.budget.conflicts, self.budget.steps, self.budget.fuel, self.budget.deadline
        ));
        out.push_str(&format!(
            "spent {} {} {}\n",
            self.conflicts, self.steps, self.fuel
        ));
        out.push_str(&format!("rounds {}\n", self.rounds));
        out.push_str(&format!("queries {}\n", self.oracle_queries));
        let bits = |b: &u64| format!("{b:016x}");
        for (lo, hi) in &self.guards {
            out.push_str(&format!(
                "guard {} -> {}\n",
                journal_list(lo, bits),
                journal_list(hi, bits)
            ));
        }
        out
    }

    /// Parses a journal serialized by [`GuardSearchJournal::serialize`].
    ///
    /// # Errors
    ///
    /// [`JournalError::Parse`] on any malformed line.
    pub fn parse(text: &str) -> Result<Self, JournalError> {
        let mut journal = GuardSearchJournal::default();
        for line in read_journal(text, "hybrid-journal v1")? {
            let line = line?;
            match line.key {
                "grid" => journal.grid = line.hex(line.value, "grid bits")?,
                "budget" => {
                    let [conflicts, steps, fuel, deadline] = line.fields()?;
                    journal.budget = Budget {
                        conflicts,
                        steps,
                        fuel,
                        deadline,
                    };
                }
                "spent" => {
                    [journal.conflicts, journal.steps, journal.fuel] = line.fields()?;
                }
                "rounds" => journal.rounds = line.field()?,
                "queries" => journal.oracle_queries = line.field()?,
                "guard" => {
                    let bound = |item: &str| line.hex(item, "bound bits");
                    let (lo, hi) = line.split(line.value, " -> ")?;
                    journal
                        .guards
                        .push((line.list(lo, bound)?, line.list(hi, bound)?));
                }
                _ => return Err(line.unknown_key()),
            }
        }
        Ok(journal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_round_trips_including_infinities_and_empty_boxes() {
        let mut journal = GuardSearchJournal {
            grid: 0.1f64.to_bits(),
            budget: Budget {
                steps: 100,
                ..Budget::UNLIMITED
            },
            rounds: 3,
            oracle_queries: 421,
            conflicts: 0,
            steps: 3,
            fuel: 421,
            guards: Vec::new(),
        };
        journal.checkpoint(
            &[
                HyperBox::new(vec![15.0, f64::NEG_INFINITY], vec![30.0, f64::INFINITY]),
                HyperBox::empty(2),
            ],
            3,
            421,
            &journal.receipt(),
        );
        // The v1 wire text, pinned byte for byte.
        let text = "hybrid-journal v1\n\
                    grid 3fb999999999999a\n\
                    budget 18446744073709551615 100 18446744073709551615 18446744073709551615\n\
                    spent 0 3 421\n\
                    rounds 3\n\
                    queries 421\n\
                    guard 402e000000000000,fff0000000000000 -> 403e000000000000,7ff0000000000000\n\
                    guard 3ff0000000000000,3ff0000000000000 -> 0000000000000000,0000000000000000\n";
        assert_eq!(journal.serialize(), text);
        let parsed = GuardSearchJournal::parse(text).expect("pinned text parses");
        assert_eq!(parsed, journal);
        assert_eq!(parsed.decode_guards()[0].hi[1], f64::INFINITY);
        assert!(parsed.decode_guards()[1].is_empty());
        assert!(parsed.check().is_ok());
    }

    #[test]
    fn malformed_journals_are_rejected_with_the_line() {
        assert!(matches!(
            GuardSearchJournal::parse("cegis-journal v1\n"),
            Err(JournalError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            GuardSearchJournal::parse("hybrid-journal v1\nguard xyz\n"),
            Err(JournalError::Parse { line: 2, .. })
        ));
        assert!(matches!(
            GuardSearchJournal::parse("hybrid-journal v1\nbudget 1 2 3\n"),
            Err(JournalError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn incoherent_ledgers_fail_the_structural_check() {
        let lop_sided = GuardSearchJournal {
            guards: vec![(vec![0], vec![0, 0])],
            ..GuardSearchJournal::default()
        };
        assert!(matches!(
            lop_sided.check(),
            Err(JournalError::Divergence { at: 0, .. })
        ));
        let step_skew = GuardSearchJournal {
            rounds: 2,
            steps: 1,
            ..GuardSearchJournal::default()
        };
        assert!(matches!(
            step_skew.check(),
            Err(JournalError::Divergence { at: 2, .. })
        ));
        let overspent = GuardSearchJournal {
            budget: Budget {
                fuel: 5,
                ..Budget::UNLIMITED
            },
            fuel: 6,
            ..GuardSearchJournal::default()
        };
        assert!(matches!(
            overspent.check(),
            Err(JournalError::Divergence { .. })
        ));
        // A spend whose counter sum overflows is incoherent, not a panic.
        let overflowing = GuardSearchJournal::parse(
            "hybrid-journal v1\nspent 18446744073709551615 1 1\nrounds 1\n",
        )
        .expect("well-formed text parses");
        assert!(matches!(
            overflowing.check(),
            Err(JournalError::Divergence { .. })
        ));
    }
}
