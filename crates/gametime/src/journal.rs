//! Checkpoint journal for the measurement loop (DESIGN.md §4.15).
//!
//! A [`MeasurementJournal`] records the completed basis-path
//! measurements of one [`analyze`](crate::analyze) run: the trial
//! schedule itself is re-derivable from the configured seed, so the
//! journal only needs `(basis index, measured cycles)` per completed
//! trial. Resuming re-derives the schedule, verifies the journaled
//! prefix follows it (the `REC001` divergence check), reuses the
//! recorded cycle counts, and measures only the remaining trials — the
//! fitted model is bit-identical to an uninterrupted run because the
//! totals it is fitted from are.

use sciduction::recover::{read_journal, JournalError};

/// The checkpoint journal of one measurement phase.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct MeasurementJournal {
    /// The run's schedule seed (journals from a different seed are
    /// rejected at resume).
    pub seed: u64,
    /// The configured trial count (pre-clamp; the effective schedule
    /// length is `max(trials, basis size)`).
    pub trials: usize,
    /// Completed measurements in schedule order: `(basis path index,
    /// measured cycles)`.
    pub completed: Vec<(usize, u64)>,
}

impl MeasurementJournal {
    /// Serializes the journal to its line-oriented text format.
    pub fn serialize(&self) -> String {
        let mut out = String::from("gametime-journal v1\n");
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("trials {}\n", self.trials));
        for (k, cycles) in &self.completed {
            out.push_str(&format!("measurement {k} {cycles}\n"));
        }
        out
    }

    /// Parses a journal serialized by [`MeasurementJournal::serialize`].
    ///
    /// # Errors
    ///
    /// [`JournalError::Parse`] on any malformed line.
    pub fn parse(text: &str) -> Result<Self, JournalError> {
        let mut journal = MeasurementJournal::default();
        for line in read_journal(text, "gametime-journal v1")? {
            let line = line?;
            match line.key {
                "seed" => journal.seed = line.field()?,
                "trials" => journal.trials = line.field()?,
                "measurement" => {
                    let (k, cycles) = line.split(line.value, " ")?;
                    journal
                        .completed
                        .push((line.parse(k, "index")?, line.parse(cycles, "cycles")?));
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
    fn journal_round_trips() {
        let journal = MeasurementJournal {
            seed: 0x6A3E,
            trials: 60,
            completed: vec![(0, 120), (1, 95), (0, 120)],
        };
        // The v1 wire text, pinned byte for byte.
        let text = "gametime-journal v1\n\
                    seed 27198\n\
                    trials 60\n\
                    measurement 0 120\n\
                    measurement 1 95\n\
                    measurement 0 120\n";
        assert_eq!(journal.serialize(), text);
        assert_eq!(MeasurementJournal::parse(text), Ok(journal));
    }

    #[test]
    fn malformed_journals_are_rejected_with_the_line() {
        assert!(matches!(
            MeasurementJournal::parse("cegis-journal v1\n"),
            Err(JournalError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            MeasurementJournal::parse("gametime-journal v1\nmeasurement 3\n"),
            Err(JournalError::Parse { line: 2, .. })
        ));
    }
}
