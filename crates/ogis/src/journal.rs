//! Checkpoint journals for the CEGIS loop (DESIGN.md §4.15).
//!
//! A [`CegisJournal`] records the *oracle-facing* history of a synthesis
//! run: every I/O example in accumulation order (the seed examples, then
//! one distinguishing example per non-terminal iteration) plus the count
//! of completed iterations. That is the whole nondeterministic-looking
//! surface of the loop — the SMT side is a pure function of the examples
//! — so resuming is *replay*: re-run the loop, consume recorded oracle
//! answers for the journaled prefix (verifying the replayed inputs match
//! what the journal recorded — the `REC001` divergence check), and go
//! live only past the end of the tape. A resumed run provably reaches
//! the same artifact as an uninterrupted one because both compute the
//! identical function of the identical example sequence.

use sciduction::recover::{journal_list, read_journal, JournalError};
use sciduction_smt::BvValue;

/// The checkpoint journal of one CEGIS run: configuration echo plus the
/// accumulated I/O examples, in order.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CegisJournal {
    /// The run's example seed (journals from a different seed are
    /// rejected at resume).
    pub seed: u64,
    /// Bit-width of the component library.
    pub width: u32,
    /// Library input arity.
    pub num_inputs: usize,
    /// Library output arity.
    pub num_outputs: usize,
    /// The run's configured seed-example count.
    pub initial_examples: usize,
    /// Completed loop iterations at checkpoint time.
    pub iterations: usize,
    /// Every accumulated example `(inputs, outputs)`, in accumulation
    /// order: the initial seed examples first, then one distinguishing
    /// example per recorded iteration.
    pub examples: Vec<(Vec<BvValue>, Vec<BvValue>)>,
}

impl CegisJournal {
    /// Serializes the journal to its line-oriented text format.
    pub fn serialize(&self) -> String {
        let mut out = String::from("cegis-journal v1\n");
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("width {}\n", self.width));
        out.push_str(&format!("inputs {}\n", self.num_inputs));
        out.push_str(&format!("outputs {}\n", self.num_outputs));
        out.push_str(&format!("initial {}\n", self.initial_examples));
        out.push_str(&format!("iterations {}\n", self.iterations));
        let value = |v: &BvValue| format!("{:x}/{}", v.as_u64(), v.width());
        for (ins, outs) in &self.examples {
            out.push_str(&format!(
                "example {} -> {}\n",
                journal_list(ins, value),
                journal_list(outs, value)
            ));
        }
        out
    }

    /// Parses a journal serialized by [`CegisJournal::serialize`].
    ///
    /// # Errors
    ///
    /// [`JournalError::Parse`] on any malformed line.
    pub fn parse(text: &str) -> Result<Self, JournalError> {
        let mut journal = CegisJournal::default();
        for line in read_journal(text, "cegis-journal v1")? {
            let line = line?;
            match line.key {
                "seed" => journal.seed = line.field()?,
                "width" => journal.width = line.field()?,
                "inputs" => journal.num_inputs = line.field()?,
                "outputs" => journal.num_outputs = line.field()?,
                "initial" => journal.initial_examples = line.field()?,
                "iterations" => journal.iterations = line.field()?,
                "example" => {
                    let value = |item: &str| {
                        let (bits, width) = line.split(item, "/")?;
                        let width: u32 = line.parse(width, "value width")?;
                        if !(1..=64).contains(&width) {
                            return Err(line.error(format!("width {width} outside 1..=64")));
                        }
                        Ok(BvValue::new(line.hex(bits, "value bits")?, width))
                    };
                    let (ins, outs) = line.split(line.value, " -> ")?;
                    journal
                        .examples
                        .push((line.list(ins, value)?, line.list(outs, value)?));
                }
                _ => return Err(line.unknown_key()),
            }
        }
        journal.check()?;
        Ok(journal)
    }

    /// Structural well-formedness (the cheap half of `REC001`): example
    /// arities match the declared library shape, every value fits the
    /// declared width, and the iteration count can account for the
    /// example count.
    ///
    /// # Errors
    ///
    /// [`JournalError::Divergence`] naming the first offending entry.
    pub fn check(&self) -> Result<(), JournalError> {
        for (i, (ins, outs)) in self.examples.iter().enumerate() {
            let bad = |detail: String| JournalError::Divergence { at: i, detail };
            if ins.len() != self.num_inputs {
                return Err(bad(format!(
                    "example has {} inputs, library takes {}",
                    ins.len(),
                    self.num_inputs
                )));
            }
            if outs.len() != self.num_outputs {
                return Err(bad(format!(
                    "example has {} outputs, library yields {}",
                    outs.len(),
                    self.num_outputs
                )));
            }
            if let Some(v) = ins.iter().chain(outs).find(|v| v.width() != self.width) {
                return Err(bad(format!(
                    "value width {} disagrees with library width {}",
                    v.width(),
                    self.width
                )));
            }
        }
        // Each iteration contributes at most one distinguishing example
        // on top of the seed examples.
        let ceiling = self.initial_examples.max(1).saturating_add(self.iterations);
        if self.examples.len() > ceiling {
            return Err(JournalError::Divergence {
                at: ceiling,
                detail: format!(
                    "{} examples cannot come from {} seed examples + {} iterations",
                    self.examples.len(),
                    self.initial_examples.max(1),
                    self.iterations
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bv(x: u64, w: u32) -> BvValue {
        BvValue::new(x, w)
    }

    #[test]
    fn journal_round_trips() {
        let journal = CegisJournal {
            seed: 0xFEED,
            width: 8,
            num_inputs: 2,
            num_outputs: 1,
            initial_examples: 2,
            iterations: 3,
            examples: vec![
                (vec![bv(3, 8), bv(255, 8)], vec![bv(7, 8)]),
                (vec![bv(0, 8), bv(1, 8)], vec![bv(0, 8)]),
            ],
        };
        // The v1 wire text, pinned byte for byte.
        let text = "cegis-journal v1\n\
                    seed 65261\n\
                    width 8\n\
                    inputs 2\n\
                    outputs 1\n\
                    initial 2\n\
                    iterations 3\n\
                    example 3/8,ff/8 -> 7/8\n\
                    example 0/8,1/8 -> 0/8\n";
        assert_eq!(journal.serialize(), text);
        assert_eq!(CegisJournal::parse(text), Ok(journal));
    }

    #[test]
    fn malformed_journals_are_rejected_with_the_line() {
        assert!(matches!(
            CegisJournal::parse(""),
            Err(JournalError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            CegisJournal::parse("not-a-journal\n"),
            Err(JournalError::Parse { line: 1, .. })
        ));
        let err = CegisJournal::parse("cegis-journal v1\nseed 1\nexample zz/8 -> 1/8\n");
        assert!(matches!(err, Err(JournalError::Parse { line: 3, .. })));
    }

    #[test]
    fn arity_violations_fail_the_structural_check() {
        let journal = CegisJournal {
            seed: 1,
            width: 8,
            num_inputs: 2,
            num_outputs: 1,
            initial_examples: 1,
            iterations: 0,
            examples: vec![(vec![bv(1, 8)], vec![bv(2, 8)])], // one input, not two
        };
        assert!(matches!(
            journal.check(),
            Err(JournalError::Divergence { at: 0, .. })
        ));
        let journal = CegisJournal {
            examples: vec![(vec![bv(1, 8), bv(2, 4)], vec![bv(2, 8)])], // width 4 ≠ 8
            ..journal
        };
        assert!(matches!(
            journal.check(),
            Err(JournalError::Divergence { at: 0, .. })
        ));
    }
}
