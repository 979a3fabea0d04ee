//! # sciduction-ogis — oracle-guided component-based program synthesis
//!
//! Reproduction of the program-synthesis application of Seshia,
//! *Sciduction* (DAC 2012, Sec. 4): deobfuscation by *re-synthesis*,
//! where the only specification is the obfuscated program itself, viewed
//! as an I/O oracle. The sciduction triple (paper Table 1, second row):
//!
//! * **H** — loop-free programs composed from a finite component library
//!   ([`ComponentLibrary`], the Brahma-style multiset-of-components
//!   hypothesis);
//! * **I** — learning from *distinguishing inputs* ([`synthesize`]): find
//!   a candidate consistent with the examples, then ask the SMT solver for
//!   a semantically different consistent program and an input telling them
//!   apart; query the oracle there; repeat until the candidate is unique;
//! * **D** — SMT solving (`sciduction-smt`) for both candidate-program
//!   generation and distinguishing-input generation, via the
//!   location-variable (line-assignment) encoding.
//!
//! The paper's Fig. 8 benchmarks ship in [`benchmarks`]: `P1` (the
//! XOR-swap `interchange` deobfuscation) and `P2` (`multiply45`), with the
//! obfuscated originals transcribed as oracles. Fig. 7's soundness caveat
//! is mirrored by [`verify_against_oracle`]: when the library hypothesis
//! is invalid the loop may emit an incorrect program, and post-hoc
//! verification catches it.
//!
//! # Examples
//!
//! Deobfuscate `multiply45` (paper Fig. 8, P2; width 8 here to keep the
//! doctest quick — the release benches run the paper-scale 32-bit
//! variant):
//!
//! ```
//! use sciduction_ogis::{benchmarks, synthesize, SynthesisConfig, SynthesisOutcome};
//! use sciduction_smt::BvValue;
//!
//! let (library, mut oracle) = benchmarks::p2_with_width(8);
//! let (outcome, _stats) = synthesize(&library, &mut oracle, &SynthesisConfig::default());
//! match outcome {
//!     SynthesisOutcome::Synthesized { program, .. } => {
//!         let y = BvValue::new(7, 8);
//!         assert_eq!(program.eval(&[y])[0].as_u64(), (7 * 45) & 0xFF);
//!     }
//!     other => panic!("synthesis failed: {other:?}"),
//! }
//! ```

#![warn(missing_docs)]

pub mod benchmarks;
mod component;
mod instance;
mod journal;
mod synth;

pub use component::{ComponentLibrary, FnOracle, IoOracle, Op, SynthProgram};
pub use instance::{run_instance, DistinguishingInputLearner, OgisError, SmtSynthesisEngine};
pub use journal::CegisJournal;
pub use synth::{
    synthesize, synthesize_journaled, synthesize_portfolio, synthesize_portfolio_supervised,
    synthesize_portfolio_with_faults, synthesize_resume, synthesize_with_cache,
    verify_against_oracle, ParallelSynthesisConfig, ParallelSynthesisOutcome, SynthesisConfig,
    SynthesisOutcome, SynthesisStats, VerificationResult,
};
