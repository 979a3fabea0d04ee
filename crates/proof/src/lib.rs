//! # sciduction-proof — clausal proofs and an independent checker
//!
//! Sciduction's soundness guarantee is conditional (`valid(H) ⟹ sound(P)`,
//! PAPER.md §3), and until this crate the deductive engines themselves were
//! part of the trusted base: an `unsat` from the CDCL core or the bit-blasted
//! SMT layer came with no independently checkable evidence. This crate closes
//! that gap with three pieces:
//!
//! * [`Proof`] / [`ProofStep`] — a DRAT-style clausal proof format (learnt
//!   clause additions plus deletions, in DIMACS literal convention) with a
//!   plain-text serialization compatible with the `drat-trim` lineage.
//! * [`check_drat`] — a *forward* RUP/DRAT checker. It re-parses DIMACS with
//!   its own parser ([`parse_dimacs`]), replays unit propagation on its own
//!   flat clause arena, and shares no code with `sciduction-sat` or
//!   `sciduction-smt`. The trusted core is deliberately small: two-watched-
//!   literal propagation, no activity heuristics, and every lemma checked in
//!   proof order.
//! * [`SmtCertificate`] — an end-to-end certificate for a bit-blasted SMT
//!   `unsat`: the blasted CNF, the assumption literals active at the failing
//!   check, the term-to-literal blasting map, and the SAT proof. Checked by
//!   [`check_certificate`].
//!
//! The `scicheck` binary exposes the checker standalone; the
//! `sciduction-analysis` crate wires both entry points in as scilint passes
//! under the `PRF001`–`PRF004` codes.
//!
//! # Trusted-core boundary
//!
//! Everything in this crate *is* the trusted computing base for certified
//! verdicts; everything in the solver crates is *not*. A solver bug either
//! produces a proof this crate rejects (caught) or a proof it accepts — and
//! acceptance is justified purely by the RUP replay here, not by anything the
//! solver did.
//!
//! # Example
//!
//! ```
//! use sciduction_proof::{check_drat_text, CheckError};
//!
//! // (x1) ∧ (¬x1 ∨ x2) ∧ (¬x2) is unsat; the proof derives the empty clause.
//! let cnf = "p cnf 2 3\n1 0\n-1 2 0\n-2 0\n";
//! let proof = "0\n";
//! assert!(check_drat_text(cnf, proof).is_ok());
//!
//! // A proof that never derives the empty clause is rejected.
//! let err = check_drat_text("p cnf 2 1\n1 2 0\n", "").unwrap_err();
//! assert!(matches!(err, CheckError::NoEmptyClause));
//! ```

#![warn(missing_docs)]

mod certificate;
mod checker;
mod dimacs;
mod format;

pub use certificate::{check_certificate, BlastEntry, CertParseError, SmtCertificate};
pub use checker::{check_drat, check_drat_text, CheckError, CheckOutcome};
pub use dimacs::{parse_dimacs, CnfFormula};
pub use format::{Proof, ProofParseError, ProofStep};
