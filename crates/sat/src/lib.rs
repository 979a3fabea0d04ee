//! # sciduction-sat — a CDCL Boolean satisfiability solver
//!
//! This crate is the lowest-level *deductive engine* substrate of the
//! sciduction reproduction (Seshia, *Sciduction*, DAC 2012). Every deductive
//! query issued by the applications — path feasibility in GameTime (Sec. 3),
//! candidate-program and distinguishing-input generation in oracle-guided
//! synthesis (Sec. 4) — bottoms out in propositional satisfiability after
//! bit-blasting by the `sciduction-smt` crate.
//!
//! The solver is a conventional conflict-driven clause-learning (CDCL)
//! engine in the MiniSat lineage:
//!
//! * two-watched-literal unit propagation with blockers,
//! * first-UIP conflict analysis with recursive clause minimization,
//! * exponential VSIDS branching with phase saving,
//! * Luby restarts and activity/LBD-based learnt-clause reduction,
//! * incremental solving under assumptions with failed-assumption
//!   extraction.
//!
//! # Examples
//!
//! ```
//! use sciduction_sat::{Solver, Lit, SolveResult};
//!
//! let mut solver = Solver::new();
//! let a = solver.new_var();
//! let b = solver.new_var();
//! // (a ∨ b) ∧ (¬a ∨ b) ∧ (¬b ∨ ¬a)
//! solver.add_clause([Lit::positive(a), Lit::positive(b)]);
//! solver.add_clause([Lit::negative(a), Lit::positive(b)]);
//! solver.add_clause([Lit::negative(b), Lit::negative(a)]);
//! assert_eq!(solver.solve(), SolveResult::Sat);
//! assert_eq!(solver.value(b), Some(true));
//! assert_eq!(solver.value(a), Some(false));
//! ```

#![warn(missing_docs)]

mod clause;
pub mod dimacs;
pub mod portfolio;
pub mod proof;
mod solver;
mod types;

pub use clause::{Clause, ClauseRef};
pub use dimacs::{Cnf, DimacsError};
pub use portfolio::{
    diversified_configs, solve_portfolio, solve_portfolio_supervised, solve_portfolio_with_faults,
    PortfolioConfig, PortfolioOutcome,
};
pub use solver::{SolveResult, Solver, SolverConfig, Stats};
pub use types::{LBool, Lit, Var};
