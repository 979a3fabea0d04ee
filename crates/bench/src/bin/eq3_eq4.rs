//! Reproduces the synthesized transmission guards of the paper's
//! **Eq. (3)** (safety only) and the dwell-time variant of **Eq. (4)**
//! (≥ 5 s per gear mode).
//!
//! Run with `cargo run --release -p sciduction-bench --bin eq3_eq4`. Exits 1
//! when the a-posteriori validation of the Eq. (3) guards finds an unsafe
//! sampled state, or when some dwell guard is not contained in its Eq. (3)
//! guard.

use sciduction_bench::{print_table, write_csv};
use sciduction_hybrid::transmission::{eq3_expected, guard_seeds, initial_guards, transmission};
use sciduction_hybrid::{
    synthesize_switching, validate_logic, Grid, ReachConfig, SwitchSynthConfig,
};
use std::time::Instant;

fn config(min_dwell: f64) -> SwitchSynthConfig {
    SwitchSynthConfig {
        grid: Grid::new(0.01),
        reach: ReachConfig {
            dt: 0.01,
            horizon: 200.0,
            min_dwell,
            equilibrium_eps: 1e-9,
        },
        max_rounds: 8,
        seed_budget: 512,
        ..SwitchSynthConfig::default()
    }
}

fn main() {
    let mds = transmission();
    let seeds = guard_seeds(&mds);

    // Eq. (3): safety-only synthesis.
    let t0 = Instant::now();
    let eq3 = synthesize_switching(&mds, initial_guards(&mds), &seeds, &config(0.0));
    let t_eq3 = t0.elapsed();
    println!(
        "== Eq. (3): safety-only guards (converged: {}, rounds: {}, \
         simulator queries: {}, {t_eq3:.2?}) ==",
        eq3.converged, eq3.rounds, eq3.oracle_queries
    );
    let mut rows = Vec::new();
    let mut csv = vec![vec![
        "guard".to_string(),
        "ours_lo".to_string(),
        "ours_hi".to_string(),
        "paper_lo".to_string(),
        "paper_hi".to_string(),
    ]];
    for (idx, (name, plo, phi)) in eq3_expected().iter().enumerate() {
        let g = &eq3.logic.guards[idx];
        rows.push(vec![
            name.to_string(),
            format!("{:.2} ≤ ω ≤ {:.2}", g.lo[1], g.hi[1]),
            format!("{plo:.2} ≤ ω ≤ {phi:.2}"),
            if (g.lo[1] - plo).abs() <= 0.02 && (g.hi[1] - phi).abs() <= 0.02 {
                "✓".to_string()
            } else {
                "✗".to_string()
            },
        ]);
        csv.push(vec![
            name.to_string(),
            format!("{:.2}", g.lo[1]),
            format!("{:.2}", g.hi[1]),
            format!("{plo:.2}"),
            format!("{phi:.2}"),
        ]);
    }
    rows.push(vec![
        "g1ND".into(),
        "θ = θmax ∧ ω = 0 (fixed)".into(),
        "θ = θmax ∧ ω = 0".into(),
        "✓".into(),
    ]);
    print_table(&["guard", "synthesized", "paper Eq. (3)", "match"], &rows);
    let p = write_csv("eq3_guards", &csv);
    println!("series written to {}\n", p.display());

    let violations = match validate_logic(&mds, &eq3.logic, 25, &config(0.0).reach) {
        sciduction::ValidityEvidence::EmpiricallyTested {
            trials, violations, ..
        } => {
            println!("a-posteriori validation: {violations}/{trials} sampled guard states unsafe");
            violations
        }
        _ => unreachable!(),
    };

    // Eq. (4): dwell-time variant.
    let t0 = Instant::now();
    let eq4 = synthesize_switching(&mds, initial_guards(&mds), &seeds, &config(5.0));
    let t_eq4 = t0.elapsed();
    println!(
        "\n== Eq. (4) variant: ≥ 5 s dwell per gear mode (converged: {}, {t_eq4:.2?}) ==",
        eq4.converged
    );
    // Paper values for the dwell case (Eq. (4)); our dwell semantics
    // differs in unstated details, so this comparison is shape-level.
    let eq4_paper: Vec<(&str, &str)> = vec![
        ("gN1U", "ω = 0"),
        ("g11U", "ω = 0"),
        ("g12U", "13.29 ≤ ω ≤ 23.42"),
        ("g22U", "13.29 ≤ ω = 23.42"),
        ("g23U", "26.70 ≤ ω ≤ 33.42"),
        ("g33U", "23.29 ≤ ω ≤ 33.42"),
        ("g11D", "1.31 ≤ ω ≤ 16.70"),
        ("g22D", "ω = 26.70"),
        ("g33D", "ω = 36.70"),
        ("g32D", "16.58 ≤ ω ≤ 26.70"),
        ("g21D", "1.31 ≤ ω ≤ 16.70"),
    ];
    let mut rows4 = Vec::new();
    let mut csv4 = vec![vec![
        "guard".to_string(),
        "ours_lo".to_string(),
        "ours_hi".to_string(),
        "paper".to_string(),
    ]];
    for (idx, (name, paper)) in eq4_paper.iter().enumerate() {
        let g = &eq4.logic.guards[idx];
        let ours = if g.is_empty() {
            "∅".to_string()
        } else {
            format!("{:.2} ≤ ω ≤ {:.2}", g.lo[1], g.hi[1])
        };
        rows4.push(vec![name.to_string(), ours.clone(), paper.to_string()]);
        csv4.push(vec![
            name.to_string(),
            format!("{:.2}", g.lo[1]),
            format!("{:.2}", g.hi[1]),
            paper.to_string(),
        ]);
    }
    print_table(
        &["guard", "synthesized (dwell ≥ 5 s)", "paper Eq. (4)"],
        &rows4,
    );
    let p4 = write_csv("eq4_guards", &csv4);
    println!("series written to {}", p4.display());
    let nested = eq4
        .logic
        .guards
        .iter()
        .zip(&eq3.logic.guards)
        .all(|(d, b)| d.is_subset_of(b));
    println!("\nShape check: every dwell guard ⊆ its Eq. (3) guard: {nested}");
    if violations > 0 || !nested {
        eprintln!(
            "eq3_eq4 FAILED: {violations} Eq. (3) validation violation(s); \
             dwell guards nested in Eq. (3) guards: {nested}"
        );
        std::process::exit(1);
    }
}
