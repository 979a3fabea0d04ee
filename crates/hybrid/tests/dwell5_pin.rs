//! Bit-exact pin of the paper's Eq. (4) dwell-time synthesis on the
//! transmission: the configuration the `eq3_eq4` binary runs (5 s dwell,
//! dt 0.01, horizon 200, grid 0.01, seed budget 512). Every guard bound,
//! the query and round counts and the checkpoint journal text are pinned,
//! so any change to the simulation oracle or its dwell-prefix cache that
//! moves a single bit shows up here, uninterrupted and across every
//! kill-and-resume point.

use sciduction::budget::Budget;
use sciduction_hybrid::transmission::{guard_seeds, initial_guards, transmission};
use sciduction_hybrid::{
    synthesize_switching, synthesize_switching_journaled, synthesize_switching_resume, Grid,
    GuardSearchJournal, ReachConfig, SwitchSynthConfig, SwitchSynthesis,
};

fn eq4_config() -> SwitchSynthConfig {
    SwitchSynthConfig {
        grid: Grid::new(0.01),
        reach: ReachConfig {
            dt: 0.01,
            horizon: 200.0,
            min_dwell: 5.0,
            equilibrium_eps: 1e-9,
        },
        max_rounds: 8,
        seed_budget: 512,
        budget: Budget::UNLIMITED,
    }
}

const NEG_INF: u64 = 0xfff0000000000000;
const POS_INF: u64 = 0x7ff0000000000000;

/// `(lo, hi)` bit patterns of every guard, `[θ, ω]` each, in transition
/// order (gN1U … g21D, then the fixed g1ND).
const GUARD_BITS: [([u64; 2], [u64; 2]); 12] = [
    ([NEG_INF, 0x0000000000000000], [POS_INF, 0x402ad1eb851eb852]), // ω ∈ [0, 13.41]
    ([NEG_INF, 0x0000000000000000], [POS_INF, 0x402ad1eb851eb852]), // ω ∈ [0, 13.41]
    ([NEG_INF, 0x402a99999999999a], [POS_INF, 0x4037666666666667]), // ω ∈ [13.3, 23.4]
    ([NEG_INF, 0x402a99999999999a], [POS_INF, 0x4037666666666667]), // ω ∈ [13.3, 23.4]
    ([NEG_INF, 0x40374f5c28f5c28f], [POS_INF, 0x4040b33333333333]), // ω ∈ [23.31, 33.4]
    ([NEG_INF, 0x40374f5c28f5c28f], [POS_INF, 0x4040b33333333333]), // ω ∈ [23.31, 33.4]
    ([NEG_INF, 0x0000000000000000], [POS_INF, 0x4030b0a3d70a3d71]), // ω ∈ [0, 16.69]
    ([NEG_INF, 0x40309c28f5c28f5c], [POS_INF, 0x403ab0a3d70a3d71]), // ω ∈ [16.61, 26.69]
    ([NEG_INF, 0x403a970a3d70a3d7], [POS_INF, 0x404259999999999a]), // ω ∈ [26.59, 36.7]
    ([NEG_INF, 0x40309c28f5c28f5c], [POS_INF, 0x403ab0a3d70a3d71]), // ω ∈ [16.61, 26.69]
    ([NEG_INF, 0x0000000000000000], [POS_INF, 0x4030b0a3d70a3d71]), // ω ∈ [0, 16.69]
    (
        [0x409a900000000000, 0x0000000000000000],
        [0x409a900000000000, 0x0000000000000000],
    ), // θ = 1700, ω = 0
];

const ORACLE_QUERIES: u64 = 708;
const ROUNDS: usize = 3;

/// The `hybrid-journal v1` text of the uninterrupted run.
const JOURNAL: &str = "hybrid-journal v1
grid 3f847ae147ae147b
budget 18446744073709551615 18446744073709551615 18446744073709551615 18446744073709551615
spent 0 3 708
rounds 3
queries 708
guard fff0000000000000,0000000000000000 -> 7ff0000000000000,402ad1eb851eb852
guard fff0000000000000,0000000000000000 -> 7ff0000000000000,402ad1eb851eb852
guard fff0000000000000,402a99999999999a -> 7ff0000000000000,4037666666666667
guard fff0000000000000,402a99999999999a -> 7ff0000000000000,4037666666666667
guard fff0000000000000,40374f5c28f5c28f -> 7ff0000000000000,4040b33333333333
guard fff0000000000000,40374f5c28f5c28f -> 7ff0000000000000,4040b33333333333
guard fff0000000000000,0000000000000000 -> 7ff0000000000000,4030b0a3d70a3d71
guard fff0000000000000,40309c28f5c28f5c -> 7ff0000000000000,403ab0a3d70a3d71
guard fff0000000000000,403a970a3d70a3d7 -> 7ff0000000000000,404259999999999a
guard fff0000000000000,40309c28f5c28f5c -> 7ff0000000000000,403ab0a3d70a3d71
guard fff0000000000000,0000000000000000 -> 7ff0000000000000,4030b0a3d70a3d71
guard 409a900000000000,0000000000000000 -> 409a900000000000,0000000000000000
";

fn assert_pinned(out: &SwitchSynthesis, context: &str) {
    assert_eq!(out.oracle_queries, ORACLE_QUERIES, "{context}: queries");
    assert_eq!(out.rounds, ROUNDS, "{context}: rounds");
    assert!(out.converged, "{context}: must converge");
    assert_eq!(out.exhausted, None, "{context}: exhausted");
    assert_eq!(out.logic.guards.len(), GUARD_BITS.len(), "{context}");
    for (t, (g, (lo, hi))) in out.logic.guards.iter().zip(&GUARD_BITS).enumerate() {
        let got_lo: Vec<u64> = g.lo.iter().map(|v| v.to_bits()).collect();
        let got_hi: Vec<u64> = g.hi.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got_lo, lo, "{context}: guard {t} lo");
        assert_eq!(got_hi, hi, "{context}: guard {t} hi");
    }
}

#[test]
fn dwell5_synthesis_is_pinned_bit_for_bit() {
    let mds = transmission();
    let cfg = eq4_config();
    let out = synthesize_switching(&mds, initial_guards(&mds), &guard_seeds(&mds), &cfg);
    assert_pinned(&out, "uninterrupted");
    let (journaled, journal) =
        synthesize_switching_journaled(&mds, initial_guards(&mds), &guard_seeds(&mds), &cfg, None);
    assert_pinned(&journaled.expect("no kill point"), "journaled");
    assert_eq!(journal.serialize(), JOURNAL);
}

#[test]
fn dwell5_kill_and_resume_at_every_round_reaches_the_pin() {
    let mds = transmission();
    let cfg = eq4_config();
    for k in 0..ROUNDS {
        let (out, journal) = synthesize_switching_journaled(
            &mds,
            initial_guards(&mds),
            &guard_seeds(&mds),
            &cfg,
            Some(k),
        );
        assert!(out.is_none(), "kill at {k} did not kill");
        assert_eq!(journal.rounds, k);
        let journal = GuardSearchJournal::parse(&journal.serialize()).expect("round trip");
        let resumed =
            synthesize_switching_resume(&mds, &guard_seeds(&mds), &cfg, &journal).expect("resume");
        assert_pinned(&resumed, &format!("kill at {k}"));
    }
}
