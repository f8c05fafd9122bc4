//! Golden regression test for the Monte Carlo ranking-frequency matrix.
//!
//! Pins the paper model's `rank_counts()` for 10 000 trials under seeds
//! 20120402 (the paper run) and 8675309, for all four
//! `MonteCarloConfig` classes, against the checked-in fixture
//! `tests/fixtures/mc_paper_counts.txt`. The fixture was generated by the
//! unpruned per-trial kernel, so a kernel rewrite that shifts the weight
//! stream, the score accumulation order or the tie rule shows up here even
//! when the rewritten kernel and `run_scalar_ctx` (which share the
//! sampler) drift together.
//!
//! To regenerate after an *intentional* change of the sampled stream:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test mc_golden
//! ```

use maut::EvalContext;
use maut_sense::{MonteCarlo, MonteCarloConfig};
use std::fmt::Write as _;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/mc_paper_counts.txt"
);

const TRIALS: usize = 10_000;
const SEEDS: [u64; 2] = [20120402, 8675309];

/// The four simulation classes over the paper model's `m` attributes: a
/// total order by attribute index and a partial order in index blocks of
/// five.
fn configs(m: usize) -> Vec<(&'static str, MonteCarloConfig)> {
    let order: Vec<usize> = (0..m).collect();
    let groups: Vec<Vec<usize>> = order.chunks(5).map(<[usize]>::to_vec).collect();
    vec![
        ("random", MonteCarloConfig::Random),
        ("rank-order", MonteCarloConfig::RankOrder(order)),
        (
            "partial-rank-order",
            MonteCarloConfig::PartialRankOrder(groups),
        ),
        ("elicited-intervals", MonteCarloConfig::ElicitedIntervals),
    ]
}

fn render(run: impl Fn(&MonteCarlo, &EvalContext) -> Vec<Vec<usize>>) -> String {
    let ctx = EvalContext::new(neon_reuse::paper_model().model).expect("paper model is valid");
    let mut out = String::new();
    for seed in SEEDS {
        for (name, config) in configs(ctx.model().num_attributes()) {
            writeln!(out, "# seed {seed} config {name} trials {TRIALS}").expect("write");
            let counts = run(&MonteCarlo::new(config, TRIALS, seed), &ctx);
            for (alt, row) in ctx.model().alternatives.iter().zip(&counts) {
                let row: Vec<String> = row.iter().map(usize::to_string).collect();
                writeln!(out, "{alt}\t{}", row.join(" ")).expect("write");
            }
        }
    }
    out
}

fn assert_matches_fixture(rendered: &str, path: &str) {
    let golden = std::fs::read_to_string(FIXTURE)
        .expect("fixture missing — run with UPDATE_GOLDEN=1 to create it");
    if rendered != golden {
        let first_diff = rendered
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .map(|n| {
                format!(
                    "first differing line {}:\n  got:    {}\n  golden: {}",
                    n + 1,
                    rendered.lines().nth(n).unwrap_or(""),
                    golden.lines().nth(n).unwrap_or("")
                )
            })
            .unwrap_or_else(|| "line counts differ".to_string());
        panic!("{path} rank counts drifted from the golden fixture ({first_diff})");
    }
}

#[test]
fn run_ctx_rank_counts_match_golden_fixture() {
    let rendered = render(|mc, ctx| mc.run_ctx(ctx).rank_counts().to_vec());
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(FIXTURE, &rendered).expect("write fixture");
        return;
    }
    assert_matches_fixture(&rendered, "run_ctx");
}

#[test]
fn scalar_reference_rank_counts_match_golden_fixture() {
    let rendered = render(|mc, ctx| mc.run_scalar_ctx(ctx).rank_counts().to_vec());
    assert_matches_fixture(&rendered, "run_scalar_ctx");
}
