//! The paper's core workflow on the SOR kernel: generate design
//! variants by type transformation, cost all of them, print the
//! Fig-15-style wall table, and let the guided tuner walk to the best
//! point.
//!
//! ```sh
//! cargo run --release --example sor_design_space
//! ```

use tytra::device::stratix_v_gsd8;
use tytra::dse::{report, search, select_best, tune, ExplorationConfig, SearchConfig};
use tytra::ir::MemForm;
use tytra::kernels::Sor;
use tytra::transform::Variant;

fn main() {
    let sor = Sor::cubic(96, 1000);
    let dev = stratix_v_gsd8();

    // 1. Lane sweep — how utilisation and throughput scale (Fig 15).
    println!("== SOR lane sweep on {} ==", dev.name);
    let rows = report::lane_sweep(&sor, &dev, &[1, 2, 4, 8, 16, 32], &Variant::baseline());
    print!("{}", report::render_table(&rows));

    // 2. Full exploration — every legal (lanes × vect × form) point,
    //    with a leaderboard as large as the space.
    let space = ExplorationConfig {
        lanes: vec![1, 2, 4, 8, 16, 32],
        vects: vec![1, 2],
        forms: vec![MemForm::A, MemForm::B],
        ..ExplorationConfig::default()
    };
    let top_k = space.lanes.len() * space.vects.len() * space.forms.len();
    let outcome = search(&sor, &dev, &SearchConfig { top_k, ..SearchConfig::exhaustive(space) });
    let evaluated = outcome.leaderboard.len() + outcome.invalid.len();
    println!("\n== top variants of {evaluated} evaluated ==");
    print!("{}", report::render_search_leaderboard(&outcome, 8));

    let best = select_best(&outcome.leaderboard).expect("something fits");
    println!(
        "\nselected: {} — EKIT {:.1}/s, {}",
        best.variant.tag(),
        best.report.throughput.ekit,
        best.report.limiter
    );

    // 3. Guided tuning — the cost model's limiter drives the moves.
    println!("\n== guided tuning from the baseline ==");
    for step in tune(&sor, &dev, Variant::baseline(), 12) {
        println!(
            "  {:<18} EKIT {:>12.1}  {}{}",
            step.variant.tag(),
            step.ekit,
            step.limiter,
            step.action.map(|a| format!("  → {a}")).unwrap_or_default()
        );
    }
}
