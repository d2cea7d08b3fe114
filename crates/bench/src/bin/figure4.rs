//! Reproduces **Figure 4**: VerilogEval pass@1 outcome shares prior
//! (inner ring) and post (outer ring) syntax fixing — the pie charts.
//!
//! Run with `cargo run --release -p rtlfixer-bench --bin figure4`.

use rtlfixer_bench::{fmt3, folded_stats, pass_at_k_config, record_run, render_table, RunScale};
use rtlfixer_eval::experiments::table2::evaluate_suite;

fn main() {
    let scale = RunScale::from_args();
    let config = pass_at_k_config(&scale);
    eprintln!("Figure 4: outcome shares before/after fixing");
    let mut rows = Vec::new();
    let mut suite_stats = Vec::new();
    for (label, problems) in [
        ("Human", rtlfixer_dataset::verilog_eval_human()),
        ("Machine", rtlfixer_dataset::verilog_eval_machine()),
    ] {
        let evaluation = evaluate_suite(label, &problems, &config);
        suite_stats.push(evaluation.stats);
        for (ring, shares) in [
            ("prior (inner)", evaluation.shares_original),
            ("post (outer)", evaluation.shares_fixed),
        ] {
            rows.push(vec![
                label.to_owned(),
                ring.to_owned(),
                fmt3(shares.pass),
                fmt3(shares.syntax_error),
                fmt3(shares.sim_error),
            ]);
        }
    }
    println!(
        "{}",
        render_table(&["Suite", "Ring", "pass", "syntax error", "sim error"], &rows)
    );
    println!("Paper (Human): pass rises 0.267 -> 0.368 purely from syntax fixing.");
    record_run("figure4", scale.jobs, &folded_stats(&suite_stats));
}
