//! Reproduces the §4.2 statistic: *"syntax errors constitute a significant
//! 55% of errors in GPT-3.5 generated Verilog code, surpassing simulation
//! errors"* (VerilogEval-Human).
//!
//! Run with `cargo run --release -p rtlfixer-bench --bin stats55`.

use rtlfixer_bench::{fmt3, pass_at_k_config, record_run, RunScale};
use rtlfixer_eval::experiments::table2::evaluate_suite;

fn main() {
    let scale = RunScale::from_args();
    let config = pass_at_k_config(&scale);
    let evaluation =
        evaluate_suite("Human", &rtlfixer_dataset::verilog_eval_human(), &config);
    let shares = evaluation.shares_original;
    let error_total = shares.syntax_error + shares.sim_error;
    let syntax_share_of_errors =
        if error_total > 0.0 { shares.syntax_error / error_total } else { 0.0 };
    println!("VerilogEval-Human generated-sample outcomes (GPT-3.5):");
    println!("  pass:          {}", fmt3(shares.pass));
    println!("  syntax errors: {}", fmt3(shares.syntax_error));
    println!("  sim errors:    {}", fmt3(shares.sim_error));
    println!(
        "syntax share of all errors: {} (paper: 0.55)",
        fmt3(syntax_share_of_errors)
    );
    record_run("stats55", scale.jobs, &evaluation.stats);
}
