//! Design-choice ablations called out in DESIGN.md §3: retriever choice,
//! ReAct iteration budget, pre-fixer contribution, guidance-database size.
//!
//! Run with `cargo run --release -p rtlfixer-bench --bin ablations`.

use rtlfixer_bench::{fmt3, folded_stats, record_run, render_table, RunScale};
use rtlfixer_eval::experiments::ablations;
use rtlfixer_eval::experiments::table1::FixRateConfig;

fn main() {
    let scale = RunScale::from_args();
    let config = if scale.quick {
        FixRateConfig { max_entries: Some(40), repeats: 2, jobs: scale.jobs, ..Default::default() }
    } else {
        FixRateConfig { repeats: 5, jobs: scale.jobs, ..Default::default() }
    };
    let mut point_stats = Vec::new();
    for (title, points) in [
        ("Retriever (ReAct + Quartus + RAG)", ablations::retriever_ablation(&config)),
        ("Retriever duel on tagless iverilog (ReAct + RAG)", ablations::iverilog_retriever_duel(&config)),
        ("ReAct iteration budget (Quartus, w/o RAG)", ablations::iteration_sweep(&config)),
        ("Rule-based pre-fixer (One-shot + Quartus + RAG)", ablations::prefixer_ablation(&config)),
        ("Guidance database size (ReAct + Quartus)", ablations::database_size_sweep(&config)),
    ] {
        println!("== {title} ==");
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| {
                point_stats.push(p.stats);
                vec![
                    p.variant.clone(),
                    fmt3(p.fix_rate),
                    format!("{:.2}", p.stats.seconds),
                    format!("{:.0}", p.stats.episodes_per_sec),
                ]
            })
            .collect();
        println!("{}", render_table(&["variant", "fix rate", "secs", "eps/s"], &rows));
    }
    record_run("ablations", scale.jobs, &folded_stats(&point_stats));
}
