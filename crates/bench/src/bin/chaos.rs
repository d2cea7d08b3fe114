//! Chaos sweep (DESIGN.md §3d): fix rate and revision cost versus injected
//! fault rate, across ReAct / One-shot × RAG on/off, demonstrating that the
//! resilient transport degrades gracefully instead of falling off a cliff.
//!
//! Run with `cargo run --release -p rtlfixer-bench --bin chaos`
//! (add `--quick` for a scaled-down smoke run). The sweep always carries
//! its fault specs explicitly, so it neither reads nor disturbs the
//! process-wide `RTLFIXER_FAULTS` setting. One deliberately panicking
//! probe episode exercises the pool's failure containment; it is reported
//! in the `failed` column of the first row.

use rtlfixer_bench::{fmt3, folded_stats, record_run, render_table, RunScale};
use rtlfixer_eval::experiments::chaos::{chaos, ChaosConfig};
use rtlfixer_eval::experiments::table1::FixRateConfig;

fn main() {
    let scale = RunScale::from_args();
    let fix = if scale.quick {
        FixRateConfig { max_entries: Some(24), repeats: 2, jobs: scale.jobs, ..Default::default() }
    } else {
        FixRateConfig { max_entries: Some(100), repeats: 5, jobs: scale.jobs, ..Default::default() }
    };
    let config = ChaosConfig { fix, panic_probe: true, ..ChaosConfig::default() };
    eprintln!(
        "Chaos sweep: fix rate vs fault rate ({} entries x {} repeats, {} variants x {} rates)",
        config.fix.max_entries.map_or(212, |c| c),
        config.fix.repeats,
        rtlfixer_eval::experiments::chaos::VARIANTS.len(),
        config.rates.len(),
    );
    let cells = chaos(&config);
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|cell| {
            vec![
                cell.strategy.clone(),
                if cell.rag { "w/" } else { "w/o" }.to_owned(),
                format!("{:.0}%", cell.fault_rate * 100.0),
                fmt3(cell.fix_rate),
                format!("{:.2}", cell.mean_revisions),
                cell.degraded_episodes.to_string(),
                cell.fault_events.to_string(),
                cell.failed_episodes.to_string(),
                format!("{:.2}", cell.stats.seconds),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "Prompt", "RAG", "faults", "fix rate", "revs", "degraded", "events", "failed",
                "secs",
            ],
            &rows
        )
    );
    record_run("chaos", scale.jobs, &folded_stats(cells.iter().map(|c| &c.stats)));
    println!("{}", serde_json::to_string_pretty(&cells).expect("serialises"));
}
