//! Reproduces **Table 1**: fix rate for One-shot vs ReAct, w/ and w/o RAG,
//! across feedback sources and LLMs, on VerilogEval-syntax.
//!
//! Run with `cargo run --release -p rtlfixer-bench --bin table1`
//! (add `--quick` for a scaled-down smoke run). Multi-process mode:
//! `--shard i/n` runs one deterministic stripe of the grid and writes a
//! verdict fragment under `<results_dir>/shards/`; `merge-shards n` reads
//! the fragments back and reassembles output byte-identical to an
//! unsharded run (identical fix rates and verdict fingerprint — wall-clock
//! fields are the only legitimate difference).

use rtlfixer_bench::shards::{as_bool, as_usize, read_fragments, stats_from_json, write_fragment};
use rtlfixer_bench::{die, fmt3, folded_stats, record_run, render_table, RunScale};
use rtlfixer_eval::experiments::table1::{
    merge_table1_verdicts, table1_merged, table1_verdicts, CellVerdicts, FixRateConfig,
    Table1Merge,
};

fn config_for(scale: &RunScale) -> FixRateConfig {
    if scale.quick {
        FixRateConfig { max_entries: Some(40), repeats: 3, jobs: scale.jobs, ..Default::default() }
    } else {
        FixRateConfig { jobs: scale.jobs, ..Default::default() }
    }
}

/// Encodes one shard's verdicts as a fragment payload. Raw success bits by
/// grid position — never derived rates — so the merge recomputes exactly
/// what an unsharded run computes.
fn fragment_json(quick: bool, cells: &[CellVerdicts]) -> serde_json::Value {
    let cells: Vec<serde_json::Value> = cells
        .iter()
        .map(|cell| {
            let positions: Vec<u64> = cell.successes.iter().map(|&(p, _)| p as u64).collect();
            let fixed: Vec<u8> = cell.successes.iter().map(|&(_, s)| s as u8).collect();
            serde_json::json!({
                "positions": positions,
                "fixed": fixed,
                "stats": serde_json::Value::from_serialize(&cell.stats),
            })
        })
        .collect();
    serde_json::json!({ "quick": quick, "cells": cells })
}

fn fragment_from_json(
    quick: bool,
    payload: &serde_json::Value,
) -> Result<Vec<CellVerdicts>, String> {
    if as_bool(&payload["quick"]) != Some(quick) {
        return Err(
            "fragment scale does not match this invocation (run merge-shards with the same \
             --quick flag the shards used)"
                .to_owned(),
        );
    }
    let cells = payload["cells"].as_array().ok_or("fragment missing `cells`")?;
    cells
        .iter()
        .map(|cell| {
            let positions =
                cell["positions"].as_array().ok_or("fragment cell missing `positions`")?;
            let fixed = cell["fixed"].as_array().ok_or("fragment cell missing `fixed`")?;
            if positions.len() != fixed.len() {
                return Err("fragment cell positions/fixed length mismatch".to_owned());
            }
            let successes = positions
                .iter()
                .zip(fixed)
                .map(|(position, bit)| {
                    let position = as_usize(position).ok_or("non-integer grid position")?;
                    let success = match bit.as_u64() {
                        Some(0) => false,
                        Some(1) => true,
                        _ => return Err("fragment verdict is not a 0/1 bit".to_owned()),
                    };
                    Ok((position, success))
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(CellVerdicts { successes, stats: stats_from_json(&cell["stats"])? })
        })
        .collect()
}

/// Renders and records a complete (unsharded or merged) Table 1 run.
fn finish(scale: &RunScale, merged: &Table1Merge) {
    let rows: Vec<Vec<String>> = merged
        .cells
        .iter()
        .map(|cell| {
            vec![
                cell.strategy.clone(),
                if cell.rag { "w/" } else { "w/o" }.to_owned(),
                cell.compiler.clone(),
                cell.llm.clone(),
                fmt3(cell.fix_rate),
                fmt3(cell.paper),
                fmt3(cell.fix_rate - cell.paper),
                format!("{:.2}", cell.stats.seconds),
                format!("{:.0}", cell.stats.episodes_per_sec),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "Prompt", "RAG", "Feedback", "LLM", "measured", "paper", "delta", "secs",
                "eps/s",
            ],
            &rows
        )
    );
    println!("verdict_fingerprint: {:032x}", merged.verdict_fingerprint);
    let stats = folded_stats(merged.cells.iter().map(|cell| &cell.stats));
    record_run("table1", scale.jobs, &stats);
    println!("{}", serde_json::to_string_pretty(&merged.cells).expect("serialises"));
}

fn main() {
    let scale = RunScale::from_args();
    let config = config_for(&scale);
    if let Some(count) = scale.merge_shards {
        let payloads = read_fragments("table1", count).unwrap_or_else(|e| die(e));
        let shards: Vec<Vec<CellVerdicts>> = payloads
            .iter()
            .map(|payload| fragment_from_json(scale.quick, payload))
            .collect::<Result<_, _>>()
            .unwrap_or_else(|e| die(e));
        let merged = merge_table1_verdicts(&config, &shards).unwrap_or_else(|e| die(e));
        eprintln!("Table 1: merged {count} shards");
        finish(&scale, &merged);
        return;
    }
    if let Some(shard) = scale.shard {
        eprintln!(
            "Table 1 shard {shard}: fix rate on VerilogEval-syntax ({} entries x {} repeats \
             per cell, 14 cells, stripe only)",
            config.max_entries.map_or(212, |c| c),
            config.repeats
        );
        let verdicts = table1_verdicts(&config, shard);
        let stats = folded_stats(verdicts.iter().map(|cell| &cell.stats));
        let path = write_fragment("table1", shard, fragment_json(scale.quick, &verdicts));
        record_run(&format!("table1.shard{}of{}", shard.index, shard.count), scale.jobs, &stats);
        println!(
            "wrote fragment {} ({} episodes in {:.2}s)",
            path.display(),
            stats.episodes,
            stats.seconds
        );
        return;
    }
    eprintln!(
        "Table 1: fix rate on VerilogEval-syntax ({} entries x {} repeats per cell, 14 cells)",
        config.max_entries.map_or(212, |c| c),
        config.repeats
    );
    let merged = table1_merged(&config);
    finish(&scale, &merged);
}
