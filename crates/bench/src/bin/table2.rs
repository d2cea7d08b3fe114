//! Reproduces **Table 2**: pass@{1,5} on VerilogEval (Human and Machine),
//! original vs after syntax fixing, with the All/easy/hard splits.
//!
//! Run with `cargo run --release -p rtlfixer-bench --bin table2`
//! (add `--quick` for a scaled-down smoke run). Multi-process mode:
//! `--shard i/n` evaluates one deterministic stripe of each suite's
//! problems and writes the raw per-problem counts as a fragment;
//! `merge-shards n` reassembles the fragments into the same rows an
//! unsharded run prints.

use rtlfixer_bench::shards::{as_bool, as_str, as_usize, read_fragments, stats_from_json};
use rtlfixer_bench::{die, fmt3, pass_at_k_config, record_run, render_table, RunScale};
use rtlfixer_dataset::{Difficulty, Problem};
use rtlfixer_eval::experiments::table2::{
    evaluate_suite, evaluate_suite_counts, suite_from_counts, PassAtKConfig, ProblemCounts,
    SuiteEvaluation,
};

/// Paper values: (suite, set, pass1_orig, pass1_fixed, pass5_orig, pass5_fixed).
const PAPER: &[(&str, &str, f64, f64, f64, f64)] = &[
    ("Human", "All", 0.267, 0.368, 0.458, 0.506),
    ("Human", "easy", 0.521, 0.666, 0.808, 0.847),
    ("Human", "hard", 0.053, 0.120, 0.164, 0.221),
    ("Machine", "All", 0.467, 0.799, 0.691, 0.891),
    ("Machine", "easy", 0.568, 0.833, 0.782, 0.892),
    ("Machine", "hard", 0.367, 0.771, 0.601, 0.890),
];

/// Encodes one suite's sharded counts for a fragment payload.
fn suite_json(counts: &[(usize, ProblemCounts)], stats: rtlfixer_eval::RunStats) -> serde_json::Value {
    let problems: Vec<serde_json::Value> = counts
        .iter()
        .map(|(index, c)| {
            serde_json::json!({
                "index": *index as u64,
                "difficulty": match c.difficulty {
                    Difficulty::Easy => "easy",
                    Difficulty::Hard => "hard",
                },
                "pass_original": c.pass_original as u64,
                "pass_fixed": c.pass_fixed as u64,
                "samples": c.samples as u64,
                "syntax_original": c.syntax_original as u64,
                "syntax_fixed": c.syntax_fixed as u64,
                "sim_original": c.sim_original as u64,
                "sim_fixed": c.sim_fixed as u64,
            })
        })
        .collect();
    serde_json::json!({
        "problems": problems,
        "stats": serde_json::Value::from_serialize(&stats),
    })
}

fn suite_from_json(
    value: &serde_json::Value,
) -> Result<(Vec<(usize, ProblemCounts)>, rtlfixer_eval::RunStats), String> {
    let problems = value["problems"].as_array().ok_or("fragment suite missing `problems`")?;
    let counts = problems
        .iter()
        .map(|p| {
            let int = |key: &str| {
                p.get(key)
                    .and_then(as_usize)
                    .ok_or_else(|| format!("fragment problem missing `{key}`"))
            };
            let difficulty = match as_str(&p["difficulty"]) {
                Some("easy") => Difficulty::Easy,
                Some("hard") => Difficulty::Hard,
                other => return Err(format!("fragment problem difficulty `{other:?}`")),
            };
            Ok((
                int("index")?,
                ProblemCounts {
                    difficulty,
                    pass_original: int("pass_original")?,
                    pass_fixed: int("pass_fixed")?,
                    samples: int("samples")?,
                    syntax_original: int("syntax_original")?,
                    syntax_fixed: int("syntax_fixed")?,
                    sim_original: int("sim_original")?,
                    sim_fixed: int("sim_fixed")?,
                },
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((counts, stats_from_json(&value["stats"])?))
}

/// Merges one suite across fragment payloads.
fn merge_suite(
    suite: &str,
    problems: &[Problem],
    config: &PassAtKConfig,
    payloads: &[serde_json::Value],
) -> Result<SuiteEvaluation, String> {
    let mut shards = Vec::with_capacity(payloads.len());
    let mut total: Option<rtlfixer_eval::RunStats> = None;
    for payload in payloads {
        let (counts, stats) = suite_from_json(&payload[suite])?;
        shards.push(counts);
        match &mut total {
            Some(total) => total.accumulate(&stats),
            None => total = Some(stats),
        }
    }
    let stats = total.ok_or("merge-shards needs at least one fragment")?;
    suite_from_counts(suite, problems, config, &shards, stats)
}

/// Renders and records a complete (unsharded or merged) Table 2 run.
fn finish(scale: &RunScale, human: &SuiteEvaluation, machine: &SuiteEvaluation) {
    let mut rows = Vec::new();
    for evaluation in [human, machine] {
        for row in &evaluation.rows {
            let paper = PAPER
                .iter()
                .find(|(suite, set, ..)| *suite == evaluation.suite && *set == row.set);
            let paper_cells = match paper {
                Some((_, _, p1o, p1f, p5o, p5f)) => {
                    (fmt3(*p1o), fmt3(*p1f), fmt3(*p5o), fmt3(*p5f))
                }
                None => ("-".into(), "-".into(), "-".into(), "-".into()),
            };
            rows.push(vec![
                evaluation.suite.clone(),
                row.set.clone(),
                format!("{}", row.problems),
                fmt3(row.pass1_original),
                fmt3(row.pass1_fixed),
                paper_cells.0,
                paper_cells.1,
                fmt3(row.pass5_original),
                fmt3(row.pass5_fixed),
                paper_cells.2,
                paper_cells.3,
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "Dataset", "Set", "#", "p@1 orig", "p@1 fixed", "paper orig", "paper fixed",
                "p@5 orig", "p@5 fixed", "paper orig", "paper fixed",
            ],
            &rows
        )
    );
    let mut stats = human.stats;
    stats.accumulate(&machine.stats);
    record_run("table2", scale.jobs, &stats);
    println!("{}", serde_json::to_string_pretty(&[human, machine]).expect("serialises"));
}

fn main() {
    let scale = RunScale::from_args();
    let config = pass_at_k_config(&scale);
    let human_problems = rtlfixer_dataset::verilog_eval_human();
    let machine_problems = rtlfixer_dataset::verilog_eval_machine();
    if let Some(count) = scale.merge_shards {
        let payloads = read_fragments("table2", count).unwrap_or_else(|e| die(e));
        for payload in &payloads {
            if as_bool(&payload["quick"]) != Some(scale.quick) {
                die(
                    "fragment scale does not match this invocation (run merge-shards with the \
                     same --quick flag the shards used)"
                        .to_owned(),
                );
            }
        }
        let human = merge_suite("Human", &human_problems, &config, &payloads)
            .unwrap_or_else(|e| die(e));
        let machine = merge_suite("Machine", &machine_problems, &config, &payloads)
            .unwrap_or_else(|e| die(e));
        eprintln!("Table 2: merged {count} shards");
        finish(&scale, &human, &machine);
        return;
    }
    if let Some(shard) = scale.shard {
        eprintln!(
            "Table 2 shard {shard}: pass@k on VerilogEval (n = {} samples/problem, stripe only)",
            config.samples
        );
        let (human_counts, human_stats) =
            evaluate_suite_counts(&human_problems, &config, shard);
        let (machine_counts, machine_stats) =
            evaluate_suite_counts(&machine_problems, &config, shard);
        let payload = serde_json::json!({
            "quick": scale.quick,
            "Human": suite_json(&human_counts, human_stats),
            "Machine": suite_json(&machine_counts, machine_stats),
        });
        let path = rtlfixer_bench::shards::write_fragment("table2", shard, payload);
        let mut stats = human_stats;
        stats.accumulate(&machine_stats);
        record_run(&format!("table2.shard{}of{}", shard.index, shard.count), scale.jobs, &stats);
        println!(
            "wrote fragment {} ({} episodes in {:.2}s)",
            path.display(),
            stats.episodes,
            stats.seconds
        );
        return;
    }
    eprintln!(
        "Table 2: pass@k on VerilogEval (n = {} samples/problem{})",
        config.samples,
        config.max_problems.map_or(String::new(), |c| format!(", first {c} problems"))
    );
    let human = evaluate_suite("Human", &human_problems, &config);
    let machine = evaluate_suite("Machine", &machine_problems, &config);
    finish(&scale, &human, &machine);
}
