//! Table 1: fix rate on VerilogEval-syntax across prompting strategy,
//! RAG, feedback quality and LLM capability.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use serde::Serialize;

use rtlfixer_agent::Strategy;
use rtlfixer_compilers::CompilerKind;
use rtlfixer_dataset::SyntaxBenchEntry;
use rtlfixer_llm::Capability;

use crate::episode::{run_repair, RepairJob};
use crate::metrics::fix_rate;
use crate::runner::{episode_grid, run_episodes_checked, EpisodeSpec, RunStats};
use crate::schedule::Shard;

/// Configuration for fix-rate experiments.
#[derive(Debug, Clone, Copy)]
pub struct FixRateConfig {
    /// Cap on dataset entries (`None` = all 212).
    pub max_entries: Option<usize>,
    /// Repeats per entry (the paper uses 10).
    pub repeats: usize,
    /// Seed for the dataset build.
    pub dataset_seed: u64,
    /// Base seed for episode randomness.
    pub base_seed: u64,
    /// Worker threads for episode execution (`0` = available parallelism).
    /// Results are identical for every value; this only changes wall-clock.
    pub jobs: usize,
}

impl Default for FixRateConfig {
    fn default() -> Self {
        FixRateConfig { max_entries: None, repeats: 10, dataset_seed: 7, base_seed: 1, jobs: 0 }
    }
}

/// One Table 1 cell result.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Cell {
    /// "One-shot" or "ReAct".
    pub strategy: String,
    /// RAG on/off.
    pub rag: bool,
    /// Feedback source.
    pub compiler: String,
    /// LLM capability label.
    pub llm: String,
    /// Measured fix rate.
    pub fix_rate: f64,
    /// The paper's reported value for this cell, for comparison.
    pub paper: f64,
    /// Wall-clock statistics for this cell's episodes.
    pub stats: RunStats,
}

/// The paper's Table 1 values, as (strategy, rag, compiler, llm, value).
pub const PAPER_TABLE1: &[(&str, bool, &str, &str, f64)] = &[
    ("One-shot", false, "Simple", "GPT-3.5", 0.414),
    ("One-shot", false, "iverilog", "GPT-3.5", 0.536),
    ("One-shot", false, "Quartus", "GPT-3.5", 0.587),
    ("One-shot", true, "iverilog", "GPT-3.5", 0.800),
    ("One-shot", true, "Quartus", "GPT-3.5", 0.899),
    ("ReAct", false, "Simple", "GPT-3.5", 0.671),
    ("ReAct", false, "iverilog", "GPT-3.5", 0.731),
    ("ReAct", false, "Quartus", "GPT-3.5", 0.799),
    ("ReAct", true, "iverilog", "GPT-3.5", 0.820),
    ("ReAct", true, "Quartus", "GPT-3.5", 0.985),
    ("One-shot", false, "Quartus", "GPT-4", 0.91),
    ("One-shot", true, "Quartus", "GPT-4", 0.98),
    ("ReAct", false, "Quartus", "GPT-4", 0.92),
    ("ReAct", true, "Quartus", "GPT-4", 0.99),
];

fn compiler_from_label(label: &str) -> CompilerKind {
    match label {
        "Simple" => CompilerKind::Simple,
        "iverilog" => CompilerKind::Iverilog,
        _ => CompilerKind::Quartus,
    }
}

fn capability_from_label(label: &str) -> Capability {
    if label == "GPT-4" {
        Capability::Gpt4Class
    } else {
        Capability::Gpt35Class
    }
}

/// Raw per-episode verdicts of one Table 1 cell — the whole grid when run
/// unsharded, or one shard's stripe of it. Positions are indices into the
/// cell's entry-major episode grid, so fragments from different processes
/// reassemble without any shared state beyond the config.
#[derive(Debug, Clone)]
pub struct CellVerdicts {
    /// `(grid position, fixed?)` pairs, ascending by position.
    pub successes: Vec<(usize, bool)>,
    /// Wall-clock stats over the episodes this process actually ran.
    pub stats: RunStats,
}

/// Folds a cell's full success vector (grid order, entry-major) into the
/// paper's Eq. 1 fix rate.
pub fn fix_rate_from_successes(successes: &[bool], repeats: usize) -> f64 {
    let per_problem: Vec<(usize, usize)> = successes
        .chunks(repeats.max(1))
        .map(|repeats| (repeats.iter().filter(|s| **s).count(), repeats.len()))
        .collect();
    fix_rate(&per_problem)
}

/// Runs one Table 1 cell's shard, returning raw verdicts by grid position.
///
/// Episodes execute on the pool ([`run_episodes_checked`]) in grid order;
/// per-episode seeds come from the canonical
/// [`episode_seed`](crate::runner::episode_seed) grid and results land by
/// position — bit-identical for every `config.jobs` value and shard split.
#[allow(clippy::too_many_arguments)]
pub fn run_cell_verdicts(
    entries: &[SyntaxBenchEntry],
    strategy: Strategy,
    compiler: CompilerKind,
    rag: bool,
    capability: Capability,
    config: &FixRateConfig,
    cell_index: u64,
    shard: Shard,
) -> CellVerdicts {
    let grid = episode_grid(config.base_seed, cell_index, entries.len(), config.repeats);
    let positions = shard.indices(grid.len());
    let specs: Vec<EpisodeSpec> = positions.iter().map(|&p| grid[p]).collect();
    let (results, failures, stats) = run_episodes_checked(config.jobs, &specs, |spec| {
        let entry = &entries[spec.entry];
        // The canonical episode path (`episode::run_repair`) — shared with
        // the serve daemon, so a served request reproduces a batch episode
        // exactly.
        run_repair(&RepairJob {
            problem: &entry.description,
            code: &entry.code,
            compiler,
            strategy,
            rag,
            capability,
            seed: spec.seed,
            deadline_ms: None,
            distilled: None,
        })
        .success
    });
    if let Some(first) = failures.first() {
        panic!(
            "{} of {} episodes panicked; first at position {}: {}",
            failures.len(),
            specs.len(),
            positions[first.index],
            first.message
        );
    }
    let successes = positions
        .into_iter()
        .zip(results)
        .map(|(position, success)| (position, success.expect("no failures")))
        .collect();
    CellVerdicts { successes, stats }
}

/// Runs one Table 1 cell over `entries`, returning the fix rate plus
/// wall-clock stats.
pub fn run_cell_timed(
    entries: &[SyntaxBenchEntry],
    strategy: Strategy,
    compiler: CompilerKind,
    rag: bool,
    capability: Capability,
    config: &FixRateConfig,
    cell_index: u64,
) -> (f64, RunStats) {
    let verdicts = run_cell_verdicts(
        entries,
        strategy,
        compiler,
        rag,
        capability,
        config,
        cell_index,
        Shard::FULL,
    );
    let successes: Vec<bool> = verdicts.successes.iter().map(|&(_, s)| s).collect();
    (fix_rate_from_successes(&successes, config.repeats), verdicts.stats)
}

/// Runs one Table 1 cell over `entries` and returns the fix rate.
pub fn run_cell(
    entries: &[SyntaxBenchEntry],
    strategy: Strategy,
    compiler: CompilerKind,
    rag: bool,
    capability: Capability,
    config: &FixRateConfig,
    cell_index: u64,
) -> f64 {
    run_cell_timed(entries, strategy, compiler, rag, capability, config, cell_index).0
}

/// Loads the dataset (possibly capped) for fix-rate experiments.
///
/// Cached per `(dataset_seed, max_entries)` behind an `Arc`: every
/// experiment binary calls this (table1, ablations, figure7, …), and a
/// multi-experiment run must build each dataset view exactly once.
pub fn load_entries(config: &FixRateConfig) -> Arc<Vec<SyntaxBenchEntry>> {
    type Key = (u64, Option<usize>);
    static CACHE: OnceLock<Mutex<HashMap<Key, Arc<Vec<SyntaxBenchEntry>>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let key = (config.dataset_seed, config.max_entries);
    if let Some(hit) = cache.lock().expect("entries cache lock").get(&key) {
        return Arc::clone(hit);
    }
    let full = rtlfixer_dataset::verilog_eval_syntax_shared(config.dataset_seed);
    let view = match config.max_entries {
        Some(cap) if cap < full.len() => Arc::new(full[..cap].to_vec()),
        // Uncapped (or over-sized cap): alias the dataset crate's own Arc.
        _ => full,
    };
    Arc::clone(cache.lock().expect("entries cache lock").entry(key).or_insert(view))
}

/// Runs one shard of the full Table 1 grid (14 cells), returning raw
/// verdicts per cell. A `--shard i/n` bench process runs exactly this and
/// writes the result as a fragment; `merge-shards` reassembles fragments
/// through [`merge_table1_verdicts`].
pub fn table1_verdicts(config: &FixRateConfig, shard: Shard) -> Vec<CellVerdicts> {
    let entries = load_entries(config);
    PAPER_TABLE1
        .iter()
        .enumerate()
        .map(|(cell_index, &(strategy_label, rag, compiler_label, llm_label, _))| {
            let strategy = if strategy_label == "One-shot" {
                Strategy::OneShot
            } else {
                Strategy::React { max_iterations: 10 }
            };
            run_cell_verdicts(
                &entries,
                strategy,
                compiler_from_label(compiler_label),
                rag,
                capability_from_label(llm_label),
                config,
                cell_index as u64,
                shard,
            )
        })
        .collect()
}

/// A merged Table 1 run: the rendered cells plus the 128-bit fingerprint
/// over the grid's success bits (cell-major, grid order) — the
/// cross-process identity a sharded merge must reproduce exactly.
#[derive(Debug, Clone)]
pub struct Table1Merge {
    /// The 14 rendered cells, paper row order.
    pub cells: Vec<Table1Cell>,
    /// `fingerprint128` over the merged success bits.
    pub verdict_fingerprint: u128,
}

/// Reassembles Table 1 cells from one or more shards' verdicts.
///
/// Every fragment must hold the same 14 cells, and per cell the fragments'
/// positions must partition the grid exactly — overlaps, gaps and
/// grid-size mismatches are errors (a merge must never silently fabricate
/// a verdict). Fix rates are recomputed from the reassembled success
/// vectors through the same fold as an unsharded run, so merged output is
/// structurally identical, not just numerically close.
pub fn merge_table1_verdicts(
    config: &FixRateConfig,
    shards: &[Vec<CellVerdicts>],
) -> Result<Table1Merge, String> {
    let entries = load_entries(config);
    let grid_len = entries.len() * config.repeats;
    for (index, fragment) in shards.iter().enumerate() {
        if fragment.len() != PAPER_TABLE1.len() {
            return Err(format!(
                "fragment {index} holds {} cells, expected {}",
                fragment.len(),
                PAPER_TABLE1.len()
            ));
        }
    }
    let mut bits: Vec<u8> = Vec::with_capacity(grid_len * PAPER_TABLE1.len());
    let mut cells = Vec::with_capacity(PAPER_TABLE1.len());
    for (cell_index, &(strategy_label, rag, compiler_label, llm_label, paper)) in
        PAPER_TABLE1.iter().enumerate()
    {
        let mut successes: Vec<Option<bool>> = vec![None; grid_len];
        let mut stats = RunStats::new(0, std::time::Duration::ZERO);
        for fragment in shards {
            let cell = &fragment[cell_index];
            for &(position, success) in &cell.successes {
                let slot = successes.get_mut(position).ok_or_else(|| {
                    format!(
                        "cell {cell_index}: position {position} outside the \
                         {grid_len}-episode grid (shard configs must match)"
                    )
                })?;
                if slot.replace(success).is_some() {
                    return Err(format!(
                        "cell {cell_index}: position {position} covered twice \
                         (overlapping shards)"
                    ));
                }
            }
            stats.accumulate(&cell.stats);
        }
        let successes: Vec<bool> = successes
            .into_iter()
            .enumerate()
            .map(|(position, slot)| {
                slot.ok_or_else(|| {
                    format!("cell {cell_index}: position {position} missing (incomplete shards)")
                })
            })
            .collect::<Result<_, String>>()?;
        bits.extend(successes.iter().map(|&s| s as u8));
        cells.push(Table1Cell {
            strategy: strategy_label.to_owned(),
            rag,
            compiler: compiler_label.to_owned(),
            llm: llm_label.to_owned(),
            fix_rate: fix_rate_from_successes(&successes, config.repeats),
            paper,
            stats,
        });
    }
    Ok(Table1Merge { cells, verdict_fingerprint: rtlfixer_cache::fingerprint128(&bits) })
}

/// Reproduces the full Table 1 grid (14 cells).
pub fn table1(config: &FixRateConfig) -> Vec<Table1Cell> {
    table1_merged(config).cells
}

/// [`table1`] plus the verdict fingerprint: a single-process run expressed
/// as a one-fragment merge, so unsharded and merged outputs flow through
/// byte-identical code paths.
pub fn table1_merged(config: &FixRateConfig) -> Table1Merge {
    let verdicts = table1_verdicts(config, Shard::FULL);
    merge_table1_verdicts(config, std::slice::from_ref(&verdicts))
        .expect("a full shard is a complete partition")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> FixRateConfig {
        FixRateConfig {
            max_entries: Some(30),
            repeats: 3,
            dataset_seed: 7,
            base_seed: 1,
            jobs: 1,
        }
    }

    #[test]
    fn react_quartus_rag_beats_one_shot_simple() {
        // The qualitative corner-to-corner ordering of Table 1.
        let config = small_config();
        let entries = load_entries(&config);
        let worst = run_cell(
            &entries,
            Strategy::OneShot,
            CompilerKind::Simple,
            false,
            Capability::Gpt35Class,
            &config,
            0,
        );
        let best = run_cell(
            &entries,
            Strategy::React { max_iterations: 10 },
            CompilerKind::Quartus,
            true,
            Capability::Gpt35Class,
            &config,
            1,
        );
        assert!(best > worst + 0.15, "best {best} vs worst {worst}");
        assert!(best > 0.8, "best cell should be high: {best}");
    }

    #[test]
    fn rag_improves_react_quartus() {
        let config = small_config();
        let entries = load_entries(&config);
        let without = run_cell(
            &entries,
            Strategy::React { max_iterations: 10 },
            CompilerKind::Quartus,
            false,
            Capability::Gpt35Class,
            &config,
            2,
        );
        let with = run_cell(
            &entries,
            Strategy::React { max_iterations: 10 },
            CompilerKind::Quartus,
            true,
            Capability::Gpt35Class,
            &config,
            3,
        );
        assert!(with > without, "with {with} vs without {without}");
    }

    #[test]
    fn results_are_deterministic() {
        let config = FixRateConfig { max_entries: Some(10), repeats: 2, ..Default::default() };
        let entries = load_entries(&config);
        let a = run_cell(
            &entries,
            Strategy::OneShot,
            CompilerKind::Quartus,
            true,
            Capability::Gpt35Class,
            &config,
            4,
        );
        let b = run_cell(
            &entries,
            Strategy::OneShot,
            CompilerKind::Quartus,
            true,
            Capability::Gpt35Class,
            &config,
            4,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_results_match_serial_byte_for_byte() {
        // The parallel engine's core guarantee: a --quick Table 1 cell
        // produces byte-identical fix rates at jobs = 1, 2 and 8.
        let base = FixRateConfig {
            max_entries: Some(20),
            repeats: 2,
            dataset_seed: 7,
            base_seed: 1,
            jobs: 1,
        };
        let entries = load_entries(&base);
        let run = |jobs: usize| {
            let config = FixRateConfig { jobs, ..base };
            let rate = run_cell(
                &entries,
                Strategy::React { max_iterations: 10 },
                CompilerKind::Quartus,
                true,
                Capability::Gpt35Class,
                &config,
                9,
            );
            // Byte-level comparison through the serialised representation,
            // the form results tables and JSON artifacts are built from.
            format!("{rate:.17}")
        };
        let serial = run(1);
        assert_eq!(run(2), serial, "jobs=2 must match jobs=1");
        assert_eq!(run(8), serial, "jobs=8 must match jobs=1");
    }

    #[test]
    fn sharded_merge_matches_unsharded_bitwise() {
        let config = FixRateConfig {
            max_entries: Some(8),
            repeats: 2,
            dataset_seed: 7,
            base_seed: 1,
            jobs: 2,
        };
        let full = table1_merged(&config);
        let halves = [
            table1_verdicts(&config, Shard { index: 0, count: 2 }),
            table1_verdicts(&config, Shard { index: 1, count: 2 }),
        ];
        let merged = merge_table1_verdicts(&config, &halves).expect("halves partition the grid");
        assert_eq!(merged.verdict_fingerprint, full.verdict_fingerprint);
        for (a, b) in full.cells.iter().zip(&merged.cells) {
            // Bit-pattern equality: the merge recomputes fix rates through
            // the same fold, so the floats are identical, not just close.
            assert_eq!(a.fix_rate.to_bits(), b.fix_rate.to_bits(), "{}", a.strategy);
            assert_eq!(a.stats.episodes, b.stats.episodes);
        }
        // Incomplete and overlapping fragment sets are rejected.
        let one = std::slice::from_ref(&halves[0]);
        assert!(merge_table1_verdicts(&config, one).unwrap_err().contains("missing"));
        let twice = [halves[0].clone(), halves[0].clone()];
        assert!(merge_table1_verdicts(&config, &twice).unwrap_err().contains("covered twice"));
    }

    #[test]
    fn load_entries_shares_one_build_per_view() {
        let config = small_config();
        let a = load_entries(&config);
        let b = load_entries(&config);
        assert!(Arc::ptr_eq(&a, &b), "same (seed, cap) must share one Vec");
        assert_eq!(a.len(), 30);
        let uncapped = FixRateConfig { max_entries: None, ..config };
        let full = load_entries(&uncapped);
        assert_eq!(full.len(), rtlfixer_dataset::SYNTAX_BENCH_COUNT);
        assert!(full[..30].iter().zip(a.iter()).all(|(x, y)| x.code == y.code));
    }
}
