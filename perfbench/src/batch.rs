//! The two batch workloads.
//!
//! * `syntax-repair` runs the Table 1 grid (strategy × RAG × feedback ×
//!   LLM over VerilogEval-syntax) through
//!   `rtlfixer_eval::experiments::table1::table1_merged`.
//! * `generate-check-fix` runs the Table 2 pipeline over VerilogEval Human
//!   and Machine through `evaluate_suite_counts`, the stripe form of
//!   `evaluate_suite` that also returns the per-problem counts.
//!
//! Each has an untraced run through the public experiment function and a
//! traced serial replay that repeats its recipe from public building blocks
//! (`Generator::sample`, `prefix_fix`, `compile_shared`, `Problem::check`,
//! `RtlFixerBuilder`) with the timing wrappers of [`crate::timed`]. Both
//! produce the same digest of verdicts and fix outcomes; the benchmark
//! checks that they do.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rtlfixer_agent::{prefixer, FixOutcome, RtlFixerBuilder, Strategy};
use rtlfixer_compilers::CompilerKind;
use rtlfixer_dataset::generation::{GenCapability, Generator};
use rtlfixer_dataset::{Problem, SyntaxBenchEntry, Verdict};
use rtlfixer_eval::experiments::table1::{
    fix_rate_from_successes, load_entries, table1_merged, FixRateConfig, PAPER_TABLE1,
};
use rtlfixer_eval::experiments::table2::{evaluate_suite_counts, PassAtKConfig, ProblemCounts};
use rtlfixer_eval::runner::episode_grid;
use rtlfixer_eval::{episode_seed, mean_pass_at_k, RepairJob, RunStats, Shard};
use rtlfixer_llm::{Capability, ResilientModel, SimulatedLlm};
use rtlfixer_rag::{shared_tfidf_index, GuidanceDatabase};

use crate::pace::{self, Pacer};
use crate::spans;
use crate::timed::{TimedModel, TimedRetriever};
use crate::{digest_hex, Record};

/// Workload size: the paper's full scale, or a small grid for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Table 1: all 212 entries × 10 repeats; Table 2: n = 20 samples of
    /// every problem.
    Full,
    /// A few entries and samples, for the benchmark's own tests.
    Small,
}

/// The `syntax-repair` configuration for `seed`: the paper's
/// VerilogEval-syntax set (dataset seed 7) with episode base seed `1 +
/// seed`. Seed 0 is the `table1` binary's configuration.
pub fn syntax_config(seed: u64, jobs: usize, scale: Scale) -> FixRateConfig {
    let (max_entries, repeats) = match scale {
        Scale::Full => (None, 10),
        Scale::Small => (Some(12), 2),
    };
    FixRateConfig { max_entries, repeats, dataset_seed: 7, base_seed: 1 + seed, jobs }
}

/// The `generate-check-fix` configuration: the `table2` binary's (base
/// seed 11) for every workload seed. Its cost is dominated by a few dozen
/// loop-guard simulations whose number varies with the generation seed
/// (8.0 s to 15.2 s at `--jobs 2` over seeds 11 to 14), which would swamp
/// any change under test, so the input set stays fixed.
pub fn gcf_config(jobs: usize, scale: Scale) -> PassAtKConfig {
    let (samples, max_problems) = match scale {
        Scale::Full => (20, None),
        Scale::Small => (3, Some(6)),
    };
    PassAtKConfig { samples, max_problems, seed: 11, jobs }
}

/// Builds both guidance databases and their lexical indexes, so no timed
/// item pays for them.
pub fn warm_retrieval() {
    for db in [GuidanceDatabase::quartus_shared(), GuidanceDatabase::iverilog_shared()] {
        std::hint::black_box(shared_tfidf_index(&db));
    }
}

/// The result of one batch run: outputs for the checks plus timings.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Digest of verdicts and fix outcomes.
    pub digest: String,
    /// Repair episodes whose final code compiles, over those attempted.
    pub fix_rate: f64,
    /// pass@1 after fixing (Eq. 2, k = 1) under the workload's acceptance
    /// check.
    pub pass1_fixed: f64,
    /// Items the workload completed (episodes or generated samples).
    pub items: usize,
}

// ---- syntax-repair ------------------------------------------------------

/// Index of the paper's headline cell (ReAct, RAG, Quartus, GPT-3.5) in
/// [`PAPER_TABLE1`].
fn headline_cell() -> usize {
    PAPER_TABLE1
        .iter()
        .position(|&(strategy, rag, compiler, llm, _)| {
            strategy == "ReAct" && rag && compiler == "Quartus" && llm == "GPT-3.5"
        })
        .expect("Table 1 has the headline cell")
}

/// Builds the VerilogEval-syntax entries and the retrieval state.
pub fn setup_syntax(config: &FixRateConfig) -> Arc<Vec<SyntaxBenchEntry>> {
    let entries = load_entries(config);
    warm_retrieval();
    entries
}

/// Folds per-cell success bits (cell-major, grid order) into the outcome.
/// The digest is the bits' `fingerprint128`, the same value as the
/// `verdict_fingerprint` of `table1_merged`, and the fix rate is the mean
/// of the cells' Eq. 1 rates, folded as `table1_merged` folds them.
fn syntax_outcome(cell_bits: &[Vec<bool>], repeats: usize) -> BatchOutcome {
    let bits: Vec<u8> = cell_bits.iter().flatten().map(|&s| u8::from(s)).collect();
    let rates: Vec<f64> =
        cell_bits.iter().map(|bits| fix_rate_from_successes(bits, repeats)).collect();
    syntax_fold(digest_hex(&bits), &rates, bits.len())
}

fn syntax_fold(digest: String, rates: &[f64], items: usize) -> BatchOutcome {
    BatchOutcome {
        digest,
        fix_rate: rates.iter().sum::<f64>() / rates.len().max(1) as f64,
        pass1_fixed: rates[headline_cell()],
        items,
    }
}

/// The untraced run: `table1_merged`, the public Table 1 entry point.
/// Returns the outcome and the summed `RunStats`.
pub fn run_syntax(config: &FixRateConfig) -> (BatchOutcome, RunStats) {
    let merged = table1_merged(config);
    let mut stats = RunStats::new(0, Duration::ZERO);
    for cell in &merged.cells {
        stats.accumulate(&cell.stats);
    }
    let rates: Vec<f64> = merged.cells.iter().map(|cell| cell.fix_rate).collect();
    let digest = format!("{:032x}", merged.verdict_fingerprint);
    (syntax_fold(digest, &rates, stats.episodes), stats)
}

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

/// One repair episode built exactly as `rtlfixer_eval::run_repair` builds
/// it, with the timing wrappers in place, inside an `agent.fix` span.
pub fn traced_repair(job: &RepairJob) -> FixOutcome {
    let _span = spans::span("agent.fix");
    let mut llm = ResilientModel::new(SimulatedLlm::new(job.capability, job.seed), job.seed);
    if let Some(deadline) = job.deadline_ms {
        llm = llm.with_deadline(deadline);
    }
    let mut builder = RtlFixerBuilder::new()
        .compiler(job.compiler)
        .strategy(job.strategy)
        .with_rag(job.rag)
        .fault_seed(job.seed)
        .retriever(Box::new(TimedRetriever::builder_default()));
    if let Some(store) = job.distilled {
        builder = builder.distilled(Arc::clone(store));
    }
    builder.build(TimedModel::new(llm)).fix_problem(job.problem, job.code)
}

/// Counts an episode's revisions and success for the per-layer ratios.
pub fn count_episode(outcome: &FixOutcome) {
    spans::add("agent.revisions", outcome.revisions as f64);
    if outcome.success {
        spans::add("agent.fixed", 1.0);
    }
}

/// The traced replay of the Table 1 grid: every cell's episodes in grid
/// order on this thread, each one an `agent.fix` span under the recorder
/// the caller installed.
pub fn replay_syntax(config: &FixRateConfig, entries: &[SyntaxBenchEntry]) -> BatchOutcome {
    let mut cell_bits = Vec::with_capacity(PAPER_TABLE1.len());
    let mut item = 0u64;
    for (cell_index, &(strategy_label, rag, compiler_label, llm_label, _)) in
        PAPER_TABLE1.iter().enumerate()
    {
        let strategy = if strategy_label == "One-shot" {
            Strategy::OneShot
        } else {
            Strategy::React { max_iterations: 10 }
        };
        let grid = episode_grid(config.base_seed, cell_index as u64, entries.len(), config.repeats);
        let bits = grid
            .iter()
            .map(|spec| {
                spans::set_item(item);
                item += 1;
                let entry = &entries[spec.entry];
                let outcome = traced_repair(&RepairJob {
                    problem: &entry.description,
                    code: &entry.code,
                    compiler: compiler_from_label(compiler_label),
                    strategy,
                    rag,
                    capability: capability_from_label(llm_label),
                    seed: spec.seed,
                    deadline_ms: None,
                    distilled: None,
                });
                count_episode(&outcome);
                outcome.success
            })
            .collect();
        cell_bits.push(bits);
    }
    syntax_outcome(&cell_bits, config.repeats)
}

// ---- generate-check-fix -------------------------------------------------

/// The VerilogEval suites by label: Human, then Machine.
pub type Suites = Vec<(&'static str, Vec<Problem>)>;

/// Builds the VerilogEval Human and Machine suites.
pub fn suites() -> Suites {
    vec![
        ("Human", rtlfixer_dataset::verilog_eval_human()),
        ("Machine", rtlfixer_dataset::verilog_eval_machine()),
    ]
}

/// Builds both suites and the retrieval state.
pub fn setup_gcf() -> Suites {
    let suites = suites();
    warm_retrieval();
    suites
}

/// The problems `evaluate_suite` evaluates: all of them, or a stride
/// across the suite when `max_problems` caps it.
fn subset<'a>(problems: &'a [Problem], config: &PassAtKConfig) -> Vec<&'a Problem> {
    match config.max_problems {
        Some(cap) if cap < problems.len() => {
            let stride = (problems.len() / cap).max(1);
            problems.iter().step_by(stride).take(cap).collect()
        }
        _ => problems.iter().collect(),
    }
}

fn gcf_outcome(counts: &[Vec<ProblemCounts>]) -> BatchOutcome {
    let mut bytes = Vec::new();
    let (mut attempted, mut still_broken, mut items) = (0usize, 0usize, 0usize);
    let mut per_problem = Vec::new();
    for suite in counts {
        for c in suite {
            for value in [
                c.samples,
                c.pass_original,
                c.syntax_original,
                c.sim_original,
                c.pass_fixed,
                c.syntax_fixed,
                c.sim_fixed,
            ] {
                bytes.extend_from_slice(&(value as u64).to_le_bytes());
            }
            attempted += c.syntax_original;
            still_broken += c.syntax_fixed;
            items += c.samples;
            per_problem.push((c.pass_fixed, c.samples));
        }
    }
    BatchOutcome {
        digest: digest_hex(&bytes),
        fix_rate: (attempted - still_broken) as f64 / attempted.max(1) as f64,
        pass1_fixed: mean_pass_at_k(&per_problem, 1),
        items,
    }
}

/// The untraced run: `evaluate_suite_counts` over both suites. Returns
/// the outcome and the summed `RunStats`.
pub fn run_gcf(config: &PassAtKConfig, suites: &Suites) -> (BatchOutcome, RunStats) {
    let mut stats = RunStats::new(0, Duration::ZERO);
    let mut counts = Vec::new();
    for (_, problems) in suites {
        let (tagged, suite_stats) = evaluate_suite_counts(problems, config, Shard::FULL);
        stats.accumulate(&suite_stats);
        counts.push(tagged.into_iter().map(|(_, c)| c).collect());
    }
    (gcf_outcome(&counts), stats)
}

fn tally(verdict: &Verdict, pass: &mut usize, syntax: &mut usize, sim: &mut usize) {
    match verdict {
        Verdict::Pass => *pass += 1,
        Verdict::CompileError => *syntax += 1,
        Verdict::SimMismatch => *sim += 1,
    }
}

/// Compiles `code` through the shared frontend cache, then checks it
/// against the golden model, as two spans: the check then finds the
/// analysis cached, so its self time is elaboration, simulation and the
/// golden model.
fn traced_check(problem: &Problem, code: &str) -> Verdict {
    {
        let _span = spans::span("verilog.compile");
        std::hint::black_box(rtlfixer_verilog::compile_shared(code));
    }
    let _span = spans::span("sim.check");
    problem.check(code)
}

/// The traced replay of the Table 2 pipeline: the same per-problem recipe
/// as `evaluate_suite` (seed cells 40 and 41), serially on this thread.
pub fn replay_gcf(config: &PassAtKConfig, suites: &Suites) -> BatchOutcome {
    let mut counts = Vec::new();
    let mut item = 0u64;
    for (_, problems) in suites {
        let mut suite_counts = Vec::new();
        for (index, problem) in subset(problems, config).into_iter().enumerate() {
            let index = index as u64;
            let mut generator =
                Generator::new(GenCapability::Gpt35, episode_seed(config.seed, 40, index, 0));
            let mut c = ProblemCounts {
                difficulty: problem.difficulty,
                pass_original: 0,
                pass_fixed: 0,
                samples: config.samples,
                syntax_original: 0,
                syntax_fixed: 0,
                sim_original: 0,
                sim_fixed: 0,
            };
            for sample in 0..config.samples {
                spans::set_item(item);
                item += 1;
                let candidate = {
                    let _span = spans::span("dataset.generate");
                    generator.sample(problem)
                };
                let normalised = {
                    let _span = spans::span("agent.prefix");
                    prefixer::prefix_fix(&candidate.code)
                };
                let original = traced_check(problem, &normalised);
                tally(&original, &mut c.pass_original, &mut c.syntax_original, &mut c.sim_original);
                let fixed = if original == Verdict::CompileError {
                    let seed = episode_seed(config.seed, 41, index, sample as u64);
                    let outcome =
                        traced_repair(&RepairJob::new(&problem.description, &normalised, seed));
                    count_episode(&outcome);
                    traced_check(problem, &outcome.final_code)
                } else {
                    original
                };
                tally(&fixed, &mut c.pass_fixed, &mut c.syntax_fixed, &mut c.sim_fixed);
            }
            suite_counts.push(c);
        }
        counts.push(suite_counts);
    }
    gcf_outcome(&counts)
}

// ---- child-process entry points -----------------------------------------

/// Set-up only, in this (fresh) process, for the `setup_s` median.
pub fn child_setup(workload: &str, seed: u64, started: Instant) -> Record {
    if workload == "syntax-repair" {
        setup_syntax(&syntax_config(seed, 1, Scale::Full));
    } else {
        setup_gcf();
    }
    record_setup(started.elapsed().as_secs_f64())
}

/// The set-up sample of a process whose set-up took `raw_s`: paced by a
/// burst of reference chunks run at once after it.
pub fn record_setup(raw_s: f64) -> Record {
    let pace_s = pace::burst();
    let mut record = Record::new();
    record.num("setup_s", pace::at_reference(raw_s, pace_s));
    record.num("setup_raw_s", raw_s);
    record
}

/// A timed untraced run in this (fresh) process: set up, run the workload
/// once at `jobs` workers under a [`Pacer`], and report. `started` is the
/// process start. Timings are paced ([`pace::at_reference`]); the raw
/// wall time is reported beside them.
pub fn child_run(workload: &str, seed: u64, jobs: usize, started: Instant) -> Record {
    let timed = |run: &dyn Fn() -> (BatchOutcome, RunStats)| {
        let mut record = record_setup(started.elapsed().as_secs_f64());
        let pacer = Pacer::start();
        let timer = Instant::now();
        let (outcome, stats) = run();
        let end = Instant::now();
        let pace_s = pacer.finish().mean_between(timer, end);
        let wall_raw_s = end.duration_since(timer).as_secs_f64();
        record.num("wall_s", pace::at_reference(wall_raw_s, pace_s));
        record.num("wall_raw_s", wall_raw_s);
        record.num("pace_ms", pace_s * 1e3);
        (outcome, stats, record)
    };
    let (outcome, stats, mut record) = match workload {
        "syntax-repair" => {
            let config = syntax_config(seed, jobs, Scale::Full);
            setup_syntax(&config);
            timed(&|| run_syntax(&config))
        }
        _ => {
            let config = gcf_config(jobs, Scale::Full);
            let suites = setup_gcf();
            timed(&|| run_gcf(&config, &suites))
        }
    };
    record.text("digest", &outcome.digest);
    record.num("fix_rate", outcome.fix_rate);
    record.num("pass1_fixed", outcome.pass1_fixed);
    record.num("items", outcome.items as f64);
    record.num("failed", stats.failed_episodes as f64);
    record.num("jobs", jobs as f64);
    let scheduler = stats.scheduler;
    record.num("barrier_idle_s", scheduler.map_or(0.0, |s| s.barrier_idle_us as f64 / 1e6));
    record.num("batches", scheduler.map_or(0.0, |s| s.batches as f64));
    record.num("run_stats_s", stats.seconds);
    record.num("peak_rss_mb", crate::stats::peak_rss_mb());
    record
}

/// The traced serial replay in this (fresh) process. Reports the digest,
/// every layer's calls and self time, the wall time the self times must
/// sum to, and the host pace meanwhile (`replay_pace_ms`).
pub fn child_replay(workload: &str, seed: u64) -> Record {
    let mut record = Record::new();
    let build = Instant::now();
    let (outcome, pace_s) = if workload == "syntax-repair" {
        let config = syntax_config(seed, 1, Scale::Full);
        let entries = load_entries(&config);
        record.num("dataset.build_s", build.elapsed().as_secs_f64());
        warm_retrieval();
        pace::paced(|| traced(|| replay_syntax(&config, &entries), &mut record))
    } else {
        let config = gcf_config(1, Scale::Full);
        let suites = suites();
        record.num("dataset.build_s", build.elapsed().as_secs_f64());
        warm_retrieval();
        pace::paced(|| traced(|| replay_gcf(&config, &suites), &mut record))
    };
    record.num("replay_pace_ms", pace_s * 1e3);
    record.text("digest", &outcome.digest);
    record.num("fix_rate", outcome.fix_rate);
    record.num("pass1_fixed", outcome.pass1_fixed);
    record.num("items", outcome.items as f64);
    record_caches(&mut record);
    record
}

/// Runs `replay` under a fresh span recorder and a `bench.replay` root
/// span, and writes the per-layer totals into `record`.
pub fn traced<T>(replay: impl FnOnce() -> T, record: &mut Record) -> T {
    spans::install();
    let result = {
        let _root = spans::span("bench.replay");
        replay()
    };
    record_layers(record, &spans::finish());
    result
}

/// Writes per-layer calls, self time and duration quantiles, the counters,
/// and the replay's wall time (the root span) into `record`.
pub fn record_layers(record: &mut Record, recording: &spans::Recording) {
    let layers = spans::layers(&recording.spans);
    let wall_ns: u64 =
        recording.spans.iter().filter(|s| s.parent.is_none()).map(|s| s.duration_ns()).sum();
    let self_ns: u64 = layers.values().map(|l| l.self_ns).sum();
    assert_eq!(self_ns, wall_ns, "per-layer self times must sum to the replay wall time");
    record.num("replay_wall_s", wall_ns as f64 / 1e9);
    record.num("layer_sum_s", self_ns as f64 / 1e9);
    for (name, layer) in &layers {
        record.num(&format!("{name}.calls"), layer.calls as f64);
        record.num(&format!("{name}.self_s"), layer.self_s());
        record.num(&format!("{name}.p50_us"), layer.quantile_us(0.50));
        record.num(&format!("{name}.p99_us"), layer.quantile_us(0.99));
        record.num(&format!("{name}.max_us"), layer.quantile_us(1.0));
        record.num(
            &format!("{name}.slowest1pct_time_share"),
            crate::stats::top_share(&layer.durations_us, 0.01),
        );
    }
    for (name, value) in &recording.counters {
        record.num(name, *value);
    }
}

/// Writes the hit ratios of the three process-wide artifact caches.
pub fn record_caches(record: &mut Record) {
    let report = rtlfixer_eval::cache_report();
    for (name, counters) in
        [("analyses", report.analyses), ("outcomes", report.outcomes), ("designs", report.designs)]
    {
        let lookups = counters.hits + counters.misses;
        let ratio = if lookups == 0 { 0.0 } else { counters.hits as f64 / lookups as f64 };
        record.num(&format!("cache.{name}.hit_ratio"), ratio);
    }
}
