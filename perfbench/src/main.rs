//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`, each with its unit). Every timed run happens in a fresh
//! child process of this binary (`perfbench child ...`). A failed output
//! check prints the result with `"correct": false` and exits with code 1;
//! bad arguments, a set `RTLFIXER_*` variable or a failed child exit with
//! code 2 and print no result.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use rtlfixer_perfbench::stats::{median, quantile};
use rtlfixer_perfbench::{
    batch, expected, nproc, rtlfixer_env, serve, Record, DEFAULT_SEED, WORKLOADS,
};

/// Timed batch runs per `--trace 0` invocation, at least.
const MIN_REPS: usize = 3;
/// Set-ups measured per `--trace 0` invocation: those of the timed runs,
/// topped up with set-up-only child processes.
const SETUP_SAMPLES: usize = 9;

/// The end-to-end metrics and their units.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("fix_rate", "ratio"),
    ("pass1_fixed", "ratio"),
    ("completed_share", "ratio"),
    ("peak_rss_mb", "MB"),
    ("request_p50_ms", "ms"),
    ("request_p99_ms", "ms"),
    ("sustained_rps", "1/s"),
];

/// The per-layer metrics and their units. A layer a workload does not
/// exercise reports 0.
const PER_LAYER: [(&str, &str); 55] = [
    ("dataset.build_s", "s"),
    ("dataset.generate.calls", "count"),
    ("dataset.generate.self_s", "s"),
    ("agent.prefix.calls", "count"),
    ("agent.prefix.self_s", "s"),
    ("verilog.compile.calls", "count"),
    ("verilog.compile.self_s", "s"),
    ("cache.analyses.hit_ratio", "ratio"),
    ("sim.check.calls", "count"),
    ("sim.check.self_s", "s"),
    ("sim.check.p50_us", "us"),
    ("sim.check.p99_us", "us"),
    ("sim.check.max_ms", "ms"),
    ("sim.check.slowest1pct_time_share", "ratio"),
    ("cache.designs.hit_ratio", "ratio"),
    ("rag.retrieve.calls", "count"),
    ("rag.retrieve.self_s", "s"),
    ("rag.retrieve.p50_us", "us"),
    ("rag.retrieve.p99_us", "us"),
    ("rag.hits_per_retrieval", "hits/call"),
    ("rag.db_entries", "count"),
    ("rag.db_generations", "count"),
    ("rag.window_generations", "count"),
    ("rag.merge.calls", "count"),
    ("rag.merge.self_s", "s"),
    ("llm.turn.calls", "count"),
    ("llm.turn.self_s", "s"),
    ("llm.turn.p99_us", "us"),
    ("agent.fix.calls", "count"),
    ("agent.fix.self_s", "s"),
    ("agent.revisions_per_episode", "ratio"),
    ("agent.revisions_per_fix", "ratio"),
    ("cache.outcomes.hit_ratio", "ratio"),
    ("eval.barrier_idle_s", "s"),
    ("eval.batches", "count"),
    ("eval.utilisation", "ratio"),
    ("serve.queue_depth_max", "count"),
    ("serve.queue_at_window_end", "count"),
    ("serve.rejected", "count"),
    ("serve.shed", "count"),
    ("serve.distilled_entries", "count"),
    ("serve.window_distilled", "count"),
    ("serve.window_p99_slice0_ms", "ms"),
    ("serve.window_p99_slice1_ms", "ms"),
    ("serve.window_p99_slice2_ms", "ms"),
    ("serve.window_p99_slice3_ms", "ms"),
    ("serve.window_p99_slice4_ms", "ms"),
    ("serve.capacity_p99_ms", "ms"),
    ("bench.harness.self_s", "s"),
    ("bench.replay_wall_s", "s"),
    ("bench.layer_sum_s", "s"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.generator_lateness_p99_ms", "ms"),
    ("bench.untraced_wall_s", "s"),
    ("bench.pace_ms", "ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 30u64, false);
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("bad `{flag}` value `{value}`"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("`--workload` is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (one of {WORKLOADS:?})"));
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// Runs `perfbench child <args>` and parses its report line.
fn child(args: &[&str]) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .arg("child")
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child {args:?}: {e}"))?;
    if !output.status.success() {
        return Err(format!("child {args:?} failed: {}", output.status));
    }
    Record::parse(&String::from_utf8_lossy(&output.stdout))
}

fn run_child(args: &[String], started: Instant) -> Result<Record, String> {
    let arg = |index: usize| args.get(index).map(String::as_str).ok_or("child: missing argument");
    let number = |index: usize| -> Result<u64, String> {
        arg(index)?.parse().map_err(|_| "child: bad number".to_owned())
    };
    Ok(match arg(0)? {
        "run" => batch::child_run(arg(1)?, number(2)?, number(3)? as usize, started),
        "replay" => batch::child_replay(arg(1)?, number(2)?),
        "serve" => serve::child_serve(number(1)? as f64, started),
        "setup" if arg(1)? == "serve-learning" => serve::child_setup(started),
        "setup" => batch::child_setup(arg(1)?, number(2)?, started),
        "serve-replay" => serve::child_replay(number(1)? as f64, number(2)? != 0),
        other => return Err(format!("unknown child kind `{other}`")),
    })
}

/// The outcome of one invocation: the checks and the metrics.
struct Outcome {
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn new() -> Self {
        Outcome { problems: Vec::new(), attempted: 0, failed: 0, metrics: Vec::new() }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Checks a digest and fix rates against `expected.json` when the run
    /// uses the seed (and, where recorded, the length) it records.
    fn check_expected(&mut self, args: &Args, record: &Record, source: &str) -> Result<(), String> {
        let want = expected(&args.workload)?;
        if args.seed != DEFAULT_SEED || want.seconds.is_some_and(|s| s != args.seconds) {
            return Ok(());
        }
        let digest = record.get_text("digest")?;
        self.check(digest == want.digest, || {
            format!("{source} digest {digest} differs from the expected {}", want.digest)
        });
        for (key, want) in [("fix_rate", want.fix_rate), ("pass1_fixed", want.pass1_fixed)] {
            let got = record.get(key)?;
            self.check((got - want).abs() <= 1e-12, || {
                format!("{source} {key} {got} differs from the expected {want}")
            });
        }
        Ok(())
    }

    /// Checks that two runs agree on the digest and fix rates.
    fn check_same(&mut self, a: (&str, &Record), b: (&str, &Record)) -> Result<(), String> {
        for key in ["digest", "fix_rate", "pass1_fixed"] {
            let (x, y) = (a.1.get_text(key)?, b.1.get_text(key)?);
            self.check(x == y, || format!("{key}: {} gives {x} but {} gives {y}", a.0, b.0));
        }
        Ok(())
    }

    fn render(&self) -> Result<String, String> {
        let mut fields = Vec::new();
        for (name, value, unit) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("metric `{name}` is not finite ({value})"));
            }
            fields.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        ))
    }
}

fn end_to_end(values: &Record) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    END_TO_END.iter().map(|&(name, unit)| Ok((name, values.get(name)?, unit))).collect()
}

fn per_layer(values: &Record) -> Vec<(&'static str, f64, &'static str)> {
    PER_LAYER.iter().map(|&(name, unit)| (name, values.get(name).unwrap_or(0.0), unit)).collect()
}

/// Copies the replay's layer figures into `layers`, deriving the ratios.
fn replay_layers(layers: &mut Record, replay: &Record) {
    let get = |key: &str| replay.get(key).unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    layers.extend(replay);
    layers.num("sim.check.max_ms", get("sim.check.max_us") / 1e3);
    layers.num("rag.hits_per_retrieval", ratio(get("rag.hits"), get("rag.retrieve.calls")));
    layers
        .num("agent.revisions_per_episode", ratio(get("agent.revisions"), get("agent.fix.calls")));
    layers.num("agent.revisions_per_fix", ratio(get("agent.revisions"), get("agent.fixed")));
    layers.num("bench.harness.self_s", get("bench.replay.self_s"));
    layers.num("bench.replay_wall_s", get("replay_wall_s"));
    layers.num("bench.layer_sum_s", get("layer_sum_s"));
}

/// Tops `setups` up to [`SETUP_SAMPLES`] with set-up-only children.
fn setup_samples(args: &Args, mut setups: Vec<f64>) -> Result<Vec<f64>, String> {
    let seed = args.seed.to_string();
    while setups.len() < SETUP_SAMPLES {
        setups.push(child(&["setup", &args.workload, &seed])?.get("setup_s")?);
    }
    Ok(setups)
}

fn batch_untraced(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let seed = args.seed.to_string();
    let jobs = nproc().to_string();
    let begun = Instant::now();
    let deadline = begun + Duration::from_secs(args.seconds);
    let mut reps = Vec::new();
    // Another run starts only if a run of the average length so far still
    // ends by the deadline, so an invocation lasts about `--seconds`.
    while reps.len() < MIN_REPS || Instant::now() + begun.elapsed() / reps.len() as u32 <= deadline
    {
        reps.push(child(&["run", &args.workload, &seed, &jobs])?);
    }
    for (index, rep) in reps.iter().enumerate().skip(1) {
        out.check_same(("run 0", &reps[0]), (&format!("run {index}"), rep))?;
    }
    out.check_expected(args, &reps[0], "untraced run")?;
    let column =
        |key: &str| -> Result<Vec<f64>, String> { reps.iter().map(|rep| rep.get(key)).collect() };
    let items: f64 = column("items")?.iter().sum();
    let failed: f64 = column("failed")?.iter().sum();
    out.attempted = items as u64;
    out.failed = failed as u64;
    eprintln!(
        "perfbench: {} timed runs; raw wall {:.3} s and chunk pace {:.4} ms (medians); paced wall {:.3} s",
        reps.len(),
        median(&column("wall_raw_s")?),
        median(&column("pace_ms")?),
        median(&column("wall_s")?),
    );
    let rates: Vec<f64> = reps
        .iter()
        .map(|r| Ok(r.get("items")? / r.get("wall_s")?))
        .collect::<Result<_, String>>()?;
    let mut values = Record::new();
    values.num("setup_s", median(&setup_samples(args, column("setup_s")?)?));
    values.num("wall_s", median(&column("wall_s")?));
    values.num("fix_rate", reps[0].get("fix_rate")?);
    values.num("pass1_fixed", reps[0].get("pass1_fixed")?);
    values.num("completed_share", 1.0 - failed / items.max(1.0));
    values.num("peak_rss_mb", median(&column("peak_rss_mb")?));
    // A batch "request" is one run of the paper binary: the whole table.
    // With three or four runs, the p99 is the slowest.
    let runs_ms: Vec<f64> = column("wall_s")?.iter().map(|s| s * 1e3).collect();
    values.num("request_p50_ms", median(&runs_ms));
    values.num("request_p99_ms", quantile(&runs_ms, 0.99));
    values.num("sustained_rps", median(&rates));
    out.metrics = end_to_end(&values)?;
    Ok(())
}

fn batch_traced(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let seed = args.seed.to_string();
    let parallel = child(&["run", &args.workload, &seed, &nproc().to_string()])?;
    let serial = child(&["run", &args.workload, &seed, "1"])?;
    let replay = child(&["replay", &args.workload, &seed])?;
    out.check_same(("jobs=nproc run", &parallel), ("jobs=1 run", &serial))?;
    out.check_same(("untraced run", &serial), ("traced replay", &replay))?;
    out.check_expected(args, &replay, "traced replay")?;
    out.attempted = replay.get("items")? as u64;
    let mut layers = Record::new();
    replay_layers(&mut layers, &replay);
    let idle = parallel.get("barrier_idle_s")?;
    let busy = parallel.get("jobs")? * parallel.get("run_stats_s")?;
    layers.num("eval.barrier_idle_s", idle);
    layers.num("eval.batches", parallel.get("batches")?);
    layers.num("eval.utilisation", if busy > 0.0 { 1.0 - idle / busy } else { 0.0 });
    layers.num("bench.pace_ms", parallel.get("pace_ms")?);
    layers.num("bench.untraced_wall_s", serial.get("wall_raw_s")?);
    // Both walls at the reference pace, since the two ran at different
    // moments.
    let traced_s = replay.get("replay_wall_s")? / replay.get("replay_pace_ms")?;
    let untraced_s = serial.get("wall_raw_s")? / serial.get("pace_ms")?;
    layers.num("bench.trace_overhead_ratio", traced_s / untraced_s);
    out.metrics = per_layer(&layers);
    Ok(())
}

/// The checks on a served run. Its outcomes depend on completion order,
/// so they are not compared digest for digest; at the recorded length its
/// window fix rate must stay within [`serve::SERVED_FIX_RATE_TOLERANCE`]
/// of the serial replay's for the default seed, whatever the seed.
fn check_served(args: &Args, served: &Record, out: &mut Outcome) -> Result<(), String> {
    let errors = served.get("errors")?;
    out.check(errors == 0.0, || format!("the daemon sent {errors} error events"));
    out.check(served.get("recompile_clean")? == 1.0, || {
        "a served success:true result does not recompile cleanly under Quartus".to_owned()
    });
    let lost = served.get("serve.capacity_failed")?;
    out.check(lost == 0.0, || format!("{lost} capacity-phase requests did not complete"));
    let distilled = served.get("serve.window_distilled")?;
    out.check(distilled > 0.0, || "the daemon distilled no brief during the window".to_owned());
    let want = expected(&args.workload)?;
    if want.seconds.is_none_or(|s| s == args.seconds) {
        let got = served.get("fix_rate")?;
        out.check((got - want.fix_rate).abs() <= serve::SERVED_FIX_RATE_TOLERANCE, || {
            format!(
                "served fix_rate {got} is not within {} of the replay's {}",
                serve::SERVED_FIX_RATE_TOLERANCE,
                want.fix_rate
            )
        });
    }
    out.attempted = served.get("items")? as u64;
    out.failed = served.get("failed")? as u64;
    Ok(())
}

fn serve_untraced(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let mut served = child(&["serve", &args.seconds.to_string()])?;
    check_served(args, &served, out)?;
    let setup_s = median(&setup_samples(args, vec![served.get("setup_s")?])?);
    served.num("setup_s", setup_s);
    out.metrics = end_to_end(&served)?;
    Ok(())
}

fn serve_traced(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let seconds = args.seconds.to_string();
    let served = child(&["serve", &seconds])?;
    check_served(args, &served, out)?;
    let plain = child(&["serve-replay", &seconds, "0"])?;
    let replay = child(&["serve-replay", &seconds, "1"])?;
    out.check_same(("untraced replay", &plain), ("traced replay", &replay))?;
    out.check_expected(args, &replay, "traced replay")?;
    let mut layers = Record::new();
    replay_layers(&mut layers, &replay);
    for key in [
        "serve.queue_depth_max",
        "serve.queue_at_window_end",
        "serve.rejected",
        "serve.shed",
        "serve.distilled_entries",
        "serve.window_distilled",
        "serve.window_p99_slice0_ms",
        "serve.window_p99_slice1_ms",
        "serve.window_p99_slice2_ms",
        "serve.window_p99_slice3_ms",
        "serve.window_p99_slice4_ms",
        "serve.capacity_p99_ms",
        "bench.generator_lateness_p99_ms",
    ] {
        layers.num(key, served.get(key)?);
    }
    layers.num("bench.pace_ms", served.get("pace_ms")?);
    layers.num("bench.untraced_wall_s", plain.get("replay_s")?);
    let traced_s = replay.get("replay_wall_s")? / replay.get("replay_pace_ms")?;
    let untraced_s = plain.get("replay_s")? / plain.get("replay_pace_ms")?;
    layers.num("bench.trace_overhead_ratio", traced_s / untraced_s);
    out.metrics = per_layer(&layers);
    Ok(())
}

fn orchestrate(args: &[String]) -> Result<Outcome, String> {
    let args = parse_args(args)?;
    let set = rtlfixer_env();
    if !set.is_empty() {
        return Err(format!("unset {} before a timed run", set.join(", ")));
    }
    let mut out = Outcome::new();
    match (args.workload == "serve-learning", args.trace) {
        (false, false) => batch_untraced(&args, &mut out)?,
        (false, true) => batch_traced(&args, &mut out)?,
        (true, false) => serve_untraced(&args, &mut out)?,
        (true, true) => serve_traced(&args, &mut out)?,
    }
    Ok(out)
}

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("child") {
        match run_child(&args[1..], started) {
            Ok(record) => println!("{}", record.render()),
            Err(err) => {
                eprintln!("perfbench child: {err}");
                std::process::exit(2);
            }
        }
        return;
    }
    let outcome = orchestrate(&args).and_then(|out| Ok((out.render()?, out.problems)));
    match outcome {
        Ok((line, problems)) => {
            for problem in &problems {
                eprintln!("perfbench: output check failed: {problem}");
            }
            println!("{line}");
            if !problems.is_empty() {
                std::process::exit(1);
            }
        }
        Err(err) => {
            eprintln!("perfbench: {err}");
            std::process::exit(2);
        }
    }
}
