//! §5 extension study: debugging *simulation* (logic) errors.
//!
//! The paper's §5 reports a preliminary study: feeding simulation error
//! logs — output error counts and "text-formatted waveform-like comparisons"
//! — back to the LLM agent yields only limited improvement beyond syntax
//! fixing, helping on simple problems but not on ones needing advanced
//! reasoning. This module reproduces that study:
//!
//! * [`render_sim_feedback`] builds the waveform-style mismatch report.
//! * [`SimDebugger`] runs the iterative repair loop. Its "LLM" proposes
//!   single-operator logic edits (the same operator family the generation
//!   model injects bugs from) biased by the feedback, and the testbench
//!   adjudicates — a local search whose success falls off sharply with
//!   problem complexity, matching the paper's observation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rtlfixer_dataset::{Problem, Verdict};
use rtlfixer_sim::testbench::run_testbench;
use rtlfixer_sim::value::LogicVec;

/// Renders the §5-style simulation feedback: mismatch count plus a
/// waveform-like table around the first mismatch.
pub fn render_sim_feedback(problem: &Problem, code: &str) -> Option<String> {
    let analysis = rtlfixer_verilog::compile_shared(code);
    if !analysis.is_ok() {
        return None;
    }
    let mut golden = (problem.golden)();
    let stimuli = problem.stimuli(0xC0FFEE);
    let result = match run_testbench(
        &analysis,
        &problem.top,
        golden.as_mut(),
        &stimuli,
        &problem.clocking,
    ) {
        Ok(result) => result,
        // A runtime simulation failure is itself actionable feedback: an
        // unstable design names the still-toggling nets (combinational
        // loop), which is exactly what the agent needs to see.
        Err(rtlfixer_sim::testbench::TestbenchError::Sim(e)) => {
            return Some(format!("Simulation FAILED before producing outputs: {e}."));
        }
        Err(_) => return None,
    };
    if result.passed {
        return Some("All output samples match the reference. 0 mismatches.".to_owned());
    }
    let mismatch = result.first_mismatch.as_ref()?;
    let mut out = format!(
        "Simulation FAILED: {} mismatched output sample(s) over {} cycles.\n\
         First mismatch at cycle {} on output '{}':\n",
        result.mismatch_count, result.cycles, mismatch.cycle, mismatch.port
    );
    out.push_str(&format!(
        "  cycle | {:^18} | {:^18}\n  ------+{:-^20}+{:-^20}\n",
        "yours", "expected", "", ""
    ));
    out.push_str(&format!(
        "  {:>5} | {:>18} | {:>18}\n",
        mismatch.cycle,
        truncate_vec(&mismatch.got),
        truncate_vec(&mismatch.want)
    ));
    Some(out)
}

fn truncate_vec(v: &LogicVec) -> String {
    truncate_text(&v.to_string(), 18)
}

/// Truncates to at most `max` characters, appending `…` when cut. Cuts on
/// `char` boundaries — a byte-indexed slice would panic mid-codepoint.
fn truncate_text(text: &str, max: usize) -> String {
    match text.char_indices().nth(max.saturating_sub(1)) {
        Some((byte_idx, _)) if text[byte_idx..].chars().nth(1).is_some() => {
            format!("{}…", &text[..byte_idx])
        }
        _ => text.to_owned(),
    }
}

/// Outcome of a simulation-debugging episode.
#[derive(Debug, Clone)]
pub struct SimDebugOutcome {
    /// Whether the final code passes the testbench.
    pub success: bool,
    /// The final code.
    pub final_code: String,
    /// Repair proposals evaluated.
    pub proposals: usize,
}

/// The §5 logic-error debugger: iterative propose-and-test local search
/// over single-operator edits.
#[derive(Debug)]
pub struct SimDebugger {
    rng: StdRng,
    /// Maximum repair proposals per episode.
    pub max_proposals: usize,
}

/// Candidate single-operator logic edits (the same family the generation
/// model draws functional bugs from, §DESIGN).
const EDIT_OPS: &[(&str, &str)] = &[
    (" | ", " & "),
    (" & ", " | "),
    (" & ", " ^ "),
    (" ^ ", " & "),
    (" - ", " + "),
    (" + ", " - "),
    (" <= ", " < "),
    (" < ", " <= "),
    (" >= ", " > "),
    (" > ", " >= "),
    (" != ", " == "),
    (" == ", " != "),
    ("? a : b", "? b : a"),
    ("? b : a", "? a : b"),
    ("q + 2", "q + 1"),
    ("<= 1;", "<= 0;"),
    // Insertion proposals: reintroduce a dropped inversion.
    ("= ", "= ~"),
    ("(", "(~"),
    ("~", ""),
];

impl SimDebugger {
    /// Creates a debugger with the paper's 10-iteration budget.
    pub fn new(seed: u64) -> Self {
        SimDebugger { rng: StdRng::seed_from_u64(seed), max_proposals: 10 }
    }

    /// Attempts to repair a *compiling but functionally wrong* candidate.
    pub fn debug(&mut self, problem: &Problem, code: &str) -> SimDebugOutcome {
        let mut proposals = 0usize;
        if problem.check(code) == Verdict::Pass {
            return SimDebugOutcome { success: true, final_code: code.to_owned(), proposals };
        }
        let header_end = code.find(';').map(|i| i + 1).unwrap_or(0);
        while proposals < self.max_proposals {
            proposals += 1;
            // Propose: pick an edit operator and an occurrence.
            let (pattern, replacement) = EDIT_OPS[self.rng.gen_range(0..EDIT_OPS.len())];
            let body = &code[header_end..];
            let sites: Vec<usize> = body
                .match_indices(pattern)
                .map(|(idx, _)| header_end + idx)
                .collect();
            if sites.is_empty() {
                continue;
            }
            let site = sites[self.rng.gen_range(0..sites.len())];
            let mut candidate = code.to_owned();
            candidate.replace_range(site..site + pattern.len(), replacement);
            // Test: compile + simulate (the agent's Compiler/Testbench
            // actions).
            if rtlfixer_verilog::compile_shared(&candidate).is_ok()
                && problem.check(&candidate) == Verdict::Pass
            {
                return SimDebugOutcome { success: true, final_code: candidate, proposals };
            }
        }
        SimDebugOutcome { success: false, final_code: code.to_owned(), proposals }
    }
}

/// Measures the §5 result: pass-rate improvement from simulation-error
/// debugging on functionally-wrong candidates, split by module complexity.
///
/// The paper's observation is about *problem complexity*: the agent fixes
/// logic bugs in simple modules but struggles as designs grow. The honest
/// complexity proxy for the propose-and-test search is the size of the
/// module's edit space, which scales with its source size.
#[derive(Debug, Clone, serde::Serialize)]
pub struct SimDebugStudy {
    /// Complexity bucket label.
    pub set: String,
    /// Functionally-wrong candidates attempted.
    pub attempted: usize,
    /// Candidates repaired to passing.
    pub repaired: usize,
}

impl SimDebugStudy {
    /// Fraction repaired.
    pub fn repair_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.repaired as f64 / self.attempted as f64
        }
    }
}

/// Source-line threshold between "simple" and "complex" modules.
const SIMPLE_LINE_LIMIT: usize = 6;

/// Runs the study over a problem slice: inject one functional bug per
/// problem, then try to debug it back.
pub fn sim_debug_study(problems: &[Problem], seed: u64, jobs: usize) -> Vec<SimDebugStudy> {
    sim_debug_study_timed(problems, seed, jobs).0
}

/// [`sim_debug_study`] plus wall-clock stats (one episode per problem).
///
/// Problem `i` is entry `i` of a one-repeat episode grid in seed cell 60:
/// its spec seed drives the mutation RNG and its cell-61 twin seeds the
/// debugger, so episodes are independent and run on the parallel pool;
/// the per-bucket rows are aggregated afterwards and identical for every
/// `jobs` value.
pub fn sim_debug_study_timed(
    problems: &[Problem],
    seed: u64,
    jobs: usize,
) -> (Vec<SimDebugStudy>, crate::runner::RunStats) {
    use crate::runner::{episode_grid, episode_seed, run_episodes};
    let specs = episode_grid(seed, 60, problems.len(), 1);
    // Per-problem outcome: None when the problem yielded no usable bug,
    // otherwise (is_simple, repaired).
    let (outcomes, stats) = run_episodes(jobs, &specs, |spec| {
        let problem = &problems[spec.entry];
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let buggy =
            rtlfixer_dataset::mutate::inject_functional_bug(&problem.solution, &mut rng)?;
        if problem.check(&buggy) == Verdict::Pass {
            return None; // mutation happened to be benign
        }
        let is_simple = problem.solution.lines().count() <= SIMPLE_LINE_LIMIT;
        let mut debugger = SimDebugger::new(episode_seed(seed, 61, spec.entry as u64, 0));
        Some((is_simple, debugger.debug(problem, &buggy).success))
    });
    let mut rows = vec![
        SimDebugStudy { set: "simple modules".into(), attempted: 0, repaired: 0 },
        SimDebugStudy { set: "complex modules".into(), attempted: 0, repaired: 0 },
    ];
    for outcome in outcomes.iter().flatten() {
        let row = if outcome.0 { &mut rows[0] } else { &mut rows[1] };
        row.attempted += 1;
        if outcome.1 {
            row.repaired += 1;
        }
    }
    (rows, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlfixer_dataset::suites;

    #[test]
    fn feedback_reports_mismatch_waveform() {
        let problem = suites::find_problem("human/and8").expect("exists");
        let wrong = problem.solution.replace(" & ", " | ");
        let feedback = render_sim_feedback(&problem, &wrong).expect("renders");
        assert!(feedback.contains("Simulation FAILED"), "{feedback}");
        assert!(feedback.contains("First mismatch at cycle"), "{feedback}");
        assert!(feedback.contains("expected"), "{feedback}");
    }

    #[test]
    fn feedback_reports_success_for_correct_code() {
        let problem = suites::find_problem("human/and8").expect("exists");
        let feedback = render_sim_feedback(&problem, &problem.solution).expect("renders");
        assert!(feedback.contains("0 mismatches"));
    }

    #[test]
    fn feedback_surfaces_unstable_simulation() {
        // A combinational loop compiles but never settles; the feedback must
        // say so and name the oscillating net instead of returning None.
        let problem = suites::find_problem("human/and8").expect("exists");
        let oscillating = problem
            .solution
            .replace("endmodule", "wire osc_n;\nassign osc_n = ~osc_n;\nendmodule");
        let feedback = render_sim_feedback(&problem, &oscillating).expect("renders");
        assert!(feedback.contains("Simulation FAILED"), "{feedback}");
        assert!(feedback.contains("did not settle"), "{feedback}");
        assert!(feedback.contains("osc_n"), "{feedback}");
    }

    #[test]
    fn feedback_is_none_for_uncompilable_code() {
        let problem = suites::find_problem("human/and8").expect("exists");
        assert!(render_sim_feedback(&problem, "module m(").is_none());
    }

    #[test]
    fn truncate_respects_char_boundaries() {
        // Multi-byte codepoints near the cut: byte slicing would panic.
        let wide = "××××××××××××××××××××"; // 20 chars, 2 bytes each
        let cut = truncate_text(wide, 18);
        assert_eq!(cut.chars().count(), 18);
        assert!(cut.ends_with('…'));
        // Exactly-at-limit and short inputs pass through unchanged.
        assert_eq!(truncate_text("×".repeat(18).as_str(), 18), "×".repeat(18));
        assert_eq!(truncate_text("0101", 18), "0101");
        assert_eq!(truncate_text("", 18), "");
        // ASCII behaviour matches the old byte-indexed version.
        let long = "0".repeat(25);
        assert_eq!(truncate_text(&long, 18), format!("{}…", "0".repeat(17)));
    }

    #[test]
    fn debugger_repairs_a_simple_operator_bug() {
        let problem = suites::find_problem("human/and8").expect("exists");
        let wrong = problem.solution.replace(" & ", " | ");
        assert_ne!(problem.check(&wrong), Verdict::Pass);
        // Several seeds: the edit space for and8 is tiny, so some seed in a
        // small budget must land the fix.
        let repaired = (0..6).any(|seed| {
            SimDebugger::new(seed).debug(&problem, &wrong).success
        });
        assert!(repaired, "local search should fix a one-op bug on a tiny module");
    }

    #[test]
    fn study_is_jobs_invariant() {
        let problems: Vec<_> = suites::verilog_eval_human().into_iter().step_by(8).collect();
        let serial = sim_debug_study(&problems, 11, 1);
        let parallel = sim_debug_study(&problems, 11, 4);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.attempted, b.attempted);
            assert_eq!(a.repaired, b.repaired);
        }
    }

    #[test]
    fn study_shows_simple_over_complex_gradient() {
        // The §5 finding in miniature: simple modules get repaired more
        // often than complex ones, and the overall gain is partial.
        let problems: Vec<_> = suites::verilog_eval_human().into_iter().step_by(4).collect();
        let rows = sim_debug_study(&problems, 11, 1);
        let simple = &rows[0];
        let complex = &rows[1];
        assert!(simple.attempted > 0 && complex.attempted > 0);
        // "Limited improvements": some logic bugs get repaired, far from all.
        let total_attempted = simple.attempted + complex.attempted;
        let total_repaired = simple.repaired + complex.repaired;
        let rate = total_repaired as f64 / total_attempted as f64;
        assert!(
            (0.05..0.90).contains(&rate),
            "aggregate repair rate should be partial: {rate:.2}"
        );
    }
}
