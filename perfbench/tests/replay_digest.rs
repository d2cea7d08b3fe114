//! The traced replays must reproduce the untraced runs exactly: the timing
//! wrappers forward every trait method, so wrapping never changes an
//! outcome. Each test compares digests on a small grid.

use rtlfixer_perfbench::batch::{self, Scale};
use rtlfixer_perfbench::{serve, Record};

#[test]
fn syntax_repair_replay_matches_the_untraced_run() {
    let config = batch::syntax_config(0, 2, Scale::Small);
    let entries = batch::setup_syntax(&config);
    let (parallel, _) = batch::run_syntax(&config);
    let (serial, _) = batch::run_syntax(&batch::syntax_config(0, 1, Scale::Small));
    let mut record = Record::new();
    let replay = batch::traced(|| batch::replay_syntax(&config, &entries), &mut record);
    assert_eq!(parallel.digest, serial.digest, "jobs must not change verdicts");
    assert_eq!(replay.digest, parallel.digest);
    assert_eq!(replay.fix_rate.to_bits(), parallel.fix_rate.to_bits());
    assert_eq!(replay.pass1_fixed.to_bits(), parallel.pass1_fixed.to_bits());
    assert!(record.get("rag.retrieve.calls").unwrap() > 0.0);
    assert!(record.get("llm.turn.calls").unwrap() > 0.0);
    assert_eq!(record.get("layer_sum_s").unwrap(), record.get("replay_wall_s").unwrap());
}

#[test]
fn generate_check_fix_replay_matches_the_untraced_run() {
    let config = batch::gcf_config(2, Scale::Small);
    let suites = batch::setup_gcf();
    let (untraced, _) = batch::run_gcf(&config, &suites);
    let mut record = Record::new();
    let replay = batch::traced(|| batch::replay_gcf(&config, &suites), &mut record);
    assert_eq!(replay.digest, untraced.digest);
    assert_eq!(replay.fix_rate.to_bits(), untraced.fix_rate.to_bits());
    assert_eq!(replay.pass1_fixed.to_bits(), untraced.pass1_fixed.to_bits());
    assert!(record.get("sim.check.calls").unwrap() > 0.0);
    assert!(record.get("agent.fix.calls").unwrap() > 0.0);
}

#[test]
fn serve_replay_is_the_same_traced_and_untraced() {
    let plain = serve::child_replay(0.5, false);
    let traced = serve::child_replay(0.5, true);
    assert_eq!(plain.get_text("digest").unwrap(), traced.get_text("digest").unwrap());
    assert_eq!(plain.get("fix_rate").unwrap(), traced.get("fix_rate").unwrap());
    assert!(traced.get("rag.merge.calls").unwrap() > 0.0);
}
