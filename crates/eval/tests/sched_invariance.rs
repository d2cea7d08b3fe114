//! Scheduling invariance: episode results are a pure function of the spec,
//! so the pool may only change *when* an episode runs — never its verdict.
//! Every worker count and the sharded multi-process path must reproduce
//! the serial run's verdict fingerprint bit-for-bit. If any point of the
//! matrix moves, the executor changed results, which is a correctness bug
//! — not a baseline to re-record.

use rtlfixer_eval::experiments::table1::{
    merge_table1_verdicts, table1_merged, table1_verdicts, FixRateConfig,
};
use rtlfixer_eval::Shard;

fn quick_config(jobs: usize) -> FixRateConfig {
    FixRateConfig { max_entries: Some(8), repeats: 2, jobs, ..Default::default() }
}

/// The `--quick`-shaped grid's verdict fingerprint and fix-rate bits at
/// one worker count.
fn grid_outputs(jobs: usize) -> (u128, Vec<u64>) {
    let merged = table1_merged(&quick_config(jobs));
    let rates = merged.cells.iter().map(|cell| cell.fix_rate.to_bits()).collect();
    (merged.verdict_fingerprint, rates)
}

#[test]
fn every_worker_count_reproduces_the_serial_verdicts() {
    let reference = grid_outputs(1);
    assert_ne!(reference.0, 0, "degenerate fingerprint");
    for jobs in [2, 4] {
        assert_eq!(
            grid_outputs(jobs),
            reference,
            "verdicts diverged from the serial run at --jobs {jobs}"
        );
    }
}

#[test]
fn sharded_halves_merge_to_the_unsharded_fingerprint() {
    let config = quick_config(4);
    let unsharded = table1_merged(&config);
    // Two half-shards, run as separate grids (as two processes would),
    // merged back through the shared fold.
    let halves: Vec<_> = (0..2)
        .map(|index| table1_verdicts(&config, Shard { index, count: 2 }))
        .collect();
    let merged = merge_table1_verdicts(&config, &halves).expect("complete partition");
    assert_eq!(
        merged.verdict_fingerprint, unsharded.verdict_fingerprint,
        "sharded merge fingerprint diverged from the unsharded run"
    );
    let merged_rates: Vec<u64> = merged.cells.iter().map(|c| c.fix_rate.to_bits()).collect();
    let unsharded_rates: Vec<u64> =
        unsharded.cells.iter().map(|c| c.fix_rate.to_bits()).collect();
    assert_eq!(merged_rates, unsharded_rates, "sharded merge fix rates diverged");
}
