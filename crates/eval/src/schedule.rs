//! Deterministic multi-process sharding of episode grids, plus the
//! scheduler statistics the episode runner records.
//!
//! Every grid runs in grid order: episodes are pure functions of their
//! spec, so claim order can only move wall time, never a result. A
//! [`Shard`] partitions a spec grid deterministically by spec index
//! (`index % count == shard`), the unit the bench binaries' `--shard i/n`
//! flag and `merge-shards` subcommand are built on. Results land by
//! original index and worker-local telemetry merges at the barrier in
//! index order, so every shard split and every `--jobs` value reproduces
//! the serial run bit-for-bit.

// ---- sharding -------------------------------------------------------------

/// One deterministic partition of a spec grid: spec `i` belongs to shard
/// `index` of `count` iff `i % count == index`. Striding (rather than
/// contiguous ranges) keeps every shard's workload representative — entries
/// and repeats interleave across shards the way they do across workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This shard's index, `0 <= index < count`.
    pub index: usize,
    /// Total shards the grid is split into (`>= 1`).
    pub count: usize,
}

impl Shard {
    /// The full grid as a single shard.
    pub const FULL: Shard = Shard { index: 0, count: 1 };

    /// Parses `"i/n"` (e.g. `"0/2"`), rejecting `n = 0`, `i >= n` and
    /// malformed input with a human-readable message.
    pub fn parse(text: &str) -> Result<Shard, String> {
        let (index, count) = text
            .split_once('/')
            .ok_or_else(|| format!("--shard expects i/n (e.g. 0/2), got `{text}`"))?;
        let index: usize = index
            .trim()
            .parse()
            .map_err(|_| format!("--shard index is not a number in `{text}`"))?;
        let count: usize = count
            .trim()
            .parse()
            .map_err(|_| format!("--shard count is not a number in `{text}`"))?;
        if count == 0 {
            return Err(format!("--shard count must be >= 1, got `{text}`"));
        }
        if index >= count {
            return Err(format!(
                "--shard index must be < count, got `{text}` (index {index} of {count})"
            ));
        }
        Ok(Shard { index, count })
    }

    /// Whether spec index `i` belongs to this shard.
    pub fn owns(&self, i: usize) -> bool {
        i % self.count == self.index
    }

    /// The spec indices of `0..len` this shard owns, ascending.
    pub fn indices(&self, len: usize) -> Vec<usize> {
        (self.index..len).step_by(self.count).collect()
    }

    /// Whether this is the whole grid.
    pub fn is_full(&self) -> bool {
        self.count == 1
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

// ---- scheduler statistics --------------------------------------------------

/// Post-run scheduler metadata, recorded into `results/bench_eval.json`
/// next to throughput (see `RunStats::scheduler`). `Copy` so `RunStats`
/// stays `Copy`.
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct SchedulerStats {
    /// Runs claimed from the pool's cursor: one per entry's consecutive
    /// repeats (one per problem on the pass@k grids, whose samples run
    /// inside one task).
    pub batches: usize,
    /// Total wall time workers spent idle at the pool barrier (their last
    /// task done, other workers still running), in microseconds.
    pub barrier_idle_us: u64,
}

impl SchedulerStats {
    /// Folds another cell's / shard's stats into this one: claims and
    /// idle time add.
    pub fn merge(&mut self, other: &SchedulerStats) {
        self.batches += other.batches;
        self.barrier_idle_us += other.barrier_idle_us;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_parse_accepts_valid_and_rejects_invalid() {
        assert_eq!(Shard::parse("0/2"), Ok(Shard { index: 0, count: 2 }));
        assert_eq!(Shard::parse("3/8"), Ok(Shard { index: 3, count: 8 }));
        for bad in ["2/2", "5/2", "0/0", "1/0", "x/2", "0/y", "02", "", "/", "1/2/3"] {
            assert!(Shard::parse(bad).is_err(), "`{bad}` must be rejected");
        }
        assert!(Shard::parse("2/2").unwrap_err().contains("index must be < count"));
        assert!(Shard::parse("0/0").unwrap_err().contains("count must be >= 1"));
    }

    #[test]
    fn shards_partition_exactly() {
        let len = 17;
        for count in [1usize, 2, 3, 5] {
            let mut seen = vec![0u32; len];
            for index in 0..count {
                let shard = Shard { index, count };
                for i in shard.indices(len) {
                    assert!(shard.owns(i));
                    seen[i] += 1;
                }
            }
            assert!(seen.iter().all(|&n| n == 1), "count {count}: {seen:?}");
        }
        assert!(Shard::FULL.is_full());
        assert_eq!(Shard { index: 1, count: 4 }.to_string(), "1/4");
    }

    #[test]
    fn scheduler_stats_merge_adds() {
        let mut a = SchedulerStats { batches: 10, barrier_idle_us: 100 };
        a.merge(&SchedulerStats { batches: 2, barrier_idle_us: 50 });
        assert_eq!((a.batches, a.barrier_idle_us), (12, 150));
    }
}
