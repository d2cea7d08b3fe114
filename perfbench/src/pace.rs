//! Host pace: how fast this machine runs a fixed reference job right now.
//!
//! The benchmark runs on shared hosts whose speed drifts by tens of
//! percent within seconds, as neighbours come and go on the same cores and
//! caches; the same timed run reads 5.2 s or 7.9 s depending on when it
//! runs. A timing taken at one moment mixes the program's cost with the
//! host's pace at that moment. So every timed section is paced: a
//! [`Pacer`] thread runs a short reference chunk every [`PERIOD`] and
//! records the chunk's CPU time, and the section's timing is scaled to the
//! reference pace ([`at_reference`]). Set-up, too short for a pacer, is
//! followed at once by a [`burst`] of chunks.
//!
//! The reference chunk is benchmark-owned code that calls no crate:
//! string building, tokenising, hashing into a map and sorting, the kinds
//! of work the repair loop does. A change to the program moves the
//! program's time but never the chunk's, so it shows in full in a paced
//! figure. The chunk's CPU time (not its wall time) is recorded, so
//! waiting behind the program's own threads does not count as a slow host.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// CPU time of one reference chunk at the reference pace: the median on
/// the 2-core box the sizing figures in `WORKLOADS.md` come from. Paced
/// figures read as if the whole section ran at this pace.
pub const REFERENCE_CHUNK_S: f64 = 0.0017;
/// How often a [`Pacer`] runs a chunk: about 4% of one core.
pub const PERIOD: Duration = Duration::from_millis(50);
/// Chunks in a [`burst`].
pub const BURST_CHUNKS: usize = 40;
/// Unrecorded chunks a pacer or burst runs first, so the allocator's
/// first page faults are not taken for a slow host.
const WARM_CHUNKS: usize = 3;

/// One unit of reference work; returns a checksum so nothing is elided.
fn reference_chunk(seed: u64) -> u64 {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut text = String::with_capacity(48 * 1024);
    for _ in 0..6000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        text.push_str(&format!("t{}", x % 3000));
        text.push(if x & 8 == 0 { ' ' } else { '\n' });
    }
    let mut counts: HashMap<&str, u32> = HashMap::new();
    for token in text.split_whitespace() {
        *counts.entry(token).or_default() += 1;
    }
    let mut ranked: Vec<(&str, u32)> = counts.into_iter().collect();
    ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    ranked.iter().take(64).fold(0u64, |acc, (token, count)| {
        acc.wrapping_mul(31).wrapping_add(token.len() as u64 + u64::from(*count))
    })
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// This thread's CPU time in seconds (`CLOCK_THREAD_CPUTIME_ID`).
fn thread_cpu_s() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut time = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `time` is a valid, writable timespec for the whole call.
    let status = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    time.tv_sec as f64 + time.tv_nsec as f64 / 1e9
}

/// Runs one chunk and returns the CPU time it took, in seconds.
fn chunk_cpu_s(seed: u64) -> f64 {
    let before = thread_cpu_s();
    std::hint::black_box(reference_chunk(seed));
    thread_cpu_s() - before
}

/// Mean CPU time per chunk over [`BURST_CHUNKS`] chunks run back to back
/// on this thread.
pub fn burst() -> f64 {
    (0..WARM_CHUNKS as u64).for_each(|seed| {
        chunk_cpu_s(seed);
    });
    let total: f64 = (0..BURST_CHUNKS as u64).map(chunk_cpu_s).sum();
    total / BURST_CHUNKS as f64
}

/// `seconds` measured while chunks took `pace_s` each, scaled to the
/// reference pace.
pub fn at_reference(seconds: f64, pace_s: f64) -> f64 {
    seconds * REFERENCE_CHUNK_S / pace_s
}

/// A background thread that runs one chunk every [`PERIOD`] until
/// [`Pacer::finish`].
pub struct Pacer {
    origin: Instant,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<(f64, f64)>>,
}

impl Pacer {
    /// Starts pacing now.
    pub fn start() -> Pacer {
        let origin = Instant::now();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            (0..WARM_CHUNKS as u64).for_each(|seed| {
                chunk_cpu_s(seed);
            });
            let mut samples = Vec::new();
            let mut seed = WARM_CHUNKS as u64;
            while !flag.load(Ordering::Relaxed) {
                let at = origin.elapsed().as_secs_f64();
                samples.push((at, chunk_cpu_s(seed)));
                seed += 1;
                std::thread::sleep(PERIOD);
            }
            samples
        });
        Pacer { origin, stop, handle }
    }

    /// Stops the thread, waits for it and returns what it recorded.
    pub fn finish(self) -> PaceLog {
        self.stop.store(true, Ordering::Relaxed);
        let samples = self.handle.join().expect("pacer thread panicked");
        PaceLog { origin: self.origin, samples }
    }
}

/// Runs `work` under a [`Pacer`]; returns its result and the mean chunk
/// time while it ran.
pub fn paced<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let pacer = Pacer::start();
    let start = Instant::now();
    let result = work();
    let end = Instant::now();
    (result, pacer.finish().mean_between(start, end))
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// Spinning threads at the idle scheduling class, one per CPU, so no CPU
/// of a mostly idle process halts between requests.
///
/// On a virtual machine, waking a halted CPU goes through the host's
/// scheduler, and on a busy host that wake-up costs from tens of
/// microseconds to milliseconds; a served request takes several such
/// wake-ups. Idle-class threads run only when nothing else wants the CPU
/// and yield to any woken thread at once, so they take no CPU time from
/// the program but keep its wake-ups inside the guest.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    /// Starts `threads` spinners.
    pub fn start(threads: usize) -> KeepAwake {
        const SCHED_IDLE: i32 = 5;
        let stop = Arc::new(AtomicBool::new(false));
        let handles = (0..threads)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let priority = 0i32;
                    // SAFETY: `priority` is a valid `sched_param` (one int)
                    // for the whole call; pid 0 is the calling thread.
                    let status = unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) };
                    if status != 0 {
                        return;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        KeepAwake { stop, handles }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for handle in self.handles.drain(..) {
            handle.join().expect("spinner thread panicked");
        }
    }
}

/// The chunk times a [`Pacer`] recorded, by start time.
#[derive(Debug, Clone)]
pub struct PaceLog {
    origin: Instant,
    /// `(seconds since the pacer started, chunk CPU seconds)`, in time order.
    samples: Vec<(f64, f64)>,
}

impl PaceLog {
    /// Mean chunk time of the chunks started between `from` and `to`, or
    /// of the chunk nearest the middle when none started in between.
    pub fn mean_between(&self, from: Instant, to: Instant) -> f64 {
        let at = |instant: Instant| instant.saturating_duration_since(self.origin).as_secs_f64();
        let (from, to) = (at(from), at(to));
        let lo = self.samples.partition_point(|&(t, _)| t < from);
        let hi = self.samples.partition_point(|&(t, _)| t <= to);
        if hi > lo {
            return self.samples[lo..hi].iter().map(|&(_, cpu)| cpu).sum::<f64>()
                / (hi - lo) as f64;
        }
        let middle = (from + to) / 2.0;
        self.samples
            .iter()
            .min_by(|a, b| (a.0 - middle).abs().total_cmp(&(b.0 - middle).abs()))
            .map_or(REFERENCE_CHUNK_S, |&(_, cpu)| cpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pace_scales_durations_and_averages_the_chunks_in_range() {
        assert_eq!(at_reference(2.0, REFERENCE_CHUNK_S), 2.0);
        assert!((at_reference(2.0, 2.0 * REFERENCE_CHUNK_S) - 1.0).abs() < 1e-12);
        let origin = Instant::now();
        let log = PaceLog { origin, samples: vec![(0.0, 1.0), (1.0, 2.0), (2.0, 4.0)] };
        let at = |s: f64| origin + Duration::from_secs_f64(s);
        assert_eq!(log.mean_between(at(0.5), at(2.5)), 3.0);
        assert_eq!(log.mean_between(at(1.2), at(1.4)), 2.0);
        assert!(burst() > 0.0);
    }
}
