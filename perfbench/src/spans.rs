//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files only, around calls into
//! each crate's public functions. A traced replay runs on one thread, so
//! the recorder is thread-local: [`install`] starts recording, [`span`]
//! opens a guard that closes on drop, and [`finish`] takes the spans out.
//! Spans stay in memory until then. Without an installed recorder a guard
//! costs one thread-local lookup.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::quantile;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `rag.retrieve`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was installed.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was installed.
    pub end_ns: u64,
    /// Index of the enclosing span in the recorded list, if any.
    pub parent: Option<usize>,
    /// The work item (episode, sample or request) the span belongs to.
    pub item: u64,
}

impl Span {
    /// Inclusive duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    item: u64,
    counters: BTreeMap<&'static str, f64>,
}

/// What a recorder collected: spans in open order plus named counters.
#[derive(Debug, Clone, Default)]
pub struct Recording {
    /// Closed spans, in the order they were opened.
    pub spans: Vec<Span>,
    /// Counters added with [`add`] and [`record_max`].
    pub counters: BTreeMap<&'static str, f64>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread, discarding any earlier recording.
pub fn install() {
    RECORDER.with(|slot| {
        *slot.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            item: 0,
            counters: BTreeMap::new(),
        });
    });
}

/// Stops recording and returns what was recorded.
///
/// # Panics
///
/// Panics if no recorder is installed or a span guard is still open: both
/// are bugs in the replay.
pub fn finish() -> Recording {
    RECORDER.with(|slot| {
        let recorder = slot.borrow_mut().take().expect("span recorder installed");
        assert!(recorder.open.is_empty(), "{} spans still open", recorder.open.len());
        Recording { spans: recorder.spans, counters: recorder.counters }
    })
}

/// Adds `value` to counter `name` (no-op without a recorder).
pub fn add(name: &'static str, value: f64) {
    RECORDER.with(|slot| {
        if let Some(recorder) = slot.borrow_mut().as_mut() {
            *recorder.counters.entry(name).or_insert(0.0) += value;
        }
    });
}

/// Raises counter `name` to at least `value` (no-op without a recorder).
pub fn record_max(name: &'static str, value: f64) {
    RECORDER.with(|slot| {
        if let Some(recorder) = slot.borrow_mut().as_mut() {
            let slot = recorder.counters.entry(name).or_insert(value);
            *slot = slot.max(value);
        }
    });
}

/// Tags the spans opened from now on with work item `item`.
pub fn set_item(item: u64) {
    RECORDER.with(|slot| {
        if let Some(recorder) = slot.borrow_mut().as_mut() {
            recorder.item = item;
        }
    });
}

/// An open span; it closes when dropped.
pub struct Guard {
    index: Option<usize>,
}

/// Opens a span named `name` under the innermost open span.
pub fn span(name: &'static str) -> Guard {
    let index = RECORDER.with(|slot| {
        let mut slot = slot.borrow_mut();
        let recorder = slot.as_mut()?;
        let index = recorder.spans.len();
        let start_ns = recorder.epoch.elapsed().as_nanos() as u64;
        let parent = recorder.open.last().copied();
        let item = recorder.item;
        recorder.spans.push(Span { name, start_ns, end_ns: start_ns, parent, item });
        recorder.open.push(index);
        Some(index)
    });
    Guard { index }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        RECORDER.with(|slot| {
            if let Some(recorder) = slot.borrow_mut().as_mut() {
                recorder.spans[index].end_ns = recorder.epoch.elapsed().as_nanos() as u64;
                if recorder.open.last() == Some(&index) {
                    recorder.open.pop();
                }
            }
        });
    }
}

/// Per-layer totals folded from a span list.
#[derive(Debug, Clone, Default)]
pub struct Layer {
    /// Spans with this name.
    pub calls: u64,
    /// Summed self time (duration minus direct children), in nanoseconds.
    pub self_ns: u64,
    /// Each span's inclusive duration, in microseconds.
    pub durations_us: Vec<f64>,
}

impl Layer {
    /// Summed self time in seconds.
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 / 1e9
    }

    /// The `q`-quantile of inclusive span durations, in microseconds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        quantile(&self.durations_us, q)
    }
}

/// Folds spans into per-layer totals. A span's self time is its duration
/// minus the durations of its direct children; spans nest strictly on one
/// thread, so the self times of all spans sum to the root spans' total.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.duration_ns();
        }
    }
    let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let layer = layers.entry(span.name).or_default();
        layer.calls += 1;
        layer.self_ns += span.duration_ns() - children;
        layer.durations_us.push(span.duration_ns() as f64 / 1e3);
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root() {
        install();
        {
            let _root = span("root");
            set_item(1);
            {
                let _a = span("a");
                let _b = span("b");
                std::hint::black_box((0..1000).sum::<u64>());
            }
            let _c = span("a");
        }
        add("hits", 2.0);
        add("hits", 1.0);
        record_max("peak", 3.0);
        record_max("peak", 1.0);
        let recording = finish();
        assert_eq!(recording.counters["hits"], 3.0);
        assert_eq!(recording.counters["peak"], 3.0);
        let spans = recording.spans;
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].item, 1);
        let layers = layers(&spans);
        assert_eq!(layers["a"].calls, 2);
        let total: u64 = layers.values().map(|l| l.self_ns).sum();
        assert_eq!(total, spans[0].duration_ns());
    }

    #[test]
    fn guards_without_a_recorder_are_inert() {
        let _guard = span("nothing");
    }
}
