//! In-memory spans for the traced run.
//!
//! A span records a name, start and end (ns since the process epoch), the
//! span that caused it and the window it belongs to. Spans go into one
//! buffer reserved before the measured loop and are only read after it,
//! so recording never allocates; once the buffer is full further spans
//! are counted as dropped instead.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// "No span" / "no window".
pub const NONE: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub window: u32,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static PARENT: Cell<u32> = const { Cell::new(NONE) };
}

fn spans() -> std::sync::MutexGuard<'static, Vec<Span>> {
    SPANS
        .lock()
        .expect("span buffer lock poisoned by a panicking recorder")
}

/// Nanoseconds since the process epoch (fixed on first call).
pub fn now_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos() as u64
}

/// Converts an `Instant` to the span clock.
pub fn ns_of(t: Instant) -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// Reserves room for `capacity` spans (call before the measured loop).
pub fn reserve(capacity: usize) {
    let mut s = spans();
    s.clear();
    s.reserve_exact(capacity);
    DROPPED.store(0, Ordering::Relaxed);
}

/// Whether spans are being recorded right now. A statistic-only flag.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Records a finished span and returns its id (`NONE` when the buffer
/// is full).
pub fn record(name: &'static str, start: u64, end: u64, parent: u32, window: u32) -> u32 {
    let mut s = spans();
    if s.len() == s.capacity() {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return NONE;
    }
    s.push(Span {
        name,
        start,
        end,
        parent,
        window,
    });
    (s.len() - 1) as u32
}

/// Opens a span that ends at [`close`]; children recorded in between can
/// name it as their parent.
pub fn open(name: &'static str, parent: u32, window: u32) -> u32 {
    let now = now_ns();
    record(name, now, now, parent, window)
}

/// Ends a span opened with [`open`].
pub fn close(id: u32) {
    if id == NONE {
        return;
    }
    let end = now_ns();
    if let Some(span) = spans().get_mut(id as usize) {
        span.end = end;
    }
}

/// The span that calls on this thread are attributed to.
pub fn parent() -> u32 {
    PARENT.with(Cell::get)
}

/// Sets this thread's current parent span, returning the previous one.
pub fn set_parent(id: u32) -> u32 {
    PARENT.with(|p| p.replace(id))
}

/// Takes every recorded span and the count of spans dropped for room.
pub fn take() -> (Vec<Span>, u64) {
    let taken = std::mem::take(&mut *spans());
    (taken, DROPPED.load(Ordering::Relaxed))
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(list) = children.get_mut(s.parent as usize) {
            list.push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(span.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: u32) -> Span {
        Span {
            name: "t",
            start,
            end,
            parent,
            window: NONE,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(0, 100, NONE),
            span(10, 30, 0),
            span(40, 70, 0),
            span(45, 50, 2),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 25, 5]);
    }

    #[test]
    fn self_time_counts_overlap_once_and_clips_to_parent() {
        let spans = [
            span(100, 200, NONE),
            span(90, 130, 0),  // starts before the parent: clipped to 100
            span(120, 150, 0), // overlaps the first child by 10
            span(190, 260, 0), // ends after the parent: clipped to 200
        ];
        // Covered: [100,150) and [190,200) = 60.
        assert_eq!(self_times(&spans), vec![40, 40, 30, 70]);
    }

    #[test]
    fn childless_span_is_all_self() {
        assert_eq!(self_times(&[span(5, 9, NONE)]), vec![4]);
        assert_eq!(self_times(&[span(9, 5, NONE)]), vec![0]);
    }
}
