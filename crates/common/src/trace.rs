//! Event tracing for the simulator: timestamped spans and instants,
//! exported as Chrome trace-event JSON loadable in Perfetto.
//!
//! The layer is built to cost nothing when disabled: components hold an
//! `Option<TraceHandle>` and every hook is a single `if let Some(..)` —
//! no event is constructed, formatted, or allocated unless a sink exists.
//!
//! One [`TraceBuffer`] collects the events of one simulated run. Components
//! record through [`TraceHandle`]s, which are cheap clones sharing the
//! buffer; each handle is bound to a *track* (a named row in the viewer —
//! a DRAM channel, a cache's MSHR file, a core, a DX100 engine) and to a
//! timestamp scale, which converts component-local clocks (e.g. DRAM ticks
//! at half the CPU rate) onto the shared CPU-cycle timeline.
//!
//! Event taxonomy (category → events):
//!
//! | category | events | kind |
//! |---|---|---|
//! | `dram` | `ACT`/`PRE` per bank | instant |
//! | `dram` | `RD`/`WR` per bank (CAS issue → end of data transfer), `REF` | span |
//! | `mshr` | one span per miss line, allocation → fill | span |
//! | `dx100` | `fill`, `issue`, `drain` tile-phase activity per engine | span |
//! | `stall` | `rob_full`, `lq_full`, `sq_full`, `fence` per core | span |
//! | `profile` | epoch-boundary utilization samples (`--profile`) | counter |

use std::sync::{Arc, Mutex};

use crate::Cycle;

/// Identifies a named track (viewer row) within a buffer.
pub type TrackId = u32;

/// What a [`TraceEvent`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An interval; `ts` is the start, `dur` its length (CPU cycles).
    Span {
        /// Duration in CPU cycles.
        dur: u64,
    },
    /// A point in time.
    Instant,
    /// A counter sample (`"ph":"C"` in Chrome trace format): the viewer
    /// draws one stepped utilization curve per counter name.
    Counter {
        /// Sampled value.
        value: u64,
    },
}

/// One recorded event, timestamped in CPU cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name shown in the viewer (e.g. `RD b3`).
    pub name: String,
    /// Taxonomy category: `dram`, `mshr`, `dx100`, or `stall`.
    pub cat: &'static str,
    /// Start time in CPU cycles.
    pub ts: u64,
    /// Span or instant.
    pub kind: EventKind,
    /// Track the event belongs to.
    pub track: TrackId,
}

/// All events of one simulated run, plus its track registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceBuffer {
    events: Vec<TraceEvent>,
    tracks: Vec<String>,
    capacity: usize,
    dropped: u64,
}

impl TraceBuffer {
    /// A buffer holding at most `capacity` events; later events are counted
    /// as dropped rather than grown without bound.
    pub fn new(capacity: usize) -> Self {
        TraceBuffer {
            events: Vec::new(),
            tracks: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    fn add_track(&mut self, name: String) -> TrackId {
        self.tracks.push(name);
        (self.tracks.len() - 1) as TrackId
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// Recorded events, in recording order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Registered track names, indexed by [`TrackId`].
    pub fn tracks(&self) -> &[String] {
        &self.tracks
    }

    /// Events discarded because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// A cheap, cloneable recorder bound to one track of a shared buffer.
#[derive(Debug, Clone)]
pub struct TraceHandle {
    buf: Arc<Mutex<TraceBuffer>>,
    ts_scale: u64,
    track: TrackId,
}

impl TraceHandle {
    /// Creates the buffer and its root handle (track `sim`, scale 1).
    pub fn root(capacity: usize) -> TraceHandle {
        let mut buf = TraceBuffer::new(capacity);
        let track = buf.add_track("sim".to_string());
        TraceHandle {
            buf: Arc::new(Mutex::new(buf)),
            ts_scale: 1,
            track,
        }
    }

    /// A handle recording onto a newly registered track, same scale.
    pub fn track(&self, name: impl Into<String>) -> TraceHandle {
        let track = self.buf.lock().unwrap().add_track(name.into());
        TraceHandle {
            buf: Arc::clone(&self.buf),
            ts_scale: self.ts_scale,
            track,
        }
    }

    /// A handle whose timestamps are multiplied by `factor` — for
    /// components whose local clock runs slower than the CPU clock.
    pub fn scaled(&self, factor: u64) -> TraceHandle {
        TraceHandle {
            buf: Arc::clone(&self.buf),
            ts_scale: self.ts_scale * factor.max(1),
            track: self.track,
        }
    }

    /// Records a point event at component-local time `ts`.
    pub fn instant(&self, cat: &'static str, name: impl Into<String>, ts: Cycle) {
        self.buf.lock().unwrap().push(TraceEvent {
            name: name.into(),
            cat,
            ts: ts * self.ts_scale,
            kind: EventKind::Instant,
            track: self.track,
        });
    }

    /// Records a counter sample at component-local time `ts` (drawn as a
    /// stepped curve named `name` in the viewer).
    pub fn counter(&self, cat: &'static str, name: impl Into<String>, ts: Cycle, value: u64) {
        self.buf.lock().unwrap().push(TraceEvent {
            name: name.into(),
            cat,
            ts: ts * self.ts_scale,
            kind: EventKind::Counter { value },
            track: self.track,
        });
    }

    /// Records an interval `[start, end)` in component-local time.
    pub fn span(&self, cat: &'static str, name: impl Into<String>, start: Cycle, end: Cycle) {
        let start_scaled = start * self.ts_scale;
        let end_scaled = end.max(start) * self.ts_scale;
        self.buf.lock().unwrap().push(TraceEvent {
            name: name.into(),
            cat,
            ts: start_scaled,
            kind: EventKind::Span {
                dur: end_scaled - start_scaled,
            },
            track: self.track,
        });
    }

    /// Clones the collected buffer out (for attaching to run statistics).
    pub fn snapshot(&self) -> TraceBuffer {
        self.buf.lock().unwrap().clone()
    }
}

/// Tracks a level-triggered activity and emits one span per contiguous
/// active stretch (rising edge starts it, falling edge records it).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTracker {
    since: Option<Cycle>,
}

impl SpanTracker {
    /// Feeds this cycle's activity level.
    pub fn update(
        &mut self,
        active: bool,
        now: Cycle,
        handle: &TraceHandle,
        cat: &'static str,
        name: &str,
    ) {
        match (self.since, active) {
            (None, true) => self.since = Some(now),
            (Some(start), false) => {
                handle.span(cat, name, start, now);
                self.since = None;
            }
            _ => {}
        }
    }

    /// Whether a span is open: the last update was active.
    pub fn is_open(&self) -> bool {
        self.since.is_some()
    }

    /// Closes any open span at end of run.
    pub fn finish(&mut self, now: Cycle, handle: &TraceHandle, cat: &'static str, name: &str) {
        if let Some(start) = self.since.take() {
            handle.span(cat, name, start, now.max(start + 1));
        }
    }
}

/// Serializes runs as Chrome trace-event JSON (the "JSON object format"):
/// each `(label, buffer)` pair becomes one process whose tracks are
/// threads. Events are sorted by timestamp, so the output's `ts` sequence
/// is monotonically non-decreasing. Load the file in Perfetto
/// (<https://ui.perfetto.dev>) or `chrome://tracing`.
pub fn chrome_trace_json(runs: &[(String, &TraceBuffer)]) -> String {
    use crate::json::Json;
    let mut out = String::with_capacity(1 << 16);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut emit = |out: &mut String, piece: String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&piece);
    };

    // Metadata first: process and thread names.
    for (run_idx, (label, buf)) in runs.iter().enumerate() {
        let pid = run_idx + 1;
        emit(
            &mut out,
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":{}}}}}",
                Json::from(label.as_str())
            ),
        );
        for (tid, track) in buf.tracks().iter().enumerate() {
            emit(
                &mut out,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                     \"args\":{{\"name\":{}}}}}",
                    Json::from(track.as_str())
                ),
            );
        }
    }

    // Data events, globally sorted by timestamp.
    let mut indexed: Vec<(u64, usize, &TraceEvent)> = Vec::new();
    for (run_idx, (_, buf)) in runs.iter().enumerate() {
        for ev in buf.events() {
            indexed.push((ev.ts, run_idx + 1, ev));
        }
    }
    indexed.sort_by_key(|(ts, _, _)| *ts);
    for (_, pid, ev) in indexed {
        let name = Json::from(ev.name.as_str()).to_string();
        match ev.kind {
            EventKind::Span { dur } => emit(
                &mut out,
                format!(
                    "{{\"name\":{name},\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":{pid},\"tid\":{}}}",
                    ev.cat,
                    ev.ts,
                    dur.max(1),
                    ev.track
                ),
            ),
            EventKind::Instant => emit(
                &mut out,
                format!(
                    "{{\"name\":{name},\"cat\":\"{}\",\"ph\":\"i\",\"ts\":{},\"s\":\"t\",\
                     \"pid\":{pid},\"tid\":{}}}",
                    ev.cat, ev.ts, ev.track
                ),
            ),
            EventKind::Counter { value } => emit(
                &mut out,
                format!(
                    "{{\"name\":{name},\"cat\":\"{}\",\"ph\":\"C\",\"ts\":{},\
                     \"pid\":{pid},\"tid\":{},\"args\":{{\"value\":{value}}}}}",
                    ev.cat, ev.ts, ev.track
                ),
            ),
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn records_and_scales() {
        let root = TraceHandle::root(16);
        let dram = root.scaled(2).track("ch0");
        dram.instant("dram", "ACT", 10);
        dram.span("dram", "RD", 10, 14);
        let buf = root.snapshot();
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.events()[0].ts, 20, "DRAM ticks scale onto CPU cycles");
        assert!(matches!(buf.events()[1].kind, EventKind::Span { dur: 8 }));
        assert_eq!(buf.tracks(), &["sim".to_string(), "ch0".to_string()]);
    }

    #[test]
    fn capacity_drops_and_counts() {
        let root = TraceHandle::root(2);
        for i in 0..5 {
            root.instant("dram", "x", i);
        }
        let buf = root.snapshot();
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.dropped(), 3);
    }

    #[test]
    fn span_tracker_merges_contiguous_activity() {
        let root = TraceHandle::root(16);
        let mut tr = SpanTracker::default();
        for now in 0..10 {
            tr.update((2..6).contains(&now), now, &root, "dx100", "fill");
        }
        tr.finish(10, &root, "dx100", "fill");
        let buf = root.snapshot();
        assert_eq!(buf.len(), 1, "one span for cycles 2..6");
        assert_eq!(buf.events()[0].ts, 2);
        assert!(matches!(buf.events()[0].kind, EventKind::Span { dur: 4 }));
    }

    #[test]
    fn counter_events_export_as_ph_c() {
        let root = TraceHandle::root(16);
        root.counter("profile", "dram_qdepth", 40, 14);
        let buf = root.snapshot();
        assert!(matches!(
            buf.events()[0].kind,
            EventKind::Counter { value: 14 }
        ));
        let text = chrome_trace_json(&[("r".to_string(), &buf)]);
        let doc = Json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let c = events
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("C"))
            .expect("counter event present");
        assert_eq!(c.get("ts").and_then(Json::as_f64), Some(40.0));
        assert_eq!(
            c.get("args")
                .and_then(|a| a.get("value"))
                .and_then(Json::as_f64),
            Some(14.0)
        );
    }

    #[test]
    fn chrome_export_is_valid_and_sorted() {
        let root = TraceHandle::root(64);
        let a = root.track("a");
        a.span("dram", "RD", 7, 9);
        a.instant("dram", "ACT", 3);
        root.instant("mshr", "m", 5);
        let buf = root.snapshot();
        let text = chrome_trace_json(&[("run \"one\"".to_string(), &buf)]);
        let doc = Json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 3 metadata (process + 2 threads) + 3 data events.
        assert_eq!(events.len(), 6);
        let ts: Vec<f64> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() != Some("M"))
            .map(|e| e.get("ts").unwrap().as_f64().unwrap())
            .collect();
        assert_eq!(ts, vec![3.0, 5.0, 7.0]);
    }
}
