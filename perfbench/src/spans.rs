//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, an optional tag (`hit`/`miss` on serve requests),
//! the op it belongs to, its parent, and start/end offsets from the
//! recorder's epoch. Spans are kept in memory and written out once, when
//! the benchmark ends. With recording off, [`Spans::span`] only calls its
//! closure, so the untraced runs that give the end-to-end numbers pay
//! nothing for it.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dx100_common::json::{obj, Json};

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary name, e.g. `workloads.run`.
    pub name: &'static str,
    /// Optional classification (`hit` / `miss`).
    pub tag: Option<&'static str>,
    /// The op (job or request) this span belongs to.
    pub op: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Offset of the start from the recorder's epoch.
    pub start: Duration,
    /// Offset of the end from the recorder's epoch.
    pub end: Duration,
}

impl Span {
    /// Wall duration.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Span recorder (single-threaded: the benchmark issues every call from
/// its main thread).
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder; `on = false` makes every method a no-op.
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off between ops.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled inside an open span");
        self.on = on;
    }

    /// Runs `f` inside a span named `name` for op `op`; spans opened by
    /// `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            tag: None,
            op,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.epoch.elapsed();
        out
    }

    /// Tags the innermost open span (no-op when recording is off).
    pub fn tag(&mut self, tag: &'static str) {
        if let Some(&idx) = self.open.last() {
            self.spans[idx].tag = Some(tag);
        }
    }

    /// Every closed span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array (times in microseconds).
    pub fn to_json(&self) -> Json {
        let us = |d: Duration| Json::Num(d.as_secs_f64() * 1e6);
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    obj([
                        ("id", id.into()),
                        ("name", s.name.into()),
                        ("tag", s.tag.into()),
                        ("op", s.op.into()),
                        ("parent", s.parent.into()),
                        ("start_us", us(s.start)),
                        ("end_us", us(s.end)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of each span: its duration minus the part of it that its
/// direct children cover (children of one parent never overlap, since a
/// single thread opens them in turn).
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut out: Vec<Duration> = spans.iter().map(Span::duration).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.duration());
        }
    }
    out
}

/// Summed self time per span name, in seconds.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *by.entry(s.name).or_insert(0.0) += t.as_secs_f64();
    }
    by
}

/// Durations in seconds of every span named `name` (and tagged `tag`,
/// when given).
pub fn durations(spans: &[Span], name: &str, tag: Option<&str>) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && (tag.is_none() || s.tag == tag))
        .map(|s| s.duration().as_secs_f64())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ms: u64, end_ms: u64) -> Span {
        Span {
            name,
            tag: None,
            op: 0,
            parent,
            start: Duration::from_millis(start_ms),
            end: Duration::from_millis(end_ms),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100) ⊃ run [10,60) ⊃ inner [20,30); op ⊃ write [70,90).
        let spans = [
            span("op", None, 0, 100),
            span("run", Some(0), 10, 60),
            span("inner", Some(1), 20, 30),
            span("write", Some(0), 70, 90),
        ];
        let ms: Vec<u128> = self_times(&spans).iter().map(|d| d.as_millis()).collect();
        assert_eq!(ms, [30, 40, 10, 20]);
        // Self times of a tree partition the root's duration.
        assert_eq!(ms.iter().sum::<u128>(), 100);
        let by = self_seconds_by_name(&spans);
        assert!((by["op"] - 0.030).abs() < 1e-12);
        assert!((by["run"] - 0.040).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_tags() {
        let mut rec = Spans::new(true);
        let v = rec.span("op", 7, |rec| {
            rec.span("serve.request", 7, |rec| rec.tag("hit"));
            rec.span("fs.write", 7, |_| 42)
        });
        assert_eq!(v, 42);
        let s = rec.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent), ("op", None));
        assert_eq!((s[1].parent, s[1].tag), (Some(0), Some("hit")));
        assert_eq!(s[2].parent, Some(0));
        assert!(s.iter().all(|x| x.op == 7 && x.end >= x.start));
        assert!(s[1].end <= s[2].start && s[2].end <= s[0].end);
        assert_eq!(durations(s, "serve.request", Some("hit")).len(), 1);
        assert_eq!(durations(s, "serve.request", Some("miss")).len(), 0);
        let text = rec.to_json().to_string();
        assert!(text.contains(r#""name":"serve.request","tag":"hit""#));
    }

    #[test]
    fn recording_off_records_nothing() {
        let mut rec = Spans::new(false);
        let v = rec.span("op", 1, |rec| {
            rec.tag("miss");
            rec.span("inner", 1, |_| 5)
        });
        assert_eq!(v, 5);
        assert!(rec.spans().is_empty());
    }
}
