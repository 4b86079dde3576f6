//! Per-stream stride prefetcher.
//!
//! The paper's Table 3 attaches stride prefetchers to L1 and L2. Stride
//! prefetching is what makes the cores' *streaming* accesses (index arrays,
//! scratchpad reads) cheap — and what fails completely on *indirect*
//! accesses, whose line sequence has no stride. Both effects matter for the
//! evaluation, so the model trains per logical stream and only issues
//! prefetches once a stride has repeated.

use dx100_common::LineAddr;

/// Training state for one stream.
#[derive(Debug, Clone, Copy)]
struct StreamEntry {
    last_line: i64,
    stride: i64,
    confidence: u8,
}

/// A per-stream stride detector that emits prefetch candidates.
#[derive(Clone, Debug)]
pub struct StridePrefetcher {
    /// `(stream, state)` in first-seen order, scanned linearly: an L1 or
    /// L2 sees a handful of streams, and the table is cleared before it
    /// would exceed `max_streams`.
    table: Vec<(u32, StreamEntry)>,
    /// Prefetch distance: how many strides ahead to fetch.
    distance: i64,
    /// Prefetch degree: how many lines to issue per trigger.
    degree: usize,
    confidence_threshold: u8,
    max_streams: usize,
}

impl StridePrefetcher {
    /// Creates a prefetcher with the default distance (8 strides ahead) and
    /// degree (4 lines per trigger).
    pub fn new() -> Self {
        StridePrefetcher {
            table: Vec::new(),
            distance: 8,
            degree: 4,
            confidence_threshold: 2,
            max_streams: 64,
        }
    }

    /// Trains on a demand access and returns prefetch candidate lines.
    pub fn observe(&mut self, stream: u32, line: LineAddr, out: &mut Vec<LineAddr>) {
        let cur = line.0 as i64;
        match self.table.iter_mut().find(|(s, _)| *s == stream) {
            Some((_, e)) => {
                let stride = cur - e.last_line;
                if stride == 0 {
                    return; // same line; no information
                }
                if stride == e.stride {
                    e.confidence = e.confidence.saturating_add(1);
                } else {
                    e.stride = stride;
                    e.confidence = 0;
                }
                e.last_line = cur;
                if e.confidence >= self.confidence_threshold {
                    for k in 0..self.degree as i64 {
                        let target = cur + (self.distance + k) * e.stride;
                        if target >= 0 {
                            out.push(LineAddr(target as u64));
                        }
                    }
                }
            }
            None => {
                if self.table.len() >= self.max_streams {
                    self.table.clear(); // cheap aging for a bounded table
                }
                self.table.push((
                    stream,
                    StreamEntry {
                        last_line: cur,
                        stride: 0,
                        confidence: 0,
                    },
                ));
            }
        }
    }
}

impl Default for StridePrefetcher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_stride_stream_prefetches_ahead() {
        let mut p = StridePrefetcher::new();
        let mut out = Vec::new();
        for i in 0..8u64 {
            p.observe(1, LineAddr(i), &mut out);
        }
        assert!(!out.is_empty(), "confident stream must prefetch");
        // Prefetching runs ahead of the stream: the furthest candidate is
        // `distance + degree - 1` lines beyond the last demand access.
        assert_eq!(out.iter().map(|l| l.0).max(), Some(7 + 8 + 3));
    }

    #[test]
    fn random_stream_never_prefetches() {
        let mut p = StridePrefetcher::new();
        let mut out = Vec::new();
        for line in [5u64, 900, 13, 47777, 2, 10_000_019] {
            p.observe(2, LineAddr(line), &mut out);
        }
        assert!(out.is_empty(), "no stable stride → no prefetch");
    }

    #[test]
    fn negative_stride_supported() {
        let mut p = StridePrefetcher::new();
        let mut out = Vec::new();
        for i in (0..10u64).rev() {
            p.observe(3, LineAddr(1000 + i), &mut out);
        }
        assert!(!out.is_empty());
        // Stream descends from 1009: every candidate runs below the stream.
        assert!(out.iter().all(|l| l.0 < 1008));
        assert!(out.iter().map(|l| l.0).min() < Some(1000));
    }

    #[test]
    fn streams_are_independent() {
        let mut p = StridePrefetcher::new();
        let mut out = Vec::new();
        // Interleave two unit-stride streams at different bases.
        for i in 0..8u64 {
            p.observe(10, LineAddr(i), &mut out);
            p.observe(11, LineAddr(100_000 + i), &mut out);
        }
        assert!(out.iter().any(|l| l.0 < 100));
        assert!(out.iter().any(|l| l.0 > 100_000));
    }
}

/// Differential property test: the linearly scanned table must produce the
/// same candidates as the `HashMap` table it replaced, on random streams
/// that include more than `max_streams` distinct ids (the clear-at-64 rule).
#[cfg(test)]
mod differential {
    use dx100_common::LineAddr;
    use proptest::prelude::*;

    /// The `HashMap` implementation, kept verbatim as the reference model.
    mod reference {
        use dx100_common::hash::HashMap;
        use dx100_common::LineAddr;

        /// Training state for one stream.
        #[derive(Debug, Clone, Copy)]
        struct StreamEntry {
            last_line: i64,
            stride: i64,
            confidence: u8,
        }

        /// A per-stream stride detector that emits prefetch candidates.
        #[derive(Clone, Debug)]
        pub struct StridePrefetcher {
            table: HashMap<u32, StreamEntry>,
            /// Prefetch distance: how many strides ahead to fetch.
            distance: i64,
            /// Prefetch degree: how many lines to issue per trigger.
            degree: usize,
            confidence_threshold: u8,
            max_streams: usize,
        }

        impl StridePrefetcher {
            /// Creates a prefetcher with the default distance (8 strides ahead) and
            /// degree (4 lines per trigger).
            pub fn new() -> Self {
                StridePrefetcher {
                    table: HashMap::default(),
                    distance: 8,
                    degree: 4,
                    confidence_threshold: 2,
                    max_streams: 64,
                }
            }

            /// Trains on a demand access and returns prefetch candidate lines.
            pub fn observe(&mut self, stream: u32, line: LineAddr, out: &mut Vec<LineAddr>) {
                let cur = line.0 as i64;
                match self.table.get_mut(&stream) {
                    Some(e) => {
                        let stride = cur - e.last_line;
                        if stride == 0 {
                            return; // same line; no information
                        }
                        if stride == e.stride {
                            e.confidence = e.confidence.saturating_add(1);
                        } else {
                            e.stride = stride;
                            e.confidence = 0;
                        }
                        e.last_line = cur;
                        if e.confidence >= self.confidence_threshold {
                            for k in 0..self.degree as i64 {
                                let target = cur + (self.distance + k) * e.stride;
                                if target >= 0 {
                                    out.push(LineAddr(target as u64));
                                }
                            }
                        }
                    }
                    None => {
                        if self.table.len() >= self.max_streams {
                            self.table.clear(); // cheap aging for a bounded table
                        }
                        self.table.insert(
                            stream,
                            StreamEntry {
                                last_line: cur,
                                stride: 0,
                                confidence: 0,
                            },
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #[test]
        fn vec_table_matches_hashmap_reference(
            accesses in proptest::collection::vec((0u32..80, 0u64..8, any::<bool>()), 1..400),
        ) {
            let mut table = super::StridePrefetcher::new();
            let mut reference = reference::StridePrefetcher::new();
            let (mut got, mut want) = (Vec::new(), Vec::new());
            // Each stream walks its own region with a stride it sometimes
            // keeps, so some streams train and prefetch, others never do.
            let mut next = vec![0u64; 80];
            for (stream, step, keep) in accesses {
                let s = stream as usize;
                next[s] = next[s].wrapping_add(if keep { 2 } else { step });
                let line = LineAddr((s as u64) << 20 | next[s]);
                table.observe(stream, line, &mut got);
                reference.observe(stream, line, &mut want);
                prop_assert_eq!(&got, &want);
            }
        }
    }
}
