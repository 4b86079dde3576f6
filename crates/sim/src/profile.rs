//! Whole-system cycle attribution: the per-component profiles rolled into
//! one MECE breakdown, its JSON serialization, and a human-readable
//! bottleneck summary.
//!
//! Every timed component attributes each of its cycles to exactly one
//! bucket (see the per-crate `profile` modules); [`SystemProfile`] merges
//! them and [`crate::System::collect_profile`] checks the sums: per core
//! `attributed == cycles ticked`, per DX100 instance `attributed ==
//! elapsed`, per DRAM channel `attributed == ticks`. Profiling never
//! alters [`crate::RunStats`], traces, or epoch samples, and its counters
//! are bit-identical with cycle skipping on or off: elided spans are
//! batch-credited by the same [`crate::System::settle`] call that credits
//! statistics.

use dx100_common::json::{obj, Json};
use dx100_common::TraceBuffer;
use dx100_core::EngineProfile;
use dx100_cpu::CoreProfile;
use dx100_dram::ChannelProfile;
use dx100_mem::{CacheProfile, HierarchyProfile};

/// Version of the `profile` JSON section; bump on any shape change.
pub const PROFILE_VERSION: u64 = 1;

/// Per-run telemetry that deliberately lives outside [`crate::RunStats`]:
/// activity-gating counters and, when profiling is on, the cycle
/// attribution. Keeping it separate is what lets the gating/profile
/// switches guarantee bit-identical `RunStats`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunTelemetry {
    /// Cycles on which no unit ticked (every unit asleep).
    pub skipped_cycles: u64,
    /// Entries into the everything-asleep path.
    pub skip_events: u64,
    /// Cycle attribution, when `obs.profile` was set.
    pub profile: Option<SystemProfile>,
    /// Chrome-trace counter events (`"ph":"C"`) sampled at epoch
    /// boundaries, kept out of [`crate::RunStats::trace`] so the trace
    /// stays byte-identical with profiling on or off. Consumers append
    /// this buffer to the Chrome trace file as its own process.
    pub counters: Option<TraceBuffer>,
}

impl RunTelemetry {
    /// JSON for the run report: always carries the skip counters; the
    /// `profile` key is `null` when profiling was off.
    pub fn to_json(&self) -> Json {
        obj([
            ("skipped_cycles", self.skipped_cycles.into()),
            ("skip_events", self.skip_events.into()),
            (
                "profile",
                self.profile.as_ref().map_or(Json::Null, |p| p.to_json()),
            ),
            (
                "counter_events",
                self.counters
                    .as_ref()
                    .map_or(Json::Null, |c| c.len().into()),
            ),
        ])
    }
}

/// The whole machine's cycle attribution over one run.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemProfile {
    /// Cycles covered (ROI start to collection).
    pub elapsed: u64,
    /// Cores merged into `cores`.
    pub num_cores: usize,
    /// All cores' stall taxonomy, merged.
    pub cores: CoreProfile,
    /// Core-cycles after a core drained its program (the remainder of
    /// `elapsed × num_cores` not attributed by any core's own taxonomy).
    pub core_drained: u64,
    /// All DX100 instances, merged (`None` on accelerator-less systems).
    pub engines: Option<EngineProfile>,
    /// Per-channel DRAM attribution, in channel order.
    pub dram: Vec<ChannelProfile>,
    /// MSHR/retry occupancy per cache level.
    pub caches: HierarchyProfile,
}

/// Integer percentage of `part` in `whole` (0 when `whole` is 0).
fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

fn cache_json(c: &CacheProfile) -> Json {
    obj([
        ("mshr_mean", c.mshr_occ.mean().into()),
        ("mshr_peak", c.mshr_occ.peak.into()),
        ("mshr_p99", c.mshr_depth.quantile(0.99).into()),
        ("retry_mean", c.retry_occ.mean().into()),
    ])
}

impl SystemProfile {
    /// The versioned `profile` section of the JSON run report.
    pub fn to_json(&self) -> Json {
        let mut cores: Vec<(&str, Json)> = self
            .cores
            .buckets()
            .into_iter()
            .map(|(k, v)| (k, v.into()))
            .collect();
        cores.push(("drained", self.core_drained.into()));
        let dx100 = self.engines.as_ref().map_or(Json::Null, |e| {
            let mut fields: Vec<(&str, Json)> = e
                .buckets()
                .into_iter()
                .chain(e.unit_busy())
                .chain(e.phases())
                .map(|(k, v)| (k, v.into()))
                .collect();
            fields.push(("row_table_p50", e.row_table_depth.quantile(0.5).into()));
            fields.push(("row_table_p99", e.row_table_depth.quantile(0.99).into()));
            Json::Obj(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        });
        let dram: Vec<Json> = self
            .dram
            .iter()
            .map(|ch| {
                let (hits, misses, conflicts) = ch.cas_totals();
                obj([
                    ("cmd_ticks", ch.cmd_ticks.into()),
                    ("refresh_ticks", ch.refresh_ticks.into()),
                    ("idle_ticks", ch.idle_ticks.into()),
                    ("row_hits", hits.into()),
                    ("row_misses", misses.into()),
                    ("row_conflicts", conflicts.into()),
                    ("queue_p50", ch.queue_depth.quantile(0.5).into()),
                    ("queue_p99", ch.queue_depth.quantile(0.99).into()),
                ])
            })
            .collect();
        obj([
            ("version", PROFILE_VERSION.into()),
            ("elapsed_cycles", self.elapsed.into()),
            ("num_cores", self.num_cores.into()),
            (
                "cores",
                Json::Obj(cores.into_iter().map(|(k, v)| (k.to_string(), v)).collect()),
            ),
            ("dx100", dx100),
            ("dram", Json::Arr(dram)),
            (
                "caches",
                obj([
                    ("l1", cache_json(&self.caches.l1)),
                    ("l2", cache_json(&self.caches.l2)),
                    ("llc", cache_json(&self.caches.llc)),
                ]),
            ),
        ])
    }

    /// Multi-line human-readable bottleneck report, e.g.
    ///
    /// ```text
    /// cores: 38.2% active, top stall wait_flag 41.0%, drained 9.1%
    /// dx100: 61.4% wait_mem (indirect unit busy 54.0%), row-table p99 = 512
    /// dram ch0: 41.2% busy, row hit 62.0% / miss 30.1% / conflict 7.9%, queue p99 = 14
    /// caches: LLC MSHR mean 12.3 peak 32, L1 retry mean 0.4
    /// ```
    pub fn bottleneck_summary(&self) -> String {
        let mut out = String::new();
        let core_cycles = self.elapsed * self.num_cores as u64;
        let (top_stall, top_n) = self
            .cores
            .buckets()
            .into_iter()
            .filter(|(k, _)| *k != "active")
            .max_by_key(|&(_, v)| v)
            .unwrap_or(("none", 0));
        out.push_str(&format!(
            "cores: {:.1}% active, top stall {top_stall} {:.1}%, drained {:.1}%\n",
            pct(self.cores.active, core_cycles),
            pct(top_n, core_cycles),
            pct(self.core_drained, core_cycles),
        ));
        if let Some(e) = &self.engines {
            let total = e.attributed();
            let (busiest, busy_n) = e
                .unit_busy()
                .into_iter()
                .max_by_key(|&(_, v)| v)
                .unwrap_or(("none", 0));
            out.push_str(&format!(
                "dx100: {:.1}% active, {:.1}% wait_mem ({busiest} unit busy {:.1}%), row-table p99 = {}\n",
                pct(e.active, total),
                pct(e.wait_mem, total),
                pct(busy_n, total),
                e.row_table_depth.quantile(0.99),
            ));
        }
        for (i, ch) in self.dram.iter().enumerate() {
            let ticks = ch.attributed();
            let (hits, misses, conflicts) = ch.cas_totals();
            let cas = hits + misses + conflicts;
            out.push_str(&format!(
                "dram ch{i}: {:.1}% busy, row hit {:.1}% / miss {:.1}% / conflict {:.1}%, queue p99 = {}\n",
                pct(ch.cmd_ticks, ticks),
                pct(hits, cas),
                pct(misses, cas),
                pct(conflicts, cas),
                ch.queue_depth.quantile(0.99),
            ));
        }
        out.push_str(&format!(
            "caches: LLC MSHR mean {:.1} peak {}, L1 retry mean {:.1}\n",
            self.caches.llc.mshr_occ.mean(),
            self.caches.llc.mshr_occ.peak,
            self.caches.l1.retry_occ.mean(),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> SystemProfile {
        let cores = CoreProfile {
            active: 60,
            wait_flag: 30,
            empty: 10,
            ..CoreProfile::default()
        };
        let mut engines = EngineProfile {
            active: 40,
            wait_mem: 50,
            idle: 10,
            indirect_busy: 35,
            ..EngineProfile::default()
        };
        engines.row_table_depth.record_n(16, 100);
        let mut ch = ChannelProfile::new(4);
        ch.cmd_ticks = 20;
        ch.idle_ticks = 30;
        ch.bank_hits[0] = 12;
        ch.bank_misses[1] = 5;
        ch.queue_depth.record_n(3, 50);
        SystemProfile {
            elapsed: 100,
            num_cores: 1,
            cores,
            core_drained: 0,
            engines: Some(engines),
            dram: vec![ch],
            caches: HierarchyProfile::default(),
        }
    }

    #[test]
    fn json_has_versioned_shape() {
        let j = sample_profile().to_json();
        assert_eq!(j.get("version").and_then(Json::as_f64), Some(1.0));
        assert_eq!(j.get("elapsed_cycles").and_then(Json::as_f64), Some(100.0));
        let cores = j.get("cores").expect("cores section");
        assert_eq!(cores.get("active").and_then(Json::as_f64), Some(60.0));
        assert_eq!(cores.get("drained").and_then(Json::as_f64), Some(0.0));
        let dx = j.get("dx100").expect("dx100 section");
        assert_eq!(dx.get("wait_mem").and_then(Json::as_f64), Some(50.0));
        let dram = j.get("dram").and_then(Json::as_arr).expect("dram array");
        assert_eq!(dram.len(), 1);
        assert_eq!(dram[0].get("row_hits").and_then(Json::as_f64), Some(12.0));
        assert!(j.get("caches").is_some());
    }

    #[test]
    fn null_dx100_when_no_engines() {
        let mut p = sample_profile();
        p.engines = None;
        assert_eq!(p.to_json().get("dx100"), Some(&Json::Null));
    }

    #[test]
    fn summary_names_top_stall_and_channel() {
        let s = sample_profile().bottleneck_summary();
        assert!(s.contains("top stall wait_flag 30.0%"), "{s}");
        assert!(s.contains("dram ch0"), "{s}");
        assert!(s.contains("50.0% wait_mem"), "{s}");
    }

    #[test]
    fn telemetry_json_null_profile_when_off() {
        let t = RunTelemetry {
            skipped_cycles: 7,
            skip_events: 2,
            profile: None,
            counters: None,
        };
        let j = t.to_json();
        assert_eq!(j.get("skipped_cycles").and_then(Json::as_f64), Some(7.0));
        assert_eq!(j.get("profile"), Some(&Json::Null));
        assert_eq!(j.get("counter_events"), Some(&Json::Null));
    }
}
