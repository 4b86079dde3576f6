//! Machine-readable run reports.
//!
//! Maps a [`RunStats`] onto the stable JSON shape consumed by downstream
//! tooling (plot scripts, CI schema checks). Field names are part of the
//! report schema — additions are fine, renames and removals are breaking
//! and require bumping `SCHEMA_VERSION`.

use dx100_common::json::{obj, Json};

use crate::epoch::EpochSample;
use crate::stats::RunStats;

/// Version stamp emitted by report writers (see `dx100-bench`); bumped on
/// any breaking change to the shapes produced here or to the reports that
/// embed them. Version 2 removed the `mode` and `sampling` keys from job,
/// figure and walltime reports, and `sample` from the job spec.
pub const SCHEMA_VERSION: u64 = 2;

/// The full per-run report object.
pub fn run_stats_json(stats: &RunStats) -> Json {
    obj([
        ("cycles", stats.cycles.into()),
        ("instructions", stats.instructions.into()),
        ("ipc", stats.core.ipc().into()),
        ("core", core_json(stats)),
        ("dram", dram_json(stats)),
        ("caches", caches_json(stats)),
        (
            "dx100",
            match &stats.dx100 {
                Some(dx) => dx100_json(dx),
                None => Json::Null,
            },
        ),
        ("dmp_prefetches", stats.dmp_prefetches.into()),
        (
            "epochs",
            Json::Arr(stats.epochs.iter().map(epoch_json).collect()),
        ),
        (
            "trace_events",
            match &stats.trace {
                Some(t) => t.events().len().into(),
                None => Json::Null,
            },
        ),
    ])
}

/// One epoch sample (interval metrics; see [`EpochSample`]).
pub fn epoch_json(e: &EpochSample) -> Json {
    obj([
        ("start_cycle", e.start_cycle.into()),
        ("end_cycle", e.end_cycle.into()),
        ("instructions", e.instructions.into()),
        ("dram_reads", e.dram_reads.into()),
        ("dram_writes", e.dram_writes.into()),
        ("row_buffer_hit_rate", e.row_buffer_hit_rate.into()),
        ("bandwidth_utilization", e.bandwidth_utilization.into()),
        (
            "request_buffer_occupancy",
            e.request_buffer_occupancy.into(),
        ),
        ("llc_misses", e.llc_misses.into()),
        ("llc_mpki", e.llc_mpki.into()),
        ("dx100_queue_depth", e.dx100_queue_depth.into()),
    ])
}

fn core_json(stats: &RunStats) -> Json {
    let c = &stats.core;
    obj([
        ("mem_ops_issued", c.mem_ops_issued.into()),
        ("spin_instructions", c.spin_instructions.into()),
        ("wait_cycles", c.wait_cycles.into()),
        ("stall_rob_full", c.stall_rob_full.into()),
        ("stall_lq_full", c.stall_lq_full.into()),
        ("stall_sq_full", c.stall_sq_full.into()),
        ("stall_fence", c.stall_fence.into()),
        ("rob_occupancy", c.rob_occupancy.mean().into()),
        ("lq_occupancy", c.lq_occupancy.mean().into()),
    ])
}

fn dram_json(stats: &RunStats) -> Json {
    let d = &stats.dram;
    obj([
        ("channels", stats.dram_channels.into()),
        ("reads", d.reads.into()),
        ("writes", d.writes.into()),
        ("activates", d.activates.into()),
        ("precharges", d.precharges.into()),
        ("refreshes", d.refreshes.into()),
        ("row_buffer_hit_rate", stats.row_buffer_hit_rate().into()),
        (
            "bandwidth_utilization",
            stats.bandwidth_utilization().into(),
        ),
        ("bandwidth_gbps", stats.bandwidth_gbps().into()),
        (
            "request_buffer_occupancy",
            stats.request_buffer_occupancy().into(),
        ),
        ("queue_latency", d.queue_latency.mean().into()),
    ])
}

fn caches_json(stats: &RunStats) -> Json {
    let h = &stats.hierarchy;
    obj([
        ("l1", cache_json(&h.l1)),
        ("l2", cache_json(&h.l2)),
        ("llc", cache_json(&h.llc)),
        ("l2_mpki", stats.l2_mpki().into()),
        ("llc_mpki", stats.llc_mpki().into()),
        ("total_mpki", stats.total_mpki().into()),
    ])
}

fn cache_json(c: &dx100_mem::CacheStats) -> Json {
    obj([
        ("demand_hits", c.demand_hits.into()),
        ("demand_misses", c.demand_misses.into()),
        ("hit_rate", c.hit_rate().into()),
        ("mshr_coalesced", c.mshr_coalesced.into()),
        ("mshr_full_stalls", c.mshr_full_stalls.into()),
        ("prefetch_issued", c.prefetch_issued.into()),
        ("prefetch_useful", c.prefetch_useful.into()),
        ("writebacks_received", c.writebacks_received.into()),
        ("dx100_accesses", c.dx100_accesses.into()),
        ("dx100_hits", c.dx100_hits.into()),
    ])
}

fn dx100_json(dx: &dx100_core::Dx100Stats) -> Json {
    obj([
        ("instructions_retired", dx.instructions_retired.into()),
        ("elements_processed", dx.elements_processed.into()),
        ("stream_line_requests", dx.stream_line_requests.into()),
        ("indirect_line_reads", dx.indirect_line_reads.into()),
        ("indirect_line_writes", dx.indirect_line_writes.into()),
        ("condition_skips", dx.condition_skips.into()),
        ("words_coalesced", dx.words_coalesced.into()),
        ("coalescing_factor", dx.coalescing_factor().into()),
        ("snoop_hits", dx.snoop_hits.into()),
        ("snoop_misses", dx.snoop_misses.into()),
        ("reqbuf_stall_cycles", dx.reqbuf_stall_cycles.into()),
        ("rowtable_stall_cycles", dx.rowtable_stall_cycles.into()),
        ("tlb_hits", dx.tlb_hits.into()),
        ("tlb_misses", dx.tlb_misses.into()),
        ("coherency_invalidations", dx.coherency_invalidations.into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden schema test: every key downstream tooling relies on must be
    /// present, and the report must round-trip through the JSON parser.
    #[test]
    fn report_schema_is_stable() {
        let mut stats = RunStats {
            cycles: 1234,
            instructions: 5678,
            dram_channels: 2,
            ..RunStats::default()
        };
        stats.dx100 = Some(dx100_core::Dx100Stats::default());
        stats.epochs.push(crate::epoch::EpochSample {
            start_cycle: 0,
            end_cycle: 1000,
            instructions: 4000,
            dram_reads: 10,
            dram_writes: 5,
            row_buffer_hit_rate: 0.5,
            bandwidth_utilization: 0.25,
            request_buffer_occupancy: 8.0,
            llc_misses: 15,
            llc_mpki: 3.75,
            dx100_queue_depth: 7,
        });
        let text = run_stats_json(&stats).to_string();
        let parsed = Json::parse(&text).expect("report must be valid JSON");

        for key in [
            "cycles",
            "instructions",
            "ipc",
            "core",
            "dram",
            "caches",
            "dx100",
            "dmp_prefetches",
            "epochs",
            "trace_events",
        ] {
            assert!(parsed.get(key).is_some(), "missing top-level key {key}");
        }
        assert_eq!(parsed.get("cycles").and_then(Json::as_f64), Some(1234.0));
        for key in [
            "channels",
            "reads",
            "writes",
            "activates",
            "precharges",
            "refreshes",
            "row_buffer_hit_rate",
            "bandwidth_utilization",
            "bandwidth_gbps",
            "request_buffer_occupancy",
            "queue_latency",
        ] {
            assert!(
                parsed.get("dram").and_then(|d| d.get(key)).is_some(),
                "missing dram key {key}"
            );
        }
        let caches = parsed.get("caches").unwrap();
        for level in ["l1", "l2", "llc"] {
            let c = caches.get(level).expect(level);
            for key in ["demand_hits", "demand_misses", "hit_rate", "mshr_coalesced"] {
                assert!(c.get(key).is_some(), "missing {level} key {key}");
            }
        }
        let epochs = parsed.get("epochs").and_then(Json::as_arr).unwrap();
        assert_eq!(epochs.len(), 1);
        for key in [
            "start_cycle",
            "end_cycle",
            "instructions",
            "dram_reads",
            "dram_writes",
            "row_buffer_hit_rate",
            "bandwidth_utilization",
            "request_buffer_occupancy",
            "llc_misses",
            "llc_mpki",
            "dx100_queue_depth",
        ] {
            assert!(epochs[0].get(key).is_some(), "missing epoch key {key}");
        }
        assert!(parsed
            .get("dx100")
            .unwrap()
            .get("coalescing_factor")
            .is_some());
        // No trace recorded → explicit null, not a missing key.
        assert_eq!(parsed.get("trace_events"), Some(&Json::Null));
    }
}
