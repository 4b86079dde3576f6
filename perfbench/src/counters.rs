//! Exact simulated work counts per layer, summed over one pass of a
//! workload. They come from `RunStats` (sweeps) or from the served report
//! built from it, so for a fixed seed they repeat bit for bit; a pass that
//! disagrees with the first pass is a correctness failure.

use dx100_common::hash::Fnv64;
use dx100_common::json::Json;
use dx100_sim::{RunStats, RunTelemetry};
use dx100_workloads::Mode;

/// Mask keeping a digest exact in an IEEE double (the result line carries
/// every metric as a JSON number).
const DIGEST_BITS: u64 = (1 << 52) - 1;

/// Index of a machine in per-mode arrays.
pub fn mode_index(mode: Mode) -> usize {
    match mode {
        Mode::Baseline => 0,
        Mode::Dmp => 1,
        Mode::Dx100 => 2,
    }
}

/// Per-layer work counts of one pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    /// Simulated jobs.
    pub jobs: u64,
    /// Simulated CPU cycles, total and by machine.
    pub cycles: u64,
    /// Cycles by machine (baseline, dmp, dx100).
    pub cycles_by_mode: [u64; 3],
    /// Cycles elided by event-driven skipping.
    pub skipped_cycles: u64,
    /// Quiescent spans skipped.
    pub skip_events: u64,
    /// Retired core instructions.
    pub instructions: u64,
    /// Core memory ops issued.
    pub mem_ops: u64,
    /// Core ROB/LQ/SQ/fence stall cycles.
    pub stall_cycles: u64,
    /// L1D demand accesses.
    pub l1_accesses: u64,
    /// LLC demand misses.
    pub llc_misses: u64,
    /// MSHR-full stalls over all cache levels.
    pub mshr_full_stalls: u64,
    /// DRAM reads + writes.
    pub dram_requests: u64,
    /// Σ row-hit rate × requests (for a request-weighted mean).
    pub row_hits_weighted: f64,
    /// Σ bandwidth utilisation × cycles over DX100 jobs.
    pub bw_weighted: f64,
    /// DX100 indirect line reads + writes.
    pub indirect_lines: u64,
    /// DX100 words coalesced into shared lines.
    pub words_coalesced: u64,
    /// DX100 Row Table stall cycles.
    pub rowtable_stall_cycles: u64,
    /// DMP prefetches issued.
    pub dmp_prefetches: u64,
    /// FNV-1a over every job's report bytes, in job order.
    pub digest: Fnv64,
}

impl Counters {
    /// Adds one simulated job; `report` is its serialized
    /// `run_stats_json`, which feeds the digest.
    pub fn add_stats(&mut self, mode: Mode, s: &RunStats, t: &RunTelemetry, report: &str) {
        let h = &s.hierarchy;
        let c = &s.core;
        self.add(Job {
            mode,
            cycles: s.cycles,
            skipped_cycles: t.skipped_cycles,
            skip_events: t.skip_events,
            instructions: s.instructions,
            mem_ops: c.mem_ops_issued,
            stall_cycles: c.stall_rob_full + c.stall_lq_full + c.stall_sq_full + c.stall_fence,
            l1_accesses: h.l1.demand_accesses(),
            llc_misses: h.llc.demand_misses,
            mshr_full_stalls: h.l1.mshr_full_stalls
                + h.l2.mshr_full_stalls
                + h.llc.mshr_full_stalls,
            dram_requests: s.dram.requests(),
            row_hit_rate: s.row_buffer_hit_rate(),
            bw_util: s.bandwidth_utilization(),
            indirect_lines: s
                .dx100
                .as_ref()
                .map_or(0, |d| d.indirect_line_reads + d.indirect_line_writes),
            words_coalesced: s.dx100.as_ref().map_or(0, |d| d.words_coalesced),
            rowtable_stall_cycles: s.dx100.as_ref().map_or(0, |d| d.rowtable_stall_cycles),
            dmp_prefetches: s.dmp_prefetches,
            report,
        });
    }

    /// Adds one served job from the `run` block of its report (the same
    /// `RunStats` fields, read back from `run_stats_json` + telemetry).
    pub fn add_report(&mut self, mode: Mode, run: &Json, report: &str) -> Result<(), String> {
        let num = |path: &[&str]| -> Result<f64, String> {
            let mut v = run;
            for key in path {
                v = v
                    .get(key)
                    .ok_or_else(|| format!("report lacks run.{}", path.join(".")))?;
            }
            Ok(v.as_f64().unwrap_or(0.0))
        };
        let int = |path: &[&str]| num(path).map(|v| v as u64);
        let cache = |key: &str| -> Result<u64, String> {
            Ok(int(&["caches", "l1", key])?
                + int(&["caches", "l2", key])?
                + int(&["caches", "llc", key])?)
        };
        let dx = |key: &str| -> Result<u64, String> {
            match run.get("dx100") {
                Some(Json::Null) | None => Ok(0),
                Some(_) => int(&["dx100", key]),
            }
        };
        self.add(Job {
            mode,
            cycles: int(&["cycles"])?,
            skipped_cycles: int(&["telemetry", "skipped_cycles"])?,
            skip_events: int(&["telemetry", "skip_events"])?,
            instructions: int(&["instructions"])?,
            mem_ops: int(&["core", "mem_ops_issued"])?,
            stall_cycles: int(&["core", "stall_rob_full"])?
                + int(&["core", "stall_lq_full"])?
                + int(&["core", "stall_sq_full"])?
                + int(&["core", "stall_fence"])?,
            l1_accesses: int(&["caches", "l1", "demand_hits"])?
                + int(&["caches", "l1", "demand_misses"])?,
            llc_misses: int(&["caches", "llc", "demand_misses"])?,
            mshr_full_stalls: cache("mshr_full_stalls")?,
            dram_requests: int(&["dram", "reads"])? + int(&["dram", "writes"])?,
            row_hit_rate: num(&["dram", "row_buffer_hit_rate"])?,
            bw_util: num(&["dram", "bandwidth_utilization"])?,
            indirect_lines: dx("indirect_line_reads")? + dx("indirect_line_writes")?,
            words_coalesced: dx("words_coalesced")?,
            rowtable_stall_cycles: dx("rowtable_stall_cycles")?,
            dmp_prefetches: int(&["dmp_prefetches"])?,
            report,
        });
        Ok(())
    }

    fn add(&mut self, j: Job<'_>) {
        self.jobs += 1;
        self.cycles += j.cycles;
        self.cycles_by_mode[mode_index(j.mode)] += j.cycles;
        self.skipped_cycles += j.skipped_cycles;
        self.skip_events += j.skip_events;
        self.instructions += j.instructions;
        self.mem_ops += j.mem_ops;
        self.stall_cycles += j.stall_cycles;
        self.l1_accesses += j.l1_accesses;
        self.llc_misses += j.llc_misses;
        self.mshr_full_stalls += j.mshr_full_stalls;
        self.dram_requests += j.dram_requests;
        self.row_hits_weighted += j.row_hit_rate * j.dram_requests as f64;
        if j.mode == Mode::Dx100 {
            self.bw_weighted += j.bw_util * j.cycles as f64;
        }
        self.indirect_lines += j.indirect_lines;
        self.words_coalesced += j.words_coalesced;
        self.rowtable_stall_cycles += j.rowtable_stall_cycles;
        self.dmp_prefetches += j.dmp_prefetches;
        self.digest.write(j.report.as_bytes());
    }

    /// The digest, truncated to 52 bits so it survives as a JSON number.
    pub fn digest52(&self) -> f64 {
        (self.digest.finish() & DIGEST_BITS) as f64
    }

    /// Request-weighted DRAM row-buffer hit rate.
    pub fn row_hit_rate(&self) -> f64 {
        self.row_hits_weighted / self.dram_requests.max(1) as f64
    }

    /// Cycle-weighted DRAM bandwidth utilisation of the DX100 jobs.
    pub fn dx100_bw_util(&self) -> f64 {
        self.bw_weighted / self.cycles_by_mode[mode_index(Mode::Dx100)].max(1) as f64
    }

    /// Per-layer count metrics `(name, value)`.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("sim.cycles", self.cycles as f64),
            ("sim.skipped_cycles", self.skipped_cycles as f64),
            ("sim.skip_events", self.skip_events as f64),
            (
                "sim.skip_ratio",
                self.skipped_cycles as f64 / self.cycles.max(1) as f64,
            ),
            ("sim.stats_digest", self.digest52()),
            ("cpu.instructions", self.instructions as f64),
            ("cpu.mem_ops", self.mem_ops as f64),
            ("cpu.stall_cycles", self.stall_cycles as f64),
            ("mem.l1_accesses", self.l1_accesses as f64),
            ("mem.llc_misses", self.llc_misses as f64),
            ("mem.mshr_full_stalls", self.mshr_full_stalls as f64),
            ("dram.requests", self.dram_requests as f64),
            ("dram.row_hit_rate", self.row_hit_rate()),
            ("dram.bw_util", self.dx100_bw_util()),
            ("dx100.indirect_lines", self.indirect_lines as f64),
            ("dx100.words_coalesced", self.words_coalesced as f64),
            (
                "dx100.rowtable_stall_cycles",
                self.rowtable_stall_cycles as f64,
            ),
            ("dmp.prefetches", self.dmp_prefetches as f64),
            ("workloads.jobs", self.jobs as f64),
        ]
    }
}

/// One job's counts, from either source.
struct Job<'a> {
    mode: Mode,
    cycles: u64,
    skipped_cycles: u64,
    skip_events: u64,
    instructions: u64,
    mem_ops: u64,
    stall_cycles: u64,
    l1_accesses: u64,
    llc_misses: u64,
    mshr_full_stalls: u64,
    dram_requests: u64,
    row_hit_rate: f64,
    bw_util: f64,
    indirect_lines: u64,
    words_coalesced: u64,
    rowtable_stall_cycles: u64,
    dmp_prefetches: u64,
    report: &'a str,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx100_sim::report::run_stats_json;

    #[test]
    fn report_and_stats_paths_agree() {
        let mut s = RunStats {
            cycles: 1000,
            instructions: 400,
            dram_channels: 2,
            dmp_prefetches: 3,
            ..RunStats::default()
        };
        s.core.mem_ops_issued = 90;
        s.core.stall_rob_full = 5;
        s.core.stall_fence = 2;
        s.hierarchy.l1.demand_hits = 70;
        s.hierarchy.l1.demand_misses = 20;
        s.hierarchy.llc.demand_misses = 11;
        s.hierarchy.l2.mshr_full_stalls = 4;
        s.dram.reads = 12;
        s.dram.writes = 1;
        s.dx100 = Some(dx100_core::Dx100Stats {
            indirect_line_reads: 8,
            words_coalesced: 30,
            rowtable_stall_cycles: 6,
            ..Default::default()
        });
        let t = RunTelemetry {
            skipped_cycles: 250,
            skip_events: 9,
            ..RunTelemetry::default()
        };
        let mut run = run_stats_json(&s);
        if let Json::Obj(fields) = &mut run {
            fields.push(("telemetry".to_string(), t.to_json()));
        }
        let text = run.to_string();

        let mut a = Counters::default();
        a.add_stats(Mode::Dx100, &s, &t, &text);
        let mut b = Counters::default();
        b.add_report(Mode::Dx100, &Json::parse(&text).unwrap(), &text)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.stall_cycles, 7);
        assert_eq!(a.mshr_full_stalls, 4);
        assert_eq!(a.indirect_lines, 8);
        assert!(a.digest52() < (1u64 << 52) as f64);
    }
}
