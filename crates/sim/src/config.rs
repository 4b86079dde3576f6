//! Whole-system configuration (paper Table 3).

use dx100_core::Dx100Config;
use dx100_cpu::CoreConfig;
use dx100_dram::DramConfig;
use dx100_mem::HierarchyConfig;
use dx100_prefetch::DmpConfig;

/// Observability switches: event tracing and epoch time-series sampling.
/// Both default to off, in which case the simulator records nothing and
/// pays no cost (components hold no trace handle, the tick loop skips the
/// sampler entirely).
#[derive(Debug, Clone, Default)]
pub struct ObservabilityConfig {
    /// Record trace events (DRAM commands, MSHR lifecycles, DX100 tile
    /// phases, core stalls) for Chrome-trace export, at most
    /// [`DEFAULT_TRACE_CAPACITY`] per run.
    pub trace: bool,
    /// Snapshot epoch metrics every N CPU cycles (`None` = off).
    pub epoch_cycles: Option<u64>,
    /// Cycle-attribution profiling: per-component stall taxonomy,
    /// utilization counters, and occupancy histograms. Off by default;
    /// never alters [`crate::RunStats`], traces, or epoch samples.
    pub profile: bool,
}

/// Per-run trace event cap: later events are counted as dropped rather
/// than grown without bound (bounds file size when a figure traces dozens
/// of runs).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// Configuration of the simulated machine.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Number of CPU cores.
    pub cores: usize,
    /// Per-core microarchitecture.
    pub core: CoreConfig,
    /// Cache hierarchy.
    pub hierarchy: HierarchyConfig,
    /// DRAM back-end.
    pub dram: DramConfig,
    /// DX100 instances (none for the baseline). Cores are split evenly
    /// across instances (core multiplexing, Section 6.6).
    pub dx100: Option<Dx100Config>,
    /// Number of DX100 instances sharing the cores.
    pub dx100_instances: usize,
    /// DMP indirect prefetcher (Figure 12 comparator).
    pub dmp: Option<DmpConfig>,
    /// CPU cycles per DRAM tick (3.2 GHz vs 1.6 GHz command clock).
    pub cpu_cycles_per_dram_tick: u64,
    /// Region-coherence acquisition latency between DX100 instances.
    pub region_acquire_latency: u64,
    /// Hard simulation cap (guards against driver deadlocks).
    pub max_cycles: u64,
    /// Activity gating: each core, cache, DRAM channel and DX100 engine
    /// sleeps while it has no work instead of ticking every cycle, and a
    /// cycle on which all of them sleep is only counted. Bit-identical
    /// results either way (differentially tested); off ticks every unit
    /// every cycle and only costs wall-clock time.
    pub cycle_skip: bool,
    /// Event tracing and epoch sampling (off by default).
    pub obs: ObservabilityConfig,
}

impl SystemConfig {
    /// The paper's 4-core baseline: 10 MB LLC, 2 × DDR4-3200, no
    /// accelerator.
    pub fn paper_baseline() -> Self {
        SystemConfig {
            cores: 4,
            core: CoreConfig::paper(),
            hierarchy: HierarchyConfig::paper_baseline(4),
            dram: DramConfig::ddr4_3200_2ch(),
            dx100: None,
            dx100_instances: 0,
            dmp: None,
            cpu_cycles_per_dram_tick: 2,
            region_acquire_latency: 100,
            max_cycles: 200_000_000,
            cycle_skip: true,
            obs: ObservabilityConfig::default(),
        }
    }

    /// The paper's DX100 system: 8 MB LLC + one shared DX100 instance.
    pub fn paper_dx100() -> Self {
        SystemConfig {
            hierarchy: HierarchyConfig::paper_dx100(4),
            dx100: Some(Dx100Config::paper()),
            dx100_instances: 1,
            ..Self::paper_baseline()
        }
    }

    /// The baseline plus the DMP indirect prefetcher (Figure 12).
    pub fn paper_dmp() -> Self {
        SystemConfig {
            dmp: Some(DmpConfig::default()),
            ..Self::paper_baseline()
        }
    }

    /// Scaled system for the Figure 14 study: `cores` cores, doubled memory
    /// channels when `cores` = 8, and `instances` DX100 instances (0 for
    /// the scaled baseline).
    pub fn scaled(cores: usize, instances: usize) -> Self {
        let channels = if cores > 4 { 4 } else { 2 };
        let mut cfg = SystemConfig {
            cores,
            hierarchy: if instances > 0 {
                HierarchyConfig::paper_dx100(cores)
            } else {
                HierarchyConfig::paper_baseline(cores)
            },
            dram: DramConfig::ddr4_3200_n_ch(channels),
            dx100: (instances > 0).then(Dx100Config::paper),
            dx100_instances: instances,
            ..Self::paper_baseline()
        };
        // Scale the LLC with core count (the paper doubles LLC with cores).
        if cores > 4 {
            cfg.hierarchy.llc.size_bytes *= (cores / 4) as u64;
        }
        // One instance shared by 8 cores gets a doubled (4 MB) scratchpad.
        if instances == 1 && cores == 8 {
            if let Some(dx) = &mut cfg.dx100 {
                dx.num_tiles *= 2;
            }
        }
        cfg
    }

    /// Override the DX100 tile size (Figure 13 sweep).
    pub fn with_tile_elems(mut self, tile_elems: usize) -> Self {
        if let Some(dx) = &mut self.dx100 {
            dx.tile_elems = tile_elems;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_variants() {
        let base = SystemConfig::paper_baseline();
        assert_eq!(base.cores, 4);
        assert_eq!(base.hierarchy.llc.size_bytes, 10 * 1024 * 1024);
        assert!(base.dx100.is_none() && base.dmp.is_none());

        let dx = SystemConfig::paper_dx100();
        assert_eq!(dx.hierarchy.llc.size_bytes, 8 * 1024 * 1024);
        assert_eq!(dx.dx100_instances, 1);

        let dmp = SystemConfig::paper_dmp();
        assert!(dmp.dmp.is_some());
        assert_eq!(dmp.hierarchy.llc.size_bytes, 10 * 1024 * 1024);
    }

    #[test]
    fn scaled_variants() {
        let eight_one = SystemConfig::scaled(8, 1);
        assert_eq!(eight_one.dram.organization.channels, 4);
        assert_eq!(eight_one.dx100.as_ref().unwrap().num_tiles, 64); // 4 MB spd
        let eight_two = SystemConfig::scaled(8, 2);
        assert_eq!(eight_two.dx100_instances, 2);
        assert_eq!(eight_two.dx100.as_ref().unwrap().num_tiles, 32);
        let base8 = SystemConfig::scaled(8, 0);
        assert!(base8.dx100.is_none());
        assert_eq!(base8.hierarchy.llc.size_bytes, 20 * 1024 * 1024);
    }
}
