//! The bodies of the `dx100` subcommands, one function each. A figure
//! that runs more than one simulation builds its job list up front, runs
//! it on the one executor (`execute`) and prints from the results in
//! job order.

use std::path::Path;

use dx100_common::json::{obj, Json};
use dx100_common::stats::geomean;
use dx100_core::area::{AreaModel, COMPONENTS};
use dx100_sim::report::SCHEMA_VERSION;
use dx100_sim::{RunStats, SystemConfig};
use dx100_workloads::kernels::is::IntegerSort;
use dx100_workloads::kernels::ume::Ume;
use dx100_workloads::micro::allmiss::{run_allmiss, Scenario};
use dx100_workloads::{all_kernels, KernelRun, Mode, Scale, WorkloadResult};

use crate::sweep::{execute, kernel_job, Job};
use crate::{
    print_geomean, print_table, run_figure, summarize, write_or_die, BenchArgs, JobSpec, KernelRow,
};

/// Figure 8a: all-hit microbenchmark speedups (instruction offload,
/// atomic elimination, scatter parallelization).
pub fn fig08a(args: &BenchArgs) {
    println!("Figure 8a — all-hit microbenchmarks (paper: Gather-SPD 1.2x,");
    println!("Gather-Full 3.2x, RMW-Atomic 17.8x, RMW-NoAtom 3.7x, Scatter 6.6x)\n");
    let rows = dx100_workloads::micro::allhit::fig08a(1);
    for (label, speedup) in &rows {
        println!("{label:<14} {speedup:>8.2}x");
    }
    args.emit_custom_report(&obj([
        ("schema_version", SCHEMA_VERSION.into()),
        ("generator", "fig08a".into()),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|(label, speedup)| {
                        obj([
                            ("name", label.to_string().into()),
                            ("speedup", (*speedup).into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]));
}

/// Figures 8b/8c: all-miss Gather-Full speedup and bandwidth utilization
/// as a function of the baseline index ordering (row-buffer hit rate,
/// channel interleaving, bank-group interleaving).
pub fn fig08bc(args: &BenchArgs) {
    println!("Figures 8b/8c — all-miss gather vs index order");
    println!("(paper: max 9.9x at worst order; DX100 holds 82-85% BW everywhere)\n");
    println!(
        "{:<18} {:>9} {:>10} {:>10} {:>9} {:>9}",
        "scenario", "speedup", "base-bw%", "dx100-bw%", "base-rbh%", "dx-rbh%"
    );
    let scenarios = Scenario::sweep();
    let (base_cfg, dx_cfg) = (
        &SystemConfig::paper_baseline(),
        &SystemConfig::paper_dx100(),
    );
    let mut jobs = Vec::with_capacity(scenarios.len() * 2);
    for (name, s) in &scenarios {
        let s = *s;
        jobs.push(Job::new(format!("{name}/baseline"), move || {
            run_allmiss(s, false, base_cfg)
        }));
        jobs.push(Job::new(format!("{name}/dx100"), move || {
            run_allmiss(s, true, dx_cfg)
        }));
    }
    let done = execute("fig08bc", jobs, args.threads);
    let mut rows = Vec::with_capacity(scenarios.len());
    for ((name, _), pair) in scenarios.iter().zip(done.chunks(2)) {
        let (base, dx) = (&pair[0].result, &pair[1].result);
        let speedup = base.cycles as f64 / dx.cycles.max(1) as f64;
        println!(
            "{:<18} {:>8.2}x {:>9.1} {:>10.1} {:>9.1} {:>9.1}",
            name,
            speedup,
            base.bandwidth_utilization() * 100.0,
            dx.bandwidth_utilization() * 100.0,
            base.row_buffer_hit_rate() * 100.0,
            dx.row_buffer_hit_rate() * 100.0,
        );
        rows.push(obj([
            ("name", name.as_str().into()),
            ("speedup", speedup.into()),
            ("baseline_bandwidth", base.bandwidth_utilization().into()),
            ("dx100_bandwidth", dx.bandwidth_utilization().into()),
            ("baseline_rbh", base.row_buffer_hit_rate().into()),
            ("dx100_rbh", dx.row_buffer_hit_rate().into()),
        ]));
    }
    args.emit_custom_report(&obj([
        ("schema_version", SCHEMA_VERSION.into()),
        ("generator", "fig08bc".into()),
        ("rows", Json::Arr(rows)),
    ]));
}

/// Figure 9: DX100 speedup over the multicore baseline for each workload.
pub fn fig09(args: &BenchArgs) {
    let fig = run_figure(args, false);
    for r in &fig.rows {
        eprintln!("  {}", summarize("base ", &r.baseline.stats));
        eprintln!("  {}", summarize("dx100", &r.dx100.stats));
    }
    fig09_table(&fig.rows);
    fig.emit(args, "fig09");
}

fn fig09_table(rows: &[KernelRow]) {
    let speeds: Vec<f64> = rows.iter().map(KernelRow::speedup).collect();
    let table: Vec<(String, Vec<f64>)> = rows
        .iter()
        .map(|r| (r.name.to_string(), vec![r.speedup()]))
        .collect();
    println!("\nFigure 9 — DX100 speedup over baseline (paper: geomean 2.6x)");
    print_table(&["speedup"], &table);
    print_geomean("fig09", &speeds);
}

/// Figure 10: (a) DRAM bandwidth utilization, (b) row-buffer hit rate,
/// (c) request-buffer occupancy — baseline vs DX100 per workload.
pub fn fig10(args: &BenchArgs) {
    let fig = run_figure(args, false);
    fig10_table(&fig.rows);
    fig.emit(args, "fig10");
}

fn fig10_table(rows: &[KernelRow]) {
    println!("\nFigure 10 — memory-system metrics (paper: 3.9x BW, 2.7x RBH, 12.1x occupancy)");
    println!(
        "{:<8} {:>9} {:>9} {:>8} {:>8} {:>8} {:>8}",
        "kernel", "bw-b%", "bw-dx%", "rbh-b%", "rbh-dx%", "occ-b", "occ-dx"
    );
    let (mut bwg, mut rbhg, mut occg) = (vec![], vec![], vec![]);
    for r in rows {
        let (b, d) = (&r.baseline.stats, &r.dx100.stats);
        println!(
            "{:<8} {:>9.1} {:>9.1} {:>8.1} {:>8.1} {:>8.3} {:>8.3}",
            r.name,
            b.bandwidth_utilization() * 100.0,
            d.bandwidth_utilization() * 100.0,
            b.row_buffer_hit_rate() * 100.0,
            d.row_buffer_hit_rate() * 100.0,
            b.request_buffer_occupancy(),
            d.request_buffer_occupancy(),
        );
        if b.bandwidth_utilization() > 0.0 {
            bwg.push(d.bandwidth_utilization() / b.bandwidth_utilization());
        }
        if b.row_buffer_hit_rate() > 0.0 {
            rbhg.push(d.row_buffer_hit_rate() / b.row_buffer_hit_rate());
        }
        if b.request_buffer_occupancy() > 0.0 {
            occg.push(d.request_buffer_occupancy() / b.request_buffer_occupancy());
        }
    }
    print_geomean("fig10a bandwidth gain", &bwg);
    print_geomean("fig10b row-buffer-hit gain", &rbhg);
    print_geomean("fig10c occupancy gain", &occg);
}

/// Figure 11: (a) dynamic instruction reduction, (b) cache MPKI reduction.
pub fn fig11(args: &BenchArgs) {
    let fig = run_figure(args, false);
    fig11_table(&fig.rows);
    fig.emit(args, "fig11");
}

fn fig11_table(rows: &[KernelRow]) {
    println!("\nFigure 11 — core-side effects (paper: 3.6x instruction cut, 6.1x MPKI cut)");
    println!(
        "{:<8} {:>12} {:>12} {:>8} {:>10} {:>10} {:>8}",
        "kernel", "instr-b", "instr-dx", "i-cut", "mpki-b", "mpki-dx", "m-cut"
    );
    let (mut icut, mut mcut) = (vec![], vec![]);
    for r in rows {
        let (b, d) = (&r.baseline.stats, &r.dx100.stats);
        let ic = b.instructions as f64 / d.instructions.max(1) as f64;
        let (mb, md) = (b.total_mpki(), d.total_mpki());
        let mc = if md > 0.0 { mb / md } else { f64::NAN };
        println!(
            "{:<8} {:>12} {:>12} {:>7.2}x {:>10.2} {:>10.2} {:>7.2}x",
            r.name, b.instructions, d.instructions, ic, mb, md, mc
        );
        icut.push(ic);
        if mc.is_finite() && mc > 0.0 {
            mcut.push(mc);
        }
    }
    print_geomean("fig11a instruction reduction", &icut);
    print_geomean("fig11b MPKI reduction", &mcut);
}

/// Figure 12: DX100 vs the DMP indirect prefetcher — speedup and
/// bandwidth.
pub fn fig12(args: &BenchArgs) {
    let fig = run_figure(args, true);
    println!("\nFigure 12 — DX100 vs DMP (paper: 2.0x speedup, 3.3x bandwidth)");
    println!(
        "{:<8} {:>12} {:>10} {:>10} {:>10}",
        "kernel", "dx-vs-dmp", "dmp-bw%", "dx-bw%", "dmp-vs-base"
    );
    let (mut sp, mut bw) = (vec![], vec![]);
    for r in &fig.rows {
        let dmp = r.dmp.as_ref().expect("fig12 runs DMP");
        let s = r.speedup_vs_dmp().expect("fig12 runs DMP");
        println!(
            "{:<8} {:>11.2}x {:>10.1} {:>10.1} {:>9.2}x",
            r.name,
            s,
            dmp.stats.bandwidth_utilization() * 100.0,
            r.dx100.stats.bandwidth_utilization() * 100.0,
            r.baseline.stats.cycles as f64 / dmp.stats.cycles.max(1) as f64,
        );
        sp.push(s);
        if dmp.stats.bandwidth_utilization() > 0.0 {
            bw.push(r.dx100.stats.bandwidth_utilization() / dmp.stats.bandwidth_utilization());
        }
    }
    print_geomean("fig12a speedup vs DMP", &sp);
    print_geomean("fig12b bandwidth vs DMP", &bw);
    fig.emit(args, "fig12");
}

/// Figures 9, 10 and 11 from a single set of runs (each kernel is
/// simulated once per machine; the three figures are different views of
/// the same measurements), then every run's headline stats.
pub fn main_results(args: &BenchArgs) {
    let fig = run_figure(args, false);
    fig09_table(&fig.rows);
    fig10_table(&fig.rows);
    fig11_table(&fig.rows);
    println!("\n=== raw rows ===");
    for r in &fig.rows {
        println!(
            "{}",
            summarize(&format!("{} base ", r.name), &r.baseline.stats)
        );
        println!(
            "{}",
            summarize(&format!("{} dx100", r.name), &r.dx100.stats)
        );
    }
    fig.emit(args, "main_results");
}

/// The DX100 tile sizes of Figure 13, in elements.
const TILES: [usize; 6] = [1024, 2048, 4096, 8192, 16384, 32768];

/// Figure 13: performance sensitivity to the DX100 tile size (1K → 32K).
///
/// The paper attributes the gain to coalescing (1.4× fewer memory
/// accesses at 32K vs 1K) and +27% row-buffer hits, so each row also
/// reports the geomean indirect-access count (normalized to the 1K row)
/// and the mean DX100-machine row-buffer hit rate.
pub fn fig13(args: &BenchArgs) {
    println!("Figure 13 — tile-size sweep (paper: 1.7x @1K → 2.9x @32K,");
    println!("            1.4x fewer accesses and +27% RBH at 32K vs 1K)\n");
    let kernels = all_kernels(Scale(args.scale));
    let base_cfg = args.observed(SystemConfig::paper_baseline());
    let tile_cfgs: Vec<SystemConfig> = TILES
        .iter()
        .map(|&tile| args.observed(SystemConfig::paper_dx100().with_tile_elems(tile)))
        .collect();
    // Baselines once per kernel, then every kernel at every tile size.
    let mut jobs = Vec::with_capacity(kernels.len() * (1 + TILES.len()));
    for k in &kernels {
        let label = format!("baseline {}", k.name());
        jobs.push(kernel_job(
            label,
            &**k,
            Mode::Baseline,
            &base_cfg,
            args.seed,
        ));
    }
    for (tile, cfg) in TILES.iter().zip(&tile_cfgs) {
        for k in &kernels {
            let label = format!("tile {tile} {}", k.name());
            jobs.push(kernel_job(label, &**k, Mode::Dx100, cfg, args.seed));
        }
    }
    let done = execute("fig13", jobs, args.threads);
    let (baselines, sweeps) = done.split_at(kernels.len());
    for b in baselines {
        args.print_run_profile(&b.label, &b.result);
    }
    let mut access_ref: Vec<f64> = Vec::new();
    for (tile, runs) in TILES.iter().zip(sweeps.chunks(kernels.len())) {
        let mut speeds = Vec::new();
        let mut accesses = Vec::new();
        let mut rbh = Vec::new();
        for (run, base) in runs.iter().zip(baselines) {
            args.print_run_profile(&run.label, &run.result);
            let dx = &run.result.stats;
            speeds.push(dx.speedup_over(&base.result.stats));
            if let Some(d) = &dx.dx100 {
                accesses.push(
                    (d.indirect_line_reads + d.indirect_line_writes + d.stream_line_requests).max(1)
                        as f64,
                );
            }
            rbh.push(dx.row_buffer_hit_rate());
        }
        if access_ref.is_empty() {
            access_ref = accesses.clone();
        }
        let rel: Vec<f64> = accesses
            .iter()
            .zip(&access_ref)
            .map(|(a, r)| a / r)
            .collect();
        println!(
            "tile {tile:>5}: speedup {:>5.2}x   accesses vs 1K {:>5.2}x   dx100 RBH {:>5.1}%",
            geomean(&speeds),
            geomean(&rel),
            100.0 * rbh.iter().sum::<f64>() / rbh.len().max(1) as f64,
        );
    }
}

/// Figure 14: scaling cores, memory channels, and DX100 instances
/// (4c/1x vs 8c/1x vs 8c/2x, each normalized to the same-core baseline).
pub fn fig14(args: &BenchArgs) {
    println!("Figure 14 — scalability (paper: 2.6x @4c/1x, 2.5x @8c/1x, 2.7x @8c/2x)\n");
    let machines = [
        ("4 cores, 1 instance", 4usize, 1usize, 1.0),
        ("8 cores, 1 instance", 8, 1, 2.0),
        ("8 cores, 2 instances", 8, 2, 2.0),
    ];
    let setups: Vec<_> = machines
        .iter()
        .map(|&(label, cores, instances, data_mult)| {
            // The paper doubles the dataset with the core count.
            let kernels = all_kernels(Scale(args.scale * data_mult));
            let base_cfg = args.observed(SystemConfig::scaled(cores, 0));
            (
                label,
                kernels,
                base_cfg,
                args.observed(SystemConfig::scaled(cores, instances)),
            )
        })
        .collect();
    let mut jobs = Vec::new();
    for (label, kernels, base_cfg, dx_cfg) in &setups {
        for k in kernels {
            let name = k.name();
            let base = format!("{label}: {name} baseline");
            jobs.push(kernel_job(base, &**k, Mode::Baseline, base_cfg, args.seed));
            let dx = format!("{label}: {name} dx100");
            jobs.push(kernel_job(dx, &**k, Mode::Dx100, dx_cfg, args.seed));
        }
    }
    let done = execute("fig14", jobs, args.threads);
    let mut runs = done.iter();
    for (label, kernels, ..) in &setups {
        let mut speeds = Vec::with_capacity(kernels.len());
        for _ in kernels {
            let b = runs.next().expect("a baseline job per kernel");
            let d = runs.next().expect("a DX100 job per kernel");
            args.print_run_profile(&b.label, &b.result);
            args.print_run_profile(&d.label, &d.result);
            speeds.push(d.result.stats.speedup_over(&b.result.stats));
        }
        print_geomean(label, &speeds);
    }
}

/// An ablation job's outcome: the all-miss gather or a kernel run.
enum Ablated {
    AllMiss(Box<RunStats>),
    Kernel(Box<WorkloadResult>),
}

/// Ablation study: switch off each of DX100's three bandwidth techniques
/// (reordering, coalescing, interleaving) and the direct-DRAM path, and
/// measure the all-miss gather plus two representative kernels.
pub fn ablation(args: &BenchArgs) {
    let variant = |name, f: fn(&mut dx100_core::Dx100Config)| {
        let mut cfg = args.observed(SystemConfig::paper_dx100());
        f(cfg.dx100.as_mut().expect("the DX100 machine has an engine"));
        (name, cfg)
    };
    let variants = [
        variant("full", |_| {}),
        variant("no-reorder", |d| d.reorder = false),
        variant("no-coalesce", |d| d.coalesce = false),
        variant("no-interleave", |d| d.interleave = false),
        variant("llc-inject", |d| d.direct_dram = false),
    ];
    let worst = Scenario {
        rbh: 0.0,
        chi: false,
        bgi: false,
    };
    let kernels: [Box<dyn KernelRun + Send + Sync>; 2] = [
        Box::new(IntegerSort::new(Scale(args.scale * 0.5))),
        Box::new(Ume::zone(Scale(args.scale * 0.5), false)),
    ];
    println!("Ablations — DX100 cycles (lower is better) and BW utilization\n");
    println!(
        "{:<14} {:>12} {:>8} {:>12} {:>12}",
        "variant", "allmiss-cyc", "bw%", "is-cyc", "gzz-cyc"
    );
    let mut jobs = Vec::with_capacity(variants.len() * (1 + kernels.len()));
    for (name, cfg) in &variants {
        jobs.push(Job::new(format!("{name}: allmiss"), move || {
            Ablated::AllMiss(Box::new(run_allmiss(worst, true, cfg)))
        }));
        for k in &kernels {
            let (k, seed) = (&**k, args.seed);
            jobs.push(Job::new(format!("{name}: {}", k.name()), move || {
                Ablated::Kernel(Box::new(k.run(Mode::Dx100, cfg, seed)))
            }));
        }
    }
    let done = execute("ablation", jobs, args.threads);
    for ((name, _), runs) in variants.iter().zip(done.chunks(1 + kernels.len())) {
        let mut cols = Vec::new();
        for run in runs {
            match &run.result {
                Ablated::AllMiss(am) => {
                    cols.push(format!("{:>12}", am.cycles));
                    cols.push(format!("{:>8.1}", am.bandwidth_utilization() * 100.0));
                }
                Ablated::Kernel(r) => {
                    args.print_run_profile(&run.label, r);
                    cols.push(format!("{:>12}", r.stats.cycles));
                }
            }
        }
        println!("{:<14} {}", name, cols.join(" "));
    }
}

/// Table 4: DX100 area and power (28 nm synthesis numbers, 14 nm
/// scaling, and the processor-overhead percentage).
pub fn table4(args: &BenchArgs) {
    println!("Table 4 — DX100 area and power at 28 nm\n");
    println!("{:<18} {:>10} {:>10}", "module", "area mm^2", "power mW");
    for c in COMPONENTS {
        println!("{:<18} {:>10.3} {:>10.2}", c.name, c.area_mm2, c.power_mw);
    }
    let m = AreaModel::paper();
    println!(
        "{:<18} {:>10.3} {:>10.2}",
        "Total",
        m.total_area_28nm_mm2(),
        m.total_power_28nm_mw()
    );
    println!();
    println!(
        "scaled to 14 nm: {:.2} mm^2 (paper: ~1.5)",
        m.total_area_14nm_mm2()
    );
    println!(
        "processor overhead: {:.1}% of a 4-core Skylake (paper: 3.7%)",
        m.processor_overhead_fraction() * 100.0
    );
    println!("dominant component: {}", m.dominant_component().name);
    args.emit_custom_report(&obj([
        ("schema_version", SCHEMA_VERSION.into()),
        ("generator", "table4".into()),
        (
            "components",
            Json::Arr(
                COMPONENTS
                    .iter()
                    .map(|c| {
                        obj([
                            ("name", c.name.into()),
                            ("area_mm2", c.area_mm2.into()),
                            ("power_mw", c.power_mw.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("total_area_28nm_mm2", m.total_area_28nm_mm2().into()),
        ("total_power_28nm_mw", m.total_power_28nm_mw().into()),
        ("total_area_14nm_mm2", m.total_area_14nm_mm2().into()),
        (
            "processor_overhead_fraction",
            m.processor_overhead_fraction().into(),
        ),
        ("dominant_component", m.dominant_component().name.into()),
    ]));
}

/// Runs one simulation job and prints its report — the CLI twin of a
/// `dx100-serve` `POST /v1/jobs` submission. Both paths run the same
/// [`JobSpec::run`], so the report written here (to `json`, or stdout
/// when `None`) is byte-identical to the `report` field the server
/// returns and caches. The spec's cache key goes to stderr so a served
/// deployment's cache entries can be cross-checked against local runs.
pub fn job(spec: &JobSpec, json: Option<&Path>) {
    eprintln!(
        "job {}/{} scale {} seed {} -> cache key {}",
        spec.kernel,
        spec.machine.label(),
        spec.scale,
        spec.seed,
        spec.cache_key()
    );
    let report = match spec.run() {
        Ok(r) => r.to_string() + "\n",
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
    };
    match json {
        Some(path) => {
            write_or_die(path, &report);
            eprintln!("wrote report to {}", path.display());
        }
        None => print!("{report}"),
    }
}
