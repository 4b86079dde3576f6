//! All-miss microbenchmark (Figures 8b/8c): Gather-Full over 64K unique
//! indices whose *order* is constructed — via the DRAM address mapping's
//! inverse — to hit exact row-buffer-hit-rate, channel-interleaving, and
//! bank-group-interleaving targets for the baseline.
//!
//! The target array spans 64K cache lines = 16 row values across every
//! (channel, bank group, bank) of the Table 3 organization, matching the
//! paper's "16 rows in all banks, bank groups, and channels". Caches start
//! cold and every line is touched once, so all indirect accesses miss.

use std::sync::Arc;

use dx100_common::{DType, LineAddr};
use dx100_core::isa::Instruction;
use dx100_core::MemoryImage;
use dx100_cpu::CoreOp;
use dx100_dram::DramConfig;
use dx100_sim::{RunStats, System, SystemConfig};

use crate::util::{install_jobs, Placement, TileSlot};

const S_B: u32 = 1;
const S_A: u32 = 2;
const S_C: u32 = 3;

/// Number of gathered elements (one per unique cache line).
pub const ACCESSES: usize = 64 * 1024;

/// An index-ordering scenario for the baseline access stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Target row-buffer hit rate for in-order issue, in `[0, 1]`.
    pub rbh: f64,
    /// Alternate channels between consecutive accesses.
    pub chi: bool,
    /// Alternate bank groups between consecutive accesses.
    pub bgi: bool,
}

impl Scenario {
    /// The seven bars of Figure 8b, worst (left) to best (right).
    pub fn sweep() -> Vec<(String, Scenario)> {
        let mut v = Vec::new();
        v.push((
            "rbh0-nochi-nobgi".into(),
            Scenario {
                rbh: 0.0,
                chi: false,
                bgi: false,
            },
        ));
        v.push((
            "rbh0".into(),
            Scenario {
                rbh: 0.0,
                chi: true,
                bgi: true,
            },
        ));
        for rbh in [0.25, 0.5, 0.75] {
            v.push((
                format!("rbh{}", (rbh * 100.0) as u32),
                Scenario {
                    rbh,
                    chi: true,
                    bgi: true,
                },
            ));
        }
        v.push((
            "rbh100-nobgi".into(),
            Scenario {
                rbh: 1.0,
                chi: true,
                bgi: false,
            },
        ));
        v.push((
            "rbh100".into(),
            Scenario {
                rbh: 1.0,
                chi: true,
                bgi: true,
            },
        ));
        v
    }
}

/// Builds the index order for a scenario.
///
/// Per bank, lines are ordered either row-grouped (row-buffer hits) or
/// row-rotated (every access a row miss), mixed to hit the `rbh` target;
/// the global order then interleaves banks with channel/bank-group rotation
/// per the `chi`/`bgi` flags.
pub fn build_indices(scenario: Scenario, a_base_line: LineAddr, dram: &DramConfig) -> Vec<u32> {
    let org = &dram.organization;
    let nbanks = org.channels * org.banks_per_channel();
    // Collect each bank's lines (as element indices into A).
    let mut per_bank: Vec<Vec<(u64, u64)>> = vec![Vec::new(); nbanks]; // (row, elem_idx)
    for k in 0..ACCESSES as u64 {
        let line = LineAddr(a_base_line.0 + k);
        let c = dram.addr_map.decode(line, org);
        let bank_idx = c.channel * org.banks_per_channel() + c.bank_index(org);
        per_bank[bank_idx].push((c.row, k * 16)); // 16 u32 words per line
    }
    // Order within each bank: `hit_run` consecutive same-row accesses, then
    // switch rows. rbh=1 → full rows; rbh=0 → alternate rows every access.
    for lines in &mut per_bank {
        lines.sort_unstable();
        let rows: Vec<Vec<u64>> = lines
            .chunk_by(|a, b| a.0 == b.0)
            .map(|c| c.iter().map(|(_, e)| *e).collect())
            .collect();
        let cols = rows.first().map(|r| r.len()).unwrap_or(1);
        // Average run length 1/(1-p) gives hit fraction p; fractional
        // targets alternate floor/ceil runs via an error accumulator.
        let target_run = if scenario.rbh >= 1.0 {
            cols as f64
        } else {
            (1.0 / (1.0 - scenario.rbh)).min(cols as f64)
        };
        let mut order = Vec::with_capacity(lines.len());
        let mut cursors: Vec<usize> = vec![0; rows.len()];
        let mut row = 0;
        let mut carry = 0.0f64;
        while order.len() < lines.len() {
            let mut advanced = false;
            for _ in 0..rows.len() {
                let r = row % rows.len();
                row += 1;
                let want = target_run + carry;
                let run = (want.floor() as usize).max(1);
                let take = run.min(rows[r].len() - cursors[r]);
                if take > 0 {
                    carry = want - run as f64;
                    order.extend(&rows[r][cursors[r]..cursors[r] + take]);
                    cursors[r] += take;
                    advanced = true;
                    break;
                }
            }
            assert!(advanced, "bank ordering stalled");
        }
        *lines = order.into_iter().map(|e| (0, e)).collect();
    }
    // Global interleave. With the flag on, the dimension alternates every
    // access; with it off, it alternates only every `block` accesses —
    // larger than the 32-entry controller window (so the *baseline* gets no
    // interleaving) yet smaller than a 16K tile (so DX100's full-tile
    // visibility still recovers the parallelism, as in Figure 8c).
    let ch_period: usize = if scenario.chi { 1 } else { 2048 };
    let bg_period: usize = if scenario.bgi { 1 } else { 512 };
    // Without bank-group interleaving the order also dwells on one bank at
    // a time (the paper's worst case), in blocks the controller window
    // cannot see past but a 16K tile easily covers.
    let bank_period: usize = if scenario.bgi { 1 } else { 128 };
    let mut cursors = vec![0usize; nbanks];
    let mut out = Vec::with_capacity(ACCESSES);
    let mut p = 0usize;
    while out.len() < ACCESSES {
        let mut placed = false;
        // Preferred slot for position p, then fall back over offsets.
        for off in 0..nbanks {
            let ch = ((p / ch_period) + off) % org.channels;
            let bg = ((p / bg_period) + off / org.channels) % org.bank_groups;
            let bank = ((p / (org.channels * org.bank_groups * bank_period))
                + off / (org.channels * org.bank_groups))
                % org.banks_per_group;
            let b = ch * org.banks_per_channel() + org.bank_index(0, bg, bank);
            if cursors[b] < per_bank[b].len() {
                out.push(per_bank[b][cursors[b]].1 as u32);
                cursors[b] += 1;
                placed = true;
                break;
            }
        }
        assert!(placed, "interleave schedule stalled");
        p += 1;
    }
    out
}

/// Runs the all-miss Gather-Full benchmark; `dx100` selects the machine.
/// Returns the run statistics (bandwidth utilization is Figure 8c's metric).
pub fn run_allmiss(scenario: Scenario, dx100: bool, cfg: &SystemConfig) -> RunStats {
    let mut image = MemoryImage::new();
    // A: one gathered word per line over 64K lines.
    let a = image.alloc("A", DType::U32, (ACCESSES * 16) as u64);
    let b = image.alloc("B", DType::U32, ACCESSES as u64);
    let c = image.alloc("C", DType::U32, ACCESSES as u64);
    let indices = build_indices(scenario, LineAddr::containing(a.base()), &cfg.dram);
    assert_eq!(indices.len(), ACCESSES);
    image.fill_u32(b, &indices);
    let mut sys = System::new(cfg.clone(), image);

    sys.roi_begin();
    if !dx100 {
        // Strided partitioning: core c takes accesses c, c+cores, ... so the
        // four cores collectively preserve the constructed global order (a
        // blocked split would interleave distant regions and destroy the
        // scenario's row-locality knob).
        let place = Placement::new(sys.num_cores().min(4));
        let indices = Arc::new(indices);
        place.push_interleaved(&mut sys, ACCESSES, move |i, ops| {
            ops.extend([
                CoreOp::load(b.addr_of(i as u64), S_B),
                CoreOp::alu().with_dep(1),
                CoreOp::Load {
                    addr: a.addr_of(indices[i] as u64),
                    stream: S_A,
                    dep: [1, 0],
                },
                CoreOp::Store {
                    addr: c.addr_of(i as u64),
                    stream: S_C,
                    dep: [1, 0],
                },
            ])
        });
    } else {
        let tile = cfg.dx100.as_ref().expect("dx100 config").tile_elems;
        let jobs = Placement::of(&sys)
            .tiles(ACCESSES, tile)
            .map(|s: TileSlot<4>| {
                let g = s.tiles();
                s.job(
                    &[],
                    vec![
                        s.sld(DType::U32, b.base(), g[0]),
                        Instruction::ild(DType::U32, a.base(), g[1], g[0]),
                        s.sst(DType::U32, c.base(), g[1]),
                    ],
                )
            });
        install_jobs(&mut sys, jobs);
    }
    sys.run_until(System::cores_idle);
    sys.roi_end();
    sys.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx100_dram::AddrMap;

    fn cfg() -> SystemConfig {
        SystemConfig::paper_baseline()
    }

    #[test]
    fn indices_are_unique_and_cover_all_lines() {
        let s = Scenario {
            rbh: 0.5,
            chi: true,
            bgi: true,
        };
        let idx = build_indices(s, LineAddr(1000), &cfg().dram);
        let mut seen: Vec<u32> = idx.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), ACCESSES, "indices must be unique");
        assert!(idx.iter().all(|&e| e % 16 == 0), "one word per line");
    }

    #[test]
    fn rbh100_order_groups_rows() {
        let dram = cfg().dram;
        let s = Scenario {
            rbh: 1.0,
            chi: true,
            bgi: true,
        };
        let base = LineAddr(0);
        let idx = build_indices(s, base, &dram);
        // Per bank, count row switches: with rbh=1 each bank's rows appear
        // as full runs → switches = rows - 1 = 15.
        let org = &dram.organization;
        let mut last_row: std::collections::HashMap<usize, u64> = Default::default();
        let mut switches = vec![0usize; org.channels * org.banks_per_channel()];
        for &e in &idx {
            let line = LineAddr(base.0 + e as u64 / 16);
            let c = dram.addr_map.decode(line, org);
            let bidx = c.channel * org.banks_per_channel() + c.bank_index(org);
            if let Some(&prev) = last_row.get(&bidx) {
                if prev != c.row {
                    switches[bidx] += 1;
                }
            }
            last_row.insert(bidx, c.row);
        }
        assert!(
            switches.iter().all(|&s| s == 15),
            "row runs must be whole: {switches:?}"
        );
    }

    #[test]
    fn chi_alternates_channels() {
        let dram = cfg().dram;
        let s = Scenario {
            rbh: 1.0,
            chi: true,
            bgi: true,
        };
        let idx = build_indices(s, LineAddr(0), &dram);
        let org = &dram.organization;
        let alternations = idx
            .windows(2)
            .filter(|w| {
                let ch = |e: u32| dram.addr_map.decode(LineAddr(e as u64 / 16), org).channel;
                ch(w[0]) != ch(w[1])
            })
            .count();
        assert!(
            alternations * 10 > idx.len() * 9,
            "consecutive accesses should alternate channels: {alternations}/{}",
            idx.len()
        );
        // And the no-CHI order keeps channel constant almost everywhere.
        let s2 = Scenario {
            rbh: 1.0,
            chi: false,
            bgi: false,
        };
        let idx2 = build_indices(s2, LineAddr(0), &dram);
        let alternations2 = idx2
            .windows(2)
            .filter(|w| {
                let ch = |e: u32| dram.addr_map.decode(LineAddr(e as u64 / 16), org).channel;
                ch(w[0]) != ch(w[1])
            })
            .count();
        // Block-based no-CHI order: one switch per 2048-access block.
        assert!(
            alternations2 <= ACCESSES / 2048 + 8,
            "no-CHI order: {alternations2} switches"
        );
        assert!(alternations2 * 100 < alternations, "no-CHI ≪ CHI");
        let _ = AddrMap::ChBgColBaRow;
    }
}
