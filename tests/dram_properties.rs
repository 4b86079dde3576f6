//! Property tests on the DRAM substrate: conservation (every request
//! completes exactly once), bounded starvation, and the ordering guarantee
//! for conflicting same-line accesses. Timing-constraint violations are
//! guarded by debug assertions inside the bank/channel models, which these
//! tests exercise under random traffic.

use std::collections::VecDeque;

use dx100::common::LineAddr;
use dx100::dram::{DramConfig, DramSystem, MemRequest};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Traffic {
    /// (line, is_write), lines bounded to stress bank conflicts.
    reqs: Vec<(u64, bool)>,
    /// Requests enqueued per tick.
    rate: usize,
}

fn traffic() -> impl Strategy<Value = Traffic> {
    (1usize..5, 1usize..300).prop_flat_map(|(rate, n)| {
        proptest::collection::vec((0u64..4096, any::<bool>()), n)
            .prop_map(move |reqs| Traffic { reqs, rate })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every request gets exactly one response; the system drains.
    #[test]
    fn conservation_under_random_traffic(t in traffic()) {
        let mut dram = DramSystem::new(DramConfig::ddr4_3200_2ch());
        let mut pending: VecDeque<(u64, LineAddr, bool)> = t
            .reqs
            .iter()
            .enumerate()
            .map(|(i, (l, w))| (i as u64, LineAddr(*l), *w))
            .collect();
        let mut seen = vec![0u32; t.reqs.len()];
        let mut now = 0u64;
        let mut done = 0;
        while done < t.reqs.len() {
            for _ in 0..t.rate {
                let Some(&(id, line, w)) = pending.front() else { break };
                let req = if w { MemRequest::write(id, line) } else { MemRequest::read(id, line) };
                if dram.try_enqueue(req, now) {
                    pending.pop_front();
                } else {
                    break;
                }
            }
            dram.tick(now);
            while let Some(resp) = dram.pop_response() {
                let idx = resp.id as usize;
                seen[idx] += 1;
                prop_assert_eq!(seen[idx], 1, "request {} answered twice", idx);
                prop_assert_eq!(resp.line, LineAddr(t.reqs[idx].0));
                prop_assert_eq!(resp.is_write, t.reqs[idx].1);
                done += 1;
            }
            now += 1;
            prop_assert!(now < 4_000_000, "drain timeout: {}/{} done", done, t.reqs.len());
        }
        prop_assert!(dram.is_idle());
        // Stats account for every request.
        let s = dram.stats();
        prop_assert_eq!(s.requests() as usize, t.reqs.len());
        prop_assert_eq!(s.row_hits_misses.total() as usize, t.reqs.len());
    }

    /// Same-line write/read pairs are answered in arrival order.
    #[test]
    fn same_line_conflicts_keep_order(lines in proptest::collection::vec(0u64..4, 2usize..40)) {
        let mut dram = DramSystem::new(DramConfig::ddr4_3200_2ch());
        // Alternate write/read per entry to maximize conflicts over 4 lines.
        let mut order_per_line: Vec<Vec<u64>> = vec![Vec::new(); 4];
        let mut queue: VecDeque<MemRequest> = VecDeque::new();
        for (i, l) in lines.iter().enumerate() {
            let id = i as u64;
            let req = if i % 2 == 0 {
                MemRequest::write(id, LineAddr(*l))
            } else {
                MemRequest::read(id, LineAddr(*l))
            };
            order_per_line[*l as usize].push(id);
            queue.push_back(req);
        }
        let mut completed: Vec<Vec<u64>> = vec![Vec::new(); 4];
        let mut now = 0;
        let mut done = 0;
        let total = lines.len();
        while done < total {
            while let Some(&req) = queue.front() {
                if dram.try_enqueue(req, now) {
                    queue.pop_front();
                } else {
                    break;
                }
            }
            dram.tick(now);
            while let Some(resp) = dram.pop_response() {
                completed[resp.line.0 as usize].push(resp.id);
                done += 1;
            }
            now += 1;
            prop_assert!(now < 2_000_000);
        }
        // Command-order invariant per line: writes never overtake older
        // same-line requests, and reads never overtake older writes. (A
        // write *ack* may be delivered before an older read's data returns
        // — acks fire at CAS issue, reads at data return — so read-after-
        // read completion order is the only same-line pair that may swap
        // freely, and only among reads.)
        for l in 0..4 {
            let arrival_pos = |id: u64| order_per_line[l].iter().position(|&x| x == id).unwrap();
            for (ci, &id) in completed[l].iter().enumerate() {
                let is_write = id % 2 == 0;
                for &later in &completed[l][ci + 1..] {
                    let later_is_write = later % 2 == 0;
                    if arrival_pos(later) < arrival_pos(id) {
                        // `later` arrived earlier but completed later: legal
                        // only when `later` is a read whose data outlived a
                        // younger write's ack.
                        prop_assert!(
                            !later_is_write && is_write,
                            "line {}: {} (write={}) overtook older {} (write={})",
                            l, id, is_write, later, later_is_write
                        );
                    }
                }
            }
        }
    }
}

/// A stream constructed to hit one row repeatedly must be nearly all row
/// hits; rotating rows in one bank must be nearly all misses.
#[test]
fn row_buffer_hit_rate_extremes() {
    use dx100::dram::DramCoord;
    let cfg = DramConfig::ddr4_3200_2ch();
    let org = cfg.organization.clone();
    let run = |coords: Vec<DramCoord>| {
        let mut dram = DramSystem::new(cfg.clone());
        let mut now = 0;
        let mut queue: VecDeque<MemRequest> = coords
            .iter()
            .enumerate()
            .map(|(i, c)| MemRequest::read(i as u64, org.encode(*c)))
            .collect();
        let total = queue.len();
        let mut done = 0;
        while done < total {
            while let Some(&req) = queue.front() {
                if dram.try_enqueue(req, now) {
                    queue.pop_front();
                } else {
                    break;
                }
            }
            dram.tick(now);
            while dram.pop_response().is_some() {
                done += 1;
            }
            now += 1;
            assert!(now < 4_000_000);
        }
        dram.stats().row_buffer_hit_rate()
    };
    let same_row: Vec<DramCoord> = (0..128)
        .map(|col| DramCoord {
            channel: 0,
            rank: 0,
            bank_group: 0,
            bank: 0,
            row: 3,
            col,
        })
        .collect();
    // Rotate over more rows than the 32-entry buffer can pair up.
    let rotate_rows: Vec<DramCoord> = (0..128)
        .map(|i| DramCoord {
            channel: 0,
            rank: 0,
            bank_group: 0,
            bank: 0,
            row: (i % 64) as u64,
            col: (i / 64) as u64,
        })
        .collect();
    let hit = run(same_row);
    let miss = run(rotate_rows);
    assert!(hit > 0.95, "same-row stream must hit: {hit}");
    assert!(miss < 0.2, "row-rotating stream must mostly miss: {miss}");
}

/// Refresh fires at the tREFI cadence and costs bandwidth.
#[test]
fn refresh_happens_and_is_bounded() {
    let cfg = DramConfig::ddr4_3200_2ch();
    let mut dram = DramSystem::new(cfg.clone());
    let mut now = 0u64;
    let mut id = 0u64;
    let horizon = cfg.timings.t_refi * 4;
    while now < horizon {
        // Keep a trickle of traffic so banks open and close.
        if now.is_multiple_of(64)
            && dram.try_enqueue(MemRequest::read(id, LineAddr(id % 2048)), now)
        {
            id += 1;
        }
        dram.tick(now);
        while dram.pop_response().is_some() {}
        now += 1;
    }
    let refreshes = dram.stats().refreshes;
    assert!(
        (4..=10).contains(&refreshes),
        "expected ~4 refreshes per channel pair over 4*tREFI, got {refreshes}"
    );
}

/// One seeded request stream for [`fr_fcfs_schedule_is_pinned`]: a bursty
/// mix of reads and writes over a few hot rows per bank, with same-line
/// pairs, replayed through `DramSystem` for `ticks` DRAM ticks. Returns an
/// FNV-1a digest of every response's `(id, finished_at)` in delivery order,
/// the ACT and PRE counts, the refresh count and the longest wait.
fn replay_seeded_stream(seed: u64, ticks: u64, gating: bool) -> (u64, u64, u64, u64, u64) {
    use dx100::common::hash::Fnv64;
    use dx100::dram::DramCoord;
    // splitmix64: a self-contained generator, so the stream cannot drift
    // with a dependency's.
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut cfg = DramConfig::ddr4_3200_2ch();
    cfg.starvation_threshold = 300;
    let org = cfg.organization.clone();
    let mut dram = DramSystem::new(cfg.clone());
    if gating {
        dram.enable_gating();
    }
    let mut queue: VecDeque<MemRequest> = VecDeque::new();
    let mut enqueued_at = Vec::new();
    let mut recent: Vec<LineAddr> = Vec::new();
    let mut digest = Fnv64::new();
    let mut longest_wait = 0;
    for now in 0..ticks {
        // Bursts of up to three requests on a quarter of the ticks, quiet
        // stretches of 512 ticks in every 4096 so banks idle and close.
        if now % 4096 < 3584 && next() % 4 == 0 {
            for _ in 0..1 + next() % 3 {
                let id = enqueued_at.len() as u64;
                let r = next();
                let line = if r % 8 == 0 && !recent.is_empty() {
                    // Same-line pair with an earlier request.
                    recent[(r >> 8) as usize % recent.len()]
                } else {
                    let hot = (r >> 4) % 3;
                    let row = if r % 16 == 1 {
                        (r >> 12) % 4096
                    } else {
                        hot * 977
                    };
                    org.encode(DramCoord {
                        channel: (r >> 20) as usize % org.channels,
                        rank: 0,
                        bank_group: (r >> 24) as usize % org.bank_groups,
                        bank: (r >> 28) as usize % org.banks_per_group,
                        row,
                        col: (r >> 32) % org.cols_per_row,
                    })
                };
                if recent.len() < 16 {
                    recent.push(line);
                } else {
                    recent[(r >> 40) as usize % 16] = line;
                }
                let req = if (r >> 48) % 3 == 0 {
                    MemRequest::write(id, line)
                } else {
                    MemRequest::read(id, line)
                };
                queue.push_back(req);
                enqueued_at.push(None);
            }
        }
        while let Some(&req) = queue.front() {
            if !dram.try_enqueue(req, now) {
                break;
            }
            enqueued_at[req.id as usize] = Some(now);
            queue.pop_front();
        }
        dram.tick(now);
        while let Some(resp) = dram.pop_response() {
            digest.write(&resp.id.to_le_bytes());
            digest.write(&resp.finished_at.to_le_bytes());
            let at = enqueued_at[resp.id as usize].expect("answered before enqueue");
            longest_wait = longest_wait.max(resp.finished_at - at);
        }
    }
    let s = dram.stats();
    (
        digest.finish(),
        s.activates,
        s.precharges,
        s.refreshes,
        longest_wait,
    )
}

/// Pins the FR-FCFS scheduler's choices (CAS/ACT/PRE order, the
/// keep-row-open rule, starvation mode and the refresh drain): seeded
/// streams must reproduce the recorded response schedule and command counts
/// tick for tick, with and without channel gating. The values were recorded
/// from the scan-based scheduler; a change to them is a modeling change.
#[test]
fn fr_fcfs_schedule_is_pinned() {
    let expected: [(u64, (u64, u64, u64)); 3] = [
        (1, (1_367_344_614_300_050_026, 2521, 2489)),
        (2, (14_686_204_391_303_450_406, 2454, 2423)),
        (3, (3_583_302_147_294_432_331, 2353, 2321)),
    ];
    let mut got = Vec::new();
    for (seed, _) in expected {
        let (digest, acts, pres, refreshes, longest_wait) =
            replay_seeded_stream(seed, 60_000, false);
        assert!(
            refreshes >= 8,
            "seed {seed}: the stream must cross refreshes"
        );
        assert!(
            longest_wait > 300,
            "seed {seed}: some request must wait past the starvation threshold"
        );
        let gated = replay_seeded_stream(seed, 60_000, true);
        assert_eq!(
            gated,
            (digest, acts, pres, refreshes, longest_wait),
            "seed {seed}: gating moved the schedule"
        );
        got.push((seed, (digest, acts, pres)));
    }
    assert_eq!(got, expected, "FR-FCFS schedule moved");
}
