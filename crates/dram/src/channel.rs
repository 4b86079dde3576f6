//! Per-channel command issue: cross-bank timing (tCCD, tRRD, tFAW),
//! data-bus occupancy, and read/write turnaround.

use std::collections::VecDeque;

use dx100_common::Cycle;

use crate::bank::Bank;
use crate::config::DramConfig;

/// Record of the last column access on the channel, used for tCCD and
/// turnaround constraints.
#[derive(Debug, Clone, Copy)]
struct LastCas {
    tick: Cycle,
    bank_group: usize,
    is_write: bool,
}

/// One DRAM channel: its banks plus every cross-bank timing resource.
///
/// The channel issues at most one command per tick (shared command bus) and
/// tracks data-bus occupancy so bandwidth utilization can be measured as the
/// busy fraction of data-bus ticks.
#[derive(Clone, Debug)]
pub struct Channel {
    config: DramConfig,
    banks: Vec<Bank>,
    last_cas: Option<LastCas>,
    /// Per-rank sliding window of recent ACT ticks (tFAW).
    act_window: Vec<VecDeque<Cycle>>,
    /// Per-rank last ACT (tick, bank_group) for tRRD.
    last_act: Vec<Option<(Cycle, usize)>>,
    data_busy_until: Cycle,
    /// Total ticks of data-bus occupancy (bandwidth numerator).
    pub data_busy_ticks: u64,
    /// ACT commands issued.
    pub activates: u64,
    /// PRE commands issued.
    pub precharges: u64,
}

impl Channel {
    /// Creates a channel with all banks closed.
    pub fn new(config: DramConfig) -> Self {
        let nbanks = config.organization.banks_per_channel();
        let ranks = config.organization.ranks;
        Channel {
            config,
            banks: (0..nbanks).map(|_| Bank::new()).collect(),
            last_cas: None,
            act_window: (0..ranks).map(|_| VecDeque::new()).collect(),
            last_act: vec![None; ranks],
            data_busy_until: 0,
            data_busy_ticks: 0,
            activates: 0,
            precharges: 0,
        }
    }

    /// Shared access to a bank's state.
    pub fn bank(&self, idx: usize) -> &Bank {
        &self.banks[idx]
    }

    /// Number of banks in this channel.
    pub fn num_banks(&self) -> usize {
        self.banks.len()
    }

    /// Earliest tick a CAS to `bank_group` may issue given channel-level
    /// constraints (tCCD_S/L, turnaround, data bus).
    pub(crate) fn cas_channel_ready_at(&self, bank_group: usize, is_write: bool) -> Cycle {
        let t = &self.config.timings;
        let mut ready = 0;
        if let Some(last) = self.last_cas {
            let ccd = if last.bank_group == bank_group {
                t.t_ccd_l
            } else {
                t.t_ccd_s
            };
            ready = ready.max(last.tick + ccd);
            match (last.is_write, is_write) {
                // Write → read: wait for write data plus tWTR.
                (true, false) => {
                    let wtr = if last.bank_group == bank_group {
                        t.t_wtr_l
                    } else {
                        t.t_wtr_s
                    };
                    ready = ready.max(last.tick + t.cwl + t.t_bl + wtr);
                }
                // Read → write: write data must not collide with read data.
                (false, true) => {
                    ready = ready.max(last.tick + t.cl + t.t_bl + 2 - t.cwl);
                }
                _ => {}
            }
        }
        // Data bus: the new burst must start after the previous burst ends.
        let data_latency = if is_write { t.cwl } else { t.cl };
        if self.data_busy_until > data_latency {
            ready = ready.max(self.data_busy_until - data_latency);
        }
        ready
    }

    /// Whether a CAS may issue at `now` to (`bank_idx`, `bank_group`, `row`):
    /// `row` is open and [`Channel::cas_ready_tick`] has passed.
    pub fn can_cas(
        &self,
        bank_idx: usize,
        bank_group: usize,
        row: u64,
        is_write: bool,
        now: Cycle,
    ) -> bool {
        self.banks[bank_idx].open_row() == Some(row)
            && self.cas_ready_tick(bank_idx, bank_group, is_write) <= now
    }

    /// A lower bound on [`Channel::cas_channel_ready_at`] over every bank
    /// group and direction (the shorter tCCD, the longer data latency): no
    /// CAS can issue before it.
    pub(crate) fn cas_channel_earliest(&self) -> Cycle {
        let t = &self.config.timings;
        let ccd = self
            .last_cas
            .map_or(0, |last| last.tick + t.t_ccd_s.min(t.t_ccd_l));
        ccd.max(self.data_busy_until.saturating_sub(t.cl.max(t.cwl)))
    }

    /// Whether channel-level constraints alone (tCCD, turnaround, data bus)
    /// allow a CAS to `bank_group` at `now`. Bank-level state is *not*
    /// checked; the FR-FCFS scan pairs this with a per-bank readiness index.
    pub fn cas_channel_ready(&self, bank_group: usize, is_write: bool, now: Cycle) -> bool {
        now >= self.cas_channel_ready_at(bank_group, is_write)
    }

    /// Earliest tick a CAS may issue to (`bank_idx`, `bank_group`), assuming
    /// the target row is already open. Channel state is taken as frozen: the
    /// bound is only valid while no intervening command issues.
    pub fn cas_ready_tick(&self, bank_idx: usize, bank_group: usize, is_write: bool) -> Cycle {
        self.banks[bank_idx]
            .cas_ready_at()
            .max(self.cas_channel_ready_at(bank_group, is_write))
    }

    /// Earliest tick an ACT may issue to (`bank_idx`, `rank`, `bank_group`),
    /// assuming the bank is (and stays) closed. Channel state is taken as
    /// frozen, as for [`Channel::cas_ready_tick`].
    pub fn act_ready_tick(&self, bank_idx: usize, rank: usize, bank_group: usize) -> Cycle {
        let t = &self.config.timings;
        let mut ready = self.banks[bank_idx].act_ready_at();
        // tRRD against the previous ACT in the same rank.
        if let Some((last, last_bg)) = self.last_act[rank] {
            let rrd = if last_bg == bank_group {
                t.t_rrd_l
            } else {
                t.t_rrd_s
            };
            ready = ready.max(last + rrd);
        }
        // tFAW: at most 4 ACTs per rank per window.
        let window = &self.act_window[rank];
        if window.len() >= 4 {
            ready = ready.max(window[window.len() - 4] + t.t_faw);
        }
        ready
    }

    /// Earliest tick a PRE may issue to `bank_idx`, assuming its row stays
    /// open until then.
    pub fn pre_ready_tick(&self, bank_idx: usize) -> Cycle {
        self.banks[bank_idx].pre_ready_at()
    }

    /// Issues a CAS; returns the tick at which the data burst completes
    /// (read data available / write data absorbed).
    ///
    /// # Panics
    /// Debug-panics if [`Channel::can_cas`] is false at `now`.
    pub fn issue_cas(
        &mut self,
        bank_idx: usize,
        bank_group: usize,
        row: u64,
        is_write: bool,
        now: Cycle,
    ) -> Cycle {
        debug_assert!(self.can_cas(bank_idx, bank_group, row, is_write, now));
        let t = &self.config.timings;
        self.banks[bank_idx].issue_cas(row, is_write, now, t);
        let data_latency = if is_write { t.cwl } else { t.cl };
        let data_start = now + data_latency;
        let data_end = data_start + t.t_bl;
        self.data_busy_until = data_end;
        self.data_busy_ticks += t.t_bl;
        self.last_cas = Some(LastCas {
            tick: now,
            bank_group,
            is_write,
        });
        data_end
    }

    /// Whether an ACT may issue at `now` to (`bank_idx`, rank, bank group):
    /// the bank is closed and [`Channel::act_ready_tick`] has passed.
    pub fn can_act(&self, bank_idx: usize, rank: usize, bank_group: usize, now: Cycle) -> bool {
        self.banks[bank_idx].open_row().is_none()
            && self.act_ready_tick(bank_idx, rank, bank_group) <= now
    }

    /// Issues an ACT opening `row`.
    ///
    /// # Panics
    /// Debug-panics if [`Channel::can_act`] is false at `now`.
    pub fn issue_act(
        &mut self,
        bank_idx: usize,
        rank: usize,
        bank_group: usize,
        row: u64,
        now: Cycle,
    ) {
        debug_assert!(self.can_act(bank_idx, rank, bank_group, now));
        let t = self.config.timings.clone();
        self.banks[bank_idx].issue_act(row, now, &t);
        self.last_act[rank] = Some((now, bank_group));
        let window = &mut self.act_window[rank];
        window.push_back(now);
        while window.len() > 4 {
            window.pop_front();
        }
        self.activates += 1;
    }

    /// Whether a PRE may issue at `now` to `bank_idx`: its row is open and
    /// [`Channel::pre_ready_tick`] has passed.
    pub fn can_pre(&self, bank_idx: usize, now: Cycle) -> bool {
        self.banks[bank_idx].open_row().is_some() && self.pre_ready_tick(bank_idx) <= now
    }

    /// Issues a PRE closing the bank's open row.
    ///
    /// # Panics
    /// Debug-panics if [`Channel::can_pre`] is false at `now`.
    pub fn issue_pre(&mut self, bank_idx: usize, now: Cycle) {
        debug_assert!(self.can_pre(bank_idx, now));
        let t = self.config.timings.clone();
        self.banks[bank_idx].issue_pre(now, &t);
        self.precharges += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;

    fn ch() -> Channel {
        Channel::new(DramConfig::ddr4_3200_2ch())
    }

    #[test]
    fn tccd_l_limits_same_bank_group() {
        let mut c = ch();
        let t = c.config.timings.clone();
        // Open rows in two banks of bank group 0 (banks 0 and 1).
        c.issue_act(0, 0, 0, 5, 0);
        c.issue_act(1, 0, 0, 5, t.t_rrd_l);
        let first_cas = t.t_rrd_l + t.t_rcd;
        c.issue_cas(0, 0, 5, false, first_cas);
        assert!(!c.can_cas(1, 0, 5, false, first_cas + t.t_ccd_l - 1));
        assert!(c.can_cas(1, 0, 5, false, first_cas + t.t_ccd_l));
    }

    #[test]
    fn tccd_s_allows_faster_cross_bank_group() {
        let mut c = ch();
        let t = c.config.timings.clone();
        // Bank 0 is (bg 0, bank 0); bank 4 is (bg 1, bank 0).
        c.issue_act(0, 0, 0, 5, 0);
        c.issue_act(4, 0, 1, 5, t.t_rrd_s);
        let first_cas = t.t_rrd_s + t.t_rcd;
        c.issue_cas(0, 0, 5, false, first_cas);
        assert!(c.can_cas(4, 1, 5, false, first_cas + t.t_ccd_s));
        assert!(t.t_ccd_s < t.t_ccd_l);
    }

    #[test]
    fn tfaw_limits_activation_rate() {
        let mut c = ch();
        let t = c.config.timings.clone();
        // Issue 4 ACTs to different bank groups as fast as tRRD_S allows.
        let mut now = 0;
        for (i, bank) in [0usize, 4, 8, 12].iter().enumerate() {
            assert!(c.can_act(*bank, 0, i, now), "ACT {i} at {now}");
            c.issue_act(*bank, 0, i, 1, now);
            now += t.t_rrd_s;
        }
        // The 5th ACT (bank 1, bg 0) must wait for the tFAW window.
        assert!(!c.can_act(1, 0, 0, now));
        assert!(c.can_act(1, 0, 0, t.t_faw));
    }

    #[test]
    fn write_to_read_turnaround() {
        let mut c = ch();
        let t = c.config.timings.clone();
        c.issue_act(0, 0, 0, 5, 0);
        c.issue_act(4, 0, 1, 5, t.t_rrd_s);
        let w_at = t.t_rrd_s + t.t_rcd;
        c.issue_cas(0, 0, 5, true, w_at);
        let earliest_read = w_at + t.cwl + t.t_bl + t.t_wtr_s;
        assert!(!c.can_cas(4, 1, 5, false, earliest_read - 1));
        assert!(c.can_cas(4, 1, 5, false, earliest_read));
    }

    #[test]
    fn data_bus_counts_busy_ticks() {
        let mut c = ch();
        let t = c.config.timings.clone();
        c.issue_act(0, 0, 0, 5, 0);
        c.issue_cas(0, 0, 5, false, t.t_rcd);
        c.issue_cas(0, 0, 5, false, t.t_rcd + t.t_ccd_l);
        assert_eq!(c.data_busy_ticks, 2 * t.t_bl);
    }
}
