//! Per-bank state machine: open row tracking and intra-bank timing.

use dx100_common::Cycle;

use crate::config::DramTimings;

/// One DRAM bank: its row-buffer state plus the earliest tick at which each
/// command class may legally issue to it.
#[derive(Debug, Clone, Default)]
pub struct Bank {
    open_row: Option<u64>,
    act_ready_at: Cycle,
    cas_ready_at: Cycle,
    pre_ready_at: Cycle,
}

impl Bank {
    /// Creates a closed bank with no pending timing constraints.
    pub fn new() -> Self {
        Self::default()
    }

    /// The row currently latched in the row buffer, if any.
    pub fn open_row(&self) -> Option<u64> {
        self.open_row
    }

    /// Earliest tick an ACT may issue (assuming the bank is closed by then).
    pub fn act_ready_at(&self) -> Cycle {
        self.act_ready_at
    }

    /// Earliest tick a RD/WR may issue to the open row.
    pub fn cas_ready_at(&self) -> Cycle {
        self.cas_ready_at
    }

    /// Earliest tick a PRE may issue to the open row.
    pub fn pre_ready_at(&self) -> Cycle {
        self.pre_ready_at
    }

    /// Whether an ACT may issue at `now`: the bank is closed and
    /// [`Bank::act_ready_at`] has passed.
    pub fn can_act(&self, now: Cycle) -> bool {
        self.open_row.is_none() && self.act_ready_at() <= now
    }

    /// Whether a RD/WR may issue at `now` to `row`: the row is open and
    /// [`Bank::cas_ready_at`] has passed.
    pub fn can_cas(&self, row: u64, now: Cycle) -> bool {
        self.open_row == Some(row) && self.cas_ready_at() <= now
    }

    /// Whether a PRE may issue at `now`: the bank is open and
    /// [`Bank::pre_ready_at`] has passed.
    pub fn can_pre(&self, now: Cycle) -> bool {
        self.open_row.is_some() && self.pre_ready_at() <= now
    }

    /// Issues ACT: opens `row` and arms tRCD / tRAS / tRC constraints.
    ///
    /// # Panics
    /// Debug-panics if called while [`Bank::can_act`] is false.
    pub fn issue_act(&mut self, row: u64, now: Cycle, t: &DramTimings) {
        debug_assert!(self.can_act(now), "ACT issued while not ready");
        self.open_row = Some(row);
        self.cas_ready_at = now + t.t_rcd;
        self.pre_ready_at = now + t.t_ras;
        // tRC lower-bounds the next ACT even if PRE happens early.
        self.act_ready_at = now + t.t_rc();
    }

    /// Issues a column access; arms read-to-precharge or write-recovery.
    ///
    /// # Panics
    /// Debug-panics if called while [`Bank::can_cas`] is false.
    pub fn issue_cas(&mut self, row: u64, is_write: bool, now: Cycle, t: &DramTimings) {
        debug_assert!(self.can_cas(row, now), "CAS issued while not ready");
        let pre_after = if is_write {
            // Write data appears after CWL, occupies tBL, then tWR recovery.
            now + t.cwl + t.t_bl + t.t_wr
        } else {
            now + t.t_rtp
        };
        self.pre_ready_at = self.pre_ready_at.max(pre_after);
    }

    /// Issues PRE: closes the row and arms tRP before the next ACT.
    ///
    /// # Panics
    /// Debug-panics if called while [`Bank::can_pre`] is false.
    pub fn issue_pre(&mut self, now: Cycle, t: &DramTimings) {
        debug_assert!(self.can_pre(now), "PRE issued while not ready");
        self.open_row = None;
        self.act_ready_at = self.act_ready_at.max(now + t.t_rp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> DramTimings {
        DramTimings::ddr4_3200()
    }

    #[test]
    fn act_then_cas_respects_trcd() {
        let t = t();
        let mut b = Bank::new();
        assert!(b.can_act(0));
        b.issue_act(7, 0, &t);
        assert_eq!(b.open_row(), Some(7));
        assert!(!b.can_cas(7, t.t_rcd - 1));
        assert!(b.can_cas(7, t.t_rcd));
        assert!(!b.can_cas(8, t.t_rcd), "wrong row must not be accessible");
    }

    #[test]
    fn pre_respects_tras_and_trp() {
        let t = t();
        let mut b = Bank::new();
        b.issue_act(1, 0, &t);
        assert!(!b.can_pre(t.t_ras - 1));
        assert!(b.can_pre(t.t_ras));
        b.issue_pre(t.t_ras, &t);
        assert!(b.open_row().is_none());
        assert!(!b.can_act(t.t_ras + t.t_rp - 1));
        assert!(b.can_act(t.t_ras + t.t_rp));
    }

    #[test]
    fn read_to_pre_respects_trtp() {
        let t = t();
        let mut b = Bank::new();
        b.issue_act(1, 0, &t);
        let cas_at = t.t_ras; // late enough that tRAS is already satisfied
        b.issue_cas(1, false, cas_at, &t);
        assert!(!b.can_pre(cas_at + t.t_rtp - 1));
        assert!(b.can_pre(cas_at + t.t_rtp));
    }

    #[test]
    fn write_recovery_delays_pre() {
        let t = t();
        let mut b = Bank::new();
        b.issue_act(1, 0, &t);
        let cas_at = t.t_ras;
        b.issue_cas(1, true, cas_at, &t);
        let wr_done = cas_at + t.cwl + t.t_bl + t.t_wr;
        assert!(!b.can_pre(wr_done - 1));
        assert!(b.can_pre(wr_done));
    }

    #[test]
    fn trc_limits_back_to_back_acts() {
        let t = t();
        let mut b = Bank::new();
        b.issue_act(1, 0, &t);
        // Precharge as early as legal...
        b.issue_pre(t.t_ras, &t);
        // ...but the next ACT still cannot beat tRC.
        assert!(!b.can_act(t.t_rc() - 1));
        assert!(b.can_act(t.t_rc()));
    }
}
