//! Per-unit activity gating: the sleep state of one timed unit.
//!
//! Two rules set a unit's timer. Under the probe-once rule
//! ([`Sleep::after_tick`]), a unit whose tick did no work asks its own
//! `next_event` once and sleeps until then, or until an input reaches it.
//! If the answer is the very next cycle, the unit stays awake and asks
//! again only after it next does work or wakes from a sleep, so a unit
//! that idles in short gaps pays for one probe per gap at most. Under the
//! exact rule ([`Sleep::sleep_until`]), the owner asks after every tick;
//! an input that only schedules work moves the timer without waking the
//! unit ([`Sleep::lower`]), and one that changes the unit but not its next
//! event credits the span so far ([`Sleep::settle`]), so the timer always
//! equals the unit's `next_event`.
//!
//! The unit's owner skips it while it sleeps and, when it wakes, credits
//! the slept span with the unit's batch rule (`credit_idle_span` /
//! `credit_idle_ticks`), so the unit's statistics come out as if it had
//! ticked every cycle. The owner decides *where* a span ends: an input
//! that arrives before the unit's slot in the current cycle ends the span
//! at that cycle (the unit then ticks in it); one that arrives after the
//! slot ends it at the next cycle.

use crate::Cycle;

/// Sleep state of one gated unit: awake, or asleep since `from` until its
/// next self-timed event. Cycles are in the unit's own clock domain.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sleep {
    /// First slept cycle not yet credited.
    from: Cycle,
    /// Cycle at which the unit must tick again; `0` while awake.
    until: Cycle,
    /// Whether the current idle run has already asked for its next event.
    probed: bool,
}

impl Sleep {
    /// Whether the unit must tick at `now`: it is awake, or its timer ran
    /// out (the caller then [`wake`](Self::wake)s it first).
    #[inline]
    pub fn due(&self, now: Cycle) -> bool {
        self.until <= now
    }

    /// The cycle the unit's timer runs out, or `None` while awake.
    /// `Some(Cycle::MAX)` means it sleeps until an input arrives.
    #[inline]
    pub fn until(&self) -> Option<Cycle> {
        (self.until != 0).then_some(self.until)
    }

    /// Gating after a tick at `now`: a tick that did work re-arms the
    /// probe; the first idle tick after it asks `next_event(now + 1)` and
    /// sleeps from `now + 1` if the answer (`None`: no event without input)
    /// lies beyond that.
    #[inline]
    pub fn after_tick(
        &mut self,
        now: Cycle,
        worked: bool,
        next_event: impl FnOnce(Cycle) -> Option<Cycle>,
    ) {
        if worked {
            self.probed = false;
        } else if !self.probed {
            self.probed = true;
            let until = next_event(now + 1).unwrap_or(Cycle::MAX);
            if until > now + 1 {
                self.from = now + 1;
                self.until = until;
            }
        }
    }

    /// Exact-rule gating from cycle `from` on: the unit sleeps from `from`
    /// until `next`, its `next_event(from)` (`None`: no event without
    /// input), or stays awake if that is `from` or earlier. Every cycle
    /// before `from` must already be ticked or credited, so an asleep unit
    /// is first [`wake`](Self::wake)d.
    #[inline]
    pub fn sleep_until(&mut self, from: Cycle, next: Option<Cycle>) {
        debug_assert!(self.until == 0, "re-timing a unit with an uncredited span");
        let until = next.unwrap_or(Cycle::MAX);
        if until > from {
            self.from = from;
            self.until = until;
        }
    }

    /// An input that gives a sleeping unit an event at `at` and changes
    /// nothing its idle ticks do (a cache's `accept`): the timer moves to
    /// `at` if that is earlier. Credits nothing; an awake unit is
    /// unaffected.
    #[inline]
    pub fn lower(&mut self, at: Cycle) {
        if self.until > at {
            self.until = at;
        }
    }

    /// Wakes the unit with its slept span ending at `to`. Returns the span
    /// `[from, to)` its owner must credit, if the unit slept and the span
    /// is non-empty.
    #[inline]
    pub fn wake(&mut self, to: Cycle) -> Option<(Cycle, Cycle)> {
        if self.until == 0 {
            return None;
        }
        self.until = 0;
        self.probed = false;
        (self.from < to).then_some((self.from, to))
    }

    /// Like [`wake`](Self::wake) but leaves the unit asleep: returns the
    /// span `[from, to)` to credit now and moves the uncredited start to
    /// `to`. Used where statistics are read mid-run, and before an input
    /// that changes what an idle tick samples but not the unit's timer.
    #[inline]
    pub fn settle(&mut self, to: Cycle) -> Option<(Cycle, Cycle)> {
        if self.until == 0 || self.from >= to {
            return None;
        }
        let span = (self.from, to);
        self.from = to;
        Some(span)
    }
}

/// The earliest timer among `units`, or `None` if any of them is awake.
pub fn all_asleep_until<'a>(units: impl IntoIterator<Item = &'a Sleep>) -> Option<Cycle> {
    let mut earliest = Cycle::MAX;
    for s in units {
        earliest = earliest.min(s.until()?);
    }
    Some(earliest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sleeps_only_past_the_next_cycle() {
        let mut s = Sleep::default();
        s.after_tick(9, false, Some);
        assert_eq!(s.until(), None, "an event next cycle keeps the unit awake");
        s.after_tick(10, false, |_| panic!("an idle run asks once"));
        s.after_tick(11, true, |_| panic!("a working tick does not ask"));
        s.after_tick(12, false, |t| Some(t + 3));
        assert_eq!(s.until(), Some(16));
        assert!(!s.due(15) && s.due(16));
        assert_eq!(s.wake(16), Some((13, 16)));
        assert_eq!(s.until(), None);
        assert_eq!(s.wake(20), None, "waking an awake unit credits nothing");
        s.after_tick(16, false, |_| None);
        assert_eq!(s.until(), Some(Cycle::MAX), "a wake re-arms the probe");
    }

    #[test]
    fn settle_credits_without_waking() {
        let mut s = Sleep::default();
        s.after_tick(4, false, |_| None);
        assert_eq!(s.until(), Some(Cycle::MAX));
        assert_eq!(s.settle(8), Some((5, 8)));
        assert_eq!(s.settle(8), None);
        assert_eq!(s.wake(8), None, "the settled span is not credited twice");
        s.after_tick(8, false, |_| None);
        assert_eq!(s.wake(9), None, "an input right after the sleep began");
    }

    #[test]
    fn exact_timer_sleeps_until_the_next_event() {
        let mut s = Sleep::default();
        s.sleep_until(5, Some(5));
        assert_eq!(s.until(), None, "an event at `from` keeps the unit awake");
        s.sleep_until(5, Some(12));
        assert_eq!(s.until(), Some(12));
        s.lower(20);
        assert_eq!(s.until(), Some(12), "a later input leaves the timer");
        s.lower(9);
        assert_eq!(s.until(), Some(9), "an earlier input lowers it");
        assert!(!s.due(8) && s.due(9));
        assert_eq!(s.wake(9), Some((5, 9)));
        s.lower(3);
        assert_eq!(s.until(), None, "lowering leaves an awake unit awake");
        s.sleep_until(10, None);
        assert_eq!(s.until(), Some(Cycle::MAX));
    }

    #[test]
    fn earliest_timer_needs_every_unit_asleep() {
        let mut a = Sleep::default();
        let mut b = Sleep::default();
        a.after_tick(0, false, |_| Some(30));
        assert_eq!(all_asleep_until([&a, &b]), None);
        b.after_tick(0, false, |_| Some(20));
        assert_eq!(all_asleep_until([&a, &b]), Some(20));
    }
}
