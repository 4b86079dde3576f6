//! Per-unit activity gating: the sleep state of one timed unit.
//!
//! One rule sets every unit's timer: a sleeping unit's timer is its next
//! event. After each tick the owner asks the unit's `next_event` and the
//! unit sleeps until then ([`Sleep::sleep_until`]), or stays awake if the
//! answer is the next cycle. An input reaching a sleeping unit goes through
//! [`Sleep::input`], which credits the span so far from the state before
//! the input, applies the input, and asks `next_event` again; the unit
//! wakes only if that event is due at once.
//! Two inputs take a cheaper form of the same rule because their outcome
//! is known in advance: one that only schedules work at a known cycle and
//! changes nothing an idle tick samples (a cache's `accept`) lowers the
//! timer without crediting ([`Sleep::lower`]), and one that always makes
//! its unit due wakes it ([`Sleep::wake`]).
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

    /// Gating after a tick: the unit sleeps from `from` until `next`, its
    /// `next_event(from)` (`None`: no event without input), or stays awake
    /// if that is `from` or earlier. Every cycle before `from` must already
    /// be ticked or credited, so an asleep unit is first
    /// [`wake`](Self::wake)d.
    #[inline]
    pub fn sleep_until(&mut self, from: Cycle, next: Option<Cycle>) {
        debug_assert!(self.until == 0, "re-timing a unit with an uncredited span");
        let until = next.unwrap_or(Cycle::MAX);
        if until > from {
            self.from = from;
            self.until = until;
        }
    }

    /// Delivers an input to `unit`, whose slept span ends at `to` as for
    /// [`wake`](Self::wake). A sleeping unit has the span credited from
    /// its state before the input (`credit(unit, from, to)`), then takes
    /// the input (`apply`), then sleeps until its `next_event` asked from
    /// the first uncredited cycle, now `to` (`None`: no event without
    /// input); an event at or before that cycle makes it due then. An
    /// awake unit only takes the input. Returns what `apply` returned.
    #[inline]
    pub fn input<U, R>(
        &mut self,
        to: Cycle,
        unit: &mut U,
        credit: impl FnOnce(&mut U, Cycle, Cycle),
        apply: impl FnOnce(&mut U) -> R,
        next_event: impl FnOnce(&mut U, Cycle) -> Option<Cycle>,
    ) -> R {
        if let Some((from, to)) = self.settle(to) {
            credit(unit, from, to);
        }
        let out = apply(unit);
        if self.until != 0 {
            self.until = next_event(unit, self.from)
                .unwrap_or(Cycle::MAX)
                .max(self.from);
        }
        out
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
        (self.from < to).then_some((self.from, to))
    }

    /// Like [`wake`](Self::wake) but leaves the unit asleep: returns the
    /// span `[from, to)` to credit now and moves the uncredited start to
    /// `to`. Used where statistics are read mid-run, and by
    /// [`input`](Self::input).
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
    fn sleeps_until_the_next_event() {
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
        assert_eq!(s.wake(9), None, "waking an awake unit credits nothing");
        s.lower(3);
        assert_eq!(s.until(), None, "lowering leaves an awake unit awake");
        s.sleep_until(10, None);
        assert_eq!(s.until(), Some(Cycle::MAX));
    }

    #[test]
    fn settle_credits_without_waking() {
        let mut s = Sleep::default();
        s.sleep_until(5, None);
        assert_eq!(s.settle(8), Some((5, 8)));
        assert_eq!(s.settle(8), None);
        assert_eq!(s.wake(8), None, "the settled span is not credited twice");
        s.sleep_until(9, None);
        assert_eq!(s.wake(9), None, "an input right after the sleep began");
    }

    /// The unit is a log of what `input` does to it, in order.
    #[test]
    fn input_credits_then_applies_then_retimes() {
        let credit = |log: &mut Vec<String>, from, to| log.push(format!("credit {from}..{to}"));
        let apply = |log: &mut Vec<String>| log.push("apply".into());
        let mut log = Vec::new();
        let mut s = Sleep::default();
        s.input(3, &mut log, credit, apply, |_, _| {
            panic!("an awake unit is not asked")
        });
        assert_eq!(log, ["apply"], "an awake unit only takes the input");
        log.clear();
        s.sleep_until(5, Some(40));
        let apply_len = |log: &mut Vec<String>| {
            log.push("apply".into());
            log.len()
        };
        let out = s.input(8, &mut log, credit, apply_len, |log, t| {
            log.push(format!("asked at {t}"));
            None
        });
        assert_eq!(out, 2, "`apply`'s value is returned");
        assert_eq!(log, ["credit 5..8", "apply", "asked at 8"]);
        assert_eq!(s.until(), Some(Cycle::MAX), "an input that gives no work");
        log.clear();
        s.input(8, &mut log, credit, apply, |_, t| Some(t + 3));
        assert_eq!(log, ["apply"], "nothing is credited twice");
        assert_eq!(s.until(), Some(11));
        s.input(9, &mut log, credit, apply, |_, t| Some(t - 1));
        assert!(s.due(9), "an event at once makes the unit due");
        assert_eq!(s.wake(9), None, "with nothing left to credit");
    }

    #[test]
    fn earliest_timer_needs_every_unit_asleep() {
        let mut a = Sleep::default();
        let mut b = Sleep::default();
        a.sleep_until(1, Some(30));
        assert_eq!(all_asleep_until([&a, &b]), None);
        b.sleep_until(1, Some(20));
        assert_eq!(all_asleep_until([&a, &b]), Some(20));
    }
}
