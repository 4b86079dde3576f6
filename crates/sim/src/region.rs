//! Coarse-grained region coherence between DX100 instances (paper
//! Section 6.6, core-multiplexing approach).
//!
//! Each array (identified by its base address, taken from the instruction's
//! `BASE` operand) is one coherence region. The Single-Writer-Multiple-
//! Reader invariant is enforced at instruction granularity: an IST/IRMW
//! needs the region Exclusive to its instance, an ILD needs at least Shared.
//! State changes cost an acquisition latency; a region locked by in-flight
//! instructions of another instance defers the requester.

use dx100_common::hash::HashMap;
use dx100_common::Addr;

/// Region state.
#[derive(Debug, Clone, PartialEq, Eq)]
enum State {
    /// Readable by the listed instances.
    Shared(Vec<usize>),
    /// Writable by one instance.
    Exclusive(usize),
}

#[derive(Debug, Clone)]
struct Region {
    state: State,
    /// In-flight instructions currently pinning this region, per instance.
    inflight: HashMap<usize, usize>,
}

/// Outcome of a region request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionGrant {
    /// Proceed immediately (already in the right state).
    Immediate,
    /// Proceed after the acquisition latency (state transition performed).
    AfterAcquire,
    /// Region is pinned by another instance; retry later.
    Defer,
}

/// The inter-instance region directory.
#[derive(Debug, Clone, Default)]
pub struct RegionCoherence {
    regions: HashMap<Addr, Region>,
}

impl RegionCoherence {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests access for `instance` to the region at `base`.
    pub fn request(&mut self, instance: usize, base: Addr, write: bool) -> RegionGrant {
        let region = self.regions.entry(base).or_insert(Region {
            state: State::Shared(vec![]),
            inflight: HashMap::default(),
        });
        let others_inflight: usize = region
            .inflight
            .iter()
            .filter(|(i, _)| **i != instance)
            .map(|(_, n)| n)
            .sum();
        let grant = match (&mut region.state, write) {
            (State::Exclusive(owner), _) if *owner == instance => RegionGrant::Immediate,
            (State::Shared(readers), false) if readers.contains(&instance) => {
                RegionGrant::Immediate
            }
            (State::Shared(readers), false) => {
                readers.push(instance);
                RegionGrant::AfterAcquire
            }
            // Upgrades/transfers require the region to be unpinned elsewhere.
            _ if others_inflight > 0 => return RegionGrant::Defer,
            (state, true) => {
                *state = State::Exclusive(instance);
                RegionGrant::AfterAcquire
            }
            (State::Exclusive(_), false) => {
                region.state = State::Shared(vec![instance]);
                RegionGrant::AfterAcquire
            }
        };
        *region.inflight.entry(instance).or_insert(0) += 1;
        grant
    }

    /// Releases one in-flight pin (the instruction retired).
    pub fn release(&mut self, instance: usize, base: Addr) {
        if let Some(region) = self.regions.get_mut(&base) {
            if let Some(n) = region.inflight.get_mut(&instance) {
                *n = n.saturating_sub(1);
                if *n == 0 {
                    region.inflight.remove(&instance);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_instance_never_defers() {
        let mut rc = RegionCoherence::new();
        assert_eq!(rc.request(0, 0x1000, true), RegionGrant::AfterAcquire);
        assert_eq!(rc.request(0, 0x1000, true), RegionGrant::Immediate);
        assert_eq!(rc.request(0, 0x1000, false), RegionGrant::Immediate);
    }

    #[test]
    fn multiple_readers_share() {
        let mut rc = RegionCoherence::new();
        assert_eq!(rc.request(0, 0x1000, false), RegionGrant::AfterAcquire);
        assert_eq!(rc.request(1, 0x1000, false), RegionGrant::AfterAcquire);
        assert_eq!(rc.request(1, 0x1000, false), RegionGrant::Immediate);
    }

    #[test]
    fn writer_defers_while_other_pinned() {
        let mut rc = RegionCoherence::new();
        assert_eq!(rc.request(0, 0x1000, true), RegionGrant::AfterAcquire);
        // Instance 1 wants to write while instance 0 has an in-flight
        // instruction: defer.
        assert_eq!(rc.request(1, 0x1000, true), RegionGrant::Defer);
        rc.release(0, 0x1000);
        assert_eq!(rc.request(1, 0x1000, true), RegionGrant::AfterAcquire);
        // Now instance 0 must defer in turn.
        assert_eq!(rc.request(0, 0x1000, true), RegionGrant::Defer);
    }

    #[test]
    fn reader_defers_on_pinned_writer() {
        let mut rc = RegionCoherence::new();
        rc.request(0, 0x2000, true);
        assert_eq!(rc.request(1, 0x2000, false), RegionGrant::Defer);
        rc.release(0, 0x2000);
        assert_eq!(rc.request(1, 0x2000, false), RegionGrant::AfterAcquire);
    }
}
