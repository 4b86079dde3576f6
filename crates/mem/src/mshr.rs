//! Miss Status Holding Registers: track outstanding misses, coalesce
//! same-line requests, and bound memory-level parallelism.

use dx100_common::LineAddr;

use crate::Access;

/// Outcome of registering a miss with the MSHR file.
#[derive(Debug, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new entry was allocated; the miss must be forwarded downstream.
    Allocated,
    /// Coalesced into an existing entry for the same line; no new
    /// downstream request is needed.
    Coalesced,
    /// All MSHRs are busy; the access must retry later. This is the
    /// structural MLP limit the paper highlights.
    Full,
}

/// A file of MSHRs for one cache level.
///
/// Backed by a small vector sorted by [`LineAddr`], not a hash map: a file
/// holds at most a few dozen registers (Table 3 sizes), so binary search
/// over one contiguous allocation beats hashing every probe on the miss
/// path — no per-lookup hash, no rehash growth, and the order of any
/// future iteration is fixed by construction rather than by hasher state.
#[derive(Clone, Debug)]
pub struct MshrFile {
    capacity: usize,
    /// `(line, waiters)` pairs, sorted by line; at most `capacity` long.
    entries: Vec<(LineAddr, Vec<Access>)>,
    /// Emptied waiter lists of completed entries, reused by the next
    /// allocations so a warm file allocates nothing per miss.
    spare: Vec<Vec<Access>>,
}

impl MshrFile {
    /// Creates a file with `capacity` registers.
    pub fn new(capacity: usize) -> Self {
        MshrFile {
            capacity,
            entries: Vec::with_capacity(capacity),
            spare: Vec::new(),
        }
    }

    fn position(&self, line: LineAddr) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&line, |(l, _)| *l)
    }

    /// Registers a missing `access`. See [`MshrOutcome`].
    pub fn register(&mut self, access: Access) -> MshrOutcome {
        match self.position(access.line) {
            Ok(i) => {
                self.entries[i].1.push(access);
                MshrOutcome::Coalesced
            }
            Err(_) if self.entries.len() >= self.capacity => MshrOutcome::Full,
            Err(i) => {
                let mut waiters = self.spare.pop().unwrap_or_default();
                waiters.push(access);
                self.entries.insert(i, (access.line, waiters));
                MshrOutcome::Allocated
            }
        }
    }

    /// Releases the entry for `line`, appending every coalesced waiter to
    /// `out` in arrival order. Appends nothing if no entry existed (e.g. an
    /// unsolicited fill).
    pub fn complete(&mut self, line: LineAddr, out: &mut Vec<Access>) {
        if let Ok(i) = self.position(line) {
            let (_, mut waiters) = self.entries.remove(i);
            out.append(&mut waiters);
            self.spare.push(waiters);
        }
    }

    /// Whether a miss for `line` is already outstanding.
    pub fn is_pending(&self, line: LineAddr) -> bool {
        self.position(line).is_ok()
    }

    /// Number of allocated registers.
    pub fn in_use(&self) -> usize {
        self.entries.len()
    }

    /// Whether no registers are allocated.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total register count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Requester;

    fn acc(id: u64, line: u64) -> Access {
        Access::load(id, LineAddr(line), 0, Requester::Core(0))
    }

    #[test]
    fn allocate_then_coalesce() {
        let mut m = MshrFile::new(2);
        assert_eq!(m.register(acc(1, 10)), MshrOutcome::Allocated);
        assert_eq!(m.register(acc(2, 10)), MshrOutcome::Coalesced);
        assert_eq!(m.in_use(), 1);
        let mut waiters = Vec::new();
        m.complete(LineAddr(10), &mut waiters);
        assert_eq!(waiters.iter().map(|a| a.id).collect::<Vec<_>>(), [1, 2]);
        assert!(m.is_empty());
        // The emptied list is reused by the next allocation.
        assert_eq!(m.register(acc(3, 20)), MshrOutcome::Allocated);
        assert!(m.spare.is_empty());
    }

    #[test]
    fn capacity_enforced() {
        let mut m = MshrFile::new(1);
        assert_eq!(m.register(acc(1, 10)), MshrOutcome::Allocated);
        assert_eq!(m.register(acc(2, 20)), MshrOutcome::Full);
        // Same line still coalesces even at capacity.
        assert_eq!(m.register(acc(3, 10)), MshrOutcome::Coalesced);
    }

    #[test]
    fn complete_unknown_line_is_empty() {
        let mut m = MshrFile::new(1);
        let mut waiters = Vec::new();
        m.complete(LineAddr(99), &mut waiters);
        assert!(waiters.is_empty());
    }

    #[test]
    fn pending_query() {
        let mut m = MshrFile::new(4);
        assert!(!m.is_pending(LineAddr(3)));
        m.register(acc(1, 3));
        assert!(m.is_pending(LineAddr(3)));
    }

    #[test]
    fn entries_stay_sorted_across_churn() {
        let mut m = MshrFile::new(8);
        for line in [50u64, 10, 90, 30, 70, 20, 60, 40] {
            assert_eq!(m.register(acc(line, line)), MshrOutcome::Allocated);
        }
        assert_eq!(m.register(acc(99, 99)), MshrOutcome::Full);
        let mut waiters = Vec::new();
        m.complete(LineAddr(30), &mut waiters);
        assert_eq!(waiters.len(), 1);
        assert_eq!(m.register(acc(5, 5)), MshrOutcome::Allocated);
        let lines: Vec<u64> = m.entries.iter().map(|(l, _)| l.0).collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
        assert!(m.is_pending(LineAddr(5)));
        assert!(!m.is_pending(LineAddr(30)));
    }
}
