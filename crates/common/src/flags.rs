//! Flags, in both senses the workspace uses the word:
//!
//! * [`FlagBoard`] — boolean completion flags for core ↔ accelerator and
//!   core ↔ core synchronization. In the paper, cores poll a scratchpad
//!   tile's *ready bit* until DX100 sets it (the `wait` API, Section 4.1).
//!   The flag board is the simulator's equivalent: workload programs
//!   allocate a flag per synchronization point, cores block on it with a
//!   `WaitFlag` op, and DX100 (or another core) sets it when the producing
//!   instruction retires.
//! * [`ServeOpts`] — the options of the serving layer (`--addr` /
//!   `--cache-dir` / `--max-jobs` / `--cache-cap-mb`), which `dx100 serve`
//!   fills from its command line.

use std::path::PathBuf;

/// Identifier of one flag on a [`FlagBoard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlagId(pub usize);

/// A growable set of boolean flags.
///
/// ```
/// use dx100_common::flags::FlagBoard;
/// let mut board = FlagBoard::new();
/// let f = board.alloc();
/// assert!(!board.get(f));
/// board.set(f);
/// assert!(board.get(f));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlagBoard {
    flags: Vec<bool>,
    /// Number of [`FlagBoard::set`] calls so far: a change tells the
    /// system glue that cores waiting on a flag may have to wake.
    sets: u64,
}

impl FlagBoard {
    /// Creates an empty board.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a new flag, initially clear.
    pub fn alloc(&mut self) -> FlagId {
        self.flags.push(false);
        FlagId(self.flags.len() - 1)
    }

    /// Reads a flag.
    ///
    /// # Panics
    /// Panics if `id` was not allocated on this board.
    pub fn get(&self, id: FlagId) -> bool {
        self.flags[id.0]
    }

    /// Sets a flag.
    ///
    /// # Panics
    /// Panics if `id` was not allocated on this board.
    pub fn set(&mut self, id: FlagId) {
        self.flags[id.0] = true;
        self.sets += 1;
    }

    /// How many times [`FlagBoard::set`] has been called.
    pub fn set_count(&self) -> u64 {
        self.sets
    }
}

/// Options of everything that hosts the simulation service (`dx100
/// serve`, the host benchmark, end-to-end tests).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOpts {
    /// Listen address (`--addr`, default `127.0.0.1:8100`). Port 0 asks
    /// the OS for an ephemeral port (tests).
    pub addr: String,
    /// Result-cache directory (`--cache-dir`, default `dx100-cache`);
    /// created on startup if absent.
    pub cache_dir: PathBuf,
    /// Simulation worker threads (`--max-jobs`, default: available
    /// parallelism). Bounds how many jobs simulate concurrently; further
    /// submissions queue.
    pub max_jobs: usize,
    /// Result-cache size cap in MiB (`--cache-cap-mb`, default 1024);
    /// least-recently-used entries (by file mtime) are evicted past it.
    pub cache_cap_mb: u64,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            addr: "127.0.0.1:8100".to_string(),
            cache_dir: PathBuf::from("dx100-cache"),
            max_jobs: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            cache_cap_mb: 1024,
        }
    }
}

impl ServeOpts {
    /// Cache cap in bytes.
    pub fn cache_cap_bytes(&self) -> u64 {
        self.cache_cap_mb.saturating_mul(1024 * 1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_set_get_round_trip() {
        let mut b = FlagBoard::new();
        let a = b.alloc();
        let c = b.alloc();
        assert_ne!(a, c);
        b.set(c);
        assert!(!b.get(a));
        assert!(b.get(c));
    }
}
