//! Flags, in both senses the workspace uses the word:
//!
//! * [`FlagBoard`] — boolean completion flags for core ↔ accelerator and
//!   core ↔ core synchronization. In the paper, cores poll a scratchpad
//!   tile's *ready bit* until DX100 sets it (the `wait` API, Section 4.1).
//!   The flag board is the simulator's equivalent: workload drivers
//!   allocate a flag per synchronization point, cores block on it with a
//!   `WaitFlag` op, and DX100 (or another core) sets it when the producing
//!   instruction retires.
//! * [`ServeOpts`] — the shared command-line options of the serving layer
//!   (`--addr` / `--cache-dir` / `--max-jobs` / `--cache-cap-mb`), parsed
//!   with the workspace's strict error discipline: unknown flags,
//!   duplicate flags, and missing values are hard errors, because a typo'd
//!   option silently falling back to a default is worse on a long-running
//!   daemon than on a one-shot figure binary.

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

    /// Clears a flag (tile reuse across loop iterations).
    ///
    /// # Panics
    /// Panics if `id` was not allocated on this board.
    pub fn clear(&mut self, id: FlagId) {
        self.flags[id.0] = false;
    }

    /// Number of allocated flags.
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// Whether no flags have been allocated.
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }
}

/// Command-line options shared by everything that hosts the simulation
/// service (the `serve` daemon, CI smoke harnesses).
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
    /// One-line usage string for error paths.
    pub const USAGE: &'static str =
        "usage: [--addr <host:port>] [--cache-dir <path>] [--max-jobs <n>] [--cache-cap-mb <n>]";

    /// Parses the process arguments; prints the problem and exits
    /// non-zero on anything malformed.
    pub fn parse() -> ServeOpts {
        match Self::try_parse(std::env::args().skip(1)) {
            Ok(opts) => opts,
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!("{}", Self::USAGE);
                std::process::exit(2);
            }
        }
    }

    /// Fallible parser over an explicit argument list (testable).
    ///
    /// Strictness contract: unknown flags, repeated flags, missing values,
    /// and unparsable values are all errors naming the offending flag.
    pub fn try_parse(args: impl IntoIterator<Item = String>) -> Result<ServeOpts, String> {
        let mut out = ServeOpts::default();
        let mut seen: Vec<&'static str> = Vec::new();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut take = |flag: &'static str| -> Result<String, String> {
                if seen.contains(&flag) {
                    return Err(format!("duplicate flag {flag}"));
                }
                seen.push(flag);
                it.next().ok_or_else(|| format!("{flag} requires a value"))
            };
            match arg.as_str() {
                "--addr" => {
                    let v = take("--addr")?;
                    if v.is_empty() || !v.contains(':') {
                        return Err(format!("invalid --addr value `{v}` (want host:port)"));
                    }
                    out.addr = v;
                }
                "--cache-dir" => {
                    let v = take("--cache-dir")?;
                    if v.is_empty() {
                        return Err("invalid --cache-dir value `` (empty path)".to_string());
                    }
                    out.cache_dir = PathBuf::from(v);
                }
                "--max-jobs" => {
                    let v = take("--max-jobs")?;
                    out.max_jobs = v
                        .parse::<usize>()
                        .ok()
                        .filter(|n| *n > 0)
                        .ok_or_else(|| format!("invalid --max-jobs value `{v}`"))?;
                }
                "--cache-cap-mb" => {
                    let v = take("--cache-cap-mb")?;
                    out.cache_cap_mb = v
                        .parse::<u64>()
                        .ok()
                        .filter(|n| *n > 0)
                        .ok_or_else(|| format!("invalid --cache-cap-mb value `{v}`"))?;
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(out)
    }

    /// Cache cap in bytes.
    pub fn cache_cap_bytes(&self) -> u64 {
        self.cache_cap_mb.saturating_mul(1024 * 1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_set_clear_round_trip() {
        let mut b = FlagBoard::new();
        assert!(b.is_empty());
        let a = b.alloc();
        let c = b.alloc();
        assert_eq!(b.len(), 2);
        b.set(c);
        assert!(!b.get(a));
        assert!(b.get(c));
        b.clear(c);
        assert!(!b.get(c));
    }

    fn parse(args: &[&str]) -> Result<ServeOpts, String> {
        ServeOpts::try_parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn serve_opts_parse_all_flags() {
        let opts = parse(&[
            "--addr",
            "0.0.0.0:9000",
            "--cache-dir",
            "/tmp/c",
            "--max-jobs",
            "3",
            "--cache-cap-mb",
            "64",
        ])
        .unwrap();
        assert_eq!(opts.addr, "0.0.0.0:9000");
        assert_eq!(opts.cache_dir, PathBuf::from("/tmp/c"));
        assert_eq!(opts.max_jobs, 3);
        assert_eq!(opts.cache_cap_mb, 64);
        assert_eq!(opts.cache_cap_bytes(), 64 * 1024 * 1024);
    }

    #[test]
    fn serve_opts_defaults() {
        let opts = parse(&[]).unwrap();
        assert_eq!(opts, ServeOpts::default());
        assert_eq!(opts.addr, "127.0.0.1:8100");
        assert!(opts.max_jobs >= 1);
    }

    #[test]
    fn serve_opts_rejects_duplicates() {
        let err = parse(&["--addr", "a:1", "--addr", "b:2"]).unwrap_err();
        assert!(err.contains("duplicate flag --addr"), "{err}");
        let err = parse(&["--max-jobs", "2", "--max-jobs", "4"]).unwrap_err();
        assert!(err.contains("duplicate flag --max-jobs"), "{err}");
    }

    #[test]
    fn serve_opts_rejects_missing_values() {
        for flag in ["--addr", "--cache-dir", "--max-jobs", "--cache-cap-mb"] {
            let err = parse(&[flag]).unwrap_err();
            assert!(err.contains("requires a value"), "{flag}: {err}");
            assert!(err.contains(flag), "{flag}: {err}");
        }
    }

    #[test]
    fn serve_opts_rejects_unknown_and_malformed() {
        assert!(parse(&["--port", "80"]).unwrap_err().contains("--port"));
        assert!(parse(&["serve"]).unwrap_err().contains("unknown"));
        assert!(parse(&["--addr", "noport"]).is_err());
        assert!(parse(&["--addr", ""]).is_err());
        assert!(parse(&["--cache-dir", ""]).is_err());
        assert!(parse(&["--max-jobs", "0"]).is_err());
        assert!(parse(&["--max-jobs", "lots"]).is_err());
        assert!(parse(&["--cache-cap-mb", "0"]).is_err());
        assert!(parse(&["--cache-cap-mb", "-5"]).is_err());
    }

    #[test]
    fn serve_opts_value_can_look_like_a_flag_value_error() {
        // `--max-jobs --addr` consumes `--addr` as the (invalid) value —
        // strictness means an error, not silently treating it as a flag.
        assert!(parse(&["--max-jobs", "--addr"]).is_err());
    }
}
