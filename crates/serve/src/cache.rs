//! The content-addressed on-disk result cache.
//!
//! One file per distinct job config, named by its cache key
//! (`<cache-dir>/<16-hex>.json`) and holding the exact report bytes the
//! first run produced. Simulation is deterministic for a given build, and
//! the key folds in a fingerprint of the build's simulator sources, so
//! those bytes are *the* answer for that config — not an approximation —
//! and a hit is an O(1) file read serving a byte-identical body, however
//! long ago and on however many threads the original simulation ran.
//!
//! Eviction is size-capped LRU by file mtime: a hit touches the file's
//! mtime, and when the cache grows past its cap after a write, the
//! oldest-mtime entries are removed until it fits. Eviction only ever
//! costs a future re-simulation; it can never produce a wrong answer.

use std::fs::{self, File, FileTimes};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::SystemTime;

/// A content-addressed, size-capped result cache rooted at one directory.
pub struct ResultCache {
    dir: PathBuf,
    cap_bytes: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Serializes put + evict so concurrent writers can't race the size
    /// accounting. Reads (`get`) stay lock-free.
    write_lock: Mutex<()>,
}

impl ResultCache {
    /// Opens (creating if needed) the cache at `dir` with a size cap.
    pub fn open(dir: impl Into<PathBuf>, cap_bytes: u64) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ResultCache {
            dir,
            cap_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            write_lock: Mutex::new(()),
        })
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file a key lives at. Keys are validated to be exactly the
    /// fixed-width hex form so a hostile key can't traverse paths.
    fn path_for(&self, key: &str) -> io::Result<PathBuf> {
        if key.len() != 16
            || !key
                .bytes()
                .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("malformed cache key `{key}`"),
            ));
        }
        Ok(self.dir.join(format!("{key}.json")))
    }

    /// Looks `key` up: the O(1) hit path. An entry whose body does not
    /// contain `needle`, the text that identifies the request (a job
    /// report's `spec` block), belongs to another request under a
    /// colliding key and is a miss. Touches a hit's mtime so LRU eviction
    /// sees the use.
    pub fn get(&self, key: &str, needle: &str) -> Option<String> {
        let path = self.path_for(key).ok()?;
        match fs::read_to_string(&path) {
            Ok(body) if body.contains(needle) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                // Best-effort touch; a failed touch only ages the entry.
                if let Ok(f) = File::options().write(true).open(&path) {
                    let _ = f.set_times(FileTimes::new().set_modified(SystemTime::now()));
                }
                Some(body)
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores `body` under `key` (atomically: temp file + rename, so a
    /// concurrent `get` sees either nothing or the whole body), then
    /// evicts oldest entries if the cache outgrew its cap.
    pub fn put(&self, key: &str, body: &str) -> io::Result<()> {
        let path = self.path_for(key)?;
        let _guard = self.write_lock.lock().unwrap();
        let tmp = self.dir.join(format!(".{key}.tmp"));
        fs::write(&tmp, body)?;
        fs::rename(&tmp, &path)?;
        self.evict_past_cap(&path)?;
        Ok(())
    }

    /// Removes oldest-mtime entries until total size fits the cap.
    /// `just_written` is never evicted — a cache that cannot hold its
    /// newest entry would turn every request into a miss.
    fn evict_past_cap(&self, just_written: &Path) -> io::Result<()> {
        let mut entries: Vec<(SystemTime, u64, PathBuf)> = Vec::new();
        let mut total: u64 = 0;
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let meta = entry.metadata()?;
            total += meta.len();
            let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            entries.push((mtime, meta.len(), path));
        }
        if total <= self.cap_bytes {
            return Ok(());
        }
        entries.sort(); // oldest mtime first (PathBuf tie-break keeps it total)
        for (_, len, path) in entries {
            if total <= self.cap_bytes {
                break;
            }
            if path == just_written {
                continue;
            }
            fs::remove_file(&path)?;
            total -= len;
        }
        Ok(())
    }

    /// Entry count and total bytes currently on disk (scans the dir).
    pub fn usage(&self) -> io::Result<(usize, u64)> {
        let mut count = 0;
        let mut bytes = 0;
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.path().extension().and_then(|e| e.to_str()) == Some("json") {
                count += 1;
                bytes += entry.metadata()?.len();
            }
        }
        Ok((count, bytes))
    }

    /// Lifetime (hit, miss) counters for this process.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx100_common::hash::hex16;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dx100-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn miss_then_hit_round_trip() {
        let cache = ResultCache::open(tmpdir("roundtrip"), 1 << 20).unwrap();
        let key = hex16(0xabc);
        assert_eq!(cache.get(&key, ""), None);
        cache.put(&key, "{\"report\":1}\n").unwrap();
        assert_eq!(cache.get(&key, "1").as_deref(), Some("{\"report\":1}\n"));
        // Another request's body under the same key is a miss.
        assert_eq!(cache.get(&key, "2"), None);
        assert_eq!(cache.counters(), (1, 2));
        // Byte-identity across a second open (a daemon restart).
        let reopened = ResultCache::open(cache.dir(), 1 << 20).unwrap();
        assert_eq!(reopened.get(&key, "").as_deref(), Some("{\"report\":1}\n"));
    }

    #[test]
    fn rejects_malformed_keys() {
        let cache = ResultCache::open(tmpdir("badkey"), 1 << 20).unwrap();
        for bad in [
            "",
            "short",
            "../../../../etc/passwd",
            "ABCDEF0123456789",
            "zzzzzzzzzzzzzzzz",
        ] {
            assert!(cache.put(bad, "x").is_err(), "{bad}");
            assert_eq!(cache.get(bad, ""), None, "{bad}");
        }
    }

    #[test]
    fn evicts_least_recently_used_past_the_cap() {
        // Cap fits two ~40-byte entries, not three.
        let cache = ResultCache::open(tmpdir("lru"), 100).unwrap();
        let body = "x".repeat(40);
        let (k1, k2, k3) = (hex16(1), hex16(2), hex16(3));
        cache.put(&k1, &body).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        cache.put(&k2, &body).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        // Touch k1 so k2 becomes the LRU entry.
        assert!(cache.get(&k1, "").is_some());
        std::thread::sleep(std::time::Duration::from_millis(20));
        cache.put(&k3, &body).unwrap();
        assert!(cache.get(&k1, "").is_some(), "recently used entry survived");
        assert!(cache.get(&k3, "").is_some(), "newest entry survived");
        assert_eq!(cache.get(&k2, ""), None, "LRU entry was evicted");
        let (count, bytes) = cache.usage().unwrap();
        assert_eq!(count, 2);
        assert!(bytes <= 100);
    }

    #[test]
    fn newest_entry_survives_even_when_larger_than_cap() {
        let cache = ResultCache::open(tmpdir("bigentry"), 10).unwrap();
        let key = hex16(9);
        cache.put(&key, &"y".repeat(64)).unwrap();
        assert!(cache.get(&key, "").is_some());
    }
}
