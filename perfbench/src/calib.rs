//! Host speed, read from a fixed reference loop.
//!
//! Other tenants of a shared machine slow it down in phases that last
//! from seconds to many minutes, longer than a run. The slowdown is in the
//! memory system: on a 2-vCPU virtual machine a 100 ms simulation job ran
//! 60% slower in such phases while a plain ALU loop slowed by under 10%.
//! Of several loops tried (ALU, random reads and dependent chases over
//! 16 MB to 128 MB, hash-map lookups), the one that tracked the simulator
//! best is a small cache simulator of its own: three levels of LRU tags
//! over a few MB, as the simulator's caches are. Over 20 windows of 15 s
//! its slowdown followed the simulator's with a log-log slope of 1.03, and
//! dividing by it cut the window-to-window spread of a simulation job
//! from 0.21 to 0.07.
//!
//! The loop is the benchmark's own code: a change to the simulator cannot
//! move it. A run times it between ops, every [`PERIOD_S`] or so, and keeps
//! its fastest time; host times are then scaled by [`REF_S`] over that
//! time, so they read as seconds on a host running the loop in [`REF_S`].

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hash::DefaultHasher;
use std::hint::black_box;
use std::time::Instant;

/// The loop's time in a quiet phase of the 2-vCPU virtual machine the
/// benchmark was tuned on.
pub const REF_S: f64 = 0.052;

/// Accesses per timed loop.
const ACCESSES: usize = 400_000;
/// Host seconds from one timed loop to the next.
const PERIOD_S: f64 = 0.4;

/// One level of LRU tags.
struct Level {
    sets: usize,
    ways: usize,
    tags: Vec<u64>,
    age: Vec<u32>,
    now: u32,
}

impl Level {
    fn new(bytes: usize, ways: usize) -> Self {
        let sets = bytes / 64 / ways;
        Level {
            sets,
            ways,
            tags: vec![u64::MAX; sets * ways],
            age: vec![0; sets * ways],
            now: 0,
        }
    }

    fn reset(&mut self) {
        self.tags.fill(u64::MAX);
        self.age.fill(0);
        self.now = 0;
    }

    /// Whether `line` hit; on a miss it replaces the set's oldest way.
    fn access(&mut self, line: u64) -> bool {
        self.now += 1;
        let base = (line as usize % self.sets) * self.ways;
        let set = base..base + self.ways;
        if let Some(w) = self.tags[set.clone()].iter().position(|&t| t == line) {
            self.age[base + w] = self.now;
            return true;
        }
        let (victim, _) = self.age[set]
            .iter()
            .enumerate()
            .min_by_key(|(_, a)| **a)
            .expect("a set has ways");
        self.tags[base + victim] = line;
        self.age[base + victim] = self.now;
        false
    }
}

/// The reference loop's state, allocated once per run so that timing it
/// measures no page faults.
pub struct Calibration {
    levels: [Level; 3],
    /// Targets of the indirect accesses.
    index: Vec<u32>,
    /// Misses per DRAM page; a fixed hasher keeps every run's work equal.
    pages: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    /// Seconds per loop, every loop of the run.
    samples: Vec<f64>,
    /// When the last loop ended.
    last: Option<Instant>,
}

impl Default for Calibration {
    fn default() -> Self {
        let mut rng = crate::Rng::new(9);
        Calibration {
            levels: [
                Level::new(48 << 10, 12),
                Level::new(2 << 20, 16),
                Level::new(16 << 20, 16),
            ],
            index: (0..1 << 20)
                .map(|_| (rng.next_u64() % (1 << 22)) as u32)
                .collect(),
            pages: HashMap::default(),
            samples: Vec::new(),
            last: None,
        }
    }
}

impl Calibration {
    /// One loop: half streaming, half indirect accesses through the tags;
    /// returns the misses and pages touched, which are the same every time.
    fn run_once(&mut self) -> u64 {
        for l in &mut self.levels {
            l.reset();
        }
        self.pages.clear();
        let mut rng = crate::Rng::new(3);
        let mut misses = 0;
        for i in 0..ACCESSES {
            let addr = if i % 2 == 0 {
                i as u64 * 8
            } else {
                self.index[rng.next_u64() as usize % self.index.len()] as u64 * 64
            };
            let line = addr >> 6;
            if !self.levels.iter_mut().any(|l| l.access(line)) {
                misses += 1;
                *self.pages.entry(line >> 7).or_insert(0) += 1;
            }
        }
        misses + self.pages.len() as u64
    }

    /// Times the loop if [`PERIOD_S`] has passed since it last ran. Called
    /// between ops, so the loop samples the host all through the run, as
    /// the ops do.
    pub fn tick(&mut self) {
        if self
            .last
            .is_some_and(|t| t.elapsed().as_secs_f64() < PERIOD_S)
        {
            return;
        }
        let t = Instant::now();
        black_box(self.run_once());
        self.samples.push(t.elapsed().as_secs_f64());
        self.last = Some(Instant::now());
    }

    /// The loop's fastest time so far.
    pub fn fastest_s(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Factor that turns a host time of this run into reference seconds.
    pub fn scale(&self) -> f64 {
        REF_S / self.fastest_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_loop_does_the_same_work_every_time() {
        let mut c = Calibration::default();
        let first = c.run_once();
        assert_eq!(first, c.run_once());
        assert!(first > 0);
    }

    #[test]
    fn lru_evicts_the_oldest_way() {
        // One set of two ways.
        let mut l = Level::new(128, 2);
        assert_eq!(l.sets, 1);
        assert!(!l.access(1) && !l.access(2));
        assert!(l.access(1));
        assert!(!l.access(3)); // evicts 2, the older
        assert!(l.access(1) && !l.access(2));
    }
}
