//! Host-speed calibration.
//!
//! On a shared host the CPU's speed can drift by up to 2x in phases of
//! seconds to minutes (other tenants on the same cores), which swamps
//! simulator changes in raw host times. Around every timed simulation
//! operation the benchmark therefore runs a fixed calibration kernel of
//! its own and scales the operation's host time by
//! `NOMINAL_KERNEL_S / kernel time`: the time the operation would have
//! taken on a host running the kernel at its nominal speed.
//!
//! The kernel is a toy issue-queue scheduler — a 96-entry queue scanned
//! for ready entries each step, a sorted ready list, a completion heap
//! and a 256 KiB table of dependence delays — so it leans on branches,
//! small sorts and L2-sized data the way the cycle-level simulator does,
//! and its speed tracks the simulator's across host speed phases far
//! better than an arithmetic loop. It shares no code with the program
//! under test, so no program change can speed it up. Raw host times are
//! printed beside the scaled ones.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Kernel time at the nominal host speed — about what the kernel takes
/// on an unloaded 2-vCPU x86 VM, so scaled times read close to raw ones
/// there. Only a unit: `scaled = raw * NOMINAL_KERNEL_S / kernel time`.
pub const NOMINAL_KERNEL_S: f64 = 0.0025;

const STEPS: u64 = 4_000;
const QUEUE: usize = 96;
const WIDTH: usize = 8;
const TABLE_WORDS: usize = 1 << 16;
/// Kernel runs per probe; the fastest is kept, so an interrupt inside
/// one run does not read as a slow host.
const REPS: usize = 2;

/// The calibration kernel's state, allocated once and reset per run so
/// a probe times the same work every time.
pub struct Kernel {
    table: Vec<u32>,
    queue: Vec<(u64, u64, bool)>,
    ready: Vec<(u64, bool)>,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    fetch: VecDeque<u64>,
}

impl Default for Kernel {
    fn default() -> Kernel {
        let mut k = Kernel {
            table: vec![0; TABLE_WORDS],
            queue: Vec::with_capacity(QUEUE),
            ready: Vec::with_capacity(QUEUE),
            heap: BinaryHeap::new(),
            fetch: VecDeque::new(),
        };
        k.run_once(); // touch every page before the first probe
        k
    }
}

impl Kernel {
    fn run_once(&mut self) -> u64 {
        self.table.fill(0);
        self.queue.clear();
        self.heap.clear();
        self.fetch.clear();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut seq = 0u64;
        let mut acc = 0u64;
        let mask = TABLE_WORDS - 1;
        for now in 0..STEPS {
            // Completions.
            while let Some(&Reverse((at, s))) = self.heap.peek() {
                if at > now {
                    break;
                }
                self.heap.pop();
                acc ^= s;
                let h = (s as usize).wrapping_mul(2_654_435_761) & mask;
                self.table[h] = self.table[h].wrapping_add(1);
            }
            // Select: ready entries, flagged ones first, then oldest.
            self.ready.clear();
            self.ready
                .extend(self.queue.iter().filter(|e| e.1 <= now).map(|e| (e.0, e.2)));
            self.ready.sort_unstable_by_key(|r| (!r.1, r.0));
            self.ready.truncate(WIDTH);
            for &(s, _) in &self.ready {
                self.heap.push(Reverse((now + 1 + s % 5, s)));
            }
            let ready = &self.ready;
            self.queue.retain(|e| !ready.iter().any(|r| r.0 == e.0));
            // Fetch and dispatch.
            for _ in 0..WIDTH {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                self.fetch.push_back(x);
                if x & 7 == 0 && self.table[(x >> 20) as usize & mask] & 1 == 1 {
                    acc = acc.wrapping_add(x);
                }
            }
            while self.queue.len() < QUEUE {
                let Some(r) = self.fetch.pop_front() else {
                    break;
                };
                let delay = u64::from(self.table[(r >> 3) as usize & mask]) % 7;
                self.queue.push((seq, now + delay, r & 3 == 0));
                seq += 1;
            }
        }
        acc
    }

    /// Seconds of the fastest of [`REPS`] kernel runs.
    pub fn probe(&mut self) -> f64 {
        (0..REPS)
            .map(|_| {
                let t = Instant::now();
                black_box(self.run_once());
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Run `op` between two probes. Returns its value, its raw host
    /// seconds and the factor that scales a host time measured inside it
    /// to the nominal host speed (`scaled = raw * factor`).
    pub fn around<T>(&mut self, op: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = self.probe();
        let t = Instant::now();
        let value = op();
        let raw_s = t.elapsed().as_secs_f64();
        let after = self.probe();
        (value, raw_s, NOMINAL_KERNEL_S / ((before + after) / 2.0))
    }
}

/// One host time, raw and scaled to the nominal host speed.
#[derive(Debug, Clone, Copy)]
pub struct Scaled {
    pub raw_s: f64,
    pub scaled_s: f64,
}

impl Scaled {
    pub fn new(raw_s: f64, speed: f64) -> Scaled {
        Scaled {
            raw_s,
            scaled_s: raw_s * speed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_not_optimized_away() {
        let mut k = Kernel::default();
        let a = k.run_once();
        assert_eq!(a, k.run_once(), "every run does the same work");
        let one = k.probe();
        let t = Instant::now();
        for _ in 0..4 {
            black_box(k.run_once());
        }
        assert!(t.elapsed().as_secs_f64() > 2.0 * one);
    }

    #[test]
    fn around_reports_value_time_and_factor() {
        let mut k = Kernel::default();
        let (v, raw, factor) = k.around(|| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            7
        });
        assert_eq!(v, 7);
        assert!(raw >= 0.005);
        assert!(factor > 0.0 && factor.is_finite());
    }
}
