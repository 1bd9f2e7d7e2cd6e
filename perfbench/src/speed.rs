//! Host speed index.
//!
//! The benchmark runs on a few cores of a shared host whose speed moves
//! with its neighbours' load (time slices taken by other machines, clock
//! boost, shared caches and hyperthread siblings): the same fixed work can
//! take 10–20 % longer in one minute than in the next, and twice as long
//! while something else runs beside it. To keep that out of the end-to-end
//! numbers, every window pauses before each of its operations and after
//! the last to time a fixed kernel owned by the benchmark on every worker
//! at once. The index over an operation is the median kernel time of the
//! pauses on either side of it divided by [`NOMINAL_S`], so it reads above
//! 1 on a host slower than nominal; the operation's time divided by it is
//! its time at the nominal host speed, and the end-to-end metrics are
//! computed from those. The record keeps the wall-clock metrics and the
//! window's index beside them. The kernel is not the program's code, so a
//! change to the program never moves the index.

use crate::util::{secs, Samples};
use std::sync::Mutex;
use std::time::Instant;

/// The kernel's time on each of two workers of a quiet 2-vCPU Xeon host.
pub const NOMINAL_S: f64 = 0.020;

/// Kernel timings of one window, one group per pause.
#[derive(Debug, Default, Clone)]
pub struct HostSpeed {
    pauses: Vec<Samples>,
}

impl HostSpeed {
    /// One pause: times the kernel `reps` times on `threads` threads at
    /// once, keeping each round's mean thread time.
    pub fn pause(&mut self, threads: usize, reps: usize) {
        let mut group = Samples::default();
        for _ in 0..reps {
            group.push(kernel_round(threads));
        }
        self.pauses.push(group);
    }

    /// The index over the window's operation `k`, which ran between pause
    /// `k` and pause `k + 1`.
    pub fn around(&self, k: usize) -> f64 {
        let mut both = Samples::default();
        for group in self.pauses.iter().skip(k).take(2) {
            both.extend(group);
        }
        both.median() / NOMINAL_S
    }

    /// `walls[k]` of operation `k` at the nominal host speed.
    pub fn nominal(&self, walls: &Samples) -> Samples {
        walls
            .iter()
            .enumerate()
            .map(|(k, wall)| wall / self.around(k))
            .collect()
    }

    fn all(&self) -> Samples {
        let mut all = Samples::default();
        for group in &self.pauses {
            all.extend(group);
        }
        all
    }

    /// The index over the whole window.
    pub fn index(&self) -> f64 {
        self.all().median() / NOMINAL_S
    }

    pub fn samples(&self) -> usize {
        self.all().len()
    }

    /// Spread of the window's kernel timings, (Q3 − Q1) / median.
    pub fn spread(&self) -> f64 {
        let all = self.all();
        (all.quantile(0.75) - all.quantile(0.25)) / all.median()
    }
}

/// The kernel's buffers, one set per thread, allocated once for the
/// process (by [`prepare`], before any window) so that timing the kernel
/// never raises the peak resident set size a window reports.
struct Buffers {
    a: Vec<f32>,
    b: Vec<f32>,
    table: Vec<u32>,
}

const N: usize = 8 * 1024;
const TABLE: usize = 64 * 1024;

impl Buffers {
    /// Filled at once, so every page is resident before any window.
    fn new() -> Buffers {
        let mut buffers = Buffers {
            a: vec![0.0; N],
            b: vec![0.0; N],
            table: vec![0; TABLE],
        };
        buffers.fill();
        buffers
    }

    /// Puts the kernel's starting values in place, so every timing does
    /// the same work.
    fn fill(&mut self) {
        for (i, (a, b)) in self.a.iter_mut().zip(&mut self.b).enumerate() {
            *a = (i % 97) as f32 * 0.01;
            *b = (i % 89) as f32 * 0.02;
        }
        for (i, t) in self.table.iter_mut().enumerate() {
            *t = (i as u32).wrapping_mul(2_654_435_761);
        }
    }
}

static BUFFERS: Mutex<Vec<Buffers>> = Mutex::new(Vec::new());

/// Allocates the kernel's buffers for `threads` threads.
pub fn prepare(threads: usize) {
    let mut pool = BUFFERS.lock().expect("kernel buffers");
    while pool.len() < threads {
        pool.push(Buffers::new());
    }
}

/// Mean compute time of the kernel on `threads` threads at once.
fn kernel_round(threads: usize) -> f64 {
    prepare(threads);
    let mut pool = BUFFERS.lock().expect("kernel buffers");
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = pool
            .iter_mut()
            .take(threads)
            .enumerate()
            .map(|(k, buffers)| s.spawn(move || kernel(k as u64, buffers)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("kernel thread"))
            .collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}

/// Fixed work of the kinds the program does most, in equal shares: a
/// lane-batched float multiply-accumulate over cache-resident vectors (the
/// NN and camera kernels), a dependent chain of square roots and divisions
/// (the geometry), and data-dependent branches over a 256 KB table (the
/// simulation's and codecs' branchy code). Returns the seconds of the
/// compute, buffers already filled.
fn kernel(salt: u64, buffers: &mut Buffers) -> f64 {
    const ROUNDS: usize = 650;
    buffers.fill();
    let Buffers { a, b, table } = buffers;
    let mut acc = 0.0f64;
    let mut x = salt.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut v = 1.0 + salt as f64;
    let t = Instant::now();
    for round in 0..ROUNDS {
        let mut lanes = [0.0f32; 8];
        for (ca, cb) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
            for l in 0..8 {
                lanes[l] += ca[l] * cb[l];
            }
        }
        acc += lanes.iter().sum::<f32>() as f64;
        b[round % N] += 1.0;
        for _ in 0..400 {
            v = (v * v + 2.5).sqrt() / (1.0 + v * 0.25) + 1.0;
        }
        for _ in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) % TABLE;
            if table[i] & 1 == 0 {
                table[i] = table[i].wrapping_add(x as u32);
            } else {
                acc += 1.0;
            }
        }
    }
    std::hint::black_box(acc + v);
    secs(t)
}
