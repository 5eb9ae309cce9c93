//! Machine-speed calibration.
//!
//! On a shared machine the same binary's speed drifts by up to 1.7× within
//! minutes as neighbours contend for caches, memory bandwidth and cores
//! (the IMDB set-up went from 2.6 s to 5.0 s over ten consecutive runs). So
//! a fixed calibration loop, owned by the benchmark, is timed right before
//! and after every measured interval, and the interval is scaled by
//! `REFERENCE_S / mean(before, after)`. Library changes cannot move the
//! loop, so a faster library still shows as faster.
//!
//! The loop spends about equal time on three kinds of work the pipeline
//! does: a pointer chase through 32 MiB with a dependent integer/float
//! chain (memory latency), sorting (branchy comparisons) and small-vector
//! allocation churn. In six experiments of 30–40 alternating calibrations
//! and runs (reference cell, IMDB cell, execution cell), run times spread
//! 4–23% (interquartile range over median). Scaled by an equal mix of the
//! three, timed as separate kernels, they spread 3–10%; scaled by the
//! chase and chain alone, 8–17%. The best other weighting found did 9.5%
//! in the worst experiment, against the equal mix's 9.9%.

use std::hint::black_box;
use std::time::Instant;

/// The calibration loop's time on the 2-vCPU machine the ledger was made
/// on, when lightly loaded: scaled times read as seconds there.
pub const REFERENCE_S: f64 = 0.24;

/// Slots of the pointer-chasing ring: 32 MiB of `u32`. Also the sort
/// buffer, so the loop allocates nothing between 128 KiB and 32 MiB, which
/// would move glibc's dynamic mmap threshold under the measured code.
const RING: u32 = 1 << 23;
const CHASE_STEPS: usize = 1 << 19;
const CHAIN_STEPS: u64 = 1 << 23;
const SORT_LEN: usize = 1 << 20;
const SORTS: usize = 3;
const CHURN_STEPS: u64 = 3 << 19;

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *x >> 11
}

/// Time one pass of the calibration loop, in seconds.
pub fn calibration_s() -> f64 {
    // slot → a·slot + c mod 2^23 is a full-period LCG (a ≡ 1 mod 4, c odd):
    // one cycle through every slot in an order no prefetcher follows.
    let mut ring: Vec<u32> = (0..RING)
        .map(|i| i.wrapping_mul(1_664_525).wrapping_add(1_013_904_223) % RING)
        .collect();
    let start = Instant::now();
    let mut slot = 0u32;
    for _ in 0..CHASE_STEPS {
        slot = ring[slot as usize];
    }
    let (mut x, mut acc) = (1u64, 0.0f64);
    for i in 0..CHAIN_STEPS {
        acc += lcg(&mut x) as f64 * 1e-16 * (i & 7) as f64;
    }
    for _ in 0..SORTS {
        let keys = &mut ring[..SORT_LEN];
        keys.iter_mut().for_each(|k| *k = lcg(&mut x) as u32);
        keys.sort_unstable();
        black_box(&keys[SORT_LEN / 2]);
    }
    let mut live: Vec<Vec<f64>> = Vec::with_capacity(256);
    for i in 0..CHURN_STEPS {
        let n = 4 + (lcg(&mut x) % 24) as usize;
        let v: Vec<f64> = (0..n).map(|j| (i + j as u64) as f64).collect();
        acc += v[n / 2];
        if live.len() == live.capacity() {
            live.clear();
        }
        live.push(v);
    }
    black_box((slot, acc));
    start.elapsed().as_secs_f64()
}

/// Scales measured intervals to reference seconds, reusing each
/// calibration as the "before" sample of the next interval.
#[derive(Debug)]
pub struct Clock {
    /// Whether to calibrate at all; without, intervals stay raw seconds.
    enabled: bool,
    last: Option<f64>,
    /// Every calibration taken, seconds.
    pub samples: Vec<f64>,
}

impl Clock {
    pub fn new(enabled: bool) -> Clock {
        Clock {
            enabled,
            last: None,
            samples: Vec::new(),
        }
    }

    fn calibrate(&mut self) -> f64 {
        let sample = calibration_s();
        self.samples.push(sample);
        self.last = Some(sample);
        sample
    }

    /// Calibrate now unless the last calibration directly precedes the
    /// interval about to start.
    pub fn begin(&mut self) {
        if self.enabled && self.last.is_none() {
            self.calibrate();
        }
    }

    /// Close an interval of `raw` seconds opened by `begin`: calibrate
    /// again and return the interval in reference seconds.
    pub fn end(&mut self, raw: f64) -> f64 {
        if !self.enabled {
            return raw;
        }
        let before = self.last.expect("Clock::begin precedes Clock::end");
        let after = self.calibrate();
        raw * REFERENCE_S / ((before + after) / 2.0)
    }

    /// Forget the last calibration: unmeasured work happened since.
    pub fn invalidate(&mut self) {
        self.last = None;
    }
}
