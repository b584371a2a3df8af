//! The machine header printed with every result: core count, measured
//! parallelism, STREAM-triad bandwidth, last-level cache, build
//! features and commit.

use crate::report::{num, quote};
use std::hint::black_box;
use std::time::Instant;

/// Doubles per STREAM array: three arrays of 64 MiB.
const STREAM_LEN: usize = 8 << 20;

/// Dependent multiply-adds per chain in the parallelism probe.
const CHAIN_LEN: u64 = 20_000_000;

/// Measured facts about the host.
#[derive(Debug, Clone)]
pub struct Machine {
    pub nproc: usize,
    pub effective_parallelism: f64,
    pub stream_triad_gbps: f64,
    pub stream_array_mib: f64,
    pub llc_mib: f64,
    pub commit: String,
}

impl Machine {
    /// Probes the host (about a second).
    pub fn probe() -> Self {
        Machine {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            effective_parallelism: effective_parallelism(),
            stream_triad_gbps: stream_triad_gbps(),
            stream_array_mib: (STREAM_LEN * 8) as f64 / (1 << 20) as f64,
            llc_mib: llc_mib(),
            commit: commit(),
        }
    }

    /// The header as one JSON object.
    pub fn json(&self) -> String {
        // The benchmark's command builds without cargo features.
        format!(
            "{{\"nproc\": {}, \"effective_parallelism\": {}, \"stream_triad_gbps\": {}, \
             \"stream_array_mib\": {}, \"stream_arrays\": 3, \"llc_mib\": {}, \
             \"features\": [], \"commit\": {}}}",
            self.nproc,
            num(self.effective_parallelism),
            num(self.stream_triad_gbps),
            num(self.stream_array_mib),
            num(self.llc_mib),
            quote(&self.commit)
        )
    }
}

fn chain(seed: u64) -> u64 {
    let mut x = seed;
    for _ in 0..CHAIN_LEN {
        x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
    }
    x
}

/// Two dependent chains run one after the other on one thread, then
/// one per thread on two: the time ratio is the parallelism the host
/// actually delivers (2 on two free cores, about 1 on one shared core).
fn effective_parallelism() -> f64 {
    let t = Instant::now();
    black_box(chain(1) ^ chain(2));
    let serial = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::thread::scope(|s| {
        let h = s.spawn(|| chain(1));
        let other = chain(2);
        black_box(h.join().expect("probe thread panicked") ^ other);
    });
    serial / t.elapsed().as_secs_f64()
}

/// Single-thread STREAM triad `a = b + s·c`, best of five, counting 24
/// bytes per element.
fn stream_triad_gbps() -> f64 {
    let b = vec![1.5f64; STREAM_LEN];
    let c = vec![2.5f64; STREAM_LEN];
    let mut a = vec![0.0f64; STREAM_LEN];
    let mut best = f64::INFINITY;
    for rep in 0..5 {
        let s = black_box(3.0 + rep as f64);
        let t = Instant::now();
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + s * ci;
        }
        black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (3 * 8 * STREAM_LEN) as f64 / best / 1e9
}

/// Size of the highest cache level sysfs reports for cpu0, in MiB.
fn llc_mib() -> f64 {
    let mut best = 0.0f64;
    for idx in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}/size");
        let Ok(s) = std::fs::read_to_string(path) else {
            break;
        };
        let s = s.trim();
        let (digits, scale) = match s.chars().last() {
            Some('K') => (&s[..s.len() - 1], 1.0 / 1024.0),
            Some('M') => (&s[..s.len() - 1], 1.0),
            Some('G') => (&s[..s.len() - 1], 1024.0),
            _ => (s, 1.0 / (1 << 20) as f64),
        };
        if let Ok(v) = digits.parse::<f64>() {
            best = best.max(v * scale);
        }
    }
    best
}

/// The commit of the checkout (only its own `.git`, never a parent
/// repository), or "unknown" outside a git checkout.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set of this process so far, in MB (VmHWM).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}
