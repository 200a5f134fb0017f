//! Facts about the host printed with every run, so figures from
//! different machines are never compared by accident.

use std::fs;

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The CPU model from `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The process's peak resident set (`VmHWM` in `/proc/self/status`), MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The reference kernel's time on the reference host (2-vCPU Xeon,
/// avx512f), seconds.
pub const REFERENCE_NOMINAL_S: f64 = 0.015;

/// Side of the reference kernel's matrix: 320² f64 is 800 KB, cache
/// resident like the simulator's thermal and eigen work.
const REFERENCE_N: usize = 320;

/// A fixed kernel owned by the benchmark, not by the program: 200 power
/// iteration steps `x ← A·x / ‖A·x‖`. On a shared host every phase of
/// the simulator slows and speeds up together over minutes; this kernel
/// drifts with them (correlation 0.7 to 0.8 with set-up, hook and
/// interval times over minutes on the reference host, which halves the
/// run-to-run spread of a fixed input), while a change to the program
/// cannot move it. Host times are reported scaled by
/// [`Reference::scale`], i.e. at the reference host's speed.
pub struct Reference {
    a: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
    samples: Vec<f64>,
}

impl Reference {
    /// The kernel's data, warmed by one untimed run.
    pub fn new() -> Self {
        let n = REFERENCE_N;
        let mut r = Reference {
            a: (0..n * n)
                .map(|k| ((k * 7919) % 1000) as f64 / 1000.0)
                .collect(),
            x: vec![1.0; n],
            y: vec![0.0; n],
            samples: Vec::new(),
        };
        r.sample();
        r.samples.clear();
        r
    }

    /// Times three back-to-back runs of the kernel.
    pub fn sample(&mut self) {
        let n = REFERENCE_N;
        for _ in 0..3 {
            let start = std::time::Instant::now();
            for _ in 0..200 {
                for i in 0..n {
                    let row = &self.a[i * n..(i + 1) * n];
                    self.y[i] = row.iter().zip(self.x.iter()).map(|(p, q)| p * q).sum();
                }
                let norm = self.y.iter().map(|v| v * v).sum::<f64>().sqrt();
                for (xi, yi) in self.x.iter_mut().zip(self.y.iter()) {
                    *xi = yi / norm;
                }
            }
            std::hint::black_box(&self.x);
            self.samples.push(start.elapsed().as_secs_f64());
        }
    }

    /// Median kernel time over the run, seconds.
    pub fn median_s(&self) -> f64 {
        crate::stats::median(&self.samples).unwrap_or(f64::NAN)
    }

    /// Factor taking a host time measured now to the reference host's
    /// speed (divide rates by it).
    pub fn scale(&self) -> f64 {
        REFERENCE_NOMINAL_S / self.median_s()
    }

    /// Prints the samples' median and the scale applied.
    pub fn print(&self) {
        println!(
            "reference kernel: median {:.3} ms over {} samples; host times scaled by {:.4} to the reference host",
            self.median_s() * 1e3,
            self.samples.len(),
            self.scale()
        );
    }
}
