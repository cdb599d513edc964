//! Small numeric helpers: order statistics, the outcome digest, and the
//! process's peak resident set.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by nearest rank on a sorted
/// copy; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The arithmetic mean of `values` (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// FNV-1a over `text`: the `sim_digest` of a simulated outcome is this hash
/// of its `Debug` rendering, which prints every field and every `f64` with
/// round-trip precision, so two outcomes share a digest only if they agree
/// bit for bit (up to hash collisions).
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Peak resident set of this process in MiB (`VmHWM` of
/// `/proc/self/status`), or `None` where the kernel does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Host-speed sampler. The host's speed drifts by tens of percent over
/// seconds to minutes, and every workload slows with it. Between steps,
/// after every [`HostSpeed::EVERY_NS`] of measured work, this runs a fixed
/// compute loop over an L1-resident table and times it, so the run's
/// throughput can be scaled to a host of fixed speed. The loop is the
/// benchmark's own code: a change to the simulator never changes it.
pub struct HostSpeed {
    table: Vec<f64>,
    state: u64,
    pending_ns: f64,
    /// Host ns spent in the loop.
    pub ns: f64,
    /// Loop iterations run.
    pub iterations: f64,
}

impl HostSpeed {
    /// Measured work between two samples, ns.
    const EVERY_NS: f64 = 4.0e6;
    /// Loop iterations per sample (about 0.2 ms, about 5% of the run).
    const SAMPLE: u32 = 10_000;
    /// The reference speed, iterations per µs: roughly the speed of the
    /// 2-vCPU host the bounds were set on, so scaled figures stay close to
    /// raw ones there.
    pub const REFERENCE: f64 = 55.0;

    /// A sampler with nothing sampled yet.
    pub fn new() -> Self {
        HostSpeed {
            table: (0..2048).map(|i| f64::from(i + 1).ln()).collect(),
            state: 0x9E37_79B9_7F4A_7C15,
            pending_ns: 0.0,
            ns: 0.0,
            iterations: 0.0,
        }
    }

    /// Records `work_ns` of measured work, sampling when enough has passed.
    pub fn after(&mut self, work_ns: f64) {
        self.pending_ns += work_ns;
        if self.pending_ns < Self::EVERY_NS {
            return;
        }
        self.pending_ns = 0.0;
        let t = std::time::Instant::now();
        let mut x = self.state;
        let mut acc = 0.0;
        for _ in 0..Self::SAMPLE {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let u = (x >> 11) as f64 / (1u64 << 53) as f64;
            acc += self.table[(x as usize) & 2047] * (u + 0.5).ln().abs().sqrt();
        }
        std::hint::black_box(acc);
        self.state = x;
        self.ns += t.elapsed().as_nanos() as f64;
        self.iterations += f64::from(Self::SAMPLE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(mean(&v), 3.0);
    }

    #[test]
    fn digest_tells_bits_apart() {
        assert_eq!(digest("a"), digest("a"));
        assert_ne!(digest("0.1"), digest("0.10000000000000002"));
    }
}
