/// Exact algorithmic work performed by a kernel invocation.
///
/// The counts are *logical*: they describe the arithmetic and memory
/// traffic a GPU implementation of the same algorithm would perform, not
/// the host CPU's incidental bookkeeping. `sa-perf` feeds these into an
/// A100 roofline model to reproduce the paper's latency figures.
///
/// A report counts the work that ran: an engine job cut to its last
/// query rows ([`EngineJob::from_row`](crate::EngineJob::from_row))
/// counts those rows, so a cache-keeping prompt run, whose last layer
/// computes only the rows it hands back, reports less than an analysis
/// run of the same prompt.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostReport {
    /// Floating-point operations (multiply-adds count as 2).
    pub flops: u64,
    /// Bytes read from (simulated) device memory.
    pub bytes_read: u64,
    /// Bytes written to (simulated) device memory.
    pub bytes_written: u64,
    /// Number of logical kernel launches (operator fusions reduce this).
    pub kernel_launches: u64,
}

impl CostReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// A report for a single kernel launch with the given counters.
    pub fn launch(flops: u64, bytes_read: u64, bytes_written: u64) -> Self {
        CostReport {
            flops,
            bytes_read,
            bytes_written,
            kernel_launches: 1,
        }
    }

    /// Total memory traffic (read + written).
    pub fn bytes_total(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Arithmetic intensity in FLOPs per byte of traffic.
    ///
    /// Returns 0 when there is no memory traffic.
    pub fn arithmetic_intensity(&self) -> f64 {
        let b = self.bytes_total();
        if b == 0 {
            0.0
        } else {
            self.flops as f64 / b as f64
        }
    }

    /// Accumulates another report into this one.
    pub fn merge(&mut self, other: &CostReport) {
        self.flops += other.flops;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.kernel_launches += other.kernel_launches;
    }
}

impl std::ops::Add for CostReport {
    type Output = CostReport;

    fn add(mut self, rhs: CostReport) -> CostReport {
        self.merge(&rhs);
        self
    }
}

impl std::iter::Sum for CostReport {
    fn sum<I: Iterator<Item = CostReport>>(iter: I) -> CostReport {
        iter.fold(CostReport::new(), |acc, r| acc + r)
    }
}

sa_json::impl_json_struct!(CostReport {
    flops,
    bytes_read,
    bytes_written,
    kernel_launches
});

/// Bytes occupied by `n` f32 elements (the workspace-wide element size;
/// the perf model separately rescales for fp16 GPU execution).
#[inline]
pub(crate) fn f32_bytes(n: u64) -> u64 {
    n * 4
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_and_add_agree() {
        let a = CostReport::launch(100, 40, 8);
        let b = CostReport::launch(50, 10, 2);
        let mut m = a;
        m.merge(&b);
        assert_eq!(m, a + b);
        assert_eq!(m.flops, 150);
        assert_eq!(m.kernel_launches, 2);
        assert_eq!(m.bytes_total(), 60);
    }

    #[test]
    fn sum_over_iterator() {
        let total: CostReport = (0..4).map(|i| CostReport::launch(i, i, i)).sum();
        assert_eq!(total.flops, 6);
        assert_eq!(total.kernel_launches, 4);
    }

    #[test]
    fn arithmetic_intensity() {
        let r = CostReport::launch(200, 40, 10);
        assert!((r.arithmetic_intensity() - 4.0).abs() < 1e-12);
        assert_eq!(CostReport::new().arithmetic_intensity(), 0.0);
    }

    #[test]
    fn json_round_trip() {
        let r = CostReport::launch(7, 8, 9);
        let s = sa_json::to_string(&r);
        let back: CostReport = sa_json::from_str(&s).unwrap();
        assert_eq!(r, back);
    }
}
