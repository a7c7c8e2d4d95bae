//! Small numeric helpers: medians, percentiles, timers and the reference
//! pass host times are expressed in.

use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile, `q` in `[0, 1]` (the convention
/// `samoyeds_serve::latency_summary` uses). Zero for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Mean of `values`, zero for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, zero when the denominator is zero (a layer that never ran).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Run `f` and return its result with the elapsed host seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Append to `samples` the host seconds of consecutive calls of `f`: at
/// least `min_samples` calls, then more (at most `max_samples`) until
/// `budget_s` has passed. Each result is dropped outside the timed region.
pub fn sample_times<T>(
    samples: &mut Vec<f64>,
    min_samples: usize,
    max_samples: usize,
    budget_s: f64,
    mut f: impl FnMut() -> T,
) {
    let start = Instant::now();
    let mut n = 0;
    while n < min_samples || (n < max_samples && start.elapsed().as_secs_f64() < budget_s) {
        let (out, t) = timed(&mut f);
        black_box(out);
        samples.push(t);
        n += 1;
    }
}

/// The repetition rule of every workload: always one repetition, then
/// another only while it is expected to finish inside the `budget_s`
/// measuring window (judged by the median repetition so far).
pub fn another_rep(samples: &[f64], elapsed_s: f64, budget_s: f64) -> bool {
    samples.is_empty() || elapsed_s + median(samples) <= budget_s
}

/// Side of the f32 matrices the reference pass multiplies.
const REF_N: usize = 64;
/// Entries (a power of two) of the table the reference pass reads at random.
const REF_TABLE: usize = 1 << 20;
/// Reference passes timed between two repetitions.
const REF_PASSES: usize = 3;

/// A fixed pass of host work with the instruction mix of the benchmarked
/// code: an f32 matrix product (the functional kernels), random reads from
/// a 4 MiB table (weights and traces larger than the caches) and a binary
/// heap churn (event queues). It is part of the benchmark, not of the
/// program, so a change to the program never changes it.
///
/// On a shared host the speed of a vCPU drifts between states that last
/// from seconds to minutes and slow every kind of work, so a repetition's
/// host seconds follow the host. Its time over the time of this pass, run
/// right before and after it, follows the program.
pub struct Reference {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    table: Vec<u32>,
}

impl Default for Reference {
    fn default() -> Self {
        Self {
            a: (0..REF_N * REF_N).map(|i| (i % 13) as f32 * 0.1).collect(),
            b: (0..REF_N * REF_N).map(|i| (i % 7) as f32 * 0.2).collect(),
            c: vec![0.0; REF_N * REF_N],
            table: (0..REF_TABLE as u32)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect(),
        }
    }
}

impl Reference {
    /// Mean host seconds of [`REF_PASSES`] passes (about 9 ms each on a
    /// 2 GHz Xeon core in its fast state).
    pub fn time(&mut self) -> f64 {
        (0..REF_PASSES).map(|_| self.pass()).sum::<f64>() / REF_PASSES as f64
    }

    fn pass(&mut self) -> f64 {
        let start = Instant::now();
        let n = REF_N;
        for _ in 0..12 {
            for i in 0..n {
                for k in 0..n {
                    let a = self.a[i * n + k];
                    for j in 0..n {
                        self.c[i * n + j] += a * self.b[k * n + j];
                    }
                }
            }
            black_box(&mut self.c);
        }
        let (mut x, mut sum) = (1u32, 0u64);
        for _ in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            sum += u64::from(self.table[x as usize & (REF_TABLE - 1)]);
        }
        black_box(sum);
        let mut heap = BinaryHeap::with_capacity(4096);
        let mut y = 7u64;
        for i in 0..60_000u64 {
            y = y
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            heap.push((y >> 40, i));
            if heap.len() > 2048 {
                black_box(heap.pop());
            }
        }
        black_box(&heap);
        start.elapsed().as_secs_f64()
    }
}

/// The timed repetitions of a run, each bracketed by reference passes.
pub struct Repetitions {
    reference: Reference,
    /// Host seconds of each repetition.
    walls: Vec<f64>,
    /// Mean host seconds of a reference pass: before the first repetition
    /// and after each.
    refs: Vec<f64>,
}

impl Default for Repetitions {
    fn default() -> Self {
        let mut reference = Reference::default();
        let first = reference.time();
        Self {
            reference,
            walls: Vec::new(),
            refs: vec![first],
        }
    }
}

impl Repetitions {
    /// Record a repetition of `wall` host seconds that just ended, and time
    /// the reference passes after it.
    pub fn push(&mut self, wall: f64) {
        self.walls.push(wall);
        self.refs.push(self.reference.time());
    }

    pub fn walls(&self) -> &[f64] {
        &self.walls
    }

    pub fn refs(&self) -> &[f64] {
        &self.refs
    }

    /// Each repetition's host time over the mean of the reference passes
    /// before and after it.
    pub fn in_reference_units(&self) -> Vec<f64> {
        self.walls
            .iter()
            .zip(self.refs.windows(2))
            .map(|(wall, around)| wall / mean(around))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn repetitions_divide_by_the_passes_around_them() {
        let mut reps = Repetitions {
            reference: Reference::default(),
            walls: vec![1.0, 3.0],
            refs: vec![0.5, 1.5, 1.5],
        };
        assert_eq!(reps.in_reference_units(), vec![1.0, 2.0]);
        reps.push(1.0);
        assert_eq!(reps.walls().len(), 3);
        assert!(reps.refs[3] > 0.0);
    }

    #[test]
    fn repetition_rule_runs_once_then_respects_budget() {
        assert!(another_rep(&[], 0.0, 0.0));
        assert!(another_rep(&[2.0], 2.0, 5.0));
        assert!(!another_rep(&[2.0, 2.0], 4.0, 5.0));
    }
}
