//! Seeded streams: every input the benchmark hands the program derives
//! from the workload seed through these, so one seed always gives the same
//! shapes, operands, job bodies and arrival times.

/// SplitMix64: small, fast, and good enough for input generation.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    /// An independent sub-stream, so adding draws to one stream never
    /// shifts another.
    pub fn fork(&self, stream: u64) -> Rng {
        let mut r = Rng(self.0 ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }

    /// `len` values uniform in `[0, 1)`, the range the library's own
    /// `Tensor4::random_uniform` draws: every product in a ∇W sum is
    /// non-negative, so each entry equals its `Σ|x·∇y|` and the oracle's
    /// bound is relative to the entry itself.
    pub fn unit_vec(&mut self, len: usize) -> Vec<f32> {
        (0..len).map(|_| self.unit() as f32).collect()
    }

    /// `len` values uniform in `[-1, 1)`.
    pub fn signed_vec(&mut self, len: usize) -> Vec<f32> {
        (0..len).map(|_| (2.0 * self.unit() - 1.0) as f32).collect()
    }
}

/// Poisson arrivals at `rate` per second over `[start, start + span)`,
/// conditioned on their count: `round(rate · span)` due times drawn
/// uniformly and sorted (the order statistics of a Poisson process given
/// its count). Fixing the count keeps the offered load identical across
/// seeds while the gaps stay exponential.
pub fn arrivals(rng: &mut Rng, rate: f64, start: f64, span: f64) -> Vec<f64> {
    let count = (rate * span).round() as usize;
    let mut due: Vec<f64> = (0..count).map(|_| start + rng.unit() * span).collect();
    due.sort_by(f64::total_cmp);
    due
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut f1 = Rng::new(7).fork(1);
        let mut f2 = Rng::new(7).fork(2);
        assert_ne!(f1.next_u64(), f2.next_u64());
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
    }

    #[test]
    fn arrival_schedule_reproduces_from_the_seed() {
        let a = arrivals(&mut Rng::new(11).fork(3), 25.0, 1.0, 4.0);
        let b = arrivals(&mut Rng::new(11).fork(3), 25.0, 1.0, 4.0);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (1.0..5.0).contains(&t)));
        let c = arrivals(&mut Rng::new(12).fork(3), 25.0, 1.0, 4.0);
        assert_ne!(a, c);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<usize> = (0..20).collect();
        let mut b = a.clone();
        Rng::new(5).shuffle(&mut a);
        Rng::new(5).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }
}
