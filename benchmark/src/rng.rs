//! The benchmark's own small RNG: every generated input (matrix seeds,
//! job kinds, the Poisson schedule) derives from `--seed` through it, so
//! the same seed gives byte-identical inputs and due times.

/// xoshiro256** seeded through splitmix64.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// An independent stream for one purpose (`label`) of one run
    /// (`seed`): inputs of different kinds never share draws, so adding a
    /// draw to one stream leaves the others byte-identical.
    pub fn stream(seed: u64, label: &str) -> Self {
        let mut state = seed;
        for b in label.bytes() {
            state = splitmix64(&mut state) ^ u64::from(b);
        }
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = splitmix64(&mut state);
        }
        Rng { s }
    }

    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize
    }

    /// Exponential inter-arrival gap of a Poisson process at `rate_per_s`.
    pub fn exp_gap_s(&mut self, rate_per_s: f64) -> f64 {
        -(1.0 - self.next_f64()).ln() / rate_per_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_distinct_labels_differ() {
        let a: Vec<u64> = {
            let mut r = Rng::stream(7, "schedule");
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::stream(7, "schedule");
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::stream(7, "matrices");
            (0..8).map(|_| r.next_u64()).collect()
        };
        let d: Vec<u64> = {
            let mut r = Rng::stream(8, "schedule");
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn exponential_gaps_have_the_requested_mean() {
        let mut r = Rng::stream(1, "gaps");
        let n = 20_000;
        let mean = (0..n).map(|_| r.exp_gap_s(200.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.005).abs() < 0.0003, "{mean}");
    }
}
