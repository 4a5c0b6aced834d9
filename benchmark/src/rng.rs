//! The benchmark's own seeded generator (xoshiro256++ seeded through
//! splitmix64). It is deliberately not `nvmetro_sim::SimRng`: the load a
//! seed produces must not change when a crate under measurement changes.

pub struct Rng {
    s: [u64; 4],
}

/// One splitmix64 step; also used to derive independent sub-seeds.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A sub-seed for stream `stream` of master seed `seed`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut s = seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    splitmix64(&mut s)
}

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `0..bound` (multiply-shift; the bias is below 2^-40 for
    /// every bound the benchmark uses).
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_seeds_diverge() {
        let (mut a, mut b, mut c) = (Rng::new(7), Rng::new(7), Rng::new(8));
        let xs: Vec<u64> = (0..32).map(|_| a.below(1 << 20)).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.below(1 << 20)).collect();
        let zs: Vec<u64> = (0..32).map(|_| c.below(1 << 20)).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        assert!(xs.iter().all(|&x| x < 1 << 20));
    }
}
