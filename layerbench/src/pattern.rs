//! Seeded inputs: message sizes and payload contents.
//!
//! Everything a workload sends is derived from `--seed`, so the same seed
//! gives the same sizes and bytes, and every receiver can regenerate what
//! it should have received and compare it byte for byte. Only the sizes
//! of the warm-up operations are the same for every seed.

use fm_model::rng::DetRng;

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// One SplitMix64 step of `z`: a 64-bit hash for keys and contents.
fn mix(z: u64) -> u64 {
    DetRng::seed_from_u64(z).next_u64()
}

/// Seed the warm-up sizes come from, whatever `--seed` is.
const WARMUP_SEED: u64 = 0;

/// Log-uniform integer in `[lo, hi]`: every power-of-two band is
/// equally likely.
fn log_uniform(rng: &mut DetRng, lo: usize, hi: usize) -> usize {
    let (a, b) = ((lo as f64).ln(), (hi as f64 + 1.0).ln());
    ((a + rng.next_f64() * (b - a)).exp() as usize).clamp(lo, hi)
}

/// Seeded log-uniform message sizes in `[lo, hi]`.
///
/// The first `warmup` draws come from a fixed stream, the same for every
/// seed, so the warm-up that `setup_s` includes does the same work on
/// every run. Later draws come from stream `stream` of the run's seed.
pub struct Sizes {
    warm: DetRng,
    seeded: DetRng,
    warmup: u64,
    drawn: u64,
    lo: usize,
    hi: usize,
}

impl Sizes {
    pub fn new(seed: u64, stream: u64, warmup: u64, lo: usize, hi: usize) -> Self {
        let rng = |seed: u64| DetRng::seed_from_u64(mix(seed ^ mix(stream)));
        Sizes {
            warm: rng(WARMUP_SEED),
            seeded: rng(seed),
            warmup,
            drawn: 0,
            lo,
            hi,
        }
    }

    /// The next size.
    pub fn draw(&mut self) -> usize {
        let rng = if self.drawn < self.warmup {
            &mut self.warm
        } else {
            &mut self.seeded
        };
        self.drawn += 1;
        log_uniform(rng, self.lo, self.hi)
    }
}

/// Content key of operation `k` of a run seeded with `seed`.
pub fn key(seed: u64, k: u64) -> u64 {
    mix(seed.wrapping_mul(GOLDEN) ^ k)
}

fn word(base: u64, j: usize) -> [u8; 8] {
    base.wrapping_add((j as u64).wrapping_mul(GOLDEN))
        .to_le_bytes()
}

/// Fill `buf` with the pattern of `key`.
pub fn fill(buf: &mut [u8], key: u64) {
    let base = mix(key);
    for (j, chunk) in buf.chunks_mut(8).enumerate() {
        chunk.copy_from_slice(&word(base, j)[..chunk.len()]);
    }
}

/// The pattern of `key` as a new buffer.
pub fn make(len: usize, key: u64) -> Vec<u8> {
    let mut v = vec![0u8; len];
    fill(&mut v, key);
    v
}

/// True when `buf[from..]` holds the pattern of `key` at those offsets.
/// `from` must be a multiple of 8.
pub fn matches_from(buf: &[u8], key: u64, from: usize) -> bool {
    debug_assert_eq!(from % 8, 0);
    let base = mix(key);
    buf.get(from..).is_some_and(|tail| {
        tail.chunks(8)
            .enumerate()
            .all(|(j, chunk)| chunk == &word(base, from / 8 + j)[..chunk.len()])
    })
}

/// True when `buf` is exactly the pattern of `key`.
pub fn matches(buf: &[u8], key: u64) -> bool {
    matches_from(buf, key, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_repeat_per_seed_and_stay_in_range() {
        let draw = |seed| {
            let mut r = Sizes::new(seed, 1, 0, 8, 4096);
            (0..1000).map(|_| r.draw()).collect::<Vec<_>>()
        };
        let a = draw(7);
        assert_eq!(a, draw(7));
        assert_ne!(a, draw(8));
        assert!(a.iter().all(|&s| (8..=4096).contains(&s)));
        // Log-uniform: about half the draws fall below the geometric mean.
        let below = a.iter().filter(|&&s| s < 181).count();
        assert!((400..600).contains(&below), "{below}");
    }

    #[test]
    fn warmup_sizes_do_not_depend_on_the_seed() {
        let draw = |seed| {
            let mut r = Sizes::new(seed, 3, 100, 64, 1 << 18);
            (0..300).map(|_| r.draw()).collect::<Vec<_>>()
        };
        let (a, b) = (draw(1), draw(2));
        assert_eq!(a[..100], b[..100]);
        assert_ne!(a[100..], b[100..]);
    }

    #[test]
    fn pattern_detects_any_changed_byte() {
        let v = make(100, key(3, 9));
        assert!(matches(&v, key(3, 9)));
        assert!(!matches(&v, key(3, 10)));
        for i in 0..v.len() {
            let mut w = v.clone();
            w[i] ^= 1;
            assert!(!matches(&w, key(3, 9)), "flip at {i} undetected");
        }
        assert!(matches_from(&v, key(3, 9), 16));
        let mut w = v.clone();
        w[..16].fill(0);
        assert!(matches_from(&w, key(3, 9), 16));
    }
}
