//! Seeded input generation. Every value the program under test receives —
//! `co_sum` terms, broadcast payloads, modeled arrival skew, the HPL matrix
//! seed and size — is a pure function of the workload seed, so one seed
//! always gives the same inputs and the expected results can be computed
//! independently on every image.

/// Broadcast payload length in `u64` words (4 KiB).
pub const BCAST_WORDS: usize = 512;

/// Largest modeled arrival skew injected before a simulated collective, ns.
pub const MAX_SKEW_NS: u64 = 4_000;

/// SplitMix64 finalizer.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A stream-separated draw: `(seed, stream, a, b)` → 64 random bits.
pub fn draw(seed: u64, stream: u64, a: u64, b: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(seed ^ stream.rotate_left(48)) ^ a) ^ b)
}

/// Image `image0`'s `co_sum` term in episode `ep`: an integer below 2^20
/// stored as `f64`, so the team sum is exact in any summation order.
pub fn sum_term(seed: u64, ep: u64, image0: usize) -> f64 {
    (draw(seed, 1, ep, image0 as u64) >> 44) as f64
}

/// The exact team sum of [`sum_term`] over `n_images` images.
pub fn expected_sum(seed: u64, ep: u64, n_images: usize) -> f64 {
    (0..n_images).map(|i| sum_term(seed, ep, i)).sum()
}

/// Fill `out` with the 4 KiB broadcast payload of episode `ep`.
pub fn bcast_payload(seed: u64, ep: u64, out: &mut [u64]) {
    for (w, slot) in out.iter_mut().enumerate() {
        *slot = draw(seed, 2, ep, w as u64);
    }
}

/// Modeled compute imbalance image `image0` carries into collective call
/// `call` of a simulated loop, in `0..MAX_SKEW_NS`.
pub fn skew_ns(seed: u64, call: u64, image0: usize) -> u64 {
    draw(seed, 3, call, image0 as u64) % MAX_SKEW_NS
}

/// The seed of collective loop `window` of a run.
pub fn window_seed(seed: u64, window: u64) -> u64 {
    draw(seed, 6, window, 0)
}

/// HPL matrix generator seed for repetition `rep`.
pub fn hpl_seed(seed: u64, rep: u64) -> u64 {
    draw(seed, 4, rep, 0)
}

/// HPL problem size: `base` plus a seed-chosen offset of 0 to 3 rows, so
/// the modeled factorization time is a function of the input rather than
/// a constant of the configuration.
pub fn hpl_n(base: usize, seed: u64) -> usize {
    base + (draw(seed, 5, 0, 0) % 4) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let (mut a, mut b, mut c) = ([0; BCAST_WORDS], [0; BCAST_WORDS], [0; BCAST_WORDS]);
        bcast_payload(7, 3, &mut a);
        bcast_payload(7, 3, &mut b);
        bcast_payload(8, 3, &mut c);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(sum_term(7, 3, 1), sum_term(7, 3, 1));
        assert_ne!(hpl_seed(7, 0), hpl_seed(8, 0));
        assert_ne!(hpl_seed(7, 0), hpl_seed(7, 1));
    }

    #[test]
    fn sum_terms_add_exactly() {
        for ep in 0..100 {
            let terms: Vec<f64> = (0..64).map(|i| sum_term(11, ep, i)).collect();
            assert!(terms
                .iter()
                .all(|t| t.fract() == 0.0 && *t < (1u64 << 20) as f64));
            let fwd: f64 = terms.iter().sum();
            let rev: f64 = terms.iter().rev().sum();
            assert_eq!(fwd, rev);
            assert_eq!(fwd, expected_sum(11, ep, 64));
        }
    }

    #[test]
    fn hpl_size_offsets_stay_small_and_vary() {
        let sizes: std::collections::BTreeSet<usize> = (0..64).map(|s| hpl_n(1536, s)).collect();
        assert!(sizes.len() > 1);
        assert!(sizes.iter().all(|n| (1536..=1539).contains(n)));
    }

    #[test]
    fn skew_stays_in_range() {
        assert!((0..1000).all(|ep| skew_ns(3, ep, 5) < MAX_SKEW_NS));
    }
}
