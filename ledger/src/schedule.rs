//! Seeded randomness and the open-loop arrival schedule of the service
//! probe.

/// SplitMix64: a tiny, well-mixed generator, so that one `--seed` always
/// yields the same inputs and the same schedule on every platform.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform sample in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An independent generator for a sub-stream (`salt` names the stream).
    pub fn fork(&mut self, salt: u64) -> SplitMix64 {
        SplitMix64::new(self.next_u64() ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }
}

/// One request of the open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// When the request is due, in seconds from the start of its rung.
    pub due_s: f64,
    /// Interactive lane (small frame) or batch lane (large frame).
    pub interactive: bool,
    /// Seed of the request's own content, so no two requests share pixels.
    pub content: u64,
}

/// A Poisson arrival process at `rate_hz` over `seconds`: exponential gaps,
/// each request interactive with probability `interactive_share`.
pub fn poisson_schedule(
    rng: &mut SplitMix64,
    rate_hz: f64,
    seconds: f64,
    interactive_share: f64,
) -> Vec<Arrival> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        // 1 - u lies in (0, 1], so the logarithm is finite.
        t += -(1.0 - rng.next_f64()).ln() / rate_hz;
        if t >= seconds {
            return out;
        }
        out.push(Arrival {
            due_s: t,
            interactive: rng.next_f64() < interactive_share,
            content: rng.next_u64(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_one_schedule() {
        let a = poisson_schedule(&mut SplitMix64::new(7), 100.0, 2.0, 0.8);
        let b = poisson_schedule(&mut SplitMix64::new(7), 100.0, 2.0, 0.8);
        let c = poisson_schedule(&mut SplitMix64::new(8), 100.0, 2.0, 0.8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn schedule_has_the_offered_rate_and_mix() {
        let s = poisson_schedule(&mut SplitMix64::new(1), 500.0, 20.0, 0.8);
        let n = s.len() as f64;
        assert!((n / 10_000.0 - 1.0).abs() < 0.05, "{n} arrivals");
        let share = s.iter().filter(|a| a.interactive).count() as f64 / n;
        assert!((share - 0.8).abs() < 0.02, "interactive share {share}");
        assert!(s.windows(2).all(|w| w[0].due_s < w[1].due_s));
        assert!(s.iter().all(|a| (0.0..20.0).contains(&a.due_s)));
    }
}
