//! Samplers for the heavy-tailed distributions the world generator needs.
//!
//! The paper's central empirical finding about victim behaviour is the
//! "whale" structure of payments: the top ~24 of 671 Twitter payments carry
//! half the revenue. Reproducing that requires log-normal / Pareto payment
//! amounts and Zipf-distributed audience sizes.
//! `rand` itself only ships uniform primitives, so these live here.

use rand::Rng;

/// Log-normal sampler: `exp(mu + sigma * Z)` with `Z ~ N(0,1)`.
#[derive(Debug, Clone, Copy)]
pub struct LogNormal {
    pub mu: f64,
    pub sigma: f64,
}

impl LogNormal {
    /// Construct from the parameters of the underlying normal.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "sigma must be non-negative");
        LogNormal { mu, sigma }
    }

    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * sample_standard_normal(rng)).exp()
    }
}

/// Pareto (type I) sampler with scale `x_min` and shape `alpha`.
#[derive(Debug, Clone, Copy)]
pub struct Pareto {
    pub x_min: f64,
    pub alpha: f64,
}

impl Pareto {
    pub fn new(x_min: f64, alpha: f64) -> Self {
        assert!(x_min > 0.0 && alpha > 0.0);
        Pareto { x_min, alpha }
    }

    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse CDF: x_min * (1-U)^(-1/alpha); use U directly since
        // 1-U is also uniform, but guard against 0.
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        self.x_min * u.powf(-1.0 / self.alpha)
    }
}

/// Zipf sampler over ranks `1..=n` with exponent `s`, via an inverted CDF
/// table. Build once, sample many times.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(s);
            cdf.push(total);
        }
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Sample a rank in `1..=n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self.cdf.binary_search_by(|p| p.partial_cmp(&u).unwrap()) {
            Ok(i) | Err(i) => (i + 1).min(self.cdf.len()),
        }
    }
}

/// Standard normal via Box–Muller (the cheap half).
pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Pick an index according to a (not necessarily normalised) weight slice.
pub fn sample_weighted<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    assert!(!weights.is_empty(), "weights must be non-empty");
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "weights must sum to a positive value");
    let mut target = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        if target < w {
            return i;
        }
        target -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xD15C0)
    }

    #[test]
    fn lognormal_median_is_exp_mu() {
        let d = LogNormal::new(2.0f64.ln(), 0.8);
        let mut r = rng();
        let mut samples: Vec<f64> = (0..20_000).map(|_| d.sample(&mut r)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!((median - 2.0).abs() < 0.1, "median was {median}");
    }

    #[test]
    fn pareto_respects_minimum_and_tail() {
        let d = Pareto::new(10.0, 1.5);
        let mut r = rng();
        let samples: Vec<f64> = (0..20_000).map(|_| d.sample(&mut r)).collect();
        assert!(samples.iter().all(|&x| x >= 10.0));
        // P(X > 2*x_min) = 2^-alpha ≈ 0.3536
        let frac = samples.iter().filter(|&&x| x > 20.0).count() as f64 / samples.len() as f64;
        assert!((frac - 0.3536).abs() < 0.02, "tail fraction {frac}");
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let d = Zipf::new(100, 1.2);
        let mut r = rng();
        let mut counts = vec![0usize; 101];
        for _ in 0..20_000 {
            counts[d.sample(&mut r)] += 1;
        }
        assert_eq!(counts[0], 0, "rank 0 must never be sampled");
        assert!(counts[1] > counts[2], "rank 1 should beat rank 2");
        assert!(counts[1] > counts[50] * 5, "head should dominate tail");
    }

    #[test]
    fn zipf_single_rank() {
        let d = Zipf::new(1, 1.0);
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(d.sample(&mut r), 1);
        }
    }

    #[test]
    fn weighted_sampling_tracks_weights() {
        let mut r = rng();
        let weights = [1.0, 3.0, 6.0];
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[sample_weighted(&mut r, &weights)] += 1;
        }
        let f2 = counts[2] as f64 / 30_000.0;
        assert!((f2 - 0.6).abs() < 0.02, "weight-2 fraction {f2}");
        assert!(counts[0] < counts[1] && counts[1] < counts[2]);
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng();
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }
}
