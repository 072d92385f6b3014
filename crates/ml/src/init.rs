//! Weight initialization helpers.

use pb_energy::gaussian;
use rand::Rng;

/// He-normal initialization: 𝒩(0, √(2 / fan_in)), the standard choice for
/// ReLU networks.
pub fn he_normal<R: Rng + ?Sized>(fan_in: usize, rng: &mut R) -> f64 {
    gaussian(rng) * (2.0 / fan_in.max(1) as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn he_variance_scales_with_fan_in() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 50_000;
        let fan_in = 50;
        let xs: Vec<f64> = (0..n).map(|_| he_normal(fan_in, &mut rng)).collect();
        let var = xs.iter().map(|x| x * x).sum::<f64>() / n as f64;
        assert!((var - 2.0 / fan_in as f64).abs() < 0.01);
    }
}
