//! Packet-size distributions.

use fld_sim::rng::SimRng;

/// A distribution over Ethernet frame sizes.
#[derive(Debug, Clone)]
pub enum SizeDist {
    /// Every frame has the same size.
    Fixed(u32),
    /// A weighted discrete mixture of `(frame_size, weight)`.
    Mixture(Vec<(u32, f64)>),
}

impl SizeDist {
    /// A synthetic stand-in for the IMC-2010 datacenter trace (Benson et
    /// al., reference 9 of the paper, used in § 8.1.1). The real trace is not redistributable;
    /// this mixture reproduces its qualitative shape — a bimodal
    /// distribution dominated by ACK-sized frames and MTU-sized frames —
    /// with a mean near 460 B, consistent with the packet rates the paper
    /// reports for the mixed-size echo experiment.
    pub fn imc2010_synthetic() -> SizeDist {
        SizeDist::Mixture(vec![
            (64, 0.50),
            (128, 0.08),
            (256, 0.08),
            (512, 0.08),
            (1024, 0.06),
            (1500, 0.20),
        ])
    }

    /// Draws one frame size.
    pub fn sample(&self, rng: &mut SimRng) -> u32 {
        match self {
            SizeDist::Fixed(s) => *s,
            SizeDist::Mixture(entries) => {
                let weights: Vec<f64> = entries.iter().map(|(_, w)| *w).collect();
                entries[rng.pick_weighted(&weights)].0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_always_returns_the_size() {
        let mut rng = SimRng::seed_from(1);
        let d = SizeDist::Fixed(777);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut rng), 777);
        }
    }

    #[test]
    fn mixture_sample_mean_converges() {
        let mut rng = SimRng::seed_from(2);
        let d = SizeDist::imc2010_synthetic();
        let n = 200_000;
        let total: u64 = (0..n).map(|_| d.sample(&mut rng) as u64).sum();
        let emp = total as f64 / n as f64;
        // Σ size × weight over the six entries.
        let mean = 465.12;
        assert!((emp - mean).abs() / mean < 0.02, "mean {emp} vs {mean}");
    }

    #[test]
    fn imc_mixture_is_bimodal() {
        let d = SizeDist::imc2010_synthetic();
        if let SizeDist::Mixture(e) = &d {
            let small: f64 = e.iter().filter(|(s, _)| *s <= 128).map(|(_, w)| w).sum();
            let large: f64 = e.iter().filter(|(s, _)| *s >= 1024).map(|(_, w)| w).sum();
            assert!(small > 0.4);
            assert!(large > 0.2);
        } else {
            panic!("expected mixture");
        }
    }

    #[test]
    fn mixture_respects_support() {
        let mut rng = SimRng::seed_from(3);
        let d = SizeDist::imc2010_synthetic();
        let allowed = [64, 128, 256, 512, 1024, 1500];
        for _ in 0..10_000 {
            assert!(allowed.contains(&d.sample(&mut rng)));
        }
    }
}
