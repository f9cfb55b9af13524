//! Inter-tag coupling: mutual detuning and body shadowing in dense
//! populations.
//!
//! A single implanted tag sees the channel the layered-path model
//! predicts. Pack tens of tags into the same organ and two additional
//! effects appear (Dumphart et al., "High-Density Effects" — PAPERS.md):
//!
//! * **Mutual detuning** — each neighbour's antenna loads the tag's
//!   near field, pulling its resonance off the carrier. The near-field
//!   coupling coefficient between small loops falls off as the cube of
//!   separation, so we accumulate a pairwise `(d₀/d)³` coupling sum and
//!   convert it to a power penalty via the mismatch form
//!   `1 / (1 + detuning·κ)²`.
//! * **Shadowing** — tags between a tag and the reader array absorb and
//!   scatter part of the illumination; each interposed neighbour costs a
//!   fixed dB step.
//!
//! Both effects are deterministic functions of the population geometry
//! (count + spacing along the implant axis, ordered away from the
//! array), returned as a per-tag multiplicative power-gain factor in
//! `(0, 1]` that experiments apply on top of the per-tag link budget.

/// Pairwise detuning/shadowing model for a linear population of tags.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CouplingModel {
    /// Detuning strength: power penalty `1/(1 + detuning·κ)²` where κ is
    /// the pairwise `(d₀/d)³` coupling sum. 0 disables.
    pub(crate) detuning: f64,
    /// Reference spacing d₀ (metres) at which a neighbour contributes a
    /// full unit of coupling.
    pub(crate) reference_spacing_m: f64,
    /// Shadowing cost in dB per tag interposed between a tag and the
    /// array. 0 disables.
    pub(crate) shadow_db_per_tag: f64,
}

impl CouplingModel {
    /// Builds a model from the scenario-level knobs.
    pub fn new(detuning: f64, reference_spacing_m: f64, shadow_db_per_tag: f64) -> Self {
        CouplingModel {
            detuning,
            reference_spacing_m,
            shadow_db_per_tag,
        }
    }

    /// Coupling contribution of a neighbour `m` spacings away.
    fn contrib(&self, m: usize, spacing_m: f64) -> f64 {
        let d0 = self.reference_spacing_m.max(1e-6);
        let d = (m as f64 * spacing_m.max(1e-4)).max(d0);
        (d0 / d).powi(3)
    }

    /// Power-gain factor for tag `index` in a line of `n` tags spaced
    /// `spacing_m` apart (index 0 nearest the array). Always in `(0, 1]`.
    ///
    /// The O(n) per-tag reference that [`gain_factors`](Self::gain_factors)
    /// must match, pinned by
    /// `tests/proptests.rs::coupling_factors_bounded_and_batch_consistent`.
    pub fn gain_factor(&self, index: usize, n: usize, spacing_m: f64) -> f64 {
        if n <= 1 {
            return 1.0;
        }
        let mut kappa = 0.0;
        for m in 1..=index.max(n - 1 - index) {
            let c = self.contrib(m, spacing_m);
            if m <= index {
                kappa += c;
            }
            if m <= n - 1 - index {
                kappa += c;
            }
        }
        self.factor_from(kappa, index)
    }

    /// Power-gain factors for the whole line, O(n) via prefix sums of
    /// the distance-dependent contributions.
    pub fn gain_factors(&self, n: usize, spacing_m: f64) -> Vec<f64> {
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            return vec![1.0];
        }
        // prefix[k] = Σ_{m=1..k} contrib(m); tag i has neighbours at
        // distances 1..i on the array side and 1..(n-1-i) beyond it.
        let mut prefix = vec![0.0; n];
        for m in 1..n {
            prefix[m] = prefix[m - 1] + self.contrib(m, spacing_m);
        }
        (0..n)
            .map(|i| self.factor_from(prefix[i] + prefix[n - 1 - i], i))
            .collect()
    }

    fn factor_from(&self, kappa: f64, index: usize) -> f64 {
        let detune = 1.0 / (1.0 + self.detuning.max(0.0) * kappa).powi(2);
        let shadow = 10f64.powf(-self.shadow_db_per_tag.max(0.0) * index as f64 / 10.0);
        (detune * shadow).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_and_disabled_models_are_unity() {
        let m = CouplingModel::new(0.05, 0.02, 0.1);
        assert_eq!(m.gain_factor(0, 1, 0.01), 1.0);
        assert_eq!(m.gain_factors(1, 0.01), vec![1.0]);
        let off = CouplingModel::new(0.0, 0.02, 0.0);
        for f in off.gain_factors(16, 0.005) {
            assert_eq!(f, 1.0);
        }
    }

    #[test]
    fn factors_match_reference_implementation() {
        let m = CouplingModel::new(0.05, 0.02, 0.1);
        for &(n, d) in &[(2usize, 0.001f64), (5, 0.003), (16, 0.01), (64, 0.002)] {
            let fast = m.gain_factors(n, d);
            for (i, &f) in fast.iter().enumerate() {
                let slow = m.gain_factor(i, n, d);
                assert!((f - slow).abs() < 1e-12, "n={n} i={i}: {f} vs {slow}");
            }
        }
    }

    #[test]
    fn denser_packing_costs_more() {
        let m = CouplingModel::new(0.05, 0.02, 0.1);
        let sparse = m.gain_factors(8, 0.05);
        let dense = m.gain_factors(8, 0.002);
        for (s, d) in sparse.iter().zip(&dense) {
            assert!(d <= s, "denser spacing should not improve gain");
        }
        assert!(dense[4] < sparse[4]);
    }

    #[test]
    fn middle_tags_detune_most_edge_tags_shadow_least() {
        // Detuning only, spacing wide enough that pair distances differ.
        let m = CouplingModel::new(0.2, 0.02, 0.0);
        let f = m.gain_factors(9, 0.01);
        // Centre tag has the most close neighbours.
        assert!(f[4] < f[0]);
        assert!(f[4] < f[8]);
        // Pure detuning is symmetric about the centre.
        assert!((f[0] - f[8]).abs() < 1e-12);

        let s = CouplingModel::new(0.0, 0.02, 0.5); // shadowing only
        let g = s.gain_factors(5, 0.01);
        for w in g.windows(2) {
            assert!(w[1] < w[0], "deeper tags must be more shadowed");
        }
    }

    #[test]
    fn factors_always_in_unit_interval() {
        let m = CouplingModel::new(3.0, 0.05, 2.0);
        for f in m.gain_factors(200, 0.0005) {
            assert!(f > 0.0 && f <= 1.0);
        }
    }
}
