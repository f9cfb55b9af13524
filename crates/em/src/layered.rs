//! Layered-body propagation: the paper's Eq. 2 generalized to a stack of
//! tissue layers.
//!
//! A [`LayeredPath`] models one transmit antenna's signal reaching an
//! implanted sensor: an air gap of length `r` (spherical spreading, `1/r`
//! referenced to 1 m), then a sequence of tissue layers each contributing a
//! boundary transmittance and an exponential attenuation `e^{-α_i d_i}`
//! with phase `e^{-jβ_i d_i}`. This is exactly
//!
//! ```text
//! |E| = (T · A / r) · e^{-Σ α_i d_i}
//! ```
//!
//! with `T` the product of per-boundary amplitude transmittances, i.e. the
//! multi-layer form of the paper's `|E| = (T·A/r)·e^{-αd}`.

use crate::boundary::amplitude_transmittance;
use crate::medium::Medium;
use ivn_dsp::complex::Complex64;
use ivn_dsp::units::SPEED_OF_LIGHT;

/// One tissue layer: a medium and its thickness.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// The layer's medium.
    pub(crate) medium: Medium,
    /// Thickness along the propagation path, metres.
    pub(crate) thickness_m: f64,
}

impl Layer {
    /// Creates a layer.
    ///
    /// # Panics
    /// Panics on negative thickness.
    pub fn new(medium: Medium, thickness_m: f64) -> Self {
        assert!(thickness_m >= 0.0, "layer thickness must be non-negative");
        Layer {
            medium,
            thickness_m,
        }
    }
}

/// A one-way propagation path: air gap followed by a stack of layers.
#[derive(Debug, Clone, PartialEq)]
pub struct LayeredPath {
    /// Distance travelled in air before the first boundary, metres.
    pub(crate) air_distance_m: f64,
    /// Tissue layers in the order the wave crosses them.
    pub(crate) layers: Vec<Layer>,
}

impl LayeredPath {
    /// Creates a path with the given air gap and layers.
    ///
    /// # Panics
    /// Panics if the air distance is not strictly positive (the `1/r`
    /// spreading reference needs `r > 0`).
    pub fn new(air_distance_m: f64, layers: Vec<Layer>) -> Self {
        assert!(air_distance_m > 0.0, "air distance must be positive");
        LayeredPath {
            air_distance_m,
            layers,
        }
    }

    /// A pure free-space path of length `r` metres.
    pub fn free_space(r: f64) -> Self {
        Self::new(r, Vec::new())
    }

    /// Complex channel response at `freq_hz`, referenced to unit amplitude
    /// at 1 m in free space.
    ///
    /// Amplitude: `(1/r) · Π √T_i · Π e^{-α_i d_i}`.
    /// Phase: free-space wavenumber over the air gap plus each layer's β·d.
    pub fn response(&self, freq_hz: f64) -> Complex64 {
        let air = Medium::air();
        // Spherical spreading over the air gap (amplitude 1/r, r in m,
        // normalized to 1 at r = 1 m) and free-space phase.
        let k0 = 2.0 * std::f64::consts::PI * freq_hz / SPEED_OF_LIGHT;
        let mut h = Complex64::from_polar(1.0 / self.air_distance_m, -k0 * self.air_distance_m);

        let mut prev = &air;
        for layer in &self.layers {
            // Boundary crossing into this layer.
            let t = amplitude_transmittance(prev, &layer.medium, freq_hz);
            h *= t;
            // Bulk propagation through the layer.
            h *= layer.medium.propagate(freq_hz, layer.thickness_m);
            prev = &layer.medium;
        }
        h
    }

    /// Path loss in dB (positive) relative to the 1 m free-space reference.
    pub fn path_loss_db(&self, freq_hz: f64) -> f64 {
        -20.0 * self.response(freq_hz).norm().log10()
    }
}

/// Convenience constructor for the paper's canonical experiment: an air gap
/// then a single medium at a given depth (the water tank of Fig. 7, or one
/// of the Fig. 11 media).
pub fn single_medium_path(air_m: f64, medium: Medium, depth_m: f64) -> LayeredPath {
    LayeredPath::new(air_m, vec![Layer::new(medium, depth_m)])
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: f64 = 915e6;

    #[test]
    fn free_space_inverse_r() {
        let near = LayeredPath::free_space(1.0).response(F).norm();
        let far = LayeredPath::free_space(10.0).response(F).norm();
        assert!((near - 1.0).abs() < 1e-12);
        assert!((far - 0.1).abs() < 1e-12);
        // Power decays quadratically → 20 dB per decade.
        let pl = LayeredPath::free_space(10.0).path_loss_db(F);
        assert!((pl - 20.0).abs() < 1e-9);
    }

    #[test]
    fn tissue_depth_dominates_air_distance() {
        // Paper Fig. 3: in-air loss is polynomial, in-tissue exponential.
        // 5 extra cm of air ≈ negligible; 5 cm of muscle ≈ >10 dB.
        let base = single_medium_path(0.5, Medium::muscle(), 0.0).path_loss_db(F);
        let more_air = single_medium_path(0.55, Medium::muscle(), 0.0).path_loss_db(F);
        let more_tissue = single_medium_path(0.5, Medium::muscle(), 0.05).path_loss_db(F);
        assert!(more_air - base < 1.0);
        assert!(more_tissue - base > 8.0);
    }

    #[test]
    fn response_includes_boundary_loss() {
        let no_tissue = LayeredPath::free_space(0.5).path_loss_db(F);
        let zero_depth = single_medium_path(0.5, Medium::muscle(), 0.0).path_loss_db(F);
        let diff = zero_depth - no_tissue;
        // Only the boundary separates the two: 3-5 dB.
        assert!(diff > 2.5 && diff < 5.5, "boundary diff {diff}");
    }

    #[test]
    fn multilayer_skin_fat_muscle() {
        // A subcutaneous stack: the response must be the product of parts.
        let path = LayeredPath::new(
            0.5,
            vec![
                Layer::new(Medium::skin(), 0.002),
                Layer::new(Medium::fat(), 0.01),
                Layer::new(Medium::muscle(), 0.02),
            ],
        );
        let h = path.response(F);
        assert!(h.norm() > 0.0 && h.norm() < 1.0);
        // Deeper stack attenuates more.
        let deeper = LayeredPath::new(
            0.5,
            vec![
                Layer::new(Medium::skin(), 0.002),
                Layer::new(Medium::fat(), 0.01),
                Layer::new(Medium::muscle(), 0.05),
            ],
        );
        assert!(deeper.response(F).norm() < h.norm());
    }

    #[test]
    fn phase_advances_with_distance() {
        let a = LayeredPath::free_space(1.0).response(F);
        let b = LayeredPath::free_space(1.0 + 0.3276 / 2.0).response(F); // half λ
                                                                         // Half a wavelength → phase flip.
        let dphi = (b * a.conj()).arg();
        assert!((dphi.abs() - std::f64::consts::PI).abs() < 0.01);
    }

    #[test]
    fn different_frequencies_decorrelate_deep_paths() {
        // The phase difference between two close frequencies grows with
        // electrical length — the basis of frequency-selective behaviour.
        let path = single_medium_path(2.0, Medium::muscle(), 0.05);
        let h1 = path.response(900e6);
        let h2 = path.response(930e6);
        assert!((h1.arg() - h2.arg()).abs() > 1e-3);
    }

    #[test]
    #[should_panic(expected = "air distance")]
    fn rejects_zero_air_distance() {
        LayeredPath::new(0.0, vec![]);
    }
}
