//! Envelope peak analysis.
//!
//! The entire CIB idea revolves around the time-varying envelope of a
//! multi-tone sum: what the harvester sees is its peak. This module
//! supplies the peak search and the parabolic refinement the envelope
//! kernels use to locate that peak between grid points.

/// Global maximum of a real sequence with its index; `None` if empty.
pub fn peak(env: &[f64]) -> Option<(usize, f64)> {
    env.iter()
        .copied()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(&b.1))
}

/// Three-point parabolic peak interpolation.
///
/// Given consecutive samples `y(-1)`, `y(0)`, `y(+1)` with `y(0)` the
/// discrete maximum, fits the unique parabola through them and returns
/// `(dx, y_vertex)` — the vertex offset in sample units (clamped to
/// `[-0.5, 0.5]`) and its height. Degenerate (flat or non-concave) input
/// returns `(0.0, y0)`.
///
/// This is the classic refinement step for grid peak searches: one
/// evaluation of the true function at `x0 + dx` recovers almost all the
/// accuracy of an iterative search at a fraction of the cost.
// `!(denom < 0.0)` is deliberate: it also takes the flat branch for NaN.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub fn parabolic_peak(ym: f64, y0: f64, yp: f64) -> (f64, f64) {
    let denom = ym - 2.0 * y0 + yp;
    if !(denom < 0.0) {
        // Flat, non-concave, or NaN: the grid point is the best estimate.
        return (0.0, y0);
    }
    let dx = (0.5 * (ym - yp) / denom).clamp(-0.5, 0.5);
    (dx, y0 - 0.25 * (ym - yp) * dx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_finds_the_maximum() {
        let env = [0.1, 0.9, 0.3, 0.05, 0.4];
        assert_eq!(peak(&env), Some((1, 0.9)));
        assert_eq!(peak(&[] as &[f64]), None);
    }

    #[test]
    fn parabolic_peak_recovers_vertex() {
        // Samples of y = 3 - 2(x - 0.2)² at x = -1, 0, 1.
        let f = |x: f64| 3.0 - 2.0 * (x - 0.2) * (x - 0.2);
        let (dx, y) = parabolic_peak(f(-1.0), f(0.0), f(1.0));
        assert!((dx - 0.2).abs() < 1e-12, "dx {dx}");
        assert!((y - 3.0).abs() < 1e-12, "y {y}");
        // Degenerate inputs fall back to the grid point.
        assert_eq!(parabolic_peak(1.0, 1.0, 1.0), (0.0, 1.0));
        assert_eq!(parabolic_peak(2.0, 1.0, 2.0), (0.0, 1.0));
        // The offset is clamped to the bracketing cell.
        let (dx, _) = parabolic_peak(0.999999, 1.0, 0.0);
        assert!((-0.5..=0.5).contains(&dx));
    }
}
