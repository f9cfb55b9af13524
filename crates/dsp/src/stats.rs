//! Descriptive statistics for experiment reporting.
//!
//! Every figure in the paper's evaluation is a median with 10th/90th
//! percentile error bars or an empirical CDF; this module is the single
//! implementation used by the bench harness, tests, and examples.
//! [`Summary`] and [`Ecdf`] round-trip through the `ivn-runtime` JSON
//! layer for machine-readable bench output.

use ivn_runtime::json::{field, FromJson, Json, JsonError, ToJson};

/// Percentile of a sample set by linear interpolation between closest
/// ranks (the common "type 7" estimator).
///
/// `p` is in `[0, 100]`. Returns `None` for an empty slice.
pub fn percentile(data: &[f64], p: f64) -> Option<f64> {
    if data.is_empty() {
        return None;
    }
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
    let mut sorted = data.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Median (50th percentile). `None` when empty.
pub fn median(data: &[f64]) -> Option<f64> {
    percentile(data, 50.0)
}

/// The paper's standard summary: median with 10th and 90th percentiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// 10th percentile.
    pub p10: f64,
    /// Median.
    pub median: f64,
    /// 90th percentile.
    pub p90: f64,
}

impl Summary {
    /// Computes the summary; `None` when the data is empty.
    pub fn of(data: &[f64]) -> Option<Summary> {
        Some(Summary {
            p10: percentile(data, 10.0)?,
            median: percentile(data, 50.0)?,
            p90: percentile(data, 90.0)?,
        })
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3} [{:.3}, {:.3}]", self.median, self.p10, self.p90)
    }
}

impl ToJson for Summary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("p10", self.p10.into()),
            ("median", self.median.into()),
            ("p90", self.p90.into()),
        ])
    }
}

impl FromJson for Summary {
    fn from_json(value: &Json) -> Result<Summary, JsonError> {
        Ok(Summary {
            p10: field(value, "p10")?,
            median: field(value, "median")?,
            p90: field(value, "p90")?,
        })
    }
}

/// An empirical cumulative distribution function.
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the ECDF from samples (NaNs are dropped).
    pub fn new(mut data: Vec<f64>) -> Self {
        data.retain(|x| !x.is_nan());
        data.sort_by(f64::total_cmp);
        Ecdf { sorted: data }
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the ECDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples ≤ `x` (the CDF value at `x`).
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Quantile: smallest sample with CDF ≥ `q` (`q` in `(0, 1]`).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() || !(0.0..=1.0).contains(&q) {
            return None;
        }
        if q == 0.0 {
            return self.sorted.first().copied();
        }
        let idx = ((q * self.sorted.len() as f64).ceil() as usize - 1).min(self.sorted.len() - 1);
        Some(self.sorted[idx])
    }

    /// Underlying sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }
}

impl ToJson for Ecdf {
    fn to_json(&self) -> Json {
        Json::obj([("samples", self.sorted.clone().into())])
    }
}

impl FromJson for Ecdf {
    fn from_json(value: &Json) -> Result<Ecdf, JsonError> {
        let samples: Vec<f64> = field(value, "samples")?;
        // `new` re-sorts, so a hand-edited file still yields a valid ECDF.
        Ok(Ecdf::new(samples))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&data, 0.0), Some(1.0));
        assert_eq!(percentile(&data, 100.0), Some(4.0));
        assert_eq!(percentile(&data, 50.0), Some(2.5));
        assert_eq!(median(&data), Some(2.5));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_unsorted_input() {
        let data = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&data), Some(2.5));
    }

    #[test]
    fn summary_display() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.median, 3.0);
        assert!(s.p10 < s.median && s.median < s.p90);
        assert!(s.to_string().contains("3.000"));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn ecdf_eval_and_quantile() {
        let e = Ecdf::new(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(e.len(), 4);
        assert_eq!(e.eval(0.0), 0.0);
        assert_eq!(e.eval(2.0), 0.5);
        assert_eq!(e.eval(10.0), 1.0);
        assert_eq!(e.quantile(0.5), Some(2.0));
        assert_eq!(e.quantile(1.0), Some(4.0));
        assert_eq!(e.quantile(0.25), Some(1.0));
    }

    #[test]
    fn ecdf_drops_nan_and_handles_empty() {
        let e = Ecdf::new(vec![f64::NAN, 1.0]);
        assert_eq!(e.len(), 1);
        let empty = Ecdf::new(vec![]);
        assert!(empty.is_empty());
        assert_eq!(empty.eval(1.0), 0.0);
        assert_eq!(empty.quantile(0.5), None);
    }

    #[test]
    fn summary_json_round_trip() {
        let s = Summary::of(&[1.0, 2.5, 3.125, 4.0, 5.75]).unwrap();
        let text = s.to_json().dump();
        let back = Summary::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
        assert!(Summary::from_json(&Json::obj([("p10", 1.0.into())])).is_err());
    }

    #[test]
    fn ecdf_json_round_trip() {
        let e = Ecdf::new(vec![3.0, 1.0, 0.1 + 0.2, -7.5e-3]);
        let text = e.to_json().dump();
        let back = Ecdf::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, e);
        // Bit-exact samples after the trip through text.
        for (a, b) in back.samples().iter().zip(e.samples()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
