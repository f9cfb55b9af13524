//! Pluggable anti-collision policies and capture-effect arbitration.
//!
//! The Gen2 reader has to pick a frame size (Q) for each inventory
//! round and adapt it from what the slots reveal: empties mean the
//! frame is too big, collisions mean it is too small. The [`AntiCollision`]
//! trait is that seam — [`crate::reader::Reader`] drives rounds through
//! it, so a new policy is one impl in one file:
//!
//! * [`AdaptiveQ`] — Qfp ± C per slot, read as Q only at each Query
//!   (no mid-round `QueryAdjust`), as the reader had it before the seam;
//! * [`FixedQ`] — a constant-frame baseline, the control arm every
//!   adaptive policy is measured against;
//! * [`SchouteQ`] — a frame-by-frame backlog estimator: Schoute's
//!   result that under the Poisson/chi-squared occupancy model the
//!   expected backlog is ≈ 2.39 tags per observed collision slot, so the
//!   next frame is sized `Q = round(log2(2.39 · collisions))`.
//!
//! [`CaptureModel`] adds RN16 capture-effect arbitration on top of slot
//! resolution: when several tags reply in one slot, the strongest can
//! still be decoded if its received power exceeds the sum of the others
//! by a threshold. Per-tag mean powers come from the link budget; a
//! per-slot uniform fade (seeded from the `ivn-runtime` RNG, so rounds
//! stay fork-deterministic) decides each contest, most of them by a
//! log-domain certificate that needs no `powf`.

use crate::reader::{QAlgorithm, RoundStats, SlotOutcome};
use ivn_runtime::rng::{Rng, StdRng};
use std::sync::Arc;

/// A frame-sizing policy for Gen2 inventory rounds.
///
/// The reader calls [`choose_q`](Self::choose_q) once at the start of a
/// round (the Query's Q field), [`on_slot_outcome`](Self::on_slot_outcome)
/// after every resolved slot, and [`on_round_end`](Self::on_round_end)
/// when the frame is exhausted — slot-reactive policies adapt in the
/// second hook, frame-by-frame estimators in the third.
pub trait AntiCollision: std::fmt::Debug + Send {
    /// Q for the next Query (frame size `2^Q` slots).
    fn choose_q(&self) -> u8;

    /// Per-slot feedback during a round.
    fn on_slot_outcome(&mut self, outcome: &SlotOutcome);

    /// Feedback for a run of `n` consecutive empty slots. Must leave the
    /// policy exactly as `n` calls of `on_slot_outcome(&Empty)` would;
    /// the default is that loop, so overriding is only a speed-up.
    fn on_empty_slots(&mut self, n: usize) {
        for _ in 0..n {
            self.on_slot_outcome(&SlotOutcome::Empty);
        }
    }

    /// End-of-round feedback with the frame's tallies.
    fn on_round_end(&mut self, stats: &RoundStats);

    /// Short policy name for reports.
    fn name(&self) -> &'static str;
}

/// Slot-reactive Q behind the [`AntiCollision`] seam: Qfp moves ±C per
/// slot in [0, 15] and is read as Q only at each Query (no `QueryAdjust`).
///
/// This is byte-for-byte the policy [`crate::reader::Reader`] applied
/// before the seam existed; `Reader::new` still wraps a [`QAlgorithm`]
/// in it, which is what keeps the pre-refactor goldens bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveQ {
    params: QAlgorithm,
    qfp: f64,
}

impl AdaptiveQ {
    /// Starts the policy at the parameter block's initial Q.
    pub fn new(params: QAlgorithm) -> Self {
        AdaptiveQ {
            params,
            qfp: params.q0 as f64,
        }
    }
}

impl AntiCollision for AdaptiveQ {
    fn choose_q(&self) -> u8 {
        (self.qfp.round().clamp(0.0, 15.0)) as u8
    }

    fn on_slot_outcome(&mut self, outcome: &SlotOutcome) {
        match outcome {
            SlotOutcome::Empty => self.qfp = (self.qfp - self.params.c).max(0.0),
            SlotOutcome::Collision => self.qfp = (self.qfp + self.params.c).min(15.0),
            SlotOutcome::Inventoried(_) => {}
        }
    }

    fn on_empty_slots(&mut self, n: usize) {
        // The empty step is a fixed function of qfp's bits: once a step
        // leaves them unchanged (clamped at 0, or c too small to move
        // qfp), every further step does too.
        for _ in 0..n {
            let next = (self.qfp - self.params.c).max(0.0);
            if next.to_bits() == self.qfp.to_bits() {
                break;
            }
            self.qfp = next;
        }
    }

    fn on_round_end(&mut self, _stats: &RoundStats) {}

    fn name(&self) -> &'static str {
        "adaptive"
    }
}

/// A constant frame size: Q never moves. The baseline arm of every
/// policy comparison — optimal only when the population happens to match
/// `2^Q`, pathological everywhere else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedQ {
    q: u8,
}

impl FixedQ {
    /// A fixed frame of `2^q` slots (q clamped to 15).
    pub fn new(q: u8) -> Self {
        FixedQ { q: q.min(15) }
    }
}

impl AntiCollision for FixedQ {
    fn choose_q(&self) -> u8 {
        self.q
    }

    fn on_slot_outcome(&mut self, _outcome: &SlotOutcome) {}

    fn on_empty_slots(&mut self, _n: usize) {}

    fn on_round_end(&mut self, _stats: &RoundStats) {}

    fn name(&self) -> &'static str {
        "fixed"
    }
}

/// Schoute's expected backlog per observed collision slot under the
/// Poisson occupancy model (the chi-squared frame-occupancy estimate):
/// each collision slot hides ≈ 2.39 unresolved tags.
pub(crate) const SCHOUTE_BACKLOG_PER_COLLISION: f64 = 2.39;

/// Frame-by-frame backlog estimation: after each round the remaining
/// population is estimated as `2.39 × collisions` and the next frame is
/// sized to match (`Q = round(log2(backlog))`). Collision-free frames
/// shrink Q one step at a time toward the terminal Q=0 round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchouteQ {
    q: u8,
}

impl SchouteQ {
    /// Starts with a `2^q0` frame (q0 clamped to 15).
    pub fn new(q0: u8) -> Self {
        SchouteQ { q: q0.min(15) }
    }
}

impl AntiCollision for SchouteQ {
    fn choose_q(&self) -> u8 {
        self.q
    }

    fn on_slot_outcome(&mut self, _outcome: &SlotOutcome) {}

    fn on_empty_slots(&mut self, _n: usize) {}

    fn on_round_end(&mut self, stats: &RoundStats) {
        let backlog = SCHOUTE_BACKLOG_PER_COLLISION * stats.collisions as f64;
        self.q = if backlog < 1.0 {
            self.q.saturating_sub(1)
        } else {
            backlog.log2().round().clamp(0.0, 15.0) as u8
        };
    }

    fn name(&self) -> &'static str {
        "schoute"
    }
}

/// Largest `|ln w| + |k|` the log certificate takes (faded powers stay normal).
const LN_POWER_MAX: f64 = 460.0;

/// Capture-effect arbitration for multi-reply slots.
///
/// Physically, colliding backscatter replies are not symmetric: the
/// reader can often still decode the strongest RN16 when its received
/// power beats the *sum* of the other repliers by a threshold (FM
/// capture). Per-tag mean powers are fed from the link budget
/// (relative units suffice — only ratios matter); each contest draws
/// one uniform fade per replier from the model's own forked RNG, so a
/// round's outcomes depend only on the seeds, never on thread count.
#[derive(Debug, Clone)]
pub struct CaptureModel {
    /// Mean received power `w` per tag index, linear relative units, with
    /// `ln w` (+∞ past `LN_POWER_MAX`); [`with_rng`](Self::with_rng) shares it.
    table: Arc<[(f64, f64)]>,
    /// Linear power ratio the winner must hold over the rest, and its log.
    ratio_lin: f64,
    ln_ratio: f64,
    /// Half-range of the per-reply uniform fade, dB.
    fade_db: f64,
    /// The largest fade factor, `10^(fade_db/10)`.
    fade_max: f64,
    /// `k = fade_db·ln10/10`: a faded log power is `ln w + k·(2u − 1)`.
    ln_fade: f64,
    /// Most repliers the log certificate may decide (0: none).
    cert_max_n: usize,
    rng: StdRng,
}

/// Slack of [`CaptureModel`]'s no-capture test and log certificate: far
/// above the few ulps by which `powf`, `ln` and a contest's products and
/// sums can stray from their exact values.
const NO_CAPTURE_SLACK: f64 = 1e-9;

impl CaptureModel {
    /// Builds the model from per-tag link-budget powers, a capture
    /// threshold in dB, a per-reply fade half-range in dB, and the
    /// (forked) RNG that decides each contest.
    pub fn new(powers: Vec<f64>, threshold_db: f64, fade_db: f64, rng: StdRng) -> Self {
        let ratio_lin = 10f64.powf(threshold_db / 10.0);
        let ln_fade = fade_db * std::f64::consts::LN_10 / 10.0;
        let ln = |w: f64| Some(w.ln()).filter(|l| l.abs() + ln_fade.abs() <= LN_POWER_MAX);
        let table = powers.iter().map(|&w| (w, ln(w).unwrap_or(f64::INFINITY)));
        // `certify`'s rounding bound, 8ε(|ln w| + |k| + 1) + n(ratio + 1)ε,
        // must stay under half the slack.
        let log_err = 8.0 * f64::EPSILON * (LN_POWER_MAX + 1.0);
        let n_max = (NO_CAPTURE_SLACK / 2.0 - log_err) / ((ratio_lin + 1.0) * f64::EPSILON);
        // An unknown tag counts as `w = 1`, `ln w = 0`, so `|k|` must be in range too.
        let k_ok = ln_fade.abs() <= LN_POWER_MAX;
        CaptureModel {
            table: table.collect(),
            ratio_lin,
            ln_ratio: ratio_lin.ln(),
            fade_db,
            fade_max: 10f64.powf(fade_db / 10.0),
            ln_fade,
            cert_max_n: if k_ok { n_max as usize } else { 0 },
            rng,
        }
    }

    /// This model with its contests drawn from `rng`, sharing its tables.
    pub fn with_rng(&self, rng: StdRng) -> Self {
        CaptureModel {
            rng,
            ..self.clone()
        }
    }

    /// Arbitrates one multi-reply slot: returns the index *within
    /// `replier_tags`* of the captured reply, or `None` for a true
    /// collision. Draws exactly one fade per replier, in order.
    pub fn arbitrate(&mut self, replier_tags: &[usize]) -> Option<usize> {
        self.contest(replier_tags).0
    }

    /// [`arbitrate`](Self::arbitrate), and which test decided it: 0 for
    /// `never_captures`, 1 for `certify`, 2 for the fade loop, the one
    /// evaluator (the others only decide early, with its outcome and RNG).
    pub(crate) fn contest(&mut self, replier_tags: &[usize]) -> (Option<usize>, usize) {
        if self.never_captures(replier_tags) {
            for _ in replier_tags {
                let _: f64 = self.rng.random();
            }
            return (None, 0);
        }
        if let Some(outcome) = self.certify(replier_tags) {
            return (outcome, 1);
        }
        let mut best = 0usize;
        let mut best_p = f64::NEG_INFINITY;
        let mut total = 0.0;
        for (k, &tag_idx) in replier_tags.iter().enumerate() {
            let u: f64 = self.rng.random();
            let fade = 10f64.powf(self.fade_db * (2.0 * u - 1.0) / 10.0);
            let p = self.table.get(tag_idx).map_or(1.0, |t| t.0) * fade;
            total += p;
            if p > best_p {
                best_p = p;
                best = k;
            }
        }
        let rest = total - best_p;
        let won = rest <= 0.0 || best_p >= self.ratio_lin * rest;
        (won.then_some(best), 2)
    }

    /// Whether the contest is lost before any fade is drawn. With mean
    /// powers `wᵢ` and `F = 10^(fade_db/10)`, every faded power lies in
    /// `[wᵢ/F, wᵢ·F]`, so the winner holds at most `w_max·F` and the rest
    /// at least `(Σw − w_max)/F`. If `w_max·F < ratio·(Σw − w_max)/F`
    /// with [`NO_CAPTURE_SLACK`] on both sides, and with the rest's floor
    /// lowered by the rounding of `Σ` over `n` faded powers, no replier
    /// can capture. Taken only for `n ≥ 2`, `fade_db ≥ 0`, a finite ratio,
    /// and finite positive powers.
    fn never_captures(&self, replier_tags: &[usize]) -> bool {
        let eligible = replier_tags.len() >= 2 && self.fade_db >= 0.0 && self.ratio_lin.is_finite();
        if !eligible {
            return false;
        }
        let (mut sum, mut max) = (0.0f64, 0.0f64);
        for &tag_idx in replier_tags {
            let w = self.table.get(tag_idx).map_or(1.0, |t| t.0);
            if !(w.is_finite() && w > 0.0) {
                return false;
            }
            sum += w;
            max = max.max(w);
        }
        let (f, n) = (self.fade_max, replier_tags.len() as f64);
        let rest_floor =
            (sum - max) / f * (1.0 - NO_CAPTURE_SLACK) - 2.0 * n * f64::EPSILON * f * sum;
        max * f * (1.0 + NO_CAPTURE_SLACK) < self.ratio_lin * rest_floor
    }

    /// The fade loop's outcome from log powers `Lᵢ = ln wᵢ + k·(2uᵢ − 1)`,
    /// drawing its fades, or `None` (RNG untouched) when the top-two gap
    /// `g = L_b − L₂` is within the slack `s` of a boundary: `g > s` fixes
    /// the loop's argmax, `g < ln ratio − s` puts the winner below `ratio`
    /// times the runner-up, and `g > ln ratio + ln(n−1) + s` puts it above
    /// `ratio` times all `n − 1` others. Each `Lᵢ` is within
    /// `4ε(|ln w| + |k| + 1)` of the loop's `ln pᵢ` (`powf`, `ln` within
    /// 1 ulp), and the loop's sum and `ratio·rest` move its test by under
    /// `n(ratio + 1)ε`; `cert_max_n` keeps both under `s/2`.
    fn certify(&mut self, replier_tags: &[usize]) -> Option<Option<usize>> {
        let n = replier_tags.len();
        if !(2..=self.cert_max_n).contains(&n) {
            return None;
        }
        let mut rng = self.rng.clone();
        let (mut best, mut top, mut second) = (0, f64::NEG_INFINITY, f64::NEG_INFINITY);
        for (k, &tag_idx) in replier_tags.iter().enumerate() {
            let u: f64 = rng.random();
            let l = self.table.get(tag_idx).map_or(0.0, |t| t.1) + self.ln_fade * (2.0 * u - 1.0);
            if l > top {
                (second, top, best) = (top, l, k);
            } else {
                second = second.max(l);
            }
        }
        // A `ln w` off the table's range is +∞, and so is `top`.
        let (gap, s) = (top - second, NO_CAPTURE_SLACK);
        let lost = gap < self.ln_ratio - s;
        let won = || gap > self.ln_ratio + ((n - 1) as f64).ln() + s;
        if !(top < f64::INFINITY && gap > s && (lost || won())) {
            return None;
        }
        self.rng = rng;
        Some((!lost).then_some(best))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_matches_legacy_q_algorithm_steps() {
        let mut p = AdaptiveQ::new(QAlgorithm { q0: 4, c: 0.5 });
        assert_eq!(p.choose_q(), 4);
        p.on_slot_outcome(&SlotOutcome::Collision);
        p.on_slot_outcome(&SlotOutcome::Collision);
        assert!(p.qfp > 4.0);
        let mut down = AdaptiveQ::new(QAlgorithm { q0: 4, c: 0.5 });
        for _ in 0..4 {
            down.on_slot_outcome(&SlotOutcome::Empty);
        }
        assert_eq!(down.choose_q(), 2);
        // Clamps at both ends.
        let mut lo = AdaptiveQ::new(QAlgorithm { q0: 0, c: 0.5 });
        lo.on_slot_outcome(&SlotOutcome::Empty);
        assert_eq!(lo.choose_q(), 0);
        let mut hi = AdaptiveQ::new(QAlgorithm { q0: 15, c: 0.5 });
        hi.on_slot_outcome(&SlotOutcome::Collision);
        assert_eq!(hi.choose_q(), 15);
    }

    #[test]
    fn fixed_q_never_moves() {
        let mut p = FixedQ::new(6);
        p.on_slot_outcome(&SlotOutcome::Collision);
        p.on_round_end(&RoundStats {
            collisions: 40,
            ..Default::default()
        });
        assert_eq!(p.choose_q(), 6);
        assert_eq!(FixedQ::new(99).choose_q(), 15);
    }

    #[test]
    fn schoute_sizes_frame_to_estimated_backlog() {
        let mut p = SchouteQ::new(4);
        // 27 collision slots ⇒ backlog ≈ 64.5 ⇒ Q = 6.
        p.on_round_end(&RoundStats {
            collisions: 27,
            ..Default::default()
        });
        assert_eq!(p.choose_q(), 6);
        // Collision-free frames walk Q down one step per round.
        p.on_round_end(&RoundStats::default());
        assert_eq!(p.choose_q(), 5);
        let mut zero = SchouteQ::new(0);
        zero.on_round_end(&RoundStats::default());
        assert_eq!(zero.choose_q(), 0);
    }

    #[test]
    fn empty_runs_equal_repeated_empty_slots() {
        let runs = [0usize, 1, 2, 7, 16, 51, 400, 100_000];
        for &q0 in &[0u8, 1, 4, 9, 15] {
            for &c in &[0.0, 1e-300, 0.1, 0.3, 0.5, 0.7, 1.0, 4.0] {
                for (&n, collide_first) in runs.iter().flat_map(|n| [(n, false), (n, true)]) {
                    let mut run = AdaptiveQ::new(QAlgorithm { q0, c });
                    // A leading collision starts the run off the integer grid.
                    if collide_first {
                        run.on_slot_outcome(&SlotOutcome::Collision);
                    }
                    let mut slotwise = run.clone();
                    run.on_empty_slots(n);
                    for _ in 0..n {
                        slotwise.on_slot_outcome(&SlotOutcome::Empty);
                    }
                    assert_eq!(
                        run.qfp.to_bits(),
                        slotwise.qfp.to_bits(),
                        "q0={q0} c={c} n={n} collide_first={collide_first}"
                    );
                    assert_eq!(run, slotwise);
                }
            }
        }
        for &q in &[0u8, 6, 15] {
            for &n in &runs {
                let (mut fixed, mut schoute) = (FixedQ::new(q), SchouteQ::new(q));
                let (fixed0, schoute0) = (fixed, schoute);
                fixed.on_empty_slots(n);
                schoute.on_empty_slots(n);
                let (mut fixed1, mut schoute1) = (fixed0, schoute0);
                for _ in 0..n {
                    fixed1.on_slot_outcome(&SlotOutcome::Empty);
                    schoute1.on_slot_outcome(&SlotOutcome::Empty);
                }
                assert_eq!((fixed, schoute), (fixed1, schoute1), "q={q} n={n}");
            }
        }
    }

    #[test]
    fn capture_resolves_dominant_reply_only() {
        // Tag 0 is 20 dB above tag 1: captured regardless of a ±1 dB fade.
        let rng = StdRng::seed_from_u64(5);
        let mut cap = CaptureModel::new(vec![100.0, 1.0], 6.0, 1.0, rng);
        assert_eq!(cap.arbitrate(&[0, 1]), Some(0));
        // Equal powers with no fade: neither can hold a 6 dB margin.
        let rng = StdRng::seed_from_u64(5);
        let mut tie = CaptureModel::new(vec![1.0, 1.0], 6.0, 0.0, rng);
        assert_eq!(tie.arbitrate(&[0, 1]), None);
    }

    #[test]
    fn certificate_caps_follow_the_rounding_bound() {
        let cap = |threshold_db, fade_db| {
            CaptureModel::new(vec![1.0], threshold_db, fade_db, StdRng::seed_from_u64(1)).cert_max_n
        };
        // 6 dB: n(ratio + 1)ε stays under the slack for ~450 000 repliers.
        assert!(
            (400_000..500_000).contains(&cap(6.0, 3.0)),
            "{}",
            cap(6.0, 3.0)
        );
        // The cap shrinks as the ratio grows, and closes past ~60 dB.
        assert!(cap(50.0, 3.0) < 30 && cap(50.0, 3.0) > 0);
        assert_eq!(cap(70.0, 3.0), 0);
        // A fade whose |k| leaves the table's range closes it for every
        // contest, unknown tags included; so do non-finite settings.
        assert!(cap(6.0, -1990.0) > 0);
        assert_eq!(cap(6.0, 2000.0), 0);
        assert_eq!(cap(6.0, -2000.0), 0);
        assert_eq!(cap(f64::NAN, 3.0), 0);
        assert_eq!(cap(6.0, f64::NAN), 0);
        assert_eq!(cap(f64::INFINITY, 3.0), 0);
    }

    #[test]
    fn capture_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut cap =
                CaptureModel::new(vec![4.0, 1.0, 2.0], 3.0, 6.0, StdRng::seed_from_u64(seed));
            (0..32)
                .map(|_| cap.arbitrate(&[0, 1, 2]))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "fades ignored the seed");
    }
}
