//! Output witnesses: a 64-bit FNV-1a digest over the fields each entry
//! point already returns, compared with the digests committed in
//! `witnesses.json`.
//!
//! The digests cover typed outputs rather than rendered bytes: the
//! campaign's `ScenarioMetrics` and `errors`, not the report text, so a
//! report may gain fields without tripping the check.

use crate::workloads::{Workload, INPUT_VARIANTS};
use ivn_bench::campaign::CampaignOutcome;
use ivn_bench::inventory::FleetStats;
use ivn_bench::pipeline::PathOutputs;
use ivn_runtime::json::Json;

/// Incremental FNV-1a over 64-bit words and byte strings.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn f64s(&mut self, v: &[f64]) {
        self.word(v.len() as u64);
        for &x in v {
            self.f64(x);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of the streaming sample path's outputs.
pub fn pipeline(o: &PathOutputs) -> u64 {
    let mut d = Digest::default();
    d.f64(o.sample_rate);
    d.word(o.n_samples as u64);
    d.f64(o.score);
    d.f64(o.single_amp);
    d.f64(o.peak_amp);
    d.word(u64::from(o.outcome.powered));
    d.f64(o.outcome.time_to_power_s.unwrap_or(-1.0));
    d.f64(o.outcome.peak_vdc);
    d.f64(o.outcome.final_vdc);
    d.word(u64::from(o.downlink_ok));
    d.word(u64::from(o.uplink_ok));
    d.word(o.rx_hash);
    d.finish()
}

/// Digest of a campaign's per-scenario metrics and errors.
pub fn campaign(c: &CampaignOutcome) -> u64 {
    let mut d = Digest::default();
    d.word(c.metrics.len() as u64);
    for m in &c.metrics {
        d.str(&m.name);
        d.word(m.trials as u64);
        d.f64s(&m.gains_db);
        d.f64s(&m.times_to_power_s);
        d.word(m.powered as u64);
        d.word(m.decoded as u64);
    }
    d.word(c.errors.len() as u64);
    for (name, reason) in &c.errors {
        d.str(name);
        d.str(reason);
    }
    d.finish()
}

/// Digest of the per-body vectors of every policy arm, in arm order.
pub fn inventory(arms: &[FleetStats]) -> u64 {
    let mut d = Digest::default();
    for arm in arms {
        d.word(arm.per_body.len() as u64);
        for b in &arm.per_body {
            d.word(u64::from(b.inventoried));
            d.word(u64::from(b.rounds));
            d.word(u64::from(b.terminated));
            d.word(b.slots);
            d.word(b.collisions);
            d.word(b.captures);
        }
    }
    d.finish()
}

/// The committed digests of the full-scale workloads, keyed by workload
/// and then by input variant (`seed % INPUT_VARIANTS`); the pipeline's
/// inputs do not depend on the seed, so it has one entry, keyed `"any"`.
pub struct Committed(Json);

impl Committed {
    /// The table compiled into the benchmark.
    pub fn builtin() -> Committed {
        let text = include_str!("../witnesses.json");
        Committed(Json::parse(text).expect("witnesses.json is valid JSON"))
    }

    /// The committed digest for `w` at `seed`; a seed without one is an
    /// error, never a pass.
    pub fn get(&self, w: Workload, seed: u64) -> Result<u64, String> {
        let key = match w {
            Workload::Pipeline => "any".to_string(),
            _ => (seed % INPUT_VARIANTS).to_string(),
        };
        self.0
            .get(w.name())
            .and_then(|t| t.get(&key))
            .and_then(Json::as_str)
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .ok_or_else(|| format!("no committed witness for {} seed {seed}", w.name()))
    }
}
