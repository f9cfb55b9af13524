//! # ivn-core — the IVN system: coherently-incoherent beamforming
//!
//! The paper's contribution, implemented end to end:
//!
//! * [`waveform`] — the CIB envelope `Y(t) = |Σᵢ e^{j(2πΔfᵢt + βᵢ)}|`:
//!   peak search, amplitude flatness (Eq. 7), the Taylor droop bound
//!   (Eq. 8/9);
//! * [`kernels`] — allocation-free batched/incremental/FFT envelope
//!   kernels the optimizer's Monte-Carlo objective runs on;
//! * [`freqsel`] — the constrained Monte-Carlo frequency-plan optimizer of
//!   Eq. 10, plus the worst-set search used for Fig. 6;
//! * [`cib`] — the CIB transmitter configuration and the analytic
//!   received-peak calculator experiments sweep;
//! * `baselines` — the paper's blind N-antenna baseline the experiments
//!   compare CIB against;
//! * [`oob`] — the out-of-band reader (§4): 880 vs 915 MHz, SAW rejection,
//!   1-second coherent averaging, preamble correlation ≥ 0.8;
//! * [`body`] — water tank, Fig. 11 media, and swine body presets;
//! * [`system`] — [`system::IvnSystem`]: SDR bank + channels + harvester +
//!   tag + reader, sample-level sessions and range search;
//! * [`experiment`] — seeded trial runners that produce the statistics
//!   each paper figure reports;
//! * [`scenario`] — the declarative configuration substrate: JSON-backed
//!   [`scenario::Scenario`] descriptions every experiment entry point
//!   consumes, a built-in registry for the paper's figures, a
//!   sweep/jitter generator, and the uniform campaign evaluator.

mod baselines;
pub mod body;
pub mod cib;
pub mod experiment;
pub mod freqsel;
pub mod hopping;
pub mod inventory;
pub mod kernels;
pub mod oob;
pub mod plancache;
pub mod scenario;
pub mod system;
pub mod twostage;
pub mod waveform;

/// The frequency plan the paper's prototype used (§5): relative offsets in
/// hertz from the 915 MHz band centre.
pub const PAPER_OFFSETS_HZ: [f64; 10] =
    [0.0, 7.0, 20.0, 49.0, 68.0, 73.0, 90.0, 113.0, 121.0, 137.0];

/// The paper's beamformer band centre.
pub const BEAMFORMER_CARRIER_HZ: f64 = 915e6;

/// The paper's out-of-band reader carrier.
pub(crate) const READER_CARRIER_HZ: f64 = 880e6;
