//! # ivn-dsp — digital signal processing substrate for IVN
//!
//! This crate provides every signal-processing primitive used by the IVN
//! (In-Vivo Networking) reproduction: complex arithmetic, unit conversions,
//! IQ sample buffers, oscillators, phasor rotors, the inverse FFT, envelope
//! peak search, correlation, noise generation, streaming block primitives, and
//! the descriptive statistics used by every experiment.
//!
//! Design follows the event-driven, allocation-conscious style of embedded
//! networking stacks: plain data types, no `unsafe`, no hidden global state,
//! and deterministic behaviour (all randomness flows through caller-provided
//! seeded RNGs).
//!
//! ## Quick tour
//!
//! ```
//! use ivn_dsp::complex::Complex64;
//! use ivn_dsp::osc::Oscillator;
//!
//! // Generate a 5 Hz complex tone sampled at 1 kHz and check its envelope.
//! let mut osc = Oscillator::new(5.0, 1000.0);
//! let samples: Vec<Complex64> = (0..1000).map(|_| osc.next_sample()).collect();
//! assert!((samples[0].norm() - 1.0).abs() < 1e-12);
//! ```

pub mod block;
pub mod buffer;
pub mod complex;
pub mod correlate;
pub mod envelope;
pub mod fft;
pub mod noise;
pub mod osc;
pub mod rotor;
pub mod stats;
pub mod units;

pub use complex::Complex64;
