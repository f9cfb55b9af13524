//! # ivn-sdr — software-radio testbed simulator
//!
//! Models the hardware of the paper's prototype (§5): a rack of USRP
//! N210-class devices, each with an SBX-class front end and an HMC453
//! power amplifier, all disciplined by a CDA-2900 Octoclock (shared 10 MHz
//! reference + PPS).
//!
//! The modelled imperfections are exactly the ones the paper's design
//! reasons about:
//!
//! * [`pll`] — each retune leaves a **random initial carrier phase** θᵢ
//!   (paper Eq. 5), and the synthesizer step size is too coarse for
//!   hertz-level offsets, forcing CIB to soft-code its Δf in baseband
//!   (paper §5a);
//! * [`clock`] — a shared reference removes frequency *drift* between
//!   devices but not phase offsets; PPS aligns sample timing to a small
//!   residual jitter;
//! * [`pa`] — Rapp-model soft compression around the 30 dBm P1dB point;
//! * [`adc`] — quantization, clipping and receiver saturation (the
//!   self-jamming failure §4 designs around), plus the SAW bandpass model;
//! * [`SdrDevice`] / [`bank`] — a complete TX device and the synchronized
//!   N-transmitter bank that the CIB beamformer drives.

pub mod adc;
pub mod bank;
pub mod clock;
mod device;
pub mod pa;
pub mod pll;
pub mod stream;

pub use device::SdrDevice;
