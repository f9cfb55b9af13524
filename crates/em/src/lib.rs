//! # ivn-em — electromagnetics and tissue propagation substrate
//!
//! Implements the physical layer that the paper's hardware evaluation runs
//! over: dielectric media (air, fluids, biological tissues), plane-wave
//! attenuation, boundary transmittance, layered-body channels (the paper's
//! Eq. 2: `|E| = (T·A/r)·e^{-αd}`), multipath, antenna gains, inter-tag
//! coupling, and the per-block channel stage of the streaming sample path.
//!
//! Everything is deterministic; random channels draw from caller-provided
//! seeded RNGs.
//!
//! ```
//! use ivn_em::medium::Medium;
//!
//! // Muscle at 915 MHz loses roughly 2–7 dB/cm (paper §2.2.1).
//! let loss = Medium::muscle().loss_db_per_cm(915e6);
//! assert!(loss > 1.5 && loss < 7.0);
//! ```

pub mod antenna;
pub mod boundary;
pub mod channel;
pub mod coupling;
pub mod layered;
pub mod medium;
pub mod multipath;
pub mod stream;
