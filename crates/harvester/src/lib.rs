//! # ivn-harvester — energy-harvesting circuit simulator
//!
//! Models the battery-free sensor's RF→DC chain from the paper's §2:
//!
//! * diode I-V behaviour, ideal vs. threshold-limited ([`diode`]),
//! * the conduction angle ω — the slice of each RF cycle where the diode
//!   conducts ([`conduction`], paper Fig. 4),
//! * the N-stage Dickson voltage multiplier with its output law
//!   `V_DC = N(V_s − V_th)` ([`rectifier`], paper Eq. 1),
//! * and the end-to-end power-up decision for a tag exposed to a received
//!   envelope ([`powerup`]).
//!
//! The key nonlinearity that CIB exploits lives here: harvested energy is
//! *not* proportional to received energy — nothing at all is harvested
//! until the envelope beats the diode threshold, after which efficiency
//! climbs steeply. Focusing the same average power into short peaks (CIB)
//! therefore harvests where steady illumination harvests zero.

pub mod conduction;
pub mod diode;
pub mod powerup;
pub mod rectifier;

pub use diode::DiodeModel;
pub use powerup::{PowerUpOutcome, TagPowerProfile};
