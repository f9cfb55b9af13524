//! # ivn-rfid — EPC Gen2 backscatter protocol substrate
//!
//! A bit-accurate subset of the EPC UHF Gen2 air interface, enough to run
//! the paper's full communication loop:
//!
//! * [`crc`] — CRC-5 and CRC-16 exactly as Gen2 specifies them,
//! * [`pie`] — reader→tag pulse-interval encoding with delimiter /
//!   RTcal / TRcal preambles,
//! * [`commands`] — Query, QueryRep, QueryAdjust, ACK, Select, ReqRN
//!   codecs,
//! * [`fm0`] — tag→reader FM0 baseband coding, including the 12-bit
//!   extended preamble `110100100011` the paper correlates against (§6.2),
//! * [`epc`] — the packed, `Copy` [`epc::Epc`] a tag stores and a read
//!   returns,
//! * [`tag`] — the tag-side state machine with power-loss semantics,
//! * [`reader`] — inventory-round logic driven through the
//!   anti-collision seam,
//! * [`anticollision`] — the pluggable frame-sizing policies (adaptive
//!   Q, fixed Q, Schoute backlog estimation) and the capture-effect
//!   arbitration model,
//! * [`population`] — an O(active tags)-per-round inventory driver for
//!   population-scale experiments, bit-identical to the broadcast reader,
//! * [`backscatter`] — the physical reflection-coefficient model whose
//!   frequency-agnosticism makes the paper's out-of-band reader possible,
//! * [`link`] — link-timing budget (Tari, BLF, T1…T4) used to derive the
//!   ~800 µs query duration that constrains CIB's frequency plan.

pub mod anticollision;
pub mod backscatter;
pub mod commands;
pub mod crc;
pub mod epc;
pub mod fm0;
pub mod link;
pub mod pie;
pub mod population;
pub mod reader;
pub mod stream;
pub mod tag;

/// The paper's 12-bit FM0 preamble bit pattern, `110100100011` (§6.2).
pub const PAPER_PREAMBLE_BITS: [bool; 12] = [
    true, true, false, true, false, false, true, false, false, false, true, true,
];
