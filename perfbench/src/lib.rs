//! End-to-end benchmark of the IVN workspace.
//!
//! Three workloads run through the program's public entry points:
//! `pipeline` (the streaming sample path), `campaign` (a generated
//! scenario fleet) and `inventory` (a tag-population fleet). The untraced
//! run ([`measure`]) reports the end-to-end figures; the traced run
//! ([`layers`]) reports the per-layer breakdown.

pub mod layers;
pub mod measure;
pub mod probe;
pub mod procstat;
pub mod witness;
pub mod workloads;
