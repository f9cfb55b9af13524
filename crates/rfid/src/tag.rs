//! Tag-side Gen2 state machine with power-loss semantics.
//!
//! The machine follows the Gen2 inventory flow: `Ready → Arbitrate →
//! Reply → Acknowledged`, driven by decoded reader commands. Two
//! IVN-specific behaviours are modelled faithfully:
//!
//! * **Power gating** — the machine only advances while the harvester
//!   keeps the chip supplied; a brownout at any point resets all volatile
//!   state (slot counter, RN16, session flags). The paper's in-vivo
//!   failures ("the tag may have moved … or been misoriented") manifest
//!   exactly as mid-round brownouts.
//! * **Selection masks** — the §3.7 multi-sensor mechanism: a Select
//!   command with a non-matching EPC prefix parks the tag for the round.

use crate::commands::{Command, Session};
use crate::epc::Epc;
use ivn_runtime::rng::{Rng, StdRng};

/// Inventory state of a powered tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagState {
    /// Powered, waiting for a Query.
    Ready,
    /// In a round with a nonzero slot counter.
    Arbitrate,
    /// Slot counter hit zero; RN16 transmitted, awaiting ACK.
    Reply,
    /// ACK matched; EPC transmitted.
    Acknowledged,
    /// Deselected by a non-matching Select for the current round.
    Parked,
}

/// What a tag transmits in response to a command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TagReply {
    /// Nothing.
    Silent,
    /// 16-bit random number (Reply state entry).
    Rn16(u16),
    /// PC + EPC + CRC16 bits (Acknowledged state entry).
    Epc(Vec<bool>),
    /// New handle (ReqRN response).
    Handle(u16),
}

/// A simulated Gen2 tag.
#[derive(Debug, Clone)]
pub struct Tag {
    /// EPC identity, packed inline.
    epc: Epc,
    state: TagState,
    powered: bool,
    slot: u32,
    rn16: u16,
    session: Session,
    rng: StdRng,
    /// Gen2 inventoried flag: set on a successful ACK, wiped by brownout.
    /// A read tag stays silent at every Query until then.
    inventoried: bool,
}

impl Tag {
    /// Creates an unpowered tag with the given EPC and RNG seed.
    pub fn new(epc: Epc, seed: u64) -> Self {
        Tag {
            epc,
            state: TagState::Ready,
            powered: false,
            slot: 0,
            rn16: 0,
            session: Session::S0,
            rng: StdRng::seed_from_u64(seed),
            inventoried: false,
        }
    }

    /// Creates a tag from a 96-bit EPC expressed as a u128 (top 32 bits
    /// ignored).
    pub fn with_epc96(epc: u128, seed: u64) -> Self {
        Self::new(Epc::from_u96(epc), seed)
    }

    /// The tag's EPC.
    pub(crate) fn epc(&self) -> Epc {
        self.epc
    }

    /// Current state (meaningful only while powered).
    pub fn state(&self) -> TagState {
        self.state
    }

    /// Whether the chip currently has power.
    pub fn is_powered(&self) -> bool {
        self.powered
    }

    /// Supplies or removes chip power. Losing power wipes volatile state.
    pub fn set_powered(&mut self, powered: bool) {
        if self.powered && !powered {
            // Brownout: all volatile inventory state evaporates.
            self.state = TagState::Ready;
            self.slot = 0;
            self.rn16 = 0;
            self.inventoried = false;
        }
        self.powered = powered;
    }

    /// Processes a decoded reader command, returning the tag's reply.
    /// Unpowered tags never respond.
    pub fn process(&mut self, cmd: &Command) -> TagReply {
        if !self.powered {
            return TagReply::Silent;
        }
        match cmd {
            Command::Select { mask } => {
                // Non-matching prefix parks the tag; matching (or empty)
                // un-parks it.
                self.state = if self.epc.starts_with(mask) {
                    TagState::Ready
                } else {
                    TagState::Parked
                };
                TagReply::Silent
            }
            Command::Query { session, q, .. } => {
                if self.state == TagState::Parked || self.inventoried {
                    return TagReply::Silent;
                }
                self.session = *session;
                self.slot = if *q == 0 {
                    0
                } else {
                    self.rng.random_range(0..(1u32 << q))
                };
                if self.slot == 0 {
                    self.rn16 = self.rng.random();
                    self.state = TagState::Reply;
                    TagReply::Rn16(self.rn16)
                } else {
                    self.state = TagState::Arbitrate;
                    TagReply::Silent
                }
            }
            // QueryAdjust is handled exactly like QueryRep: the slot
            // counter steps down and no new slot is drawn (ROADMAP item 6).
            Command::QueryRep { session } | Command::QueryAdjust { session, .. } => {
                if *session != self.session || self.state == TagState::Parked {
                    return TagReply::Silent;
                }
                match self.state {
                    TagState::Arbitrate => {
                        self.slot = self.slot.saturating_sub(1);
                        if self.slot == 0 {
                            self.rn16 = self.rng.random();
                            self.state = TagState::Reply;
                            TagReply::Rn16(self.rn16)
                        } else {
                            TagReply::Silent
                        }
                    }
                    // A QueryRep while in Reply/Acknowledged means the
                    // reader moved on: return to arbitration limbo.
                    TagState::Reply | TagState::Acknowledged => {
                        self.state = TagState::Ready;
                        TagReply::Silent
                    }
                    _ => TagReply::Silent,
                }
            }
            Command::Ack { rn16 } => {
                if self.state == TagState::Reply && *rn16 == self.rn16 {
                    self.state = TagState::Acknowledged;
                    self.inventoried = true;
                    TagReply::Epc(self.epc_reply_bits())
                } else {
                    // Wrong RN16: fall back to arbitration.
                    if self.state == TagState::Reply {
                        self.state = TagState::Ready;
                    }
                    TagReply::Silent
                }
            }
            Command::ReqRn { rn16 } => {
                if self.state == TagState::Acknowledged && *rn16 == self.rn16 {
                    self.rn16 = self.rng.random();
                    TagReply::Handle(self.rn16)
                } else {
                    TagReply::Silent
                }
            }
        }
    }

    /// The Acknowledged-state reply: PC word (EPC length), EPC, CRC-16.
    pub fn epc_reply_bits(&self) -> Vec<bool> {
        // PC word: 5-bit length (in 16-bit words) + 11 reserved zeros.
        let words = self.epc.len().div_ceil(16) as u16;
        let pc: u16 = words << 11;
        let mut bits = crate::crc::u16_to_bits(pc);
        bits.extend(self.epc.bits());
        crate::crc::append_crc16(&mut bits);
        bits
    }

    // ---- population fast-path hooks ---------------------------------
    //
    // `crate::population` runs rounds in O(active tags) by bucketing
    // drawn slots instead of broadcasting every command to every tag.
    // These helpers replay *exactly* the RNG draw sequence `process`
    // would perform for an eligible tag in a collision-free protocol
    // exchange — slot draw at Query (skipped when q == 0), then one RN16
    // draw when its slot arrives — which is what keeps the fast path
    // bit-identical to the naive loop.

    /// Whether the tag would participate in the next Query.
    pub(crate) fn fast_active(&self) -> bool {
        self.powered && self.state != TagState::Parked && !self.inventoried
    }

    /// Mirrors the Query slot draw (no draw at q == 0).
    ///
    /// `random_range(0..2^q)` is Lemire's multiply-shift, `(x · 2^q) >> 64`,
    /// whose rejection zone `2^64 mod 2^q` is 0 for a power-of-two span:
    /// the first word is always accepted and the value is its top q bits.
    pub(crate) fn fast_draw_slot(&mut self, q: u8) -> u32 {
        if q == 0 {
            0
        } else {
            (self.rng.next_u64() >> (64 - q)) as u32
        }
    }

    /// Mirrors the RN16 draw a tag performs when its slot counter hits 0.
    pub(crate) fn fast_draw_rn16(&mut self) -> u16 {
        self.rn16 = self.rng.random();
        self.rn16
    }

    /// Marks a successful ACK (the inventoried flag).
    pub(crate) fn fast_mark_inventoried(&mut self) {
        self.inventoried = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::{DivideRatio, TagEncoding};

    fn query(q: u8) -> Command {
        Command::Query {
            dr: DivideRatio::Dr8,
            m: TagEncoding::Fm0,
            trext: false,
            session: Session::S0,
            q,
        }
    }

    fn powered_tag() -> Tag {
        let mut t = Tag::with_epc96(0x0123_4567_89AB_CDEF_0011_2233, 7);
        t.set_powered(true);
        t
    }

    #[test]
    fn unpowered_tag_is_silent() {
        let mut t = Tag::with_epc96(1, 1);
        assert_eq!(t.process(&query(0)), TagReply::Silent);
        assert!(!t.is_powered());
    }

    #[test]
    fn q0_query_replies_immediately() {
        let mut t = powered_tag();
        match t.process(&query(0)) {
            TagReply::Rn16(_) => {}
            other => panic!("expected RN16, got {other:?}"),
        }
        assert_eq!(t.state(), TagState::Reply);
    }

    #[test]
    fn full_inventory_handshake() {
        let mut t = powered_tag();
        let rn = match t.process(&query(0)) {
            TagReply::Rn16(rn) => rn,
            other => panic!("{other:?}"),
        };
        let epc_bits = match t.process(&Command::Ack { rn16: rn }) {
            TagReply::Epc(bits) => bits,
            other => panic!("{other:?}"),
        };
        assert_eq!(t.state(), TagState::Acknowledged);
        // Reply = PC(16) + EPC(96) + CRC(16).
        assert_eq!(epc_bits.len(), 128);
        assert!(crate::crc::check_crc16(&epc_bits));
        assert_eq!(Epc::from_bits(&epc_bits[16..112]), t.epc());
        // Handle request.
        match t.process(&Command::ReqRn { rn16: rn }) {
            TagReply::Handle(h) => assert_ne!(h, rn),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wrong_ack_is_rejected() {
        let mut t = powered_tag();
        let rn = match t.process(&query(0)) {
            TagReply::Rn16(rn) => rn,
            other => panic!("{other:?}"),
        };
        assert_eq!(
            t.process(&Command::Ack {
                rn16: rn.wrapping_add(1)
            }),
            TagReply::Silent
        );
        assert_ne!(t.state(), TagState::Acknowledged);
    }

    #[test]
    fn slotted_arbitration_counts_down() {
        // With Q=4 a seeded tag picks some slot; QueryReps count it down to
        // a reply.
        let mut t = powered_tag();
        let first = t.process(&query(4));
        let mut replies = 0;
        if matches!(first, TagReply::Rn16(_)) {
            replies += 1;
        }
        let mut reps = 0;
        while replies == 0 && reps < 16 {
            if let TagReply::Rn16(_) = t.process(&Command::QueryRep {
                session: Session::S0,
            }) {
                replies += 1;
            }
            reps += 1;
        }
        assert_eq!(replies, 1, "tag never replied within the round");
        assert!(reps as u32 >= t.slot); // slot hit zero
    }

    #[test]
    fn brownout_wipes_state() {
        let mut t = powered_tag();
        let _ = t.process(&query(0));
        assert_eq!(t.state(), TagState::Reply);
        t.set_powered(false);
        assert_eq!(t.state(), TagState::Ready);
        assert_eq!(t.rn16, 0);
        // Needs power again before responding.
        assert_eq!(t.process(&query(0)), TagReply::Silent);
    }

    #[test]
    fn select_parks_non_matching_tags() {
        let mut t = powered_tag();
        // A mask that cannot match (EPC starts with 0 bits for this value).
        let bad_mask = vec![true; 8];
        t.process(&Command::Select { mask: bad_mask });
        assert_eq!(t.state(), TagState::Parked);
        assert_eq!(t.process(&query(0)), TagReply::Silent);
        // Matching (empty) mask un-parks.
        t.process(&Command::Select { mask: vec![] });
        assert!(matches!(t.process(&query(0)), TagReply::Rn16(_)));
    }

    #[test]
    fn select_matching_prefix_keeps_tag() {
        let mut t = powered_tag();
        let mask = t.epc().bits().take(8).collect();
        t.process(&Command::Select { mask });
        assert_eq!(t.state(), TagState::Ready);
        assert!(matches!(t.process(&query(0)), TagReply::Rn16(_)));
    }

    #[test]
    fn query_adjust_steps_the_slot_like_query_rep() {
        // Seed 7 at Q = 4 draws a slot above 1, so the first step leaves
        // the tag arbitrating.
        let mut rep = powered_tag();
        let _ = rep.process(&query(4));
        assert!(rep.slot > 1);
        let mut adjust = rep.clone();
        let before = adjust.rng.clone();
        let slot = adjust.slot;
        let adj = Command::QueryAdjust {
            session: Session::S0,
            updn: 1,
        };
        assert_eq!(adjust.process(&adj), TagReply::Silent);
        assert_eq!(adjust.slot, slot - 1);
        assert_eq!(adjust.state(), TagState::Arbitrate);
        assert!(adjust.rng == before, "QueryAdjust drew from the tag RNG");
        let _ = rep.process(&Command::QueryRep {
            session: Session::S0,
        });
        // From here on the two tags answer every step alike.
        for _ in 0..16 {
            let a = adjust.process(&adj);
            let r = rep.process(&Command::QueryRep {
                session: Session::S0,
            });
            assert_eq!(a, r);
            assert_eq!((adjust.slot, adjust.state()), (rep.slot, rep.state()));
        }
    }

    #[test]
    fn session_mismatch_ignored() {
        let mut t = powered_tag();
        let _ = t.process(&query(4));
        // QueryRep on a different session does nothing.
        let before = t.slot;
        t.process(&Command::QueryRep {
            session: Session::S2,
        });
        assert_eq!(t.slot, before);
    }

    #[test]
    fn single_read_silences_inventoried_tag_until_brownout() {
        let mut t = powered_tag();
        let rn = match t.process(&query(0)) {
            TagReply::Rn16(rn) => rn,
            other => panic!("{other:?}"),
        };
        assert!(matches!(
            t.process(&Command::Ack { rn16: rn }),
            TagReply::Epc(_)
        ));
        assert!(t.inventoried);
        // Read once: silent at the next Query.
        assert_eq!(t.process(&query(0)), TagReply::Silent);
        // Brownout wipes the flag; the tag replies again.
        t.set_powered(false);
        t.set_powered(true);
        assert!(!t.inventoried);
        assert!(matches!(t.process(&query(0)), TagReply::Rn16(_)));
    }

    #[test]
    fn fast_slot_draw_equals_query_range_draw() {
        for q in 1..=15u8 {
            for seed in 0..64u64 {
                let mut t = Tag::with_epc96(1, seed * 7919 + q as u64);
                // Advance a little so the draw is not always a stream's first.
                for _ in 0..seed % 5 {
                    t.rng.next_u64();
                }
                let mut reference = t.rng.clone();
                for _ in 0..4 {
                    let want = reference.random_range(0..(1u32 << q));
                    assert_eq!(t.fast_draw_slot(q), want, "q={q} seed={seed}");
                }
                assert!(t.rng == reference, "q={q} seed={seed}: RNG states diverged");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = powered_tag();
        let mut b = powered_tag();
        let ra = a.process(&query(4));
        let rb = b.process(&query(4));
        assert_eq!(ra, rb);
        assert_eq!(a.slot, b.slot);
    }
}
