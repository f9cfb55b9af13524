//! Reader-side inventory logic driven through the anti-collision seam.
//!
//! Drives rounds of Query/QueryRep against a population of tags,
//! resolving slots into empty / single / collision outcomes. Frame
//! sizing is delegated to an [`AntiCollision`] policy — the default
//! [`Reader::new`] wraps a [`QAlgorithm`] (floating-point Qfp, ±C
//! steps per slot, read only at each Query) in
//! [`crate::anticollision::AdaptiveQ`], bit-identical
//! to the pre-seam behaviour; [`Reader::with_policy`] accepts any other
//! impl. An optional [`CaptureModel`] adds capture-effect arbitration to
//! multi-reply slots. The physical decoding happens elsewhere
//! (ivn-core's out-of-band reader); here the protocol logic is
//! exercised against [`crate::tag::Tag`] objects directly. The
//! protocol-level tests run it, and it is the reference that
//! [`crate::population`]'s O(active tags) rounds are checked against.

use crate::anticollision::{AdaptiveQ, AntiCollision, CaptureModel};
use crate::commands::{Command, DivideRatio, Session, TagEncoding};
use crate::epc::Epc;
use crate::tag::{Tag, TagReply};

/// Outcome of one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotOutcome {
    /// No tag replied.
    Empty,
    /// Exactly one tag replied and was inventoried: its EPC.
    Inventoried(Epc),
    /// Multiple tags collided.
    Collision,
}

/// Q-algorithm parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QAlgorithm {
    /// Initial Q.
    pub q0: u8,
    /// Step constant C (0.1–0.5 typical).
    pub c: f64,
}

impl Default for QAlgorithm {
    fn default() -> Self {
        QAlgorithm { q0: 4, c: 0.3 }
    }
}

impl QAlgorithm {
    /// These parameters as an [`AntiCollision`] policy.
    pub fn policy(self) -> AdaptiveQ {
        AdaptiveQ::new(self)
    }
}

/// Inventory statistics for one round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundStats {
    /// Slots with no reply.
    pub(crate) empty: usize,
    /// Slots with a clean single reply.
    pub(crate) singles: usize,
    /// Slots with collisions.
    pub(crate) collisions: usize,
    /// Multi-reply slots resolved by capture (also counted in `singles`).
    pub(crate) captures: usize,
}

impl RoundStats {
    /// Total slots in the round.
    pub(crate) fn slots(&self) -> usize {
        self.empty + self.singles + self.collisions
    }
}

/// Result of [`Reader::inventory_all`] (and the population fast path in
/// [`crate::population`]): the EPCs read, per-round diagnostics, and
/// whether the inventory actually finished or just ran out of rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct InventoryOutcome {
    /// EPCs read, in read order (a tag is read once until a brownout).
    pub epcs: Vec<Epc>,
    /// Per-round slot tallies, one entry per executed round.
    pub rounds: Vec<RoundStats>,
    /// `true` when every target tag was read; `false` means the round
    /// budget ran out first.
    pub terminated: bool,
}

impl InventoryOutcome {
    /// Total protocol slots across all rounds.
    pub fn total_slots(&self) -> usize {
        self.rounds.iter().map(RoundStats::slots).sum()
    }

    /// Total collision slots across all rounds.
    pub fn total_collisions(&self) -> usize {
        self.rounds.iter().map(|r| r.collisions).sum()
    }

    /// Total capture-resolved slots across all rounds.
    pub fn total_captures(&self) -> usize {
        self.rounds.iter().map(|r| r.captures).sum()
    }
}

/// A Gen2 reader running inventory rounds.
#[derive(Debug)]
pub struct Reader {
    session: Session,
    policy: Box<dyn AntiCollision>,
    capture: Option<CaptureModel>,
}

impl Reader {
    /// Creates a reader whose Q follows a per-slot Qfp, read at each
    /// Query (no mid-round `QueryAdjust`).
    pub fn new(session: Session, q_alg: QAlgorithm) -> Self {
        Self::with_policy(session, Box::new(q_alg.policy()))
    }

    /// Creates a reader driving rounds through an arbitrary
    /// anti-collision policy.
    pub fn with_policy(session: Session, policy: Box<dyn AntiCollision>) -> Self {
        Reader {
            session,
            policy,
            capture: None,
        }
    }

    /// Arms capture-effect arbitration for multi-reply slots. The
    /// capture-armed broadcast reader is the reference the population
    /// driver is checked against by
    /// `tests/anticollision_props.rs::population_driver_equals_broadcast_reader`.
    pub fn set_capture(&mut self, capture: CaptureModel) {
        self.capture = Some(capture);
    }

    /// Current integer Q.
    pub(crate) fn q(&self) -> u8 {
        self.policy.choose_q()
    }

    /// Builds the Query command for the next round.
    pub(crate) fn query(&self) -> Command {
        Command::Query {
            dr: DivideRatio::Dr8,
            m: TagEncoding::Fm0,
            trext: false,
            session: self.session,
            q: self.q(),
        }
    }

    /// Feeds a slot outcome to the anti-collision policy.
    pub(crate) fn update_q(&mut self, outcome: &SlotOutcome) {
        self.policy.on_slot_outcome(outcome);
    }

    /// Runs one full inventory round against a tag population. Returns the
    /// slot outcomes in order.
    ///
    /// All tags receive every command (they share the channel); the reader
    /// observes the superposition: zero replies = empty, one = decodable,
    /// more = collision — unless an armed [`CaptureModel`] lets the
    /// strongest reply through.
    pub fn run_round(&mut self, tags: &mut [Tag]) -> (Vec<SlotOutcome>, RoundStats) {
        let n_slots = 1usize << self.q();
        let mut outcomes = Vec::with_capacity(n_slots);
        let mut stats = RoundStats::default();
        // Slot 0 is the Query itself, every later slot a QueryRep.
        let mut cmd = self.query();
        for _ in 0..n_slots {
            let mut replies: Vec<(usize, u16)> = Vec::new();
            for (i, tag) in tags.iter_mut().enumerate() {
                if let TagReply::Rn16(rn) = tag.process(&cmd) {
                    replies.push((i, rn));
                }
            }
            let outcome = self.resolve_slot(&replies, tags, &mut stats);
            self.update_q(&outcome);
            stats.tally(&outcome);
            outcomes.push(outcome);
            let session = self.session;
            cmd = Command::QueryRep { session };
        }
        self.policy.on_round_end(&stats);
        (outcomes, stats)
    }

    /// Inventories a population to completion (bounded rounds), returning
    /// the EPCs read plus per-round diagnostics and whether the
    /// population was fully read before the round budget expired.
    pub fn inventory_all(&mut self, tags: &mut [Tag], max_rounds: usize) -> InventoryOutcome {
        let mut out = InventoryOutcome {
            epcs: Vec::new(),
            rounds: Vec::new(),
            terminated: false,
        };
        for _ in 0..max_rounds {
            let (outcomes, stats) = self.run_round(tags);
            out.rounds.push(stats);
            // A read tag stays silent until a brownout, so every read
            // is a new tag.
            out.epcs.extend(outcomes.iter().filter_map(|o| match o {
                SlotOutcome::Inventoried(epc) => Some(*epc),
                _ => None,
            }));
            if out.epcs.len() == tags.len() {
                out.terminated = true;
                break;
            }
        }
        out
    }

    /// ACKs a single replier, checks the EPC reply's CRC and packs the
    /// EPC between the PC word and the CRC.
    fn ack_one(idx: usize, rn: u16, tags: &mut [Tag]) -> SlotOutcome {
        match tags[idx].process(&Command::Ack { rn16: rn }) {
            TagReply::Epc(bits) => {
                if crate::crc::check_crc16(&bits) {
                    SlotOutcome::Inventoried(Epc::from_bits(&bits[16..bits.len() - 16]))
                } else {
                    SlotOutcome::Empty
                }
            }
            _ => SlotOutcome::Empty,
        }
    }

    fn resolve_slot(
        &mut self,
        replies: &[(usize, u16)],
        tags: &mut [Tag],
        stats: &mut RoundStats,
    ) -> SlotOutcome {
        match replies {
            [] => SlotOutcome::Empty,
            [(idx, rn)] => Self::ack_one(*idx, *rn, tags),
            _ => {
                if let Some(cap) = self.capture.as_mut() {
                    let repliers: Vec<usize> = replies.iter().map(|&(i, _)| i).collect();
                    if let Some(k) = cap.arbitrate(&repliers) {
                        let (idx, rn) = replies[k];
                        let outcome = Self::ack_one(idx, rn, tags);
                        if matches!(outcome, SlotOutcome::Inventoried(_)) {
                            stats.captures += 1;
                        }
                        return outcome;
                    }
                }
                SlotOutcome::Collision
            }
        }
    }
}

impl RoundStats {
    pub(crate) fn tally(&mut self, o: &SlotOutcome) {
        match o {
            SlotOutcome::Empty => self.empty += 1,
            SlotOutcome::Inventoried(_) => self.singles += 1,
            SlotOutcome::Collision => self.collisions += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anticollision::FixedQ;
    use ivn_runtime::rng::StdRng;

    fn make_tags(n: usize) -> Vec<Tag> {
        (0..n)
            .map(|i| {
                let mut t = Tag::with_epc96(0x1000 + i as u128, 100 + i as u64);
                t.set_powered(true);
                t
            })
            .collect()
    }

    #[test]
    fn single_tag_inventoried_in_q0_round() {
        let mut reader = Reader::new(Session::S0, QAlgorithm { q0: 0, c: 0.3 });
        let mut tags = make_tags(1);
        let (outcomes, stats) = reader.run_round(&mut tags);
        assert_eq!(outcomes.len(), 1);
        assert!(matches!(outcomes[0], SlotOutcome::Inventoried(_)));
        assert_eq!(stats.singles, 1);
        assert_eq!(stats.captures, 0);
    }

    #[test]
    fn inventoried_epc_matches_tag() {
        let mut reader = Reader::new(Session::S0, QAlgorithm { q0: 0, c: 0.3 });
        let mut tags = make_tags(1);
        let expected = tags[0].epc();
        let (outcomes, _) = reader.run_round(&mut tags);
        match &outcomes[0] {
            SlotOutcome::Inventoried(epc) => assert_eq!(*epc, expected),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn two_tags_collide_at_q0() {
        let mut reader = Reader::new(Session::S0, QAlgorithm { q0: 0, c: 0.3 });
        let mut tags = make_tags(2);
        let (outcomes, stats) = reader.run_round(&mut tags);
        assert_eq!(outcomes[0], SlotOutcome::Collision);
        assert_eq!(stats.collisions, 1);
    }

    #[test]
    fn capture_breaks_q0_collision_when_one_tag_dominates() {
        let mut reader = Reader::new(Session::S0, QAlgorithm { q0: 0, c: 0.3 });
        reader.set_capture(CaptureModel::new(
            vec![1000.0, 1.0],
            6.0,
            0.0,
            StdRng::seed_from_u64(1),
        ));
        let mut tags = make_tags(2);
        let expected = tags[0].epc();
        let (outcomes, stats) = reader.run_round(&mut tags);
        assert_eq!(outcomes[0], SlotOutcome::Inventoried(expected));
        assert_eq!(stats.captures, 1);
        assert_eq!(stats.singles, 1);
        assert_eq!(stats.collisions, 0);
    }

    #[test]
    fn balanced_powers_still_collide_under_capture() {
        let mut reader = Reader::new(Session::S0, QAlgorithm { q0: 0, c: 0.3 });
        reader.set_capture(CaptureModel::new(
            vec![1.0, 1.0],
            6.0,
            0.0,
            StdRng::seed_from_u64(1),
        ));
        let mut tags = make_tags(2);
        let (outcomes, stats) = reader.run_round(&mut tags);
        assert_eq!(outcomes[0], SlotOutcome::Collision);
        assert_eq!(stats.captures, 0);
    }

    #[test]
    fn population_inventoried_with_slotting() {
        let mut reader = Reader::new(Session::S0, QAlgorithm { q0: 4, c: 0.3 });
        let mut tags = make_tags(8);
        let out = reader.inventory_all(&mut tags, 50);
        assert_eq!(out.epcs.len(), 8, "inventoried {} of 8", out.epcs.len());
        assert!(out.terminated);
        assert!(out.total_slots() >= 8);
    }

    #[test]
    fn round_budget_exhaustion_reported_not_terminated() {
        // A 1-slot frame against 8 tags collides every round: the
        // diagnostics must say "budget ran out", not "all read".
        let mut reader = Reader::with_policy(Session::S0, Box::new(FixedQ::new(0)));
        let mut tags = make_tags(8);
        let out = reader.inventory_all(&mut tags, 5);
        assert!(!out.terminated);
        assert_eq!(out.rounds.len(), 5);
        assert_eq!(out.total_collisions(), 5);
    }

    #[test]
    fn q_adapts_up_on_collisions_down_on_empties() {
        let mut reader = Reader::new(Session::S0, QAlgorithm { q0: 4, c: 0.5 });
        let q_before = reader.q();
        reader.update_q(&SlotOutcome::Collision);
        reader.update_q(&SlotOutcome::Collision);
        assert!(reader.q() > q_before);
        let mut reader2 = Reader::new(Session::S0, QAlgorithm { q0: 4, c: 0.5 });
        for _ in 0..4 {
            reader2.update_q(&SlotOutcome::Empty);
        }
        assert_eq!(reader2.q(), 2);
    }

    #[test]
    fn q_clamps_at_bounds() {
        let mut reader = Reader::new(Session::S0, QAlgorithm { q0: 0, c: 0.5 });
        reader.update_q(&SlotOutcome::Empty);
        assert_eq!(reader.q(), 0);
        let mut reader2 = Reader::new(Session::S0, QAlgorithm { q0: 15, c: 0.5 });
        reader2.update_q(&SlotOutcome::Collision);
        assert_eq!(reader2.q(), 15);
    }

    #[test]
    fn unpowered_population_reads_nothing() {
        let mut reader = Reader::new(Session::S0, QAlgorithm::default());
        let mut tags: Vec<Tag> = (0..3).map(|i| Tag::with_epc96(i, i as u64)).collect();
        let out = reader.inventory_all(&mut tags, 5);
        assert!(out.epcs.is_empty());
        assert!(!out.terminated);
    }

    #[test]
    fn select_filters_population() {
        // Park one of two tags via Select, then only the other is read.
        let mut reader = Reader::new(Session::S0, QAlgorithm { q0: 2, c: 0.3 });
        let mut tags = make_tags(2);
        let keep_epc = tags[0].epc();
        let mask: Vec<bool> = keep_epc.bits().take(16).collect();
        // EPCs 0x1000 and 0x1001 share a 16-bit prefix? They differ only in
        // low bits, so the 16-bit prefix (all zeros) matches both — use a
        // full-length mask instead.
        let mask = if tags[1].epc().starts_with(&mask) {
            keep_epc.bits().collect()
        } else {
            mask
        };
        let sel = Command::Select { mask };
        for t in tags.iter_mut() {
            t.process(&sel);
        }
        let out = reader.inventory_all(&mut tags, 30);
        assert_eq!(out.epcs.len(), 1);
        assert_eq!(out.epcs[0], keep_epc);
    }
}
