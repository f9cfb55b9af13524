//! Population-scale inventory driver: O(active tags) per round.
//!
//! [`crate::reader::Reader::run_round`] broadcasts every command to every
//! tag, which is O(tags × slots) per round — faithful, but hopeless for
//! populations of thousands. This module exploits a structural fact of
//! the protocol: each eligible tag's observable behaviour in a round is
//! fully determined by two private RNG draws — the slot it picks at the
//! Query (no draw when q = 0) and the RN16 it generates when that slot
//! arrives. Tag RNGs are private, so any schedule that preserves each
//! tag's own draw order is bit-identical to the broadcast loop.
//!
//! [`inventory_population`] therefore draws every active tag's slot up
//! front and packs it with the tag index into one key, `slot << 32 |
//! tag`. A stable LSD radix sort over the slot bits (8-bit digits,
//! `ceil(Q/8)` passes) groups the keys by slot; within a slot the tags
//! stay in ascending index order, the order the broadcast loop would
//! have them reply in — this is what keeps the *reader-side* capture RNG
//! byte-identical too. The round then walks only the occupied slots:
//! single (ACK + EPC) or collision (optionally arbitrated by the
//! [`CaptureModel`]). The empty slots between them are never visited:
//! each run of them, read off the gap between consecutive occupied
//! slots, is reported in one [`AntiCollision::on_empty_slots`] call and
//! one add to `RoundStats::empty`. The policy sees exactly the outcome
//! sequence the broadcast reader would give it.
//!
//! The active tags are kept in an ascending index list; one pass at the
//! top of each round prunes the tags the last round read and draws the
//! others' slot keys, so a round never scans the rest of the population.
//! A round over `A` active tags at frame size `2^Q` then costs O(A) for
//! that pass, O(A · ceil(Q/8)) for the sort, O(A) for the walk, plus
//! the policy's empty runs: O(1) each for [`FixedQ`] and [`SchouteQ`];
//! [`AdaptiveQ`] stops stepping as soon as Qfp reaches its floor, so
//! its empty steps are bounded by `Qfp/C` plus the collisions that
//! raised it. Each piece is exact, not approximate:
//!
//! * a read copies the tag's packed `Tag::epc` — the EPC the
//!   broadcast reader packs back out of the `PC ‖ EPC ‖ CRC-16` reply,
//!   whose CRC is valid by construction — so it allocates nothing;
//! * the slot draw is the top `Q` bits of one RNG word, which is what
//!   the bounded draw over a power-of-two span returns (see
//!   `Tag::fast_draw_slot`);
//! * an empty run reaches the policy as `on_empty_slots(n)`, which every
//!   policy implements as, or by default is, `n` single empty slots;
//! * the sort is stable in tag order within a slot, so replies, RN16
//!   draws and capture contests happen in broadcast order;
//! * how each capture contest was decided (mean powers, log certificate
//!   or fade loop) reaches the `rfid.capture_never`, `_certified` and
//!   `_exact` counters once per call.
//!
//! [`FixedQ`]: crate::anticollision::FixedQ
//! [`SchouteQ`]: crate::anticollision::SchouteQ
//! [`AdaptiveQ`]: crate::anticollision::AdaptiveQ
//!
//! A read tag sets its Gen2 inventoried flag and stays silent until a
//! brownout, so each tag is read at most once and a dense population
//! converges. Termination is reported against the *readable* population
//! (powered, not parked), so fleets with unpowered tags still finish.

use crate::anticollision::{AntiCollision, CaptureModel};
use crate::reader::{InventoryOutcome, RoundStats, SlotOutcome};
use crate::tag::Tag;

/// Runs inventory rounds over a tag population until every readable tag
/// is inventoried or `max_rounds` expires.
///
/// Bit-identical to driving [`crate::reader::Reader`] (with the same
/// policy and capture state) over the same tags.
///
/// # Panics
/// Panics if the population has 2^32 tags or more.
pub fn inventory_population(
    policy: &mut dyn AntiCollision,
    mut capture: Option<&mut CaptureModel>,
    tags: &mut [Tag],
    max_rounds: usize,
) -> InventoryOutcome {
    assert!(u32::try_from(tags.len()).is_ok(), "population too large");
    // The tags that reply to a Query, ascending. A round only retires
    // tags (a read sets the inventoried flag), so each round prunes the
    // list instead of scanning the population.
    let mut active: Vec<u32> = (0..tags.len() as u32)
        .filter(|&i| tags[i as usize].fast_active())
        .collect();
    let target = active.len();
    let mut out = InventoryOutcome {
        epcs: Vec::with_capacity(target),
        rounds: Vec::new(),
        terminated: target == 0,
    };

    // Scratch reused across rounds: the `slot << 32 | tag` keys, the
    // radix sort's second buffer, and one slot's repliers for capture.
    let mut keys: Vec<u64> = Vec::new();
    let mut spare: Vec<u64> = Vec::new();
    let mut repliers: Vec<usize> = Vec::new();
    // Capture contests by the test that decided them (`CaptureModel::contest`).
    let mut decided = [0usize; 3];

    for _ in 0..max_rounds {
        if out.terminated {
            break;
        }
        let q = policy.choose_q();

        keys.clear();
        active.retain(|&i| {
            let tag = &mut tags[i as usize];
            let live = tag.fast_active();
            if live {
                keys.push(u64::from(tag.fast_draw_slot(q)) << 32 | u64::from(i));
            }
            live
        });
        sort_by_slot(&mut keys, &mut spare, q);

        let mut stats = RoundStats::default();
        // First slot of the frame not yet reported to the policy.
        let mut next_slot = 0u64;
        let mut lo = 0;
        while lo < keys.len() {
            let slot = keys[lo] >> 32;
            let mut hi = lo + 1;
            while hi < keys.len() && keys[hi] >> 32 == slot {
                hi += 1;
            }
            report_empty_run(policy, &mut stats, slot - next_slot);
            next_slot = slot + 1;

            let group = &keys[lo..hi];
            lo = hi;
            let outcome = if let [key] = group {
                let idx = tag_of(*key);
                tags[idx].fast_draw_rn16();
                read_tag(tags, idx)
            } else {
                // Every replier in the slot draws its RN16 (index
                // order — their RNGs are private, but this mirrors the
                // broadcast schedule exactly).
                for &key in group {
                    tags[tag_of(key)].fast_draw_rn16();
                }
                match capture.as_deref_mut() {
                    Some(cap) => {
                        repliers.clear();
                        repliers.extend(group.iter().map(|&key| tag_of(key)));
                        let (won, by) = cap.contest(&repliers);
                        decided[by] += 1;
                        match won {
                            Some(k) => {
                                stats.captures += 1;
                                read_tag(tags, repliers[k])
                            }
                            None => SlotOutcome::Collision,
                        }
                    }
                    None => SlotOutcome::Collision,
                }
            };
            policy.on_slot_outcome(&outcome);
            stats.tally(&outcome);
            if let SlotOutcome::Inventoried(epc) = outcome {
                out.epcs.push(epc);
            }
        }
        report_empty_run(policy, &mut stats, (1u64 << q) - next_slot);
        policy.on_round_end(&stats);
        out.rounds.push(stats);
        if out.epcs.len() == target {
            out.terminated = true;
        }
    }
    ivn_runtime::obs_count!("rfid.capture_never", decided[0]);
    ivn_runtime::obs_count!("rfid.capture_certified", decided[1]);
    ivn_runtime::obs_count!("rfid.capture_exact", decided[2]);
    out
}

/// The tag index packed in the low half of a `slot << 32 | tag` key.
fn tag_of(key: u64) -> usize {
    key as u32 as usize
}

/// Stable LSD radix sort of `slot << 32 | tag` keys by their q slot
/// bits, one 8-bit digit per pass (no pass at q = 0). Keys arrive in
/// ascending tag order, so each slot's tags stay ascending.
fn sort_by_slot(keys: &mut Vec<u64>, spare: &mut Vec<u64>, q: u8) {
    for shift in (32..32 + u32::from(q)).step_by(8) {
        let mut starts = [0usize; 256];
        for &k in keys.iter() {
            starts[(k >> shift) as usize & 0xFF] += 1;
        }
        let mut sum = 0;
        for s in starts.iter_mut() {
            (*s, sum) = (sum, sum + *s);
        }
        spare.clear();
        spare.resize(keys.len(), 0);
        for &k in keys.iter() {
            let digit = (k >> shift) as usize & 0xFF;
            spare[starts[digit]] = k;
            starts[digit] += 1;
        }
        std::mem::swap(keys, spare);
    }
}

/// Reports `n` consecutive empty slots to the policy and the tallies.
fn report_empty_run(policy: &mut dyn AntiCollision, stats: &mut RoundStats, n: u64) {
    if n > 0 {
        policy.on_empty_slots(n as usize);
        stats.empty += n as usize;
    }
}

/// ACKs a replier: the EPC reply is CRC-valid by construction, so this
/// is the Inventoried arm of the broadcast reader's `resolve_slot` —
/// the EPC of the `PC ‖ EPC ‖ CRC-16` reply, copied from the tag.
fn read_tag(tags: &mut [Tag], idx: usize) -> SlotOutcome {
    tags[idx].fast_mark_inventoried();
    SlotOutcome::Inventoried(tags[idx].epc())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anticollision::{AdaptiveQ, FixedQ, SchouteQ};
    use crate::commands::{Command, Session};
    use crate::reader::{QAlgorithm, Reader};
    use ivn_runtime::rng::StdRng;

    fn pop(n: usize) -> Vec<Tag> {
        (0..n)
            .map(|i| {
                let mut t = Tag::with_epc96(0x2000 + i as u128, 500 + i as u64);
                t.set_powered(true);
                t
            })
            .collect()
    }

    /// The fast path over `tags` against the broadcast reader over the
    /// readable ones alone (the reader's termination counts every tag it
    /// is handed), each with a fresh `policy()`, without capture and with
    /// it on one RNG stream; returns the two fast outcomes.
    fn fast_equals_broadcast(
        tags: &[Tag],
        policy: impl Fn() -> Box<dyn AntiCollision>,
    ) -> [InventoryOutcome; 2] {
        let powers: Vec<f64> = (0..tags.len()).map(|i| 1.0 + i as f64).collect();
        let (readable, readable_powers): (Vec<Tag>, Vec<f64>) = tags
            .iter()
            .zip(&powers)
            .filter(|(t, _)| t.fast_active())
            .map(|(t, &p)| (t.clone(), p))
            .unzip();
        let cap = |p: &[f64]| CaptureModel::new(p.to_vec(), 3.0, 6.0, StdRng::seed_from_u64(42));
        [false, true].map(|with_capture| {
            let mut reader = Reader::with_policy(Session::S0, policy());
            if with_capture {
                reader.set_capture(cap(&readable_powers));
            }
            let naive = reader.inventory_all(&mut readable.clone(), 64);
            let mut capture = with_capture.then(|| cap(&powers));
            let mut fast_policy = policy();
            let fast = inventory_population(
                fast_policy.as_mut(),
                capture.as_mut(),
                &mut tags.to_vec(),
                64,
            );
            let n = tags.len();
            assert_eq!(
                naive, fast,
                "population {n}, capture {with_capture} diverged"
            );
            fast
        })
    }

    #[test]
    fn fast_path_matches_broadcast_reader() {
        let policy = QAlgorithm { q0: 4, c: 0.3 };
        for n in [1, 2, 5, 8, 17, 33] {
            fast_equals_broadcast(&pop(n), || Box::new(AdaptiveQ::new(policy)));
        }
    }

    #[test]
    fn fast_path_matches_broadcast_reader_with_capture() {
        let policy = QAlgorithm { q0: 3, c: 0.3 };
        for n in [2, 8, 17] {
            let [_, captured] = fast_equals_broadcast(&pop(n), || Box::new(AdaptiveQ::new(policy)));
            assert!(captured.terminated, "capture population {n}");
        }
    }

    #[test]
    fn fast_path_matches_broadcast_reader_around_unpowered_and_parked_tags() {
        let mut tags = pop(24);
        for (i, t) in tags.iter_mut().enumerate() {
            if i % 5 == 2 {
                // The EPCs start with zeros, so this mask parks the tag.
                t.process(&Command::Select {
                    mask: vec![true; 8],
                });
            }
            if i % 3 == 1 {
                t.set_powered(false);
            }
        }
        let readable = tags.iter().filter(|t| t.fast_active()).count();
        assert!((8..24).contains(&readable), "{readable} readable");
        for out in fast_equals_broadcast(&tags, || {
            Box::new(AdaptiveQ::new(QAlgorithm { q0: 3, c: 0.3 }))
        }) {
            assert!(out.terminated);
            assert_eq!(out.epcs.len(), readable);
        }
    }

    #[test]
    fn fast_path_matches_broadcast_reader_at_q_zero() {
        // Every active tag replies in the one slot: a collision each round
        // unless one tag is left or capture picks one.
        for n in [1, 2, 5] {
            let [plain, captured] = fast_equals_broadcast(&pop(n), || Box::new(FixedQ::new(0)));
            assert!(plain.rounds.iter().all(|r| r.slots() == 1));
            assert_eq!(plain.terminated, n == 1);
            assert!(captured.epcs.len() >= plain.epcs.len());
        }
    }

    #[test]
    fn fast_path_matches_broadcast_reader_when_a_round_reads_every_tag() {
        // 6 tags in 4096 slots: every tag has a slot of its own, so the
        // first round reads them all and is the last.
        for out in fast_equals_broadcast(&pop(6), || Box::new(FixedQ::new(12))) {
            assert_eq!(out.rounds.len(), 1);
            assert_eq!((out.rounds[0].singles, out.epcs.len()), (6, 6));
            assert!(out.terminated);
        }
    }

    #[test]
    fn all_policies_complete_a_small_inventory() {
        let policies: Vec<Box<dyn AntiCollision>> = vec![
            Box::new(AdaptiveQ::new(QAlgorithm { q0: 4, c: 0.3 })),
            Box::new(FixedQ::new(5)),
            Box::new(SchouteQ::new(4)),
        ];
        for mut p in policies {
            let mut tags = pop(20);
            let out = inventory_population(p.as_mut(), None, &mut tags, 256);
            assert!(out.terminated, "{} never finished", p.name());
            assert_eq!(out.epcs.len(), 20);
        }
    }

    #[test]
    fn unpowered_tags_excluded_from_target() {
        let mut tags = pop(6);
        tags[1].set_powered(false);
        tags[4].set_powered(false);
        let mut policy = AdaptiveQ::new(QAlgorithm::default());
        let out = inventory_population(&mut policy, None, &mut tags, 128);
        assert!(out.terminated);
        assert_eq!(out.epcs.len(), 4);
    }

    #[test]
    fn empty_population_terminates_immediately() {
        let mut tags: Vec<Tag> = Vec::new();
        let mut policy = AdaptiveQ::new(QAlgorithm::default());
        let out = inventory_population(&mut policy, None, &mut tags, 16);
        assert!(out.terminated);
        assert!(out.rounds.is_empty());
    }
}
