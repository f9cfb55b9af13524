//! Property-based tests for the packed EPC: it must hold exactly the bit
//! string it was built from at every Gen2 length, match Select masks as
//! a slice-prefix compare would, agree with the u96 form, and put the
//! same `PC ‖ EPC ‖ CRC-16` reply on the air as a plain bit vector.

use ivn_rfid::crc::{append_crc16, check_crc16};
use ivn_rfid::epc::{Epc, EPC_MAX_BITS};
use ivn_rfid::tag::Tag;
use ivn_runtime::prop::{any, vec as pvec};
use ivn_runtime::rng::{Rng, StdRng};
use ivn_runtime::{prop_assert, prop_assert_eq, props};

/// `v`'s low 96 bits, MSB-first.
fn u96_bits(v: u128) -> Vec<bool> {
    (0..96).rev().map(|i| (v >> i) & 1 == 1).collect()
}

/// The slice-prefix compare `Epc::starts_with` replaces.
fn is_prefix(mask: &[bool], bits: &[bool]) -> bool {
    mask.len() <= bits.len() && bits[..mask.len()] == mask[..]
}

#[test]
fn from_bits_round_trips_every_length() {
    let mut rng = StdRng::seed_from_u64(20);
    for len in 1..=EPC_MAX_BITS {
        let bits: Vec<bool> = (0..len).map(|_| rng.random()).collect();
        let epc = Epc::from_bits(&bits);
        assert_eq!(epc.len(), len);
        assert_eq!(epc.bits().len(), len);
        assert_eq!(epc.bits().collect::<Vec<_>>(), bits, "length {len}");
        assert!((0..len).all(|i| epc.bit(i) == bits[i]), "length {len}");
    }
}

#[test]
#[should_panic(expected = "EPC length invalid")]
fn from_bits_rejects_an_empty_epc() {
    Epc::from_bits(&[]);
}

#[test]
#[should_panic(expected = "EPC length invalid")]
fn from_bits_rejects_more_than_31_words() {
    Epc::from_bits(&[true; EPC_MAX_BITS + 1]);
}

props! {
    cases = 256;

    // Equality is bit-string equality: flipping any one bit or dropping
    // the last one makes a different EPC, and rebuilding does not.
    fn eq_is_bit_string_eq(bits in pvec(any::<bool>(), 2..497), flip in 0usize..496) {
        let epc = Epc::from_bits(&bits);
        prop_assert_eq!(epc, Epc::from_bits(&bits.clone()));
        let mut flipped = bits.clone();
        let k = flip % bits.len();
        flipped[k] = !flipped[k];
        prop_assert!(Epc::from_bits(&flipped) != epc);
        prop_assert!(Epc::from_bits(&bits[..bits.len() - 1]) != epc);
    }

    // Select matching: any mask — empty, a prefix, a prefix with one bit
    // flipped, or the whole EPC with bits appended — matches exactly when
    // it is a slice prefix of the EPC bits.
    fn starts_with_is_a_slice_prefix_compare(
        bits in pvec(any::<bool>(), 1..497), mask_len in 0usize..520,
        flip in 0usize..1040, tail in pvec(any::<bool>(), 0..24)) {
        let epc = Epc::from_bits(&bits);
        let mut mask: Vec<bool> = bits.iter().copied().take(mask_len).collect();
        if mask_len > bits.len() {
            mask.extend(&tail);
        }
        if flip < mask.len() {
            mask[flip] = !mask[flip];
        }
        prop_assert_eq!(epc.starts_with(&mask), is_prefix(&mask, &bits));
        prop_assert!(epc.starts_with(&[]));
        prop_assert!(epc.starts_with(&bits));
    }

    // The u96 constructor is the MSB-first expansion of the low 96 bits.
    fn from_u96_is_the_msb_first_expansion(v in any::<u128>()) {
        let epc = Epc::from_u96(v);
        prop_assert_eq!(epc, Epc::from_bits(&u96_bits(v)));
        prop_assert_eq!(epc, Epc::from_u96(v & ((1u128 << 96) - 1)));
        prop_assert_eq!(epc.len(), 96);
    }

    // The air-interface reply is PC ‖ EPC ‖ CRC-16 over the plain bits:
    // the PC word carries the length in 16-bit words in its top 5 bits.
    fn epc_reply_is_pc_bits_crc(bits in pvec(any::<bool>(), 1..497), seed in any::<u64>()) {
        let tag = Tag::new(Epc::from_bits(&bits), seed);
        let pc = (bits.len().div_ceil(16) as u16) << 11;
        let mut want: Vec<bool> = (0..16).rev().map(|i| (pc >> i) & 1 == 1).collect();
        want.extend(&bits);
        append_crc16(&mut want);
        let reply = tag.epc_reply_bits();
        prop_assert!(check_crc16(&reply));
        prop_assert_eq!(reply, want);
    }
}
