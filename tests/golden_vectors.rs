//! Golden-vector corpus for the Gen2 protocol stack.
//!
//! Every vector below is hand-computed from the EPC Gen2 timing and CRC
//! definitions (paper §5 parameters: Tari 25 µs, data-1 = 2 Tari,
//! PW = delimiter = 12.5 µs, TRcal = 133.3 µs), pinning the `ivn-rfid`
//! codecs byte-for-byte. The existing suites only round-trip the codecs;
//! these tests anchor the absolute on-air representation, so an
//! encode/decode bug that cancels in a round trip still fails here.

use ivn::rfid::commands::{Command, DivideRatio, Session, TagEncoding};
use ivn::rfid::crc::{append_crc5, bits_to_u64, check_crc16, check_crc5, crc16, crc5, u16_to_bits};
use ivn::rfid::fm0::Fm0;
use ivn::rfid::pie::{decode_frame, encode_frame, rasterize, PieParams};

fn approx(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

fn bits(pattern: &[u8]) -> Vec<bool> {
    pattern.iter().map(|&b| b == 1).collect()
}

// ---------------------------------------------------------------------
// PIE encode timings.
// ---------------------------------------------------------------------

/// Paper defaults, frame-sync preamble (no TRcal), payload `[1, 0]`.
/// Hand-derived level runs: leading carrier 50 µs; delimiter low 12.5 µs;
/// data-0 symbol 25 µs (12.5 high + 12.5 low); RTcal 75 µs (62.5 + 12.5);
/// data-1 bit 50 µs (37.5 + 12.5); data-0 bit 25 µs; trailing carrier
/// 50 µs.
#[test]
fn pie_frame_sync_level_runs_hand_computed() {
    let p = PieParams::paper_defaults();
    let runs = encode_frame(&bits(&[1, 0]), &p, false);
    let expected: [(bool, f64); 11] = [
        (true, 50.0e-6),  // leading carrier = one data-1 length
        (false, 12.5e-6), // delimiter
        (true, 12.5e-6),  // data-0: Tari − PW high ...
        (false, 12.5e-6), // ... then PW low
        (true, 62.5e-6),  // RTcal: 75 µs − PW
        (false, 12.5e-6),
        (true, 37.5e-6), // bit 1: 50 µs − PW
        (false, 12.5e-6),
        (true, 12.5e-6), // bit 0: 25 µs − PW
        (false, 12.5e-6),
        (true, 50.0e-6), // trailing carrier
    ];
    assert_eq!(runs.len(), expected.len());
    for (i, ((lvl, dur), (elvl, edur))) in runs.iter().zip(&expected).enumerate() {
        assert_eq!(lvl, elvl, "level at run {i}");
        assert!(approx(*dur, *edur), "run {i}: {dur} vs {edur}");
    }
}

/// A Query preamble inserts TRcal (133.3 µs → 120.8 µs high + PW) right
/// after RTcal.
#[test]
fn pie_query_preamble_includes_trcal() {
    let p = PieParams::paper_defaults();
    let runs = encode_frame(&[], &p, true);
    // leading, delimiter, data-0 (2 runs), RTcal (2), TRcal (2), trailing.
    assert_eq!(runs.len(), 9);
    let (trcal_level, trcal_high) = runs[6];
    assert!(trcal_level);
    assert!(
        approx(trcal_high, 133.3e-6 - 12.5e-6),
        "TRcal high {trcal_high}"
    );
    assert!(!runs[7].0 && approx(runs[7].1, 12.5e-6));
}

/// Frame duration of the canonical 22-bit Query (11 zeros, 11 ones):
/// 12.5 + 25 + 75 + 133.3 + 11·25 + 11·50 = 1070.8 µs.
#[test]
fn pie_query_frame_duration_hand_computed() {
    let p = PieParams::paper_defaults();
    assert!(approx(p.frame_duration_s(11, 11, true), 1070.8e-6));
    // And the calibration intervals themselves.
    assert!(approx(p.data0_s(), 25e-6));
    assert!(approx(p.data1_s(), 50e-6));
    assert!(approx(p.rtcal_s(), 75e-6));
}

/// Rasterization at 400 kS/s: the empty frame-sync frame spans exactly
/// 212.5 µs = 85 samples, 15 of them low (three 12.5 µs notches).
#[test]
fn pie_rasterized_sample_counts() {
    let p = PieParams::paper_defaults();
    let runs = encode_frame(&[], &p, false);
    let env = rasterize(&runs, 400e3, 0.0);
    assert_eq!(env.len(), 85);
    assert_eq!(env.iter().filter(|&&v| v == 0.0).count(), 15);
    // The pinned envelope decodes to the empty payload.
    assert_eq!(decode_frame(&env, 400e3).unwrap(), Vec::<bool>::new());
}

// ---------------------------------------------------------------------
// FM0 uplink coding.
// ---------------------------------------------------------------------

/// Single-bit vectors from the FM0 definition (level starts +1 and
/// inverts entering every symbol; data-0 also inverts mid-symbol).
#[test]
fn fm0_single_bit_half_levels() {
    let fm0 = Fm0::new(1);
    assert_eq!(fm0.encode_halves(&bits(&[1])), vec![-1.0, -1.0]);
    assert_eq!(fm0.encode_halves(&bits(&[0])), vec![-1.0, 1.0]);
    assert_eq!(
        fm0.encode_halves(&bits(&[1, 1])),
        vec![-1.0, -1.0, 1.0, 1.0]
    );
    assert_eq!(
        fm0.encode_halves(&bits(&[0, 0])),
        vec![-1.0, 1.0, -1.0, 1.0]
    );
}

/// The paper's 12-bit preamble `110100100011` as FM0 half-levels,
/// hand-walked symbol by symbol.
#[test]
fn fm0_paper_preamble_half_levels() {
    let fm0 = Fm0::new(1);
    let halves = fm0.encode_halves(&bits(&[1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 1]));
    let expected = [
        -1.0, -1.0, // 1
        1.0, 1.0, // 1
        -1.0, 1.0, // 0
        -1.0, -1.0, // 1
        1.0, -1.0, // 0
        1.0, -1.0, // 0
        1.0, 1.0, // 1
        -1.0, 1.0, // 0
        -1.0, 1.0, // 0
        -1.0, 1.0, // 0
        -1.0, -1.0, // 1
        1.0, 1.0, // 1
    ];
    assert_eq!(halves, expected);
}

// ---------------------------------------------------------------------
// CRC-5 / CRC-16 known-answer vectors.
// ---------------------------------------------------------------------

/// Register-level CRC-5 vectors (poly 0x09, preset 0b01001) walked by
/// hand: the empty message leaves the preset; one zero bit shifts it;
/// one set bit shifts and XORs the polynomial.
#[test]
fn crc5_known_answers() {
    assert_eq!(crc5(&[]), 0b01001);
    assert_eq!(crc5(&bits(&[0])), 0b10010);
    assert_eq!(crc5(&bits(&[1])), 0b11011);
    // The Query opcode `1000` walked through all four steps.
    assert_eq!(crc5(&bits(&[1, 0, 0, 0])), 0b00111);
}

/// Appending the CRC-5 must append exactly the register bits MSB-first,
/// and the framed message must verify.
#[test]
fn crc5_append_is_msb_first() {
    let mut framed = bits(&[1, 0, 0, 0]);
    append_crc5(&mut framed);
    assert_eq!(framed.len(), 9);
    assert_eq!(bits_to_u64(&framed[4..]), 0b00111);
    assert!(check_crc5(&framed));
}

/// CRC-16 vectors: preset 0xFFFF, poly 0x1021, complemented output.
#[test]
fn crc16_known_answers() {
    // Empty message: !0xFFFF.
    assert_eq!(crc16(&[]), 0x0000);
    // One zero bit: 0xFFFF shifts to 0xFFFE, XORs 0x1021 → 0xEFDF → !.
    assert_eq!(crc16(&bits(&[0])), 0x1020);
    // One set bit: MSB matches, shift only → 0xFFFE → !.
    assert_eq!(crc16(&bits(&[1])), 0x0001);
    // The CRC-16/CCITT-FALSE check string "123456789" → 0x29B1, inverted.
    let msg: Vec<bool> = b"123456789"
        .iter()
        .flat_map(|&b| (0..8).rev().map(move |i| (b >> i) & 1 == 1))
        .collect();
    assert_eq!(crc16(&msg), !0x29B1);
}

/// A full 16-bit word framed with its CRC-16 must verify, and the
/// residue is position-sensitive (swapping two unequal bits breaks it).
#[test]
fn crc16_word_framing() {
    let mut framed = u16_to_bits(0xABCD);
    let c = crc16(&framed);
    framed.extend(u16_to_bits(c));
    assert!(check_crc16(&framed));
    let mut swapped = framed.clone();
    swapped.swap(0, 1); // 0xA… starts `10` — swap changes the message
    assert!(!check_crc16(&swapped));
}

// ---------------------------------------------------------------------
// Full-command vector: the canonical Query bit pattern.
// ---------------------------------------------------------------------

/// Query(DR=8, M=FM0, TRext=0, S0, Q=0): opcode `1000`, DR=0, M=00,
/// TRext=0, Sel=00 (all), session=00, target=0, Q=0000, then CRC-5 over
/// the 17 payload bits. Pins the over-the-air bit order end-to-end.
#[test]
fn query_command_bit_vector() {
    let encoded = Command::Query {
        dr: DivideRatio::Dr8,
        m: TagEncoding::Fm0,
        trext: false,
        session: Session::S0,
        q: 0,
    }
    .encode();
    assert_eq!(encoded.len(), 22, "Query is 22 bits");
    assert_eq!(&encoded[..4], &bits(&[1, 0, 0, 0])[..], "opcode");
    // Every field in this canonical Query is zero.
    assert!(
        encoded[4..17].iter().all(|&b| !b),
        "payload fields should be all-zero"
    );
    // Trailing 5 bits are the CRC-5 of the first 17.
    assert_eq!(bits_to_u64(&encoded[17..]), crc5(&encoded[..17]) as u64);
    assert!(check_crc5(&encoded));
    // Round-trips through the command decoder.
    let decoded = Command::decode(&encoded).expect("decode");
    assert!(matches!(
        decoded,
        Command::Query {
            dr: DivideRatio::Dr8,
            m: TagEncoding::Fm0,
            trext: false,
            session: Session::S0,
            q: 0,
        }
    ));
}
