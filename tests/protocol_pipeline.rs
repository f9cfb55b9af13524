//! Protocol-pipeline integration: every codec layer chained end to end
//! with channel impairments between them.

use ivn::dsp::complex::Complex64;
use ivn::dsp::noise::AwgnSource;
use ivn::rfid::backscatter::BackscatterModulator;
use ivn::rfid::commands::{Command, DivideRatio, Session, TagEncoding};
use ivn::rfid::fm0::Fm0;
use ivn::rfid::pie::{decode_frame, encode_frame, rasterize, PieParams};
use ivn::rfid::tag::{Tag, TagReply};
use ivn_runtime::rng::StdRng;

fn query(q: u8) -> Command {
    Command::Query {
        dr: DivideRatio::Dr8,
        m: TagEncoding::Fm0,
        trext: false,
        session: Session::S0,
        q,
    }
}

#[test]
fn reader_bits_to_tag_and_back() {
    // Reader → PIE waveform → (scaled channel) → tag decoder → state
    // machine → FM0 backscatter → (noisy channel) → bit recovery.
    let pie = PieParams::paper_defaults();
    let cmd = query(0);
    let bits = cmd.encode();
    let runs = encode_frame(&bits, &pie, cmd.needs_trcal());
    let mut env = rasterize(&runs, 400e3, 0.1);
    for v in &mut env {
        *v *= 3.3e-3; // channel attenuation
    }
    let decoded_bits = decode_frame(&env, 400e3).expect("PIE decode");
    let decoded_cmd = Command::decode(&decoded_bits).expect("command decode");
    assert_eq!(decoded_cmd, cmd);

    let mut tag = Tag::with_epc96(0xABCD_EF01_2345_6789_0000_1111, 5);
    tag.set_powered(true);
    let rn16 = match tag.process(&decoded_cmd) {
        TagReply::Rn16(rn) => rn,
        other => panic!("{other:?}"),
    };

    // Tag FM0-encodes its RN16 behind the paper preamble and backscatters.
    let fm0 = Fm0::new(4);
    let mut uplink_bits = ivn::rfid::PAPER_PREAMBLE_BITS.to_vec();
    uplink_bits.extend((0..16).rev().map(|i| (rn16 >> i) & 1 == 1));
    let baseband = fm0.encode(&uplink_bits);
    let modulator = BackscatterModulator::typical_rfid();
    let carrier = Complex64::from_polar(2e-4, 1.3);
    let mut reflected = modulator.reflect_baseband(carrier, &baseband);

    // Additive noise 20 dB below the differential signal.
    let mut rng = StdRng::seed_from_u64(6);
    let sig_amp = carrier.norm() * modulator.differential();
    let mut noise = AwgnSource::new((sig_amp * 0.1).powi(2));
    for s in &mut reflected {
        *s += noise.sample(&mut rng);
    }

    // Reader-side: project out the modulation axis and slice.
    let mean: Complex64 = reflected.iter().copied().sum::<Complex64>() / reflected.len() as f64;
    let axis = (carrier * (modulator.gamma(true) - modulator.gamma(false))).conj();
    let real_env: Vec<f64> = reflected.iter().map(|s| ((*s - mean) * axis).re).collect();
    let recovered = fm0.decode(&real_env);
    assert_eq!(recovered, uplink_bits);

    // ACK with the recovered RN16 completes the handshake.
    let rn_recovered =
        ivn::rfid::crc::bits_to_u64(&recovered[ivn::rfid::PAPER_PREAMBLE_BITS.len()..]) as u16;
    match tag.process(&Command::Ack { rn16: rn_recovered }) {
        TagReply::Epc(epc_bits) => {
            assert!(ivn::rfid::crc::check_crc16(&epc_bits));
        }
        other => panic!("expected EPC, got {other:?}"),
    }
}

#[test]
fn multi_tag_inventory_over_protocol() {
    use ivn::rfid::reader::{QAlgorithm, Reader};
    let mut tags: Vec<Tag> = (0..12)
        .map(|i| {
            let mut t = Tag::with_epc96(0xE200_0000_0000 + i as u128, 900 + i as u64);
            t.set_powered(true);
            t
        })
        .collect();
    let mut reader = Reader::new(Session::S0, QAlgorithm { q0: 4, c: 0.3 });
    let out = reader.inventory_all(&mut tags, 80);
    assert_eq!(out.epcs.len(), 12, "inventoried {}/12", out.epcs.len());
    assert!(out.terminated);
}

#[test]
fn brownout_mid_round_recovers_next_round() {
    use ivn::rfid::reader::{QAlgorithm, Reader};
    let mut tags: Vec<Tag> = (0..3)
        .map(|i| {
            let mut t = Tag::with_epc96(0xAA00 + i as u128, 50 + i as u64);
            t.set_powered(true);
            t
        })
        .collect();
    let mut reader = Reader::new(Session::S0, QAlgorithm { q0: 3, c: 0.3 });
    // One round, then a brownout wipes everyone.
    let _ = reader.run_round(&mut tags);
    for t in tags.iter_mut() {
        t.set_powered(false);
    }
    for t in tags.iter_mut() {
        t.set_powered(true);
    }
    // Inventory still completes afterwards.
    let out = reader.inventory_all(&mut tags, 60);
    assert_eq!(out.epcs.len(), 3);
    assert!(out.terminated);
}

#[test]
fn pie_decoding_survives_cib_ripple_within_alpha() {
    // Key the PIE frame onto a CIB envelope at its peak: decoding works
    // with the paper plan (α respected).
    use ivn::core::waveform::CibEnvelope;
    let pie = PieParams::paper_defaults();
    let cmd = query(3);
    let bits = cmd.encode();
    let runs = encode_frame(&bits, &pie, true);
    let rate = 400e3;
    let profile = rasterize(&runs, rate, 0.0);
    let env = CibEnvelope::new(&ivn::core::PAPER_OFFSETS_HZ, &[0.6; 10]);
    let (t_peak, _) = env.peak_over_period(4096);
    let t0 = t_peak - profile.len() as f64 / rate / 2.0;
    let keyed: Vec<f64> = profile
        .iter()
        .enumerate()
        .map(|(k, &p)| p * env.envelope(t0 + k as f64 / rate))
        .collect();
    let decoded = decode_frame(&keyed, rate).expect("decode through ripple");
    assert_eq!(decoded, bits);
}
