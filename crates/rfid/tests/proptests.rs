//! Property-based tests for the Gen2 protocol substrate.

use ivn_rfid::commands::{Command, DivideRatio, Session, TagEncoding};
use ivn_rfid::crc::{append_crc16, append_crc5, check_crc16, check_crc5};
use ivn_rfid::fm0::Fm0;
use ivn_rfid::pie::{decode_frame, encode_frame, rasterize, PieParams};
use ivn_rfid::stream::{Fm0Decoder, PieStreamDecoder, RunRasterizer};
use ivn_rfid::tag::{Tag, TagReply};
use ivn_runtime::prop::{any, vec as pvec, Just, Strategy};
use ivn_runtime::{prop_assert, prop_assert_eq, prop_oneof, props};

fn session() -> impl Strategy<Value = Session> {
    prop_oneof![
        Just(Session::S0),
        Just(Session::S1),
        Just(Session::S2),
        Just(Session::S3)
    ]
}

fn encoding() -> impl Strategy<Value = TagEncoding> {
    prop_oneof![
        Just(TagEncoding::Fm0),
        Just(TagEncoding::Miller2),
        Just(TagEncoding::Miller4),
        Just(TagEncoding::Miller8)
    ]
}

fn any_command() -> impl Strategy<Value = Command> {
    prop_oneof![
        (
            any::<bool>(),
            encoding(),
            any::<bool>(),
            session(),
            0u8..=15
        )
            .prop_map(|(dr, m, trext, session, q)| Command::Query {
                dr: if dr {
                    DivideRatio::Dr64Over3
                } else {
                    DivideRatio::Dr8
                },
                m,
                trext,
                session,
                q,
            }),
        session().prop_map(|session| Command::QueryRep { session }),
        (session(), -1i8..=1).prop_map(|(session, updn)| Command::QueryAdjust { session, updn }),
        any::<u16>().prop_map(|rn16| Command::Ack { rn16 }),
        any::<u16>().prop_map(|rn16| Command::ReqRn { rn16 }),
        pvec(any::<bool>(), 0..64).prop_map(|mask| Command::Select { mask }),
    ]
}

props! {
    cases = 128;

    fn crc5_roundtrip(body in pvec(any::<bool>(), 0..64)) {
        let mut framed = body;
        append_crc5(&mut framed);
        prop_assert!(check_crc5(&framed));
    }

    fn crc5_catches_single_flips(body in pvec(any::<bool>(), 1..40),
                                 flip_seed in any::<u32>()) {
        let mut framed = body;
        append_crc5(&mut framed);
        let idx = flip_seed as usize % framed.len();
        framed[idx] = !framed[idx];
        prop_assert!(!check_crc5(&framed));
    }

    fn crc16_roundtrip_and_flip(body in pvec(any::<bool>(), 0..120),
                                flip_seed in any::<u32>()) {
        let mut framed = body;
        append_crc16(&mut framed);
        prop_assert!(check_crc16(&framed));
        let idx = flip_seed as usize % framed.len();
        framed[idx] = !framed[idx];
        prop_assert!(!check_crc16(&framed));
    }

    fn command_codec_roundtrip(cmd in any_command()) {
        let bits = cmd.encode();
        prop_assert_eq!(Command::decode(&bits).expect("decode"), cmd);
    }

    fn fm0_roundtrip(bits in pvec(any::<bool>(), 1..128),
                     sph in 1usize..8) {
        let fm0 = Fm0::new(sph);
        prop_assert_eq!(fm0.decode(&fm0.encode(&bits)), bits);
    }

    fn pie_roundtrip(bits in pvec(any::<bool>(), 0..48),
                     with_trcal in any::<bool>(), depth in 0.6f64..1.0) {
        let p = PieParams::paper_defaults();
        let runs = encode_frame(&bits, &p, with_trcal);
        let env = rasterize(&runs, 2e6, 1.0 - depth);
        prop_assert_eq!(decode_frame(&env, 2e6).expect("pie decode"), bits);
    }

    fn tag_never_replies_unpowered(cmds in pvec(any_command(), 1..20),
                                   epc in 1u128..u128::MAX >> 32, seed in any::<u64>()) {
        let mut tag = Tag::with_epc96(epc, seed);
        for cmd in &cmds {
            prop_assert_eq!(tag.process(cmd), TagReply::Silent);
        }
    }

    fn tag_epc_reply_always_crc_valid(epc in 1u128..u128::MAX >> 32, seed in any::<u64>()) {
        let mut tag = Tag::with_epc96(epc, seed);
        tag.set_powered(true);
        let query = Command::Query {
            dr: DivideRatio::Dr8,
            m: TagEncoding::Fm0,
            trext: false,
            session: Session::S0,
            q: 0,
        };
        if let TagReply::Rn16(rn) = tag.process(&query) {
            if let TagReply::Epc(bits) = tag.process(&Command::Ack { rn16: rn }) {
                prop_assert!(check_crc16(&bits));
            } else {
                prop_assert!(false, "no EPC reply");
            }
        } else {
            prop_assert!(false, "no RN16 at Q=0");
        }
    }

    fn run_rasterizer_matches_batch(bits in pvec(any::<bool>(), 0..32),
                                    with_trcal in any::<bool>(), block in 1usize..64) {
        let p = PieParams::paper_defaults();
        let runs = encode_frame(&bits, &p, with_trcal);
        let batch = rasterize(&runs, 2e6, 0.1);
        let mut src = RunRasterizer::new(runs, 2e6, 0.1);
        let mut out = Vec::new();
        while src.fill(&mut out, block) > 0 {}
        prop_assert_eq!(out, batch);
    }

    fn pie_stream_decode_matches_batch(bits in pvec(any::<bool>(), 0..48),
                                       with_trcal in any::<bool>(), depth in 0.6f64..1.0,
                                       block in 1usize..96) {
        // Rasterized PIE frames peak at exactly 1.0 (the carrier-on runs),
        // so a fixed 0.5 threshold makes the streaming decoder's comparisons
        // identical to decode_frame's peak-relative ones.
        let p = PieParams::paper_defaults();
        let runs = encode_frame(&bits, &p, with_trcal);
        let env = rasterize(&runs, 2e6, 1.0 - depth);
        let batch = decode_frame(&env, 2e6);
        let mut dec = PieStreamDecoder::new(0.5, 2e6);
        for chunk in env.chunks(block) {
            dec.push(chunk);
        }
        prop_assert_eq!(dec.finish(), batch);
    }

    fn fm0_stream_decode_matches_batch(bits in pvec(any::<bool>(), 1..48),
                                       spb in 1usize..6, extra in 0usize..8,
                                       block in 1usize..64) {
        let fm0 = Fm0::new(spb);
        let mut wave = fm0.encode(&bits);
        // A trailing partial symbol must be discarded by both paths.
        wave.extend(std::iter::repeat_n(1.0, extra % fm0.samples_per_symbol()));
        let batch = fm0.decode(&wave);
        let mut dec = Fm0Decoder::new(fm0);
        for chunk in wave.chunks(block) {
            dec.push(chunk);
        }
        prop_assert_eq!(dec.finish(), batch);
    }
}
