//! Gen2 reader command codecs.
//!
//! Bit-level serialization of the command subset IVN needs: Query (opens
//! an inventory round), QueryRep / QueryAdjust (advance it), ACK
//! (acknowledge an RN16), ReqRN (handle request), and a simplified Select
//! (the multi-sensor addressing mechanism §3.7 suggests).

use crate::crc::{append_crc16, append_crc5, bits_to_u64, check_crc16, check_crc5};

/// Divide-ratio field of Query (sets BLF together with TRcal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivideRatio {
    /// DR = 8.
    Dr8,
    /// DR = 64/3.
    Dr64Over3,
}

impl DivideRatio {
    /// Numeric ratio.
    pub(crate) fn value(self) -> f64 {
        match self {
            DivideRatio::Dr8 => 8.0,
            DivideRatio::Dr64Over3 => 64.0 / 3.0,
        }
    }
}

/// Tag→reader modulation format requested by Query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagEncoding {
    /// FM0 baseband (the paper's configuration).
    Fm0,
    /// Miller subcarrier, 2 cycles per symbol.
    Miller2,
    /// Miller subcarrier, 4 cycles per symbol.
    Miller4,
    /// Miller subcarrier, 8 cycles per symbol.
    Miller8,
}

impl TagEncoding {
    fn to_bits(self) -> [bool; 2] {
        match self {
            TagEncoding::Fm0 => [false, false],
            TagEncoding::Miller2 => [false, true],
            TagEncoding::Miller4 => [true, false],
            TagEncoding::Miller8 => [true, true],
        }
    }

    fn from_bits(b: [bool; 2]) -> Self {
        match b {
            [false, false] => TagEncoding::Fm0,
            [false, true] => TagEncoding::Miller2,
            [true, false] => TagEncoding::Miller4,
            [true, true] => TagEncoding::Miller8,
        }
    }
}

/// Inventory session flag (S0–S3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Session {
    /// Session 0.
    S0,
    /// Session 1.
    S1,
    /// Session 2.
    S2,
    /// Session 3.
    S3,
}

impl Session {
    fn to_bits(self) -> [bool; 2] {
        match self {
            Session::S0 => [false, false],
            Session::S1 => [false, true],
            Session::S2 => [true, false],
            Session::S3 => [true, true],
        }
    }

    fn from_bits(b: [bool; 2]) -> Self {
        match b {
            [false, false] => Session::S0,
            [false, true] => Session::S1,
            [true, false] => Session::S2,
            [true, true] => Session::S3,
        }
    }
}

/// A reader command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Opens an inventory round with 2^q slots.
    Query {
        /// Divide ratio (BLF = DR / TRcal).
        dr: DivideRatio,
        /// Requested tag encoding.
        m: TagEncoding,
        /// Pilot-tone request (TRext).
        trext: bool,
        /// Inventory session.
        session: Session,
        /// Slot-count exponent, 0–15.
        q: u8,
    },
    /// Advances to the next slot in the round.
    QueryRep {
        /// Session of the round being advanced.
        session: Session,
    },
    /// Adjusts Q mid-round: -1, 0, or +1.
    QueryAdjust {
        /// Session of the round being adjusted.
        session: Session,
        /// Change to Q (must be −1, 0, or 1).
        updn: i8,
    },
    /// Acknowledges a tag's RN16.
    Ack {
        /// The RN16 echoed back to the tag.
        rn16: u16,
    },
    /// Requests a new handle from an acknowledged tag.
    ReqRn {
        /// The RN16 of the acknowledged tag.
        rn16: u16,
    },
    /// Simplified Select: addresses tags whose EPC matches `mask` (the
    /// paper's §3.7 multi-sensor mechanism). Non-matching tags deassert.
    Select {
        /// EPC prefix mask to match.
        mask: Vec<bool>,
    },
}

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommandError {
    /// Not enough bits for any command.
    TooShort,
    /// Unknown opcode prefix.
    UnknownOpcode,
    /// A CRC failed.
    BadCrc,
    /// Field out of range.
    BadField,
}

impl Command {
    /// The Query every IVN downlink keys on: DR = 8, FM0, no TRext,
    /// session S0 and Q = 0, a one-slot round in which a lone tag
    /// answers at once.
    pub fn canonical_query() -> Command {
        Command::Query {
            dr: DivideRatio::Dr8,
            m: TagEncoding::Fm0,
            trext: false,
            session: Session::S0,
            q: 0,
        }
    }

    /// Serializes to on-air bits (MSB first), including CRCs where the
    /// spec requires them.
    pub fn encode(&self) -> Vec<bool> {
        match self {
            Command::Query {
                dr,
                m,
                trext,
                session,
                q,
            } => {
                assert!(*q <= 15, "Q must be 0..=15");
                let mut bits = vec![true, false, false, false]; // opcode 1000
                bits.push(matches!(dr, DivideRatio::Dr64Over3));
                bits.extend_from_slice(&m.to_bits());
                bits.push(*trext);
                // Sel field: all tags (00).
                bits.extend_from_slice(&[false, false]);
                bits.extend_from_slice(&session.to_bits());
                // Target A (0).
                bits.push(false);
                for i in (0..4).rev() {
                    bits.push((q >> i) & 1 == 1);
                }
                append_crc5(&mut bits);
                bits
            }
            Command::QueryRep { session } => {
                let mut bits = vec![false, false]; // opcode 00
                bits.extend_from_slice(&session.to_bits());
                bits
            }
            Command::QueryAdjust { session, updn } => {
                assert!((-1..=1).contains(updn), "updn must be -1, 0 or 1");
                let mut bits = vec![true, false, false, true]; // opcode 1001
                bits.extend_from_slice(&session.to_bits());
                let code: [bool; 3] = match updn {
                    1 => [true, true, false],
                    0 => [false, false, false],
                    _ => [false, true, true],
                };
                bits.extend_from_slice(&code);
                bits
            }
            Command::Ack { rn16 } => {
                let mut bits = vec![false, true]; // opcode 01
                for i in (0..16).rev() {
                    bits.push((rn16 >> i) & 1 == 1);
                }
                bits
            }
            Command::ReqRn { rn16 } => {
                let mut bits = vec![true, true, false, false, false, false, false, true];
                for i in (0..16).rev() {
                    bits.push((rn16 >> i) & 1 == 1);
                }
                append_crc16(&mut bits);
                bits
            }
            Command::Select { mask } => {
                let mut bits = vec![true, false, true, false]; // opcode 1010
                                                               // 8-bit mask length then the mask itself.
                assert!(mask.len() <= 255, "mask too long");
                for i in (0..8).rev() {
                    bits.push((mask.len() as u8 >> i) & 1 == 1);
                }
                bits.extend_from_slice(mask);
                append_crc16(&mut bits);
                bits
            }
        }
    }

    /// Parses on-air bits back into a command, verifying CRCs.
    pub fn decode(bits: &[bool]) -> Result<Command, CommandError> {
        if bits.len() < 4 {
            return Err(CommandError::TooShort);
        }
        // Two-bit opcodes first.
        match (bits[0], bits[1]) {
            (false, false) => {
                if bits.len() != 4 {
                    return Err(CommandError::BadField);
                }
                return Ok(Command::QueryRep {
                    session: Session::from_bits([bits[2], bits[3]]),
                });
            }
            (false, true) => {
                if bits.len() != 18 {
                    return Err(CommandError::BadField);
                }
                return Ok(Command::Ack {
                    rn16: bits_to_u64(&bits[2..18]) as u16,
                });
            }
            _ => {}
        }
        let op4 = (bits[0], bits[1], bits[2], bits[3]);
        match op4 {
            (true, false, false, false) => {
                // Query: 4+1+2+1+2+2+1+4+5 = 22 bits.
                if bits.len() != 22 {
                    return Err(CommandError::BadField);
                }
                if !check_crc5(bits) {
                    return Err(CommandError::BadCrc);
                }
                let dr = if bits[4] {
                    DivideRatio::Dr64Over3
                } else {
                    DivideRatio::Dr8
                };
                let m = TagEncoding::from_bits([bits[5], bits[6]]);
                let trext = bits[7];
                let session = Session::from_bits([bits[10], bits[11]]);
                let q = bits_to_u64(&bits[13..17]) as u8;
                Ok(Command::Query {
                    dr,
                    m,
                    trext,
                    session,
                    q,
                })
            }
            (true, false, false, true) => {
                if bits.len() != 9 {
                    return Err(CommandError::BadField);
                }
                let session = Session::from_bits([bits[4], bits[5]]);
                let updn = match (bits[6], bits[7], bits[8]) {
                    (true, true, false) => 1,
                    (false, false, false) => 0,
                    (false, true, true) => -1,
                    _ => return Err(CommandError::BadField),
                };
                Ok(Command::QueryAdjust { session, updn })
            }
            (true, false, true, false) => {
                if bits.len() < 28 || !check_crc16(bits) {
                    return Err(CommandError::BadCrc);
                }
                let len = bits_to_u64(&bits[4..12]) as usize;
                if bits.len() != 12 + len + 16 {
                    return Err(CommandError::BadField);
                }
                Ok(Command::Select {
                    mask: bits[12..12 + len].to_vec(),
                })
            }
            (true, true, false, false) => {
                // ReqRN: 8 + 16 + 16 = 40 bits.
                if bits.len() != 40 {
                    return Err(CommandError::BadField);
                }
                if !check_crc16(bits) {
                    return Err(CommandError::BadCrc);
                }
                Ok(Command::ReqRn {
                    rn16: bits_to_u64(&bits[8..24]) as u16,
                })
            }
            _ => Err(CommandError::UnknownOpcode),
        }
    }

    /// Counts `(zeros, ones)` in the encoded form — used for on-air
    /// duration budgeting.
    pub(crate) fn bit_census(&self) -> (usize, usize) {
        let bits = self.encode();
        let ones = bits.iter().filter(|&&b| b).count();
        (bits.len() - ones, ones)
    }

    /// Whether this command opens a frame with the full preamble (TRcal).
    pub fn needs_trcal(&self) -> bool {
        matches!(self, Command::Query { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn default_query(q: u8) -> Command {
        Command::Query {
            dr: DivideRatio::Dr8,
            m: TagEncoding::Fm0,
            trext: false,
            session: Session::S0,
            q,
        }
    }

    #[test]
    fn query_roundtrip_all_q() {
        for q in 0..=15 {
            let cmd = default_query(q);
            let bits = cmd.encode();
            assert_eq!(bits.len(), 22);
            assert_eq!(Command::decode(&bits).unwrap(), cmd);
        }
    }

    #[test]
    fn query_roundtrip_field_combinations() {
        for dr in [DivideRatio::Dr8, DivideRatio::Dr64Over3] {
            for m in [
                TagEncoding::Fm0,
                TagEncoding::Miller2,
                TagEncoding::Miller4,
                TagEncoding::Miller8,
            ] {
                for trext in [false, true] {
                    for session in [Session::S0, Session::S1, Session::S2, Session::S3] {
                        let cmd = Command::Query {
                            dr,
                            m,
                            trext,
                            session,
                            q: 4,
                        };
                        assert_eq!(Command::decode(&cmd.encode()).unwrap(), cmd);
                    }
                }
            }
        }
    }

    #[test]
    fn query_crc_protects() {
        let mut bits = default_query(3).encode();
        bits[10] = !bits[10];
        assert_eq!(Command::decode(&bits), Err(CommandError::BadCrc));
    }

    #[test]
    fn queryrep_and_ack_roundtrip() {
        for session in [Session::S0, Session::S3] {
            let cmd = Command::QueryRep { session };
            assert_eq!(Command::decode(&cmd.encode()).unwrap(), cmd);
        }
        for rn in [0u16, 0xFFFF, 0x1234, 0xA5A5] {
            let cmd = Command::Ack { rn16: rn };
            let bits = cmd.encode();
            assert_eq!(bits.len(), 18);
            assert_eq!(Command::decode(&bits).unwrap(), cmd);
        }
    }

    #[test]
    fn query_adjust_roundtrip() {
        for updn in [-1i8, 0, 1] {
            let cmd = Command::QueryAdjust {
                session: Session::S1,
                updn,
            };
            assert_eq!(Command::decode(&cmd.encode()).unwrap(), cmd);
        }
    }

    #[test]
    fn reqrn_roundtrip_and_crc() {
        let cmd = Command::ReqRn { rn16: 0xBEEF };
        let bits = cmd.encode();
        assert_eq!(bits.len(), 40);
        assert_eq!(Command::decode(&bits).unwrap(), cmd);
        let mut bad = bits.clone();
        bad[12] = !bad[12];
        assert_eq!(Command::decode(&bad), Err(CommandError::BadCrc));
    }

    #[test]
    fn select_roundtrip() {
        let mask = vec![true, false, true, true, false, false, true, false];
        let cmd = Command::Select { mask: mask.clone() };
        match Command::decode(&cmd.encode()).unwrap() {
            Command::Select { mask: m } => assert_eq!(m, mask),
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn reject_garbage() {
        assert_eq!(Command::decode(&[]), Err(CommandError::TooShort));
        assert_eq!(
            Command::decode(&[true, true, true, true, false]),
            Err(CommandError::UnknownOpcode)
        );
        // Wrong-length query.
        assert_eq!(
            Command::decode(&default_query(1).encode()[..20]),
            Err(CommandError::BadField)
        );
    }

    #[test]
    fn census_and_trcal() {
        let cmd = default_query(0);
        let (z, o) = cmd.bit_census();
        assert_eq!(z + o, 22);
        assert!(cmd.needs_trcal());
        assert!(!Command::Ack { rn16: 1 }.needs_trcal());
    }
}
