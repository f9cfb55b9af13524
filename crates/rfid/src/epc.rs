//! EPC (Electronic Product Code) storage and the SGTIN-96 scheme.
//!
//! [`Epc`] is the identity a tag stores and a reader reads back: an
//! opaque bit string of up to 496 bits, packed inline so tags and read
//! results copy without allocating. [`Sgtin96`] gives the 96-bit form
//! structure so examples and multi-sensor deployments can allocate
//! meaningful, collision-free identities (header / filter / partition /
//! company / item / serial) and round-trip them through the air
//! interface.

use std::fmt;

/// Longest EPC a Gen2 PC word can announce: 31 words of 16 bits.
pub const EPC_MAX_BITS: usize = 496;

/// An EPC of 1–[`EPC_MAX_BITS`] bits, packed MSB-first into 16-bit
/// words (the Gen2 memory word) and stored inline.
///
/// Bit `i` is bit `15 - i % 16` of word `i / 16`. Bits past the length
/// are always zero, so the derived `Eq` and `Hash` see only the EPC.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Epc {
    words: [u16; EPC_MAX_BITS / 16],
    len: u16,
}

impl Epc {
    /// Packs an MSB-first bit string.
    ///
    /// # Panics
    /// Panics if `bits` is empty or longer than [`EPC_MAX_BITS`].
    pub fn from_bits(bits: &[bool]) -> Self {
        assert!(
            !bits.is_empty() && bits.len() <= EPC_MAX_BITS,
            "EPC length invalid"
        );
        let mut words = [0u16; EPC_MAX_BITS / 16];
        for (i, &b) in bits.iter().enumerate() {
            words[i / 16] |= u16::from(b) << (15 - i % 16);
        }
        Epc {
            words,
            len: bits.len() as u16,
        }
    }

    /// The 96-bit EPC held in the low 96 bits of `v` (top 32 ignored).
    pub fn from_u96(v: u128) -> Self {
        let mut words = [0u16; EPC_MAX_BITS / 16];
        for (k, w) in words[..6].iter_mut().enumerate() {
            *w = (v >> (80 - 16 * k)) as u16;
        }
        Epc { words, len: 96 }
    }

    /// Number of bits (never zero).
    #[allow(clippy::len_without_is_empty)] // an EPC holds at least one bit
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Bit `i`, counting from the most significant.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.len(), "bit {i} of a {}-bit EPC", self.len);
        self.words[i / 16] >> (15 - i % 16) & 1 == 1
    }

    /// The bits, MSB-first (tag-memory order).
    pub fn bits(self) -> impl ExactSizeIterator<Item = bool> {
        (0..self.len()).map(move |i| self.bit(i))
    }

    /// Whether `mask` is a prefix of the EPC — the Gen2 Select match. An
    /// empty mask matches; one longer than the EPC does not.
    pub fn starts_with(&self, mask: &[bool]) -> bool {
        mask.len() <= self.len() && mask.iter().zip(self.bits()).all(|(&m, b)| m == b)
    }
}

impl fmt::Debug for Epc {
    /// `Epc[96]3034…`: the length, then the words in hex.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Epc[{}]", self.len)?;
        for w in &self.words[..self.len().div_ceil(16)] {
            write!(f, "{w:04x}")?;
        }
        Ok(())
    }
}

/// The SGTIN-96 header byte.
pub(crate) const SGTIN96_HEADER: u8 = 0x30;

/// A parsed SGTIN-96 EPC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sgtin96 {
    /// Filter value (0–7): packaging level.
    pub(crate) filter: u8,
    /// Partition (0–6): split between company prefix and item reference.
    pub(crate) partition: u8,
    /// Company prefix (up to 40 bits).
    pub(crate) company: u64,
    /// Item reference (up to 24 bits).
    pub(crate) item: u32,
    /// Serial number (38 bits).
    pub(crate) serial: u64,
}

/// Bit widths of (company, item) for each partition value.
const PARTITION_WIDTHS: [(u32, u32); 7] = [
    (40, 4),
    (37, 7),
    (34, 10),
    (30, 14),
    (27, 17),
    (24, 20),
    (20, 24),
];

/// Errors from EPC parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EpcError {
    /// Header is not SGTIN-96.
    WrongHeader,
    /// Partition value out of range.
    BadPartition,
    /// A field exceeded its width.
    FieldOverflow,
}

impl Sgtin96 {
    /// Creates an SGTIN-96, validating field widths.
    pub fn new(
        filter: u8,
        partition: u8,
        company: u64,
        item: u32,
        serial: u64,
    ) -> Result<Self, EpcError> {
        if partition > 6 {
            return Err(EpcError::BadPartition);
        }
        let (cw, iw) = PARTITION_WIDTHS[partition as usize];
        if filter > 7
            || (cw < 64 && company >= 1u64 << cw)
            || (iw < 32 && item >= 1u32 << iw)
            || serial >= 1u64 << 38
        {
            return Err(EpcError::FieldOverflow);
        }
        Ok(Sgtin96 {
            filter,
            partition,
            company,
            item,
            serial,
        })
    }

    /// Packs into the 96-bit EPC value.
    pub fn encode(&self) -> u128 {
        let (cw, iw) = PARTITION_WIDTHS[self.partition as usize];
        let mut v: u128 = (SGTIN96_HEADER as u128) << 88;
        v |= (self.filter as u128) << 85;
        v |= (self.partition as u128) << 82;
        let item_shift = 82 - cw;
        v |= (self.company as u128) << item_shift;
        // cw + iw = 44 for every partition, so this is always 38.
        let serial_shift = item_shift - iw;
        v |= (self.item as u128) << serial_shift;
        v |= self.serial as u128;
        v
    }

    /// Parses a 96-bit EPC value: the inverse [`encode`](Self::encode) is
    /// checked against by `tests/proptests.rs::sgtin_roundtrip`.
    pub fn decode(epc: u128) -> Result<Self, EpcError> {
        let header = (epc >> 88) as u8;
        if header != SGTIN96_HEADER {
            return Err(EpcError::WrongHeader);
        }
        let filter = ((epc >> 85) & 0x7) as u8;
        let partition = ((epc >> 82) & 0x7) as u8;
        if partition > 6 {
            return Err(EpcError::BadPartition);
        }
        let (cw, iw) = PARTITION_WIDTHS[partition as usize];
        let item_shift = 82 - cw;
        let company = ((epc >> item_shift) & ((1u128 << cw) - 1)) as u64;
        let serial_shift = item_shift - iw;
        let item = ((epc >> serial_shift) & ((1u128 << iw) - 1)) as u32;
        let serial = (epc & ((1u128 << 38) - 1)) as u64;
        Ok(Sgtin96 {
            filter,
            partition,
            company,
            item,
            serial,
        })
    }
}

/// Allocates a family of sensor EPCs sharing a company/item prefix with
/// sequential serials — convenient for multi-sensor deployments where a
/// Select mask on the shared prefix addresses the whole family.
pub fn allocate_family(company: u64, item: u32, count: usize) -> Vec<Sgtin96> {
    (0..count)
        .map(|k| Sgtin96::new(1, 5, company, item, k as u64).expect("family parameters valid"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_partitions() {
        for partition in 0..=6u8 {
            let (cw, iw) = PARTITION_WIDTHS[partition as usize];
            let company = (1u64 << (cw - 1)) | 5;
            let item = if iw >= 2 { (1u32 << (iw - 1)) | 1 } else { 1 };
            let epc = Sgtin96::new(3, partition, company, item, 123_456).unwrap();
            let packed = epc.encode();
            assert_eq!(
                Sgtin96::decode(packed).unwrap(),
                epc,
                "partition {partition}"
            );
        }
    }

    #[test]
    fn header_preserved() {
        let epc = Sgtin96::new(0, 0, 1, 1, 1).unwrap();
        assert_eq!((epc.encode() >> 88) as u8, SGTIN96_HEADER);
    }

    #[test]
    fn rejects_invalid() {
        assert_eq!(Sgtin96::new(0, 7, 1, 1, 1), Err(EpcError::BadPartition));
        assert_eq!(Sgtin96::new(9, 0, 1, 1, 1), Err(EpcError::FieldOverflow));
        // Serial too wide.
        assert_eq!(
            Sgtin96::new(0, 0, 1, 1, 1u64 << 38),
            Err(EpcError::FieldOverflow)
        );
        // Item too wide for partition 0 (4 bits).
        assert_eq!(Sgtin96::new(0, 0, 1, 16, 1), Err(EpcError::FieldOverflow));
        // Wrong header.
        assert_eq!(Sgtin96::decode(0), Err(EpcError::WrongHeader));
    }

    #[test]
    fn family_shares_prefix_differs_in_serial() {
        let family = allocate_family(0xC0FFEE, 7, 8);
        assert_eq!(family.len(), 8);
        // header+filter+partition+company+item: all but the 38 serial bits.
        let prefix_of = |e: &Sgtin96| e.encode() >> 38;
        let p0 = prefix_of(&family[0]);
        for (k, e) in family.iter().enumerate() {
            assert_eq!(prefix_of(e), p0);
            assert_eq!(e.serial, k as u64);
        }
        // All encodings distinct.
        let mut vals: Vec<u128> = family.iter().map(|e| e.encode()).collect();
        vals.dedup();
        assert_eq!(vals.len(), 8);
    }

    #[test]
    fn select_mask_on_family_prefix_matches_tag() {
        // The family prefix works as a Gen2 Select mask.
        use crate::commands::Command;
        use crate::tag::{Tag, TagState};
        let family = allocate_family(0xC0FFEE, 7, 2);
        let mut tag = Tag::new(Epc::from_u96(family[0].encode()), 1);
        tag.set_powered(true);
        let mask: Vec<bool> = Epc::from_u96(family[1].encode()).bits().take(58).collect(); // shared prefix
        tag.process(&Command::Select { mask });
        assert_eq!(tag.state(), TagState::Ready); // matched, not parked
    }
}
