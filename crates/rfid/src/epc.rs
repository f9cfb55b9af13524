//! EPC (Electronic Product Code) storage.
//!
//! [`Epc`] is the identity a tag stores and a reader reads back: an
//! opaque bit string of up to 496 bits, packed inline so tags and read
//! results copy without allocating.

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
