//! Bit-exact encoding for certificates and messages.
//!
//! Certificate size is *the* complexity measure of proof-labeling
//! schemes, so sizes must be measured honestly: this module provides a
//! writer/reader over a bit stream with fixed-width fields and LEB128
//! varints. No padding to byte boundaries is counted.
//!
//! ```
//! use dpc_runtime::bits::{BitWriter, BitReader};
//!
//! let mut w = BitWriter::new();
//! w.write_bits(5, 3);
//! w.write_varint(300);
//! w.write_bool(true);
//! let bits = w.bit_len();
//! let mut r = BitReader::new(w.as_bytes(), bits);
//! assert_eq!(r.read_bits(3).unwrap(), 5);
//! assert_eq!(r.read_varint().unwrap(), 300);
//! assert!(r.read_bool().unwrap());
//! ```

use std::fmt;

/// Error when decoding a bit stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Read past the end of the stream.
    OutOfBits,
    /// A varint was longer than 64 bits.
    VarintOverflow,
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::OutOfBits => write!(f, "read past end of bit stream"),
            DecodeError::VarintOverflow => write!(f, "varint longer than 64 bits"),
            DecodeError::BadUtf8 => write!(f, "string is not UTF-8"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Append-only bit stream writer.
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    len_bits: usize,
}

impl BitWriter {
    /// An empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.len_bits
    }

    /// The backing bytes (last byte possibly partial; its unused low
    /// bits are zero, so equal streams have equal bytes).
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning `(bytes, bit_len)`.
    pub fn into_parts(self) -> (Vec<u8>, usize) {
        (self.buf, self.len_bits)
    }

    /// Writes the `width` low bits of `value`, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or `value` does not fit in `width` bits.
    pub fn write_bits(&mut self, value: u64, width: u32) {
        assert!(width <= 64);
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        let mut left = width as usize;
        while left >= 8 {
            left -= 8;
            self.push_top((value >> left) as u8, 8);
        }
        if left > 0 {
            self.push_top((value << (8 - left)) as u8, left);
        }
    }

    /// Writes a single bool as one bit.
    pub fn write_bool(&mut self, b: bool) {
        self.push_top((b as u8) << 7, 1);
    }

    /// Writes an unsigned LEB128 varint (7 bits per group + continuation
    /// bit; small values cost 8 bits).
    pub fn write_varint(&mut self, mut value: u64) {
        loop {
            let group = (value & 0x7f) as u8;
            value >>= 7;
            let more = value != 0;
            self.push_top(((more as u8) << 7) | group, 8);
            if !more {
                return;
            }
        }
    }

    /// Appends the `count` (1 to 8) most significant bits of `byte`,
    /// whose other bits must be zero, so the unused tail of the last
    /// byte stays zero.
    fn push_top(&mut self, byte: u8, count: usize) {
        let used = self.len_bits % 8;
        if used == 0 {
            self.buf.push(byte);
        } else {
            let last = self.buf.last_mut().expect("a partial last byte");
            *last |= byte >> used;
            if used + count > 8 {
                self.buf.push(byte << (8 - used));
            }
        }
        self.len_bits += count;
    }
}

/// Sequential reader over a bit stream produced by [`BitWriter`].
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    len_bits: usize,
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Reader over `buf` limited to `len_bits` bits.
    pub fn new(buf: &'a [u8], len_bits: usize) -> Self {
        BitReader {
            buf,
            len_bits,
            pos: 0,
        }
    }

    /// Bits remaining.
    pub fn remaining(&self) -> usize {
        self.len_bits - self.pos
    }

    /// Reads `width` bits (most significant first).
    pub fn read_bits(&mut self, width: u32) -> Result<u64, DecodeError> {
        if self.remaining() < width as usize {
            return Err(DecodeError::OutOfBits);
        }
        let mut v = 0u64;
        let mut left = width as usize;
        while left >= 8 {
            left -= 8;
            v = (v << 8) | self.take(8) as u64;
        }
        if left > 0 {
            v = (v << left) | self.take(left) as u64;
        }
        Ok(v)
    }

    /// The next `count` (1 to 8) bits as the low bits of a byte, read
    /// through a two-byte window; the caller has checked they exist.
    fn take(&mut self, count: usize) -> u8 {
        let at = self.pos / 8;
        let shift = self.pos % 8;
        let mut window = (self.buf[at] as u16) << 8;
        if shift + count > 8 {
            window |= self.buf[at + 1] as u16;
        }
        self.pos += count;
        ((window << shift) >> (16 - count)) as u8
    }

    /// Reads one bit.
    pub fn read_bool(&mut self) -> Result<bool, DecodeError> {
        Ok(self.read_bits(1)? == 1)
    }

    /// Reads an unsigned LEB128 varint.
    pub fn read_varint(&mut self) -> Result<u64, DecodeError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.read_bits(8)?;
            let group = byte & 0x7f;
            if shift >= 64 || (shift == 63 && group > 1) {
                return Err(DecodeError::VarintOverflow);
            }
            v |= group << shift;
            shift += 7;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
    }
}

/// Number of bits of the varint encoding of `value` (8 bits per 7-bit
/// group) — handy for size predictions in tests.
pub fn varint_len(value: u64) -> usize {
    let groups = (64 - value.leading_zeros()).div_ceil(7).max(1);
    groups as usize * 8
}

// ---------------------------------------------------------------------------
// Byte-oriented varints.
//
// The bit stream above measures certificates honestly (no padding); wire
// protocols and caches instead want byte-aligned buffers that can be
// memcpy'd and Arc-shared. These helpers are the canonical LEB128
// encoding over `Vec<u8>` / `&[u8]`, shared by the certificate
// serializers in `dpc-core` and the service wire codec.

/// Appends `value` as a standard LEB128 varint (low 7 bits per byte,
/// high bit = continuation).
pub fn put_uvarint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let group = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(group);
            return;
        }
        out.push(group | 0x80);
    }
}

/// Reads a LEB128 varint from the front of `buf`, advancing it.
pub fn get_uvarint(buf: &mut &[u8]) -> Result<u64, DecodeError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let (&byte, rest) = buf.split_first().ok_or(DecodeError::OutOfBits)?;
        *buf = rest;
        let group = (byte & 0x7f) as u64;
        if shift >= 64 || (shift == 63 && group > 1) {
            return Err(DecodeError::VarintOverflow);
        }
        v |= group << shift;
        shift += 7;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
}

/// Takes exactly `n` bytes from the front of `buf`, advancing it.
pub fn get_bytes<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], DecodeError> {
    if buf.len() < n {
        return Err(DecodeError::OutOfBits);
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

/// Appends a length-prefixed UTF-8 string: uvarint byte length, then
/// the raw bytes. The one string codec of the wire layer.
pub fn put_string(out: &mut Vec<u8>, s: &str) {
    put_uvarint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Decodes a length-prefixed UTF-8 string from the front of `buf`,
/// advancing it. Inverse of [`put_string`]. The announced length is
/// implicitly bounded by the remaining buffer ([`get_bytes`] rejects
/// anything longer), so no separate cap is needed here.
pub fn get_string(buf: &mut &[u8]) -> Result<String, DecodeError> {
    let len = get_uvarint(buf)? as usize;
    if len > buf.len() {
        return Err(DecodeError::OutOfBits);
    }
    let bytes = get_bytes(buf, len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn roundtrip_fixed_width() {
        let mut w = BitWriter::new();
        w.write_bits(0b1011, 4);
        w.write_bits(0, 1);
        w.write_bits(u64::MAX, 64);
        let mut r = BitReader::new(w.as_bytes(), w.bit_len());
        assert_eq!(r.read_bits(4).unwrap(), 0b1011);
        assert_eq!(r.read_bits(1).unwrap(), 0);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn roundtrip_varints() {
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ];
        let mut w = BitWriter::new();
        for &v in &values {
            w.write_varint(v);
        }
        let mut r = BitReader::new(w.as_bytes(), w.bit_len());
        for &v in &values {
            assert_eq!(r.read_varint().unwrap(), v);
        }
    }

    #[test]
    fn varint_sizes() {
        assert_eq!(varint_len(0), 8);
        assert_eq!(varint_len(127), 8);
        assert_eq!(varint_len(128), 16);
        let mut w = BitWriter::new();
        w.write_varint(128);
        assert_eq!(w.bit_len(), 16);
    }

    #[test]
    fn out_of_bits_detected() {
        let mut w = BitWriter::new();
        w.write_bits(3, 2);
        let mut r = BitReader::new(w.as_bytes(), w.bit_len());
        assert_eq!(r.read_bits(2).unwrap(), 3);
        assert_eq!(r.read_bits(1), Err(DecodeError::OutOfBits));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn overflow_write_panics() {
        let mut w = BitWriter::new();
        w.write_bits(4, 2);
    }

    #[test]
    fn byte_varint_roundtrip() {
        let values = [0u64, 1, 127, 128, 300, 16383, 16384, u64::MAX];
        let mut buf = Vec::new();
        for &v in &values {
            put_uvarint(&mut buf, v);
        }
        let mut cursor = buf.as_slice();
        for &v in &values {
            assert_eq!(get_uvarint(&mut cursor).unwrap(), v);
        }
        assert!(cursor.is_empty());
    }

    #[test]
    fn byte_varint_errors() {
        let mut empty: &[u8] = &[];
        assert_eq!(get_uvarint(&mut empty), Err(DecodeError::OutOfBits));
        let mut truncated: &[u8] = &[0x80];
        assert_eq!(get_uvarint(&mut truncated), Err(DecodeError::OutOfBits));
        // 10 continuation groups overflow 64 bits
        let mut long: &[u8] = &[0xff; 10];
        assert_eq!(get_uvarint(&mut long), Err(DecodeError::VarintOverflow));
    }

    #[test]
    fn get_bytes_advances() {
        let data = [1u8, 2, 3, 4];
        let mut cursor = data.as_slice();
        assert_eq!(get_bytes(&mut cursor, 3).unwrap(), &[1, 2, 3]);
        assert_eq!(get_bytes(&mut cursor, 2), Err(DecodeError::OutOfBits));
        assert_eq!(get_bytes(&mut cursor, 1).unwrap(), &[4]);
    }

    /// The bit-at-a-time writer the byte-at-a-time one replaced, kept as
    /// the reference of the differential tests below.
    #[derive(Default)]
    struct RefWriter {
        buf: Vec<u8>,
        len_bits: usize,
    }

    impl RefWriter {
        fn write_bits(&mut self, value: u64, width: u32) {
            for i in (0..width).rev() {
                self.push_bit((value >> i) & 1 == 1);
            }
        }

        fn write_bool(&mut self, b: bool) {
            self.push_bit(b);
        }

        fn write_varint(&mut self, mut value: u64) {
            loop {
                let group = value & 0x7f;
                value >>= 7;
                self.write_bool(value != 0);
                self.write_bits(group, 7);
                if value == 0 {
                    break;
                }
            }
        }

        fn push_bit(&mut self, bit: bool) {
            let byte = self.len_bits / 8;
            if byte == self.buf.len() {
                self.buf.push(0);
            }
            if bit {
                self.buf[byte] |= 1 << (7 - (self.len_bits % 8));
            }
            self.len_bits += 1;
        }
    }

    /// The bit-at-a-time reader the byte-at-a-time one replaced.
    struct RefReader<'a> {
        buf: &'a [u8],
        len_bits: usize,
        pos: usize,
    }

    impl RefReader<'_> {
        fn new(buf: &[u8], len_bits: usize) -> RefReader<'_> {
            RefReader {
                buf,
                len_bits,
                pos: 0,
            }
        }

        fn read_bits(&mut self, width: u32) -> Result<u64, DecodeError> {
            if self.len_bits - self.pos < width as usize {
                return Err(DecodeError::OutOfBits);
            }
            let mut v = 0u64;
            for _ in 0..width {
                let bit = (self.buf[self.pos / 8] >> (7 - (self.pos % 8))) & 1;
                v = (v << 1) | bit as u64;
                self.pos += 1;
            }
            Ok(v)
        }

        fn read_bool(&mut self) -> Result<bool, DecodeError> {
            Ok(self.read_bits(1)? == 1)
        }

        fn read_varint(&mut self) -> Result<u64, DecodeError> {
            let mut v = 0u64;
            let mut shift = 0u32;
            loop {
                let more = self.read_bool()?;
                let group = self.read_bits(7)?;
                if shift >= 64 || (shift == 63 && group > 1) {
                    return Err(DecodeError::VarintOverflow);
                }
                v |= group << shift;
                shift += 7;
                if !more {
                    return Ok(v);
                }
            }
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Bits(u64, u32),
        Bool(bool),
        Varint(u64),
    }

    fn random_bits(rng: &mut StdRng, width: u32) -> Op {
        let v: u64 = rng.gen();
        Op::Bits(
            if width == 64 {
                v
            } else {
                v & ((1 << width) - 1)
            },
            width,
        )
    }

    /// A seeded op sequence; `width` appears at least once, at a random
    /// bit offset.
    fn random_ops(seed: u64, width: u32) -> Vec<Op> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ops: Vec<Op> = (0..rng.gen_range(0..24))
            .map(|_| match rng.gen_range(0..3) {
                0 => {
                    let w = rng.gen_range(0..=64u32);
                    random_bits(&mut rng, w)
                }
                1 => Op::Bool(rng.gen()),
                _ => Op::Varint([0, 127, 128, 1 << 63, u64::MAX][rng.gen_range(0..5)]),
            })
            .collect();
        let at = rng.gen_range(0..=ops.len());
        let op = random_bits(&mut rng, width);
        ops.insert(at, op);
        ops
    }

    #[test]
    fn byte_codec_matches_the_bit_at_a_time_reference() {
        for seed in 0..4 * 65u64 {
            let ops = random_ops(seed, (seed % 65) as u32);
            let mut w = BitWriter::new();
            let mut reference = RefWriter::default();
            for &op in &ops {
                match op {
                    Op::Bits(v, width) => {
                        w.write_bits(v, width);
                        reference.write_bits(v, width);
                    }
                    Op::Bool(b) => {
                        w.write_bool(b);
                        reference.write_bool(b);
                    }
                    Op::Varint(v) => {
                        w.write_varint(v);
                        reference.write_varint(v);
                    }
                }
            }
            assert_eq!(w.as_bytes(), &reference.buf[..], "seed {seed}: {ops:?}");
            assert_eq!(w.bit_len(), reference.len_bits, "seed {seed}");
            // every truncation point: same values, then the same error
            for cut in 0..=w.bit_len() {
                let mut r = BitReader::new(w.as_bytes(), cut);
                let mut rr = RefReader::new(&reference.buf, cut);
                for &op in &ops {
                    let (got, want, written) = match op {
                        Op::Bits(v, width) => (r.read_bits(width), rr.read_bits(width), v),
                        Op::Bool(b) => (
                            r.read_bool().map(u64::from),
                            rr.read_bool().map(u64::from),
                            b as u64,
                        ),
                        Op::Varint(v) => (r.read_varint(), rr.read_varint(), v),
                    };
                    assert_eq!(got, want, "seed {seed}, cut {cut}, {op:?}");
                    match got {
                        Ok(v) => assert_eq!(v, written, "seed {seed}, cut {cut}"),
                        Err(e) => {
                            assert_eq!(e, DecodeError::OutOfBits);
                            assert!(cut < w.bit_len());
                            break;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ten_ff_groups_overflow_in_both_codecs() {
        for offset in 0..8u32 {
            let mut w = BitWriter::new();
            w.write_bits(0, offset);
            for _ in 0..10 {
                w.write_bits(0xff, 8);
            }
            let mut r = BitReader::new(w.as_bytes(), w.bit_len());
            let mut rr = RefReader::new(w.as_bytes(), w.bit_len());
            assert_eq!(r.read_bits(offset), rr.read_bits(offset));
            assert_eq!(r.read_varint(), Err(DecodeError::VarintOverflow));
            assert_eq!(rr.read_varint(), Err(DecodeError::VarintOverflow));
        }
    }

    #[test]
    fn bools_and_bits_interleave() {
        let mut w = BitWriter::new();
        for i in 0..100u64 {
            w.write_bool(i % 3 == 0);
            w.write_varint(i * i);
        }
        let mut r = BitReader::new(w.as_bytes(), w.bit_len());
        for i in 0..100u64 {
            assert_eq!(r.read_bool().unwrap(), i % 3 == 0);
            assert_eq!(r.read_varint().unwrap(), i * i);
        }
    }
}
