//! Page serialization for durable backends.
//!
//! The pager keeps pages as typed structs (the I/O cost model needs
//! counts, not bytes), so durability needs an explicit byte boundary:
//! a [`PageCodec`] turns one page into a self-contained byte image and
//! back. Encodings are little-endian, length-prefixed where variable,
//! and checksummed by the WAL/page-file framing (see [`crate::wal`]) —
//! the codec itself never needs to detect corruption, only to refuse
//! byte images it cannot understand (`decode` returns `None`).
//!
//! [`FixedCodec`] is the leaf-level helper for fixed-width scalar keys
//! and values; index crates compose it into their node encodings.

/// Encodes/decodes one whole page as a self-contained byte image.
pub trait PageCodec: Sized {
    /// Appends the page's byte image to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Rebuilds a page from the image produced by
    /// [`PageCodec::encode`]. Returns `None` for images this codec
    /// does not understand (wrong tag, short buffer, trailing bytes).
    fn decode(bytes: &[u8]) -> Option<Self>;

    /// Offers the page as a *delta* against `base`, an earlier version
    /// of the same page: appends splices ([`crate::wal::put_splice`],
    /// ascending and non-overlapping) such that
    /// [`crate::wal::apply_splices`] over `base`'s image yields this
    /// page's image byte for byte, and returns `true`. A codec declines
    /// — returns `false` and leaves `out` as it found it — when it has
    /// no delta to offer or the splices would not be smaller than the
    /// image; the commit then journals the image. The default declines
    /// always.
    fn encode_delta(&self, base: &Self, out: &mut Vec<u8>) -> bool {
        let _ = (base, out);
        false
    }
}

/// A fixed-width scalar that can be written to / read from a byte
/// stream. The building block index crates use inside their
/// [`PageCodec`] node encodings.
pub trait FixedCodec: Sized {
    /// Appends the little-endian image of `self` to `out`.
    fn write(&self, out: &mut Vec<u8>);

    /// Reads one value from `r`, advancing it. `None` on underflow.
    fn read(r: &mut ByteReader<'_>) -> Option<Self>;
}

macro_rules! fixed_codec_prim {
    ($($t:ty => $read:ident),* $(,)?) => {$(
        impl FixedCodec for $t {
            fn write(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn read(r: &mut ByteReader<'_>) -> Option<Self> {
                r.$read()
            }
        }
    )*};
}

fixed_codec_prim! {
    u16 => u16,
    u32 => u32,
    u64 => u64,
    i32 => i32,
    i64 => i64,
    f32 => f32,
    f64 => f64,
}

impl<A: FixedCodec, B: FixedCodec> FixedCodec for (A, B) {
    fn write(&self, out: &mut Vec<u8>) {
        self.0.write(out);
        self.1.write(out);
    }

    fn read(r: &mut ByteReader<'_>) -> Option<Self> {
        Some((A::read(r)?, B::read(r)?))
    }
}

/// Appends a `u32` little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed (`u32`) byte slice.
///
/// # Panics
/// Panics if `bytes` is longer than `u32::MAX`.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, u32::try_from(bytes.len()).expect("blob exceeds u32"));
    out.extend_from_slice(bytes);
}

/// A bounds-checked little-endian cursor over a byte slice. Every read
/// advances; underflow returns `None` instead of panicking, so torn or
/// hostile images fail decoding cleanly.
#[derive(Debug, Clone, Copy)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

macro_rules! reader_prim {
    ($($name:ident => $t:ty),* $(,)?) => {$(
        #[doc = concat!("Reads one little-endian `", stringify!($t), "`.")]
        pub fn $name(&mut self) -> Option<$t> {
            const N: usize = std::mem::size_of::<$t>();
            let raw: [u8; N] = self.take(N)?.try_into().ok()?;
            Some(<$t>::from_le_bytes(raw))
        }
    )*};
}

impl<'a> ByteReader<'a> {
    /// Starts a cursor at the beginning of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the cursor has consumed the whole buffer — decoders
    /// check this to reject images with trailing garbage.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    reader_prim! {
        u16 => u16,
        u32 => u32,
        u64 => u64,
        i32 => i32,
        i64 => i64,
        f32 => f32,
        f64 => f64,
    }

    /// Reads a length-prefixed byte slice written by [`put_bytes`].
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }
}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the
/// checksum framing every WAL record and page-file slot. Hand-rolled
/// (tables generated at compile time) because the repo is
/// dependency-free by design.
///
/// Slice-by-8: eight bytes per step through eight tables, the bytes
/// that do not fill a step one at a time. The checksum is all of what
/// recovery's scan computes and most of what appending a page image
/// costs, and the byte-at-a-time loop is a chain of dependent loads.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    const T: [[u32; 256]; 8] = crc32_tables();
    let mut crc = !0u32;
    let mut steps = bytes.chunks_exact(8);
    for s in &mut steps {
        let lo = crc ^ u32::from_le_bytes([s[0], s[1], s[2], s[3]]);
        let hi = u32::from_le_bytes([s[4], s[5], s[6], s[7]]);
        crc = T[7][(lo & 0xFF) as usize]
            ^ T[6][((lo >> 8) & 0xFF) as usize]
            ^ T[5][((lo >> 16) & 0xFF) as usize]
            ^ T[4][(lo >> 24) as usize]
            ^ T[3][(hi & 0xFF) as usize]
            ^ T[2][((hi >> 8) & 0xFF) as usize]
            ^ T[1][((hi >> 16) & 0xFF) as usize]
            ^ T[0][(hi >> 24) as usize];
    }
    for &b in steps.remainder() {
        crc = (crc >> 8) ^ T[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// `T[0]` is the byte-at-a-time table; `T[k][i]` is the checksum state
/// `T[0][i]` carried through `k` further zero bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard CRC-32/IEEE check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The loop `crc32` replaced: one table, one byte per step.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            let mut x = (crc ^ u32::from(b)) & 0xFF;
            for _ in 0..8 {
                x = if x & 1 != 0 {
                    (x >> 1) ^ 0xEDB8_8320
                } else {
                    x >> 1
                };
            }
            crc = (crc >> 8) ^ x;
        }
        !crc
    }

    #[test]
    fn crc32_slice_by_8_equals_the_bytewise_loop() {
        // A buffer no eight-byte pattern repeats in.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..9_008)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect();
        // Every length 0–64, then a stride of lengths to 9 000 that
        // visits every remainder mod 8 — each at all eight alignments.
        let lengths = (0..=64).chain((65..=9_000).step_by(131));
        for len in lengths {
            for start in 0..8 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "len {len} at alignment {start}"
                );
            }
        }
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let base = b"mobidx wal record payload".to_vec();
        let reference = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn reader_round_trips_scalars() {
        let mut out = Vec::new();
        7u16.write(&mut out);
        0xDEAD_BEEFu32.write(&mut out);
        u64::MAX.write(&mut out);
        (-5i32).write(&mut out);
        (-6i64).write(&mut out);
        1.5f32.write(&mut out);
        2.25f64.write(&mut out);
        (3u32, 4u64).write(&mut out);
        put_bytes(&mut out, b"tail");

        let mut r = ByteReader::new(&out);
        assert_eq!(u16::read(&mut r), Some(7));
        assert_eq!(u32::read(&mut r), Some(0xDEAD_BEEF));
        assert_eq!(u64::read(&mut r), Some(u64::MAX));
        assert_eq!(i32::read(&mut r), Some(-5));
        assert_eq!(i64::read(&mut r), Some(-6));
        assert_eq!(f32::read(&mut r), Some(1.5));
        assert_eq!(f64::read(&mut r), Some(2.25));
        assert_eq!(<(u32, u64)>::read(&mut r), Some((3, 4)));
        assert_eq!(r.bytes(), Some(&b"tail"[..]));
        assert!(r.is_empty());
    }

    #[test]
    fn reader_underflow_is_none_not_panic() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.u64(), None);
        // A failed read must not consume.
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.u16(), Some(0x0201));
        assert_eq!(r.u32(), None);
        assert_eq!(r.u8(), Some(3));
        assert!(r.is_empty());
        assert_eq!(r.u8(), None);
    }

    #[test]
    fn bytes_with_oversized_length_prefix_is_none() {
        let mut out = Vec::new();
        put_u32(&mut out, 1000); // claims 1000 bytes, provides 2
        out.extend_from_slice(&[1, 2]);
        let mut r = ByteReader::new(&out);
        assert_eq!(r.bytes(), None);
    }
}
