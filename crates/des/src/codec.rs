//! The workspace's one binary codec: little-endian primitives, FNV-1a-64
//! digests, and the checksummed `BTFS` frame every checkpoint format
//! shares.
//!
//! ```text
//! magic "BTFS" | version u32 | payload | fnv1a-64 of everything before it
//! ```
//!
//! The engine snapshot ([`crate::snapshot`], versions 2 and 3) and the
//! hybrid driver's snapshot (version 4) are both frames; the version field
//! tells them apart, and each decoder refuses the others' versions. The
//! same [`Writer`] also builds the byte strings behind the configuration
//! digests and scenario-hook fingerprints, so every byte that feeds a
//! checksum or digest is encoded one way. Floats travel as raw IEEE-754
//! bits, so NaN and ±∞ round-trip exactly.

use crate::snapshot::SnapshotError;

/// Magic that opens every frame.
const MAGIC: &[u8; 4] = b"BTFS";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 of `bytes` (checksums and digests; no external deps).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Little-endian byte writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl From<Vec<u8>> for Writer {
    /// Continues writing after existing bytes.
    fn from(buf: Vec<u8>) -> Self {
        Self { buf }
    }
}

impl Writer {
    /// An empty writer with room for `n` bytes.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            buf: Vec::with_capacity(n),
        }
    }

    /// Starts a frame: magic and `version`, ready for the payload. Finish
    /// it with [`Writer::seal`].
    pub fn frame(version: u32) -> Self {
        let mut w = Self::with_capacity(256);
        w.bytes(MAGIC);
        w.u32(version);
        w
    }

    /// Raw bytes, no length prefix.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    /// A bool as one byte, 0 or 1.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    /// A `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }
    /// A `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }
    /// A `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    /// An `f64` as its raw bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    /// A `u64` length prefix, then the UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
    /// Tag byte 0 for `None`, or 1 and the value.
    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
        }
    }
    /// A `u64` count, then each value.
    pub fn f64s(&mut self, xs: &[f64]) {
        self.u64(xs.len() as u64);
        for &x in xs {
            self.f64(x);
        }
    }

    /// FNV-1a of everything written so far (digests over a canonical
    /// field encoding).
    pub fn digest(&self) -> u64 {
        fnv1a(&self.buf)
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Closes a frame started with [`Writer::frame`]: appends the
    /// checksum in place and hands back the buffer, without copying it.
    pub fn seal(mut self) -> Vec<u8> {
        let sum = self.digest();
        self.u64(sum);
        self.buf
    }
}

/// Opens a frame: checks length, magic and checksum, then reads the
/// version. The returned reader is positioned at the payload and ends
/// before the checksum; the caller decides which versions it accepts.
///
/// # Errors
/// [`SnapshotError::Corrupt`] when shorter than an empty frame,
/// [`SnapshotError::BadMagic`], [`SnapshotError::ChecksumMismatch`].
pub fn open(bytes: &[u8]) -> Result<(u32, Reader<'_>), SnapshotError> {
    if bytes.len() < MAGIC.len() + 4 + 8 {
        return Err(SnapshotError::Corrupt("file too short".into()));
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let (body, sum) = bytes.split_at(bytes.len() - 8);
    if fnv1a(body) != Reader::new(sum).u64()? {
        return Err(SnapshotError::ChecksumMismatch);
    }
    let mut r = Reader::new(&body[MAGIC.len()..]);
    let version = r.u32()?;
    Ok((version, r))
}

/// Little-endian byte reader; every read is bounds-checked and fails with
/// [`SnapshotError::Corrupt`] instead of panicking.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Reads `buf` from its start (frames are opened with [`open`]).
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }
    /// The next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| SnapshotError::Corrupt("truncated payload".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    /// One byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }
    /// A bool; any byte but 0 or 1 is corrupt.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError::Corrupt(format!("bad bool byte {b}"))),
        }
    }
    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// An `f64` from its raw bits.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// Reads a `u64` length prefix, refusing counts that cannot possibly
    /// fit in the remaining bytes at `per` bytes each (corrupt-length
    /// guard).
    pub fn len(&mut self, per: usize) -> Result<usize, SnapshotError> {
        let n = self.u64()?;
        let room = (self.buf.len() - self.pos) / per.max(1);
        if n as usize > room {
            return Err(SnapshotError::Corrupt(format!(
                "length {n} exceeds remaining payload"
            )));
        }
        Ok(n as usize)
    }
    /// A string written by [`Writer::str`].
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Corrupt("non-UTF-8 string".into()))
    }
    /// An option written by [`Writer::opt_f64`].
    pub fn opt_f64(&mut self) -> Result<Option<f64>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            b => Err(SnapshotError::Corrupt(format!("bad option tag {b}"))),
        }
    }
    /// A vector written by [`Writer::f64s`].
    pub fn f64s(&mut self) -> Result<Vec<f64>, SnapshotError> {
        let n = self.len(8)?;
        (0..n).map(|_| self.f64()).collect()
    }
    /// Fails unless every byte has been consumed.
    pub fn done(&self) -> Result<(), SnapshotError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt(
                "trailing bytes after payload".into(),
            ))
        }
    }
}
