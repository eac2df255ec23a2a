//! Std-only stand-in for the part of the `bytes` crate that `psc-index`
//! uses: little-endian cursor reads over `&[u8]` ([`Buf`]), appends to a
//! growable buffer ([`BufMut`], [`BytesMut`]) and an immutable result
//! ([`Bytes`]). Both buffers are a plain `Vec<u8>`; there is no
//! reference counting or zero-copy slicing, which the callers do not
//! use.

use std::ops::Deref;

/// Cursor reads over a byte source. Reads past the end panic, as the
/// real crate's do; callers check [`Buf::remaining`] first.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, cnt: usize);

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }
}

impl Buf for &[u8] {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn chunk(&self) -> &[u8] {
        self
    }

    #[inline]
    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

/// Appends to a growable byte sink.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

/// A growable byte buffer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    pub fn new() -> BytesMut {
        BytesMut(Vec::new())
    }

    pub fn with_capacity(capacity: usize) -> BytesMut {
        BytesMut(Vec::with_capacity(capacity))
    }

    /// Finish writing.
    pub fn freeze(self) -> Bytes {
        Bytes(self.0)
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src);
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

/// An immutable byte buffer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Bytes(Vec<u8>);

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn what_is_put_is_read_back_little_endian() {
        let mut w = BytesMut::with_capacity(4);
        w.put_slice(b"PSC\x07");
        w.put_u16_le(0x1234);
        w.put_u32_le(0xdead_beef);
        w.put_u64_le(0x0102_0304_0506_0708);
        assert_eq!(w.len(), 3 + 1 + 2 + 4 + 8);
        assert_eq!(&w[3..6], &[7, 0x34, 0x12]);
        let frozen = w.freeze();
        let mut r: &[u8] = &frozen;
        r.advance(4);
        assert_eq!(r.get_u16_le(), 0x1234);
        assert_eq!(r.get_u32_le(), 0xdead_beef);
        assert_eq!(r.remaining(), 8);
        assert_eq!(r.get_u64_le(), 0x0102_0304_0506_0708);
        assert_eq!(r.remaining(), 0);
        assert_eq!(frozen.to_vec().len(), 18);
    }

    #[test]
    #[should_panic(expected = "buffer underflow")]
    fn reading_past_the_end_panics() {
        let mut r: &[u8] = &[1, 2, 3];
        r.get_u32_le();
    }
}
