//! Primitive byte-codec helpers shared by every control-plane payload.
//!
//! Serialization across the workspace is a tiny hand-rolled tag-free
//! format (the workspace is offline, so no serde): integers big-endian,
//! strings and byte blobs length-prefixed, options as a presence byte.
//! `sage-net`'s job/report payloads and `sage-fleet`'s control messages
//! both build on these two structs, so the framing rules live in exactly
//! one place.

use crate::error::NetError;

/// Append-only payload builder.
pub struct Writer(pub Vec<u8>);

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer(Vec::new())
    }
    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    /// Appends a big-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_be_bytes());
    }
    /// Appends a big-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_be_bytes());
    }
    /// Appends a big-endian f64.
    pub fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_be_bytes());
    }
    /// Appends a length-prefixed byte blob.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.0.extend_from_slice(v);
    }
    /// Appends a length-prefixed UTF-8 string.
    pub fn string(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
    /// Appends an option as a presence byte followed by the value.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
        }
    }
    /// Appends a u32 count followed by each item as `item` writes it.
    pub fn seq<T>(&mut self, items: &[T], mut item: impl FnMut(&mut Writer, &T)) {
        self.u32(items.len() as u32);
        for it in items {
            item(self, it);
        }
    }
}

impl Default for Writer {
    fn default() -> Writer {
        Writer::new()
    }
}

/// Most elements [`Reader::seq`] allocates for before it has read any.
const SEQ_PREALLOC: usize = 4096;

/// Bounds-checked payload cursor; every read is a typed `NetError` on
/// truncation, never a panic.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf` positioned at the start.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }
    /// Takes the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| NetError::Protocol("payload truncated".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, NetError> {
        Ok(self.take(1)?[0])
    }
    /// Reads a big-endian u32.
    pub fn u32(&mut self) -> Result<u32, NetError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }
    /// Reads a big-endian u64.
    pub fn u64(&mut self) -> Result<u64, NetError> {
        Ok(u64::from_be_bytes(self.take8()?))
    }
    /// Reads a big-endian f64.
    pub fn f64(&mut self) -> Result<f64, NetError> {
        Ok(f64::from_be_bytes(self.take8()?))
    }
    /// Reads exactly 8 bytes into an array (`take` already length-checks).
    fn take8(&mut self) -> Result<[u8; 8], NetError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(a)
    }
    /// Reads a length-prefixed byte blob.
    pub fn bytes(&mut self) -> Result<Vec<u8>, NetError> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }
    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, NetError> {
        String::from_utf8(self.bytes()?)
            .map_err(|_| NetError::Protocol("non-utf8 string field".into()))
    }
    /// Reads an option written by [`Writer::opt_u64`].
    pub fn opt_u64(&mut self) -> Result<Option<u64>, NetError> {
        Ok(match self.u8()? {
            0 => None,
            _ => Some(self.u64()?),
        })
    }
    /// Reads a sequence written by [`Writer::seq`]. The count comes off the
    /// wire, so it bounds the up-front allocation only up to
    /// [`SEQ_PREALLOC`]; a lying count runs into `payload truncated`.
    pub fn seq<T>(
        &mut self,
        mut item: impl FnMut(&mut Reader<'a>) -> Result<T, NetError>,
    ) -> Result<Vec<T>, NetError> {
        let n = self.u32()? as usize;
        let mut v = Vec::with_capacity(n.min(SEQ_PREALLOC));
        for _ in 0..n {
            v.push(item(self)?);
        }
        Ok(v)
    }
    /// Asserts the payload was consumed exactly.
    pub fn done(&self) -> Result<(), NetError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(NetError::Protocol("trailing bytes after payload".into()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX);
        w.f64(0.5);
        w.bytes(&[1, 2, 3]);
        w.string("héllo");
        w.opt_u64(None);
        w.opt_u64(Some(42));
        w.seq(&["a", "bc"], |w, s| w.string(s));
        let mut r = Reader::new(&w.0);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f64().unwrap(), 0.5);
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.string().unwrap(), "héllo");
        assert_eq!(r.opt_u64().unwrap(), None);
        assert_eq!(r.opt_u64().unwrap(), Some(42));
        assert_eq!(r.seq(|r| r.string()).unwrap(), vec!["a", "bc"]);
        r.done().unwrap();
    }

    #[test]
    fn truncation_and_trailing_are_typed() {
        let mut w = Writer::new();
        w.u32(1);
        let mut r = Reader::new(&w.0[..2]);
        assert!(matches!(r.u32().unwrap_err(), NetError::Protocol(_)));
        let mut r = Reader::new(&w.0);
        r.u8().unwrap();
        assert!(matches!(r.done().unwrap_err(), NetError::Protocol(_)));
    }

    #[test]
    fn huge_length_prefix_is_typed_not_oom() {
        let mut w = Writer::new();
        w.u32(u32::MAX);
        let mut r = Reader::new(&w.0);
        assert!(matches!(r.bytes().unwrap_err(), NetError::Protocol(_)));
        let mut r = Reader::new(&w.0);
        assert!(matches!(
            r.seq(|r| r.u64()).unwrap_err(),
            NetError::Protocol(_)
        ));
    }
}
