//! The control-plane codec: one [`Wire`] trait, and two declarators that
//! derive both directions of a record's layout from one field list.
//!
//! The format is tag-free (the workspace is offline, so no serde):
//! integers and floats big-endian, `bool` one byte, strings and sequences a
//! `u32` count then the items, `Option` a presence byte then the value, an
//! enum a code byte then the variant's fields, a struct its fields in
//! declared order. A record is declared once —
//!
//! ```text
//! wire_struct!(LinkMetrics { src, dst, messages, bytes });
//! wire_enum!(RejectReason, "reject reason" {
//!     1 => VersionMismatch { ours, theirs },
//!     4 => Draining,
//! });
//! ```
//!
//! — and the declaration *is* the layout: writer and reader cannot disagree
//! on order or width because neither is written by hand. `sage-net`
//! declares the job/report records in [`crate::proto`]; `sage-fleet`
//! declares its messages on the same macros.
//!
//! **Changing a layout** (any edit to a declaration, or to a `Wire` impl):
//! 1. edit the declaration;
//! 2. bump [`crate::PROTO_VERSION`] and add its line to the version history;
//! 3. regenerate the golden bytes (`UPDATE_GOLDEN=1 cargo test -p sage-fleet
//!    --test wire_golden`) and read the fixture's diff: only the lines of
//!    the records you meant to change may move;
//! 4. add the outgoing revision's `Submit` payload to
//!    `crates/fleet/tests/fixtures/submit_retired.hex`, so the old client
//!    keeps drawing a typed version mismatch forever.

use crate::error::NetError;

/// Append-only payload builder.
#[derive(Default)]
pub struct Writer(pub Vec<u8>);

/// Most elements a sequence read allocates for before it has read any.
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
    /// Takes exactly `N` bytes as an array (`take` already length-checks).
    fn array<const N: usize>(&mut self) -> Result<[u8; N], NetError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }
    /// Skips everything left: the tail of a layout this revision cannot
    /// read.
    pub fn skip_rest(&mut self) {
        self.pos = self.buf.len();
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

/// A value with one layout on the wire.
pub trait Wire: Sized {
    /// Appends the value.
    fn put(&self, w: &mut Writer);
    /// Reads one value from a reader positioned at its first byte.
    fn get(r: &mut Reader<'_>) -> Result<Self, NetError>;

    /// Appends the items of a sequence (its count is already written).
    /// `u8` overrides this pair so a byte blob moves as one copy.
    fn put_all(items: &[Self], w: &mut Writer) {
        for item in items {
            item.put(w);
        }
    }
    /// Reads the `n` items of a sequence. `n` comes off the wire, so it
    /// bounds the up-front allocation only up to [`SEQ_PREALLOC`]; a lying
    /// count runs into `payload truncated`.
    fn get_all(n: usize, r: &mut Reader<'_>) -> Result<Vec<Self>, NetError> {
        let mut v = Vec::with_capacity(n.min(SEQ_PREALLOC));
        for _ in 0..n {
            v.push(Self::get(r)?);
        }
        Ok(v)
    }
}

/// Serializes one complete payload.
pub fn encode<T: Wire>(value: &T) -> Vec<u8> {
    let mut w = Writer::default();
    value.put(&mut w);
    w.0
}

/// Decodes one complete payload: `buf` must hold exactly one `T`.
pub fn decode<T: Wire>(buf: &[u8]) -> Result<T, NetError> {
    let mut r = Reader::new(buf);
    let value = T::get(&mut r)?;
    r.done()?;
    Ok(value)
}

impl Wire for u8 {
    fn put(&self, w: &mut Writer) {
        w.0.push(*self);
    }
    fn get(r: &mut Reader<'_>) -> Result<u8, NetError> {
        Ok(r.take(1)?[0])
    }
    fn put_all(items: &[u8], w: &mut Writer) {
        w.0.extend_from_slice(items);
    }
    fn get_all(n: usize, r: &mut Reader<'_>) -> Result<Vec<u8>, NetError> {
        Ok(r.take(n)?.to_vec())
    }
}

macro_rules! wire_big_endian {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, w: &mut Writer) {
                w.0.extend_from_slice(&self.to_be_bytes());
            }
            fn get(r: &mut Reader<'_>) -> Result<$t, NetError> {
                Ok(<$t>::from_be_bytes(r.array()?))
            }
        }
    )*};
}
wire_big_endian!(u32, u64, f64);

impl Wire for bool {
    fn put(&self, w: &mut Writer) {
        u8::from(*self).put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<bool, NetError> {
        Ok(u8::get(r)? != 0)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut Writer) {
        (self.len() as u32).put(w);
        T::put_all(self, w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Vec<T>, NetError> {
        let n = u32::get(r)? as usize;
        T::get_all(n, r)
    }
}

impl Wire for String {
    fn put(&self, w: &mut Writer) {
        (self.len() as u32).put(w);
        u8::put_all(self.as_bytes(), w);
    }
    fn get(r: &mut Reader<'_>) -> Result<String, NetError> {
        String::from_utf8(Vec::get(r)?)
            .map_err(|_| NetError::Protocol("non-utf8 string field".into()))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut Writer) {
        match self {
            None => 0u8.put(w),
            Some(v) => {
                1u8.put(w);
                v.put(w);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Option<T>, NetError> {
        Ok(match u8::get(r)? {
            0 => None,
            _ => Some(T::get(r)?),
        })
    }
}

macro_rules! wire_tuple {
    ($($t:ident . $i:tt),+) => {
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            fn put(&self, w: &mut Writer) {
                $(self.$i.put(w);)+
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, NetError> {
                Ok(($($t::get(r)?,)+))
            }
        }
    };
}
wire_tuple!(A.0, B.1);
wire_tuple!(A.0, B.1, C.2);

/// Declares a struct's layout: the named fields, in wire order. A trailing
/// `..` fills the fields that do not travel from `Default` on the way in.
/// `field as Adaptor` sends a `Copy` field through `Adaptor`, a tuple
/// newtype over the field's type with a [`Wire`] impl of its own.
#[macro_export]
macro_rules! wire_struct {
    (@put $w:ident, $v:expr) => { $crate::codec::Wire::put(&$v, $w) };
    (@put $w:ident, $v:expr, $a:ident) => { $crate::codec::Wire::put(&$a($v), $w) };
    (@get $r:ident) => { $crate::codec::Wire::get($r)? };
    (@get $r:ident, $a:ident) => { <$a as $crate::codec::Wire>::get($r)?.0 };
    (@impl $t:ty { $($f:ident $(as $a:ident)?),+ } $($rest:tt)*) => {
        impl $crate::codec::Wire for $t {
            fn put(&self, w: &mut $crate::codec::Writer) {
                $($crate::wire_struct!(@put w, self.$f $(, $a)?);)+
            }
            fn get(r: &mut $crate::codec::Reader<'_>) -> Result<Self, $crate::NetError> {
                Ok(Self {
                    $($f: $crate::wire_struct!(@get r $(, $a)?),)+
                    $($rest)*
                })
            }
        }
    };
    ($t:ty { $($f:ident $(as $a:ident)?),+ , .. }) => {
        $crate::wire_struct!(@impl $t { $($f $(as $a)?),+ } ..Default::default());
    };
    ($t:ty { $($f:ident $(as $a:ident)?),+ $(,)? }) => {
        $crate::wire_struct!(@impl $t { $($f $(as $a)?),+ });
    };
}

/// Declares an enum's layout: a code byte per variant, then the variant's
/// fields in the order listed. `$what` names the enum in the error an
/// unknown code draws.
#[macro_export]
macro_rules! wire_enum {
    (@get $r:ident $p:ident) => { $crate::codec::Wire::get($r)? };
    ($t:ty, $what:literal { $(
        $code:literal => $v:ident $({ $($f:ident),+ })? $(( $($p:ident),+ ))?
    ),+ $(,)? }) => {
        impl $crate::codec::Wire for $t {
            fn put(&self, w: &mut $crate::codec::Writer) {
                match self {$(
                    Self::$v $({ $($f),+ })? $(( $($p),+ ))? => {
                        w.0.push($code);
                        $($($crate::codec::Wire::put($f, w);)+)?
                        $($($crate::codec::Wire::put($p, w);)+)?
                    }
                )+}
            }
            fn get(r: &mut $crate::codec::Reader<'_>) -> Result<Self, $crate::NetError> {
                Ok(match <u8 as $crate::codec::Wire>::get(r)? {
                    $($code => Self::$v
                        $({ $($f: $crate::codec::Wire::get(r)?),+ })?
                        $(( $($crate::wire_enum!(@get r $p)),+ ))?,)+
                    other => {
                        return Err($crate::NetError::Protocol(format!(
                            concat!("bad ", $what, " {}"),
                            other
                        )))
                    }
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let value = (
            (7u8, 0xdead_beef_u32, u64::MAX),
            (0.5f64, vec![1u8, 2, 3], "héllo".to_string()),
            (None::<u64>, Some(42u64), vec!["a".to_string(), "bc".into()]),
        );
        let bytes = encode(&value);
        assert_eq!(bytes[..5], [7, 0xde, 0xad, 0xbe, 0xef]);
        assert_eq!(decode(&bytes), Ok(value));
    }

    #[test]
    fn truncation_and_trailing_are_typed() {
        let bytes = encode(&1u32);
        assert!(matches!(
            decode::<u32>(&bytes[..2]).unwrap_err(),
            NetError::Protocol(_)
        ));
        assert!(matches!(
            decode::<u8>(&bytes).unwrap_err(),
            NetError::Protocol(_)
        ));
    }

    #[test]
    fn huge_length_prefix_is_typed_not_oom() {
        let bytes = encode(&u32::MAX);
        assert!(matches!(
            decode::<Vec<u8>>(&bytes).unwrap_err(),
            NetError::Protocol(_)
        ));
        assert!(matches!(
            decode::<Vec<u64>>(&bytes).unwrap_err(),
            NetError::Protocol(_)
        ));
    }
}
