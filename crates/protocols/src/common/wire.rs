//! `Wire` — the dependency-free binary codec the cbf-net socket runtime
//! uses to move each protocol's `Msg` alphabet across real TCP
//! connections.
//!
//! Design rules, in order of importance:
//!
//! 1. **Decoding never panics.** Truncated buffers, unknown enum tags
//!    and absurd length prefixes all surface as [`WireError`]. The
//!    framing layer hands this function bytes straight off a socket;
//!    a malformed frame must be a diagnosable error, not a crash.
//! 2. **Encode∘decode is the identity** for every message a protocol
//!    can construct — property-tested per variant and over real traces
//!    of all 14 protocols in `tests/wire_roundtrip.rs`.
//! 3. **One table row per variant, and nothing else.** This module
//!    writes out the primitives and containers (fixed-width
//!    little-endian integers, `u32` length prefixes); every other impl
//!    is a [`wire_enum!`](crate::wire_enum) or
//!    [`wire_struct!`](crate::wire_struct) table beside the type it
//!    encodes: a one-byte tag and the fields in wire order, from which
//!    `encode` and `decode` are both generated. Tags and field order
//!    *are* the format — `tests/wire_golden.rs` pins the bytes — and it
//!    is versioned socially: the launcher always spawns peers from the
//!    same binary, so there is no negotiation or evolution machinery.

use cbf_model::{ClientId, Key, TxId, Value};
pub use cbf_sim::Payload;
use cbf_sim::ProcessId;

/// Why a buffer failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value did.
    Truncated,
    /// An enum tag byte matched no variant of `what`.
    BadTag {
        /// The type being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// The value decoded, but `extra` bytes of the frame were left over.
    Trailing {
        /// How many bytes followed the value.
        extra: usize,
    },
    /// A length prefix exceeded the sanity cap — either corruption or
    /// a hostile frame; decoding stops before allocating.
    Oversize {
        /// The type being decoded.
        what: &'static str,
        /// The claimed element count.
        len: u64,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "buffer truncated mid-value"),
            WireError::Trailing { extra } => write!(f, "{extra} trailing bytes after the value"),
            WireError::BadTag { what, tag } => write!(f, "unknown tag {tag} for {what}"),
            WireError::Oversize { what, len } => {
                write!(f, "length prefix {len} for {what} exceeds the sanity cap")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Sequences longer than this fail to decode with
/// [`WireError::Oversize`] before any allocation. Far above anything a
/// protocol sends (ROTs carry a handful of keys), far below anything
/// that could amplify a corrupt length prefix into an OOM.
pub const MAX_SEQ_LEN: u64 = 1 << 20;

/// Binary encode/decode for one type. See the module docs for the
/// format rules.
pub trait Wire: Sized {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decode a value from the front of `buf`, advancing it past the
    /// consumed bytes. Never panics on malformed input.
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError>;

    /// Encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decode a value that must consume the whole buffer — the shape a
    /// framed message has (one message per frame, no trailing bytes).
    fn from_bytes(mut buf: &[u8]) -> Result<Self, WireError> {
        let v = Self::decode(&mut buf)?;
        if buf.is_empty() {
            Ok(v)
        } else {
            // The frame does not contain exactly one value: corruption,
            // not a shorter encoding.
            Err(WireError::Trailing { extra: buf.len() })
        }
    }
}

fn take<'b>(buf: &mut &'b [u8], n: usize) -> Result<&'b [u8], WireError> {
    if buf.len() < n {
        return Err(WireError::Truncated);
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

impl Wire for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(take(buf, 1)?[0])
    }
}

impl Wire for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let b = take(buf, 4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

impl Wire for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let b = take(buf, 8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match take(buf, 1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { what: "bool", tag }),
        }
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match take(buf, 1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            tag => Err(WireError::BadTag {
                what: "Option",
                tag,
            }),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for v in self {
            v.encode(out);
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let n = u32::decode(buf)? as u64;
        if n > MAX_SEQ_LEN {
            return Err(WireError::Oversize {
                what: "Vec",
                len: n,
            });
        }
        // No with_capacity(n): a short hostile prefix must fail with
        // Truncated before reserving what the prefix claims.
        let mut out = Vec::new();
        for _ in 0..n {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok((A::decode(buf)?, B::decode(buf)?, C::decode(buf)?))
    }
}

/// `impl Wire` for an enum from one row per variant — `tag => Variant
/// { fields in wire order }`, or `tag => Variant` for a unit variant.
/// `what` names the type in [`WireError::BadTag`]. A variant without a
/// row fails to compile (the generated `match` is not exhaustive), and
/// so does a tag used twice. The enum's [`Payload`] — the bytes the
/// simulator's trace digest folds — is its wire encoding.
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident as $what:literal {
        $($tag:literal => $variant:ident $({ $($field:ident),* $(,)? })?),* $(,)?
    }) => {
        impl $crate::common::Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$variant $({ $($field),* })? => {
                        out.push($tag);
                        $($($crate::common::Wire::encode($field, out);)*)?
                    })*
                }
            }
            #[deny(unreachable_patterns)]
            fn decode(buf: &mut &[u8]) -> Result<Self, $crate::common::WireError> {
                Ok(match <u8 as $crate::common::Wire>::decode(buf)? {
                    $($tag => $ty::$variant $({
                        $($field: $crate::common::Wire::decode(buf)?),*
                    })?,)*
                    tag => return Err($crate::common::WireError::BadTag { what: $what, tag }),
                })
            }
        }

        impl $crate::common::Payload for $ty {
            fn payload(&self, out: &mut Vec<u8>) {
                $crate::common::Wire::encode(self, out);
            }
        }
    };
}

/// `impl Wire` for a struct: its fields, in wire order.
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl $crate::common::Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                $($crate::common::Wire::encode(&self.$field, out);)*
            }
            fn decode(buf: &mut &[u8]) -> Result<Self, $crate::common::WireError> {
                Ok($ty { $($field: $crate::common::Wire::decode(buf)?),* })
            }
        }
    };
}

/// `impl Wire` for id newtypes: encoded as the integer they wrap.
macro_rules! wire_newtype {
    ($($ty:ident),*) => {$(
        impl Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                self.0.encode(out);
            }
            fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
                Ok($ty(Wire::decode(buf)?))
            }
        }
    )*};
}

wire_newtype!(Key, Value, TxId, ClientId, ProcessId);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(T::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(true);
        roundtrip(Some(Key(7)));
        roundtrip(None::<Key>);
        roundtrip(vec![TxId(1), TxId(2)]);
        roundtrip((Key(1), Value(2), 3u64));
        roundtrip(ProcessId(9));
        roundtrip(ClientId(4));
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = vec![(Key(1), Value(2)), (Key(3), Value(4))].to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                <Vec<(Key, Value)>>::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn oversize_length_prefix_fails_before_allocating() {
        let mut bytes = Vec::new();
        (u32::MAX).encode(&mut bytes);
        assert!(matches!(
            <Vec<u64>>::from_bytes(&bytes),
            Err(WireError::Oversize { .. })
        ));
    }

    #[test]
    fn trailing_bytes_fail_from_bytes() {
        let mut bytes = 7u32.to_bytes();
        bytes.push(0);
        assert_eq!(
            u32::from_bytes(&bytes),
            Err(WireError::Trailing { extra: 1 })
        );
    }

    #[test]
    fn bad_bool_and_option_tags() {
        assert!(bool::from_bytes(&[2]).is_err());
        assert!(<Option<u8>>::from_bytes(&[9]).is_err());
    }
}
