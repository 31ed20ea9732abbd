//! The application-level key-value frame carried inside PMNet payloads.
//!
//! The device's read cache (Section IV-D) is "based on 'key' lookups using
//! the GET/SET interface", so the cache must be able to parse the
//! application payload. This codec is shared by the cache, the KV server
//! application and the workload generators. Workloads with complex queries
//! (Twitter, TPCC) use [`KvFrame::Opaque`]-style custom payloads, which the
//! cache ignores — matching the paper's exclusion of those workloads from
//! the caching experiment.
//!
//! Frames are zero-copy on the decode path: key and value fields are
//! refcounted [`Bytes`] sub-slices of the wire buffer, so a frame decoded
//! at every hop of the simulated network costs no allocation and no copy.

use bytes::{BufMut, Bytes, BytesMut};

use crate::protocol::{PmnetHeader, HEADER_LEN};

/// An application request/response frame.
///
/// Key and value fields borrow the wire buffer ([`Bytes`] slices); cloning
/// a frame bumps refcounts rather than copying payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvFrame {
    /// Read a key (cacheable).
    Get {
        /// The key.
        key: Bytes,
    },
    /// Write a key (logged by PMNet; updates the cache).
    Set {
        /// The key.
        key: Bytes,
        /// The value.
        value: Bytes,
    },
    /// Delete a key.
    Del {
        /// The key.
        key: Bytes,
    },
    /// A read response (`found` distinguishes miss from empty value).
    Value {
        /// The key.
        key: Bytes,
        /// The value (empty on a miss).
        value: Bytes,
        /// Whether the key existed.
        found: bool,
    },
    /// A workload-specific payload the KV layer does not interpret.
    Opaque {
        /// Uninterpreted bytes.
        bytes: Bytes,
    },
}

impl KvFrame {
    /// Serializes the frame.
    ///
    /// The builder is drawn from the thread-local recycle pool and its
    /// whole allocation returns there when the last `Bytes` handle drops,
    /// so an encode allocates nothing whenever the frame's size class has
    /// an idle buffer (the condition
    /// [`crate::protocol::PmnetHeader::encode`] spells out).
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(self.encoded_len());
        self.encode_into(&mut b);
        b.freeze()
    }

    /// Writes the frame into an existing buffer — used by batch framing to
    /// pack several frames into one backing allocation.
    pub fn encode_into(&self, b: &mut impl BufMut) {
        match self {
            KvFrame::Get { key } => put_keyed(b, b'G', key),
            KvFrame::Set { key, value } => {
                put_keyed(b, b'S', key);
                b.put_slice(value);
            }
            KvFrame::Del { key } => put_keyed(b, b'D', key),
            KvFrame::Value { key, value, found } => put_value(b, key, value, *found),
            KvFrame::Opaque { bytes } => {
                b.put_u8(b'O');
                b.put_slice(bytes);
            }
        }
    }

    /// The wire form of `Get { key }` from a borrowed key: a request
    /// source formats its key on the stack and pays one pooled builder,
    /// not a key buffer and a frame on top.
    pub fn encode_get(key: &[u8]) -> Bytes {
        let mut b = BytesMut::with_capacity(3 + key.len());
        put_keyed(&mut b, b'G', key);
        b.freeze()
    }

    /// The wire form of `Set { key, value }` whose `value_len`-byte value
    /// `fill` produces in place (a source's random value is drawn straight
    /// into the frame).
    pub fn encode_set_with(key: &[u8], value_len: usize, fill: impl FnOnce(&mut [u8])) -> Bytes {
        let at = 3 + key.len();
        let mut b = BytesMut::with_capacity(at + value_len);
        put_keyed(&mut b, b'S', key);
        b.resize(at + value_len, 0);
        fill(&mut b[at..]);
        b.freeze()
    }

    /// The wire form of a read reply from borrowed parts: `Some(value)` is
    /// a hit, `None` a miss (`found == false`, empty value).
    pub fn encode_value(key: &[u8], value: Option<&[u8]>) -> Bytes {
        let body = value.unwrap_or_default();
        let mut b = BytesMut::with_capacity(4 + key.len() + body.len());
        put_value(&mut b, key, body, value.is_some());
        b.freeze()
    }

    /// A read hit's whole datagram body from borrowed parts: `header`, then
    /// the frame `Value { key, value, found: true }` whose value is `parts`
    /// joined in order. One pooled builder and one copy of each part, as
    /// the server builds its replies; the value is never joined anywhere
    /// else.
    pub fn encode_hit_reply(header: &PmnetHeader, key: &[u8], parts: &[Bytes]) -> Bytes {
        let value_len: usize = parts.iter().map(|p| p.len()).sum();
        let mut b = BytesMut::with_capacity(HEADER_LEN + 4 + key.len() + value_len);
        header.encode_into(&mut b, &[]);
        put_value_head(&mut b, key, true);
        for part in parts {
            b.put_slice(part);
        }
        b.freeze()
    }

    /// Exact wire length of [`KvFrame::encode`]'s output.
    pub fn encoded_len(&self) -> usize {
        match self {
            KvFrame::Get { key } | KvFrame::Del { key } => 3 + key.len(),
            KvFrame::Set { key, value } => 3 + key.len() + value.len(),
            KvFrame::Value { key, value, .. } => 4 + key.len() + value.len(),
            KvFrame::Opaque { bytes } => 1 + bytes.len(),
        }
    }

    /// Parses a frame; `None` on malformed input.
    ///
    /// Zero-copy: the returned frame's key/value fields are sub-slices of
    /// `body` sharing its backing allocation.
    pub fn decode(body: &Bytes) -> Option<KvFrame> {
        let (&tag, rest) = body.split_first()?;
        match tag {
            b'G' | b'S' | b'D' => {
                if rest.len() < 2 {
                    return None;
                }
                let klen = u16::from_le_bytes([rest[0], rest[1]]) as usize;
                if rest.len() < 2 + klen {
                    return None;
                }
                // Offsets below are relative to `body` (tag byte included).
                let key = body.slice(3..3 + klen);
                match tag {
                    b'G' => Some(KvFrame::Get { key }),
                    b'D' if rest.len() == 2 + klen => Some(KvFrame::Del { key }),
                    b'S' => Some(KvFrame::Set {
                        key,
                        value: body.slice(3 + klen..),
                    }),
                    _ => None,
                }
            }
            b'V' => {
                if rest.len() < 3 {
                    return None;
                }
                let found = rest[0] != 0;
                let klen = u16::from_le_bytes([rest[1], rest[2]]) as usize;
                if rest.len() < 3 + klen {
                    return None;
                }
                Some(KvFrame::Value {
                    key: body.slice(4..4 + klen),
                    value: body.slice(4 + klen..),
                    found,
                })
            }
            b'O' => Some(KvFrame::Opaque {
                bytes: body.slice(1..),
            }),
            _ => None,
        }
    }
}

// Tag + length prefix staged on the stack: one append for the prefix
// instead of one per field (each `put_*` re-checks unique ownership and
// spare capacity).

/// `tag klen key`: the whole of a `Get`/`Del`, the head of a `Set`.
fn put_keyed(b: &mut impl BufMut, tag: u8, key: &[u8]) {
    let mut p = [tag, 0, 0];
    p[1..3].copy_from_slice(&(key.len() as u16).to_le_bytes());
    b.put_slice(&p);
    b.put_slice(key);
}

/// `'V' found klen key value`.
fn put_value(b: &mut impl BufMut, key: &[u8], value: &[u8], found: bool) {
    put_value_head(b, key, found);
    b.put_slice(value);
}

/// `'V' found klen key`: a `Value` up to its value.
fn put_value_head(b: &mut impl BufMut, key: &[u8], found: bool) {
    let mut p = [b'V', u8::from(found), 0, 0];
    p[2..4].copy_from_slice(&(key.len() as u16).to_le_bytes());
    b.put_slice(&p);
    b.put_slice(key);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_round_trip() {
        let frames = [
            KvFrame::Get {
                key: Bytes::from_static(b"k1"),
            },
            KvFrame::Set {
                key: Bytes::from_static(b"k2"),
                value: Bytes::from(vec![0, 1, 2, 255]),
            },
            KvFrame::Del { key: Bytes::new() },
            KvFrame::Value {
                key: Bytes::from_static(b"k"),
                value: Bytes::from_static(b"v"),
                found: true,
            },
            KvFrame::Value {
                key: Bytes::from_static(b"miss"),
                value: Bytes::new(),
                found: false,
            },
            KvFrame::Opaque {
                bytes: Bytes::from_static(b"twitter:post:..."),
            },
        ];
        for f in &frames {
            assert_eq!(KvFrame::decode(&f.encode()).as_ref(), Some(f));
        }
    }

    #[test]
    fn borrowed_part_encoders_match_the_frame_encoder() {
        let (key, value) = (
            Bytes::from_static(b"user01"),
            Bytes::from_static(b"\x00\x01v"),
        );
        assert_eq!(
            KvFrame::encode_get(&key),
            KvFrame::Get { key: key.clone() }.encode()
        );
        let set = KvFrame::encode_set_with(&key, value.len(), |v| v.copy_from_slice(&value));
        let frame = KvFrame::Set {
            key: key.clone(),
            value: value.clone(),
        };
        assert_eq!(set, frame.encode());
        for found in [true, false] {
            let (body, value) = if found {
                (Some(&value[..]), value.clone())
            } else {
                (None, Bytes::new())
            };
            let key = key.clone();
            assert_eq!(
                KvFrame::encode_value(&key, body),
                KvFrame::Value { key, value, found }.encode()
            );
        }
    }

    #[test]
    fn a_hit_reply_is_the_header_and_the_value_frame_in_one_buffer() {
        let h = PmnetHeader::request(
            crate::PacketType::CacheResp,
            3,
            9,
            pmnet_net::Addr(1),
            pmnet_net::Addr(9),
            0,
            1,
        );
        let parts = [Bytes::from_static(b"head-"), Bytes::from_static(b"tail")];
        let whole = KvFrame::Value {
            key: Bytes::from_static(b"k"),
            value: Bytes::from_static(b"head-tail"),
            found: true,
        };
        assert_eq!(
            KvFrame::encode_hit_reply(&h, b"k", &parts),
            h.encode(&whole.encode())
        );
    }

    #[test]
    fn malformed_frames_decode_to_none() {
        assert_eq!(KvFrame::decode(&Bytes::new()), None);
        assert_eq!(KvFrame::decode(&Bytes::from_static(b"G")), None);
        // Truncated key.
        assert_eq!(KvFrame::decode(&Bytes::from(vec![b'G', 10, 0, b'x'])), None);
        // Unknown tag.
        assert_eq!(KvFrame::decode(&Bytes::from_static(b"Zxx")), None);
        // Trailing garbage after a Del key.
        assert_eq!(
            KvFrame::decode(&Bytes::from(vec![b'D', 1, 0, b'k', b'!'])),
            None
        );
    }

    #[test]
    fn truncated_and_garbage_frames_never_panic() {
        // Every prefix of a valid frame must decode to Some or None without
        // panicking, as must claimed-length overruns.
        let full = KvFrame::Set {
            key: Bytes::from_static(b"key00"),
            value: Bytes::from_static(b"value"),
        }
        .encode();
        for cut in 0..full.len() {
            let _ = KvFrame::decode(&full.slice(..cut));
        }
        // klen fields larger than the remaining buffer.
        for tag in [b'G', b'S', b'D'] {
            let _ = KvFrame::decode(&Bytes::from(vec![tag, 0xFF, 0xFF, 1, 2, 3]));
        }
        let _ = KvFrame::decode(&Bytes::from(vec![b'V', 1, 0xFF, 0xFF, 9]));
    }

    #[test]
    fn decode_borrows_wire_buffer_without_copying() {
        // The decoded key/value must alias the encoded buffer: pointer
        // equality proves the decode path performs zero payload copies.
        let wire = KvFrame::Set {
            key: Bytes::from_static(b"cache-key"),
            value: Bytes::from_static(b"cached-value"),
        }
        .encode();
        let base = wire.as_ref().as_ptr();
        match KvFrame::decode(&wire) {
            Some(KvFrame::Set { key, value }) => {
                // Layout: tag(1) klen(2) key value.
                assert_eq!(key.as_ref().as_ptr(), unsafe { base.add(3) });
                assert_eq!(value.as_ref().as_ptr(), unsafe { base.add(3 + key.len()) });
            }
            other => panic!("decode failed: {other:?}"),
        }
        let wire = KvFrame::Value {
            key: Bytes::from_static(b"k"),
            value: Bytes::from_static(b"v"),
            found: true,
        }
        .encode();
        let base = wire.as_ref().as_ptr();
        match KvFrame::decode(&wire) {
            Some(KvFrame::Value { key, value, found }) => {
                assert!(found);
                assert_eq!(key.as_ref().as_ptr(), unsafe { base.add(4) });
                assert_eq!(value.as_ref().as_ptr(), unsafe { base.add(4 + key.len()) });
            }
            other => panic!("decode failed: {other:?}"),
        }
        let wire = KvFrame::Opaque {
            bytes: Bytes::from_static(b"blob"),
        }
        .encode();
        let base = wire.as_ref().as_ptr();
        match KvFrame::decode(&wire) {
            Some(KvFrame::Opaque { bytes }) => {
                assert_eq!(bytes.as_ref().as_ptr(), unsafe { base.add(1) });
            }
            other => panic!("decode failed: {other:?}"),
        }
    }
}
