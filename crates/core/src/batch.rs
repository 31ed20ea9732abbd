//! Batch framing: several PMNet frames in one datagram, one allocation.
//!
//! Coalescing (device ack windows, client doorbell windows) packs multiple
//! header+payload frames into a single packet body. The batch body is one
//! backing allocation; [`BatchFrames`] hands each inner frame back as a
//! refcounted [`Bytes`] sub-slice, so decoding a whole batch costs zero
//! copies and zero allocations — the same guarantee the single-frame codec
//! makes.
//!
//! ## Wire format
//!
//! ```text
//! +------+----------+----------------------+----------------------+---
//! | 0xB0 | count:u16| len:u16 | frame ...  | len:u16 | frame ...  |
//! +------+----------+----------------------+----------------------+---
//! ```
//!
//! Each `frame` is a complete single-frame body ([`PmnetHeader`] encoding
//! followed by its payload), so every inner frame carries its own identity
//! hash and payload checksum. The magic byte's low nibble is 0 — not an
//! assigned [`PacketType`](crate::protocol::PacketType) — so every node
//! that does not understand batches (devices, switches, steering programs)
//! sees `PmnetHeader::decode == None` and forwards the packet untouched by
//! destination address, exactly like non-PMNet traffic.
//!
//! The decoder is a data-plane parser: truncated bodies, corrupt counts and
//! oversized length fields terminate iteration with
//! [`BatchFrames::malformed`] set, and can never panic or over-read.

use bytes::{BufMut, Bytes, BytesMut};

use crate::protocol::{PmnetHeader, HEADER_LEN};

/// First byte of a batch body. The low nibble is 0, which no
/// [`PacketType`](crate::protocol::PacketType) uses, so non-batch-aware
/// nodes treat the packet as opaque traffic.
pub const BATCH_MAGIC: u8 = 0xB0;

/// Bytes before the first frame: magic plus the `u16` frame count.
pub const BATCH_HDR_LEN: usize = 3;

/// Per-frame framing overhead: the `u16` length prefix.
pub const FRAME_PREFIX_LEN: usize = 2;

/// Hard cap on frames coalesced into one batch packet.
pub const MAX_FRAMES: usize = 64;

/// True if `body` starts like a batch body. Callers check this before
/// [`PmnetHeader::decode`]: a batch body never parses as a plain header.
pub fn is_batch(body: &[u8]) -> bool {
    body.first() == Some(&BATCH_MAGIC)
}

/// Accumulates frames into one backing allocation.
///
/// The builder draws pooled storage; [`BatchBuilder::finish`] freezes it
/// without copying, so building and sending a batch allocates nothing in
/// steady state.
#[derive(Debug)]
pub struct BatchBuilder {
    buf: BytesMut,
    count: u16,
}

impl BatchBuilder {
    /// A builder with room for `body_bytes` of frame data before the
    /// backing buffer has to grow.
    pub fn with_capacity(body_bytes: usize) -> BatchBuilder {
        let mut buf = BytesMut::with_capacity(BATCH_HDR_LEN + body_bytes);
        buf.put_u8(BATCH_MAGIC);
        buf.put_u16_le(0); // patched by finish()
        BatchBuilder { buf, count: 0 }
    }

    /// Appends one frame (header + payload).
    ///
    /// # Panics
    ///
    /// Panics if the frame exceeds `u16::MAX` bytes or the batch already
    /// holds `u16::MAX` frames — both far beyond any MTU-sized packet, so
    /// they indicate a harness bug, not traffic.
    pub fn push(&mut self, header: &PmnetHeader, payload: &[u8]) {
        let len = HEADER_LEN + payload.len();
        assert!(len <= usize::from(u16::MAX), "batch frame over 64KiB");
        assert!(self.count < u16::MAX, "batch frame count overflow");
        self.buf.put_u16_le(len as u16);
        header.encode_into(&mut self.buf, payload);
        self.count += 1;
    }

    /// Frames pushed so far.
    pub fn count(&self) -> u16 {
        self.count
    }

    /// True when no frame has been pushed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Encoded size of the batch body so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Seals the batch into an immutable body (no copy).
    pub fn finish(mut self) -> Bytes {
        let count = self.count.to_le_bytes();
        self.buf[1..3].copy_from_slice(&count);
        self.buf.freeze()
    }
}

/// Iterator over the frames of a batch body.
///
/// Yields `(header, payload)` pairs whose payloads are sub-slices of the
/// batch's backing allocation. Stops early on any malformation (see
/// [`BatchFrames::malformed`]).
#[derive(Debug)]
pub struct BatchFrames {
    body: Bytes,
    off: usize,
    left: u16,
    malformed: bool,
}

impl BatchFrames {
    /// Starts iterating `body`'s frames, or `None` if it is not a batch
    /// body (wrong magic or too short to carry the count).
    pub fn decode(body: &Bytes) -> Option<BatchFrames> {
        if body.len() < BATCH_HDR_LEN || body[0] != BATCH_MAGIC {
            return None;
        }
        Some(BatchFrames {
            body: body.clone(),
            off: BATCH_HDR_LEN,
            left: u16::from_le_bytes([body[1], body[2]]),
            malformed: false,
        })
    }

    /// True once iteration hit a truncated or corrupt frame: a length
    /// field pointing past the body, an inner frame too short for a
    /// header, an unassigned packet type, or trailing bytes after the
    /// last counted frame. The already-yielded frames are still valid
    /// (each carries its own checksums).
    pub fn malformed(&self) -> bool {
        self.malformed
    }

    fn fail(&mut self) -> Option<(PmnetHeader, Bytes)> {
        self.malformed = true;
        self.left = 0;
        None
    }
}

impl Iterator for BatchFrames {
    type Item = (PmnetHeader, Bytes);

    fn next(&mut self) -> Option<(PmnetHeader, Bytes)> {
        if self.left == 0 {
            // A well-formed batch is exactly consumed by its count.
            if !self.malformed && self.off != self.body.len() {
                self.malformed = true;
            }
            return None;
        }
        let total = self.body.len();
        if self.off + FRAME_PREFIX_LEN > total {
            return self.fail();
        }
        let len = usize::from(u16::from_le_bytes([
            self.body[self.off],
            self.body[self.off + 1],
        ]));
        let start = self.off + FRAME_PREFIX_LEN;
        if len < HEADER_LEN || len > total - start {
            return self.fail();
        }
        let frame = self.body.slice(start..start + len);
        let Some(header) = PmnetHeader::peek(&frame) else {
            return self.fail();
        };
        self.off = start + len;
        self.left -= 1;
        Some((header, frame.slice(HEADER_LEN..)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::PacketType;
    use pmnet_net::Addr;

    fn header(seq: u32) -> PmnetHeader {
        PmnetHeader::request(PacketType::UpdateReq, 7, seq, Addr(1), Addr(9), 0, 1)
    }

    fn batch_of(payloads: &[&[u8]]) -> Bytes {
        let mut b = BatchBuilder::with_capacity(64);
        for (i, p) in payloads.iter().enumerate() {
            b.push(&header(i as u32).with_payload(p), p);
        }
        b.finish()
    }

    #[test]
    fn round_trips_multiple_frames() {
        let body = batch_of(&[b"alpha", b"", b"gamma-payload"]);
        assert!(is_batch(&body));
        let mut it = BatchFrames::decode(&body).unwrap();
        let frames: Vec<_> = it.by_ref().collect();
        assert!(!it.malformed());
        assert_eq!(frames.len(), 3);
        assert_eq!(&frames[0].1[..], b"alpha");
        assert_eq!(&frames[1].1[..], b"");
        assert_eq!(&frames[2].1[..], b"gamma-payload");
        for (i, (h, p)) in frames.iter().enumerate() {
            assert_eq!(h.seq, i as u32);
            assert!(h.verify(Addr(9), p), "inner checksums must hold");
        }
    }

    #[test]
    fn batch_body_is_not_a_plain_header() {
        // The magic byte's type nibble is unassigned: every non-batch-aware
        // hop decodes None and forwards by destination.
        let body = batch_of(&[b"x"]);
        assert!(PmnetHeader::decode(&body).is_none());
        assert!(PmnetHeader::peek(&body).is_none());
    }

    #[test]
    fn frames_share_the_batch_allocation() {
        let body = batch_of(&[b"first", b"second"]);
        let base = body.as_ref().as_ptr();
        let frames: Vec<_> = BatchFrames::decode(&body).unwrap().collect();
        // frame 0 payload starts after magic+count, len prefix, header.
        let first_payload = BATCH_HDR_LEN + FRAME_PREFIX_LEN + HEADER_LEN;
        assert_eq!(frames[0].1.as_ref().as_ptr(), unsafe {
            base.add(first_payload)
        });
        let second_payload = first_payload + 5 + FRAME_PREFIX_LEN + HEADER_LEN;
        assert_eq!(frames[1].1.as_ref().as_ptr(), unsafe {
            base.add(second_payload)
        });
    }

    #[test]
    fn truncation_at_every_split_point_is_detected_not_panicked() {
        let body = batch_of(&[b"payload-a", b"pb"]);
        for cut in 0..body.len() {
            let cut_body = body.slice(..cut);
            match BatchFrames::decode(&cut_body) {
                None => assert!(cut < BATCH_HDR_LEN || cut_body[0] != BATCH_MAGIC),
                Some(mut it) => {
                    let n = it.by_ref().count();
                    // Fewer frames than the count ⇒ must flag malformed.
                    assert!(n < 2);
                    assert!(it.malformed(), "cut at {cut} silently accepted");
                }
            }
        }
    }

    #[test]
    fn oversized_length_field_never_over_reads() {
        let body = batch_of(&[b"victim"]);
        let mut raw = body.to_vec();
        // Corrupt the frame length prefix to claim more than the body has.
        raw[BATCH_HDR_LEN] = 0xFF;
        raw[BATCH_HDR_LEN + 1] = 0xFF;
        let mut it = BatchFrames::decode(&Bytes::from(raw)).unwrap();
        assert_eq!(it.by_ref().count(), 0);
        assert!(it.malformed());
        // A length shorter than a header is equally rejected.
        let mut raw = body.to_vec();
        raw[BATCH_HDR_LEN] = (HEADER_LEN - 1) as u8;
        raw[BATCH_HDR_LEN + 1] = 0;
        let mut it = BatchFrames::decode(&Bytes::from(raw)).unwrap();
        assert_eq!(it.by_ref().count(), 0);
        assert!(it.malformed());
    }

    #[test]
    fn corrupt_count_is_flagged() {
        let body = batch_of(&[b"a", b"b"]);
        // Claim 5 frames where only 2 exist.
        let mut raw = body.to_vec();
        raw[1] = 5;
        let mut it = BatchFrames::decode(&Bytes::from(raw)).unwrap();
        assert_eq!(it.by_ref().count(), 2);
        assert!(it.malformed());
        // Claim 1 frame: the second becomes trailing garbage.
        let mut raw = body.to_vec();
        raw[1] = 1;
        let mut it = BatchFrames::decode(&Bytes::from(raw)).unwrap();
        assert_eq!(it.by_ref().count(), 1);
        assert!(it.malformed());
    }

    #[test]
    fn empty_batch_is_well_formed() {
        let b = BatchBuilder::with_capacity(0);
        assert!(b.is_empty());
        let body = b.finish();
        let mut it = BatchFrames::decode(&body).unwrap();
        assert_eq!(it.by_ref().count(), 0);
        assert!(!it.malformed());
    }

    #[test]
    fn non_batch_bodies_decode_to_none() {
        assert!(BatchFrames::decode(&Bytes::new()).is_none());
        assert!(BatchFrames::decode(&Bytes::from_static(b"\xB0")).is_none());
        let plain = header(1).encode(b"payload");
        assert!(BatchFrames::decode(&plain).is_none());
    }
}
