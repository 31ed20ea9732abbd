//! The sequential reference model of PMNet-visible server state.
//!
//! [`ReferenceKv`] replays the server's apply stream — exactly the
//! [`pmnet_telemetry::history::EventKind::Apply`] events of a recorded
//! history — through
//! an in-memory mirror of `pmnet_workloads::KvHandler`'s durable
//! semantics: a `Set` puts, a `Del` deletes, anything else (opaque
//! payloads) changes no workload key, and *every* apply durably records
//! the per-session applied sequence number under the reserved `0x00` key
//! prefix. After replay, the mirror must byte-for-byte equal the server's
//! crash-consistent store — the WAL persists each apply synchronously, so
//! not even a crash/recovery schedule excuses a difference.

use std::collections::BTreeMap;

use bytes::Bytes;
use pmnet_core::kvproto::KvFrame;
use pmnet_net::Addr;

/// The reserved applied-sequence-table key for `(client, session)`,
/// mirroring the handler's layout: `0x00 | client LE u32 | session LE u16`.
pub fn seq_key(client: Addr, session: u16) -> Vec<u8> {
    let mut k = Vec::with_capacity(7);
    k.push(0x00);
    k.extend_from_slice(&client.0.to_le_bytes());
    k.extend_from_slice(&session.to_le_bytes());
    k
}

/// The key a `Set`/`Del` payload writes, if the payload is KV-framed.
pub fn write_key(payload: &Bytes) -> Option<Vec<u8>> {
    match KvFrame::decode(payload) {
        Some(KvFrame::Set { key, .. }) | Some(KvFrame::Del { key }) => Some(key.to_vec()),
        _ => None,
    }
}

/// The value a `Set` payload writes (`None` for a `Del`), if KV-framed.
pub fn write_value(payload: &Bytes) -> Option<Option<Vec<u8>>> {
    match KvFrame::decode(payload) {
        Some(KvFrame::Set { value, .. }) => Some(Some(value.to_vec())),
        Some(KvFrame::Del { .. }) => Some(None),
        _ => None,
    }
}

/// An in-memory mirror of the server handler's durable state.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ReferenceKv {
    map: BTreeMap<Vec<u8>, Vec<u8>>,
}

impl ReferenceKv {
    /// An empty store.
    pub fn new() -> ReferenceKv {
        ReferenceKv::default()
    }

    /// Applies one update exactly as the real handler would.
    pub fn apply(&mut self, client: Addr, session: u16, seq: u32, payload: &Bytes) {
        match KvFrame::decode(payload) {
            Some(KvFrame::Set { key, value }) => {
                self.map.insert(key.to_vec(), value.to_vec());
            }
            Some(KvFrame::Del { key }) => {
                self.map.remove(&key.to_vec());
            }
            // Malformed or opaque updates change no workload key.
            _ => {}
        }
        // The applied-sequence record rides the same durable path.
        self.map
            .insert(seq_key(client, session), seq.to_le_bytes().to_vec());
    }

    /// The full durable state (workload keys and the `0x00` seq table).
    pub fn map(&self) -> &BTreeMap<Vec<u8>, Vec<u8>> {
        &self.map
    }

    /// The first key on which this model and `actual` disagree, with the
    /// model's and the actual value (`None` = absent on that side).
    #[allow(clippy::type_complexity)]
    pub fn first_difference(
        &self,
        actual: &BTreeMap<Vec<u8>, Vec<u8>>,
    ) -> Option<(Vec<u8>, Option<Vec<u8>>, Option<Vec<u8>>)> {
        for (k, v) in &self.map {
            match actual.get(k) {
                Some(av) if av == v => {}
                other => return Some((k.clone(), Some(v.clone()), other.cloned())),
            }
        }
        for (k, av) in actual {
            if !self.map.contains_key(k) {
                return Some((k.clone(), None, Some(av.clone())));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(key: &[u8], value: &[u8]) -> Bytes {
        KvFrame::Set {
            key: Bytes::copy_from_slice(key),
            value: Bytes::copy_from_slice(value),
        }
        .encode()
    }

    #[test]
    fn mirrors_handler_set_del_and_seq_table() {
        let mut m = ReferenceKv::new();
        m.apply(Addr(1), 0, 0, &set(b"k", b"v1"));
        m.apply(Addr(1), 0, 1, &set(b"k", b"v2"));
        assert_eq!(m.map().get(&b"k"[..].to_vec()), Some(&b"v2".to_vec()));
        assert_eq!(
            m.map().get(&seq_key(Addr(1), 0)),
            Some(&1u32.to_le_bytes().to_vec())
        );
        m.apply(
            Addr(1),
            0,
            2,
            &KvFrame::Del {
                key: Bytes::from_static(b"k"),
            }
            .encode(),
        );
        assert!(!m.map().contains_key(&b"k"[..].to_vec()));
        // Opaque payloads touch only the seq table.
        m.apply(Addr(2), 3, 9, &Bytes::from_static(b"Opaque"));
        assert_eq!(
            m.map().get(&seq_key(Addr(2), 3)),
            Some(&9u32.to_le_bytes().to_vec())
        );
    }

    #[test]
    fn first_difference_finds_both_directions() {
        let mut m = ReferenceKv::new();
        m.apply(Addr(1), 0, 0, &set(b"a", b"1"));
        let mut actual = m.map().clone();
        assert_eq!(m.first_difference(&actual), None);
        actual.insert(b"a".to_vec(), b"2".to_vec());
        let (k, model, real) = m.first_difference(&actual).unwrap();
        assert_eq!(k, b"a".to_vec());
        assert_eq!(model, Some(b"1".to_vec()));
        assert_eq!(real, Some(b"2".to_vec()));
        actual.remove(&b"a"[..]);
        let (_, model, real) = m.first_difference(&actual).unwrap();
        assert_eq!(model, Some(b"1".to_vec()));
        assert_eq!(real, None);
        // Extra key on the real side.
        let mut actual = m.map().clone();
        actual.insert(b"zzz".to_vec(), b"ghost".to_vec());
        let (k, model, real) = m.first_difference(&actual).unwrap();
        assert_eq!(k, b"zzz".to_vec());
        assert_eq!(model, None);
        assert_eq!(real, Some(b"ghost".to_vec()));
    }

    #[test]
    fn write_helpers_decode_frames() {
        assert_eq!(write_key(&set(b"k", b"v")), Some(b"k".to_vec()));
        assert_eq!(write_value(&set(b"k", b"v")), Some(Some(b"v".to_vec())));
        let del = KvFrame::Del {
            key: Bytes::from_static(b"k"),
        }
        .encode();
        assert_eq!(write_value(&del), Some(None));
        assert_eq!(write_key(&Bytes::from_static(b"Opaque")), None);
        assert_eq!(write_value(&Bytes::from_static(b"Opaque")), None);
    }
}
