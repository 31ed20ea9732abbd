//! Property tests for the Figure 11 read-cache state machine (with the
//! in-flight counter refinement — see DESIGN.md §7).
//!
//! The model mirrors what a correct server would do: updates (a `Del` is
//! an update with no value, a bypassed update one the cache may not serve)
//! queue, each server-ACK applies the oldest in-flight update, and read
//! responses carry the server's current value at pass-through time.
//! Multi-fragment updates log their first fragment, and their value may
//! land whole at any later point — or never. Against any interleaving, a
//! cache hit must return a whole value some client wrote, the freshest
//! value the device has observed for the key, and a key whose latest
//! update is a `Del` must not hit at all.

use bytes::Bytes;
use pmnet_core::cache::{CacheState, ReadCache};
use pmnet_core::kvproto::KvFrame;
use pmnet_sim::hash::FixedMap;
use proptest::prelude::*;
use std::collections::VecDeque;

#[derive(Debug, Clone)]
enum Op {
    Update(u8, Vec<u8>),
    /// The first fragment of a multi-fragment update of the value, cut
    /// after this many bytes, is logged.
    Head(u8, Vec<u8>, usize),
    /// The `n`-th head logged so far (mod their number) is logged whole.
    Whole(usize),
    Bypass(u8, Vec<u8>),
    Delete(u8),
    ServerAck(u8),
    ReadResponse(u8),
    Lookup(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let key = 0u8..6;
    let val = prop::collection::vec(any::<u8>(), 1..8);
    prop_oneof![
        (key.clone(), val.clone()).prop_map(|(k, v)| Op::Update(k, v)),
        (key.clone(), val.clone(), 0usize..8).prop_map(|(k, v, cut)| Op::Head(k, v, cut)),
        (0usize..16).prop_map(Op::Whole),
        (key.clone(), val).prop_map(|(k, v)| Op::Bypass(k, v)),
        key.clone().prop_map(Op::Delete),
        key.clone().prop_map(Op::ServerAck),
        key.clone().prop_map(Op::ReadResponse),
        key.prop_map(Op::Lookup),
    ]
}

/// A multi-fragment update as the device logs it: the first fragment's
/// frame and the other fragments' payloads.
struct Fragments {
    head: u32,
    first: Bytes,
    rest: Vec<Bytes>,
}

fn fragments(head: u32, k: u8, v: &[u8], cut: usize) -> Fragments {
    let frame = KvFrame::Set {
        key: Bytes::copy_from_slice(&[k]),
        value: Bytes::copy_from_slice(v),
    }
    .encode();
    // The key stays whole in the first fragment; the value splits once
    // at `cut` and again halfway through the rest.
    let at = 4 + cut.min(v.len());
    let mid = at + (frame.len() - at) / 2;
    Fragments {
        head,
        first: frame.slice(..at),
        rest: vec![frame.slice(at..mid), frame.slice(mid..)],
    }
}

/// Reference model per key: a correct server plus device-visible truth.
#[derive(Debug, Default, Clone)]
struct ModelEntry {
    /// Value of the most recent update the device saw (`Some(None)`: a
    /// `Del`).
    latest_update: Option<Option<Vec<u8>>>,
    /// Updates logged but not yet applied+acked by the server (in order).
    inflight: VecDeque<Option<Vec<u8>>>,
    /// The server's current durable value.
    server_value: Option<Vec<u8>>,
    /// Every value a client wrote to the key.
    written: Vec<Vec<u8>>,
}

impl ModelEntry {
    /// The only value a cache hit may legally return: the latest update if
    /// one ever happened, otherwise whatever the server holds.
    fn fresh(&self) -> Option<&Vec<u8>> {
        match &self.latest_update {
            Some(latest) => latest.as_ref(),
            None => self.server_value.as_ref(),
        }
    }

    fn log(&mut self, value: Option<Vec<u8>>) {
        self.written.extend(value.clone());
        self.latest_update = Some(value.clone());
        self.inflight.push_back(value);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hits_always_return_the_freshest_observed_value(
        ops in prop::collection::vec(op_strategy(), 0..150),
    ) {
        let mut cache = ReadCache::new(64);
        let mut model: FixedMap<u8, ModelEntry> = FixedMap::default();
        let mut heads: Vec<Fragments> = Vec::new();

        for op in ops {
            match op {
                Op::Update(k, v) => {
                    cache.on_update(&[k], &v);
                    model.entry(k).or_default().log(Some(v));
                }
                Op::Head(k, v, cut) => {
                    let f = fragments(heads.len() as u32, k, &v, cut);
                    cache.on_logged_head(&f.first, f.head);
                    heads.push(f);
                    model.entry(k).or_default().log(Some(v));
                }
                Op::Whole(n) => {
                    if !heads.is_empty() {
                        let f = &heads[n % heads.len()];
                        cache.on_logged_whole(f.head, &f.first, f.rest.iter());
                    }
                }
                Op::Bypass(k, v) => {
                    let frame = KvFrame::Set {
                        key: Bytes::copy_from_slice(&[k]),
                        value: Bytes::copy_from_slice(&v),
                    }
                    .encode();
                    prop_assert!(cache.on_bypassed_frame(&frame).is_some());
                    model.entry(k).or_default().log(Some(v));
                }
                Op::Delete(k) => {
                    cache.on_delete(&[k]);
                    model.entry(k).or_default().log(None);
                }
                Op::ServerAck(k) => {
                    let e = model.entry(k).or_default();
                    // A correct server only acks work it has applied.
                    if let Some(v) = e.inflight.pop_front() {
                        e.server_value = v;
                        cache.on_server_ack(&[k]);
                    }
                }
                Op::ReadResponse(k) => {
                    // A pass-through read reply carries the server's
                    // current value (found == true only if one exists).
                    let e = model.entry(k).or_default();
                    if let Some(v) = e.server_value.clone() {
                        cache.on_read_response(&[k], &v);
                    }
                }
                Op::Lookup(k) => {
                    let hit = cache.lookup(&[k]).map(|parts| parts.concat());
                    let e = model.get(&k).cloned().unwrap_or_default();
                    if let Some(value) = hit {
                        prop_assert!(
                            e.written.contains(&value),
                            "key {} served {:?}, which no client wrote", k, value
                        );
                        let fresh = e.fresh().expect("hit on a deleted or never-written key");
                        prop_assert_eq!(
                            &value, fresh,
                            "stale value served for key {} (inflight={})",
                            k, e.inflight.len()
                        );
                    }
                    // Conversely, a Pending/Persisted single-writer entry
                    // must hit (cache effectiveness, not just safety).
                    if e.inflight.len() <= 1 && e.latest_update.is_some() {
                        // Only guaranteed if the key was admitted (the
                        // 64-entry cache can refuse under pressure), so no
                        // assertion on misses here.
                    }
                }
            }
        }
    }

    #[test]
    fn read_responses_never_fill_keys_with_inflight_updates(
        ops in prop::collection::vec(op_strategy(), 0..150),
        capacity in 1usize..5,
    ) {
        // The in-flight fill rule, tested against *device-visible* truth:
        // every `on_update` call counts (the device logs the update whether
        // or not the cache admitted the key), and a read response models a
        // server snapshot of arbitrary age. While any update to a key is
        // still in flight, a read response must never install a value the
        // cache will later serve — tiny capacities force the refusal path.
        let mut cache = ReadCache::new(capacity);
        let mut inflight: FixedMap<u8, u32> = FixedMap::default();
        let mut heads: Vec<Fragments> = Vec::new();
        let mut nonce = 0u8;
        for op in ops {
            match op {
                Op::Update(k, v) => {
                    cache.on_update(&[k], &v);
                    *inflight.entry(k).or_default() += 1;
                }
                Op::Head(k, v, cut) => {
                    let f = fragments(heads.len() as u32, k, &v, cut);
                    cache.on_logged_head(&f.first, f.head);
                    heads.push(f);
                    *inflight.entry(k).or_default() += 1;
                }
                Op::Whole(n) => {
                    if !heads.is_empty() {
                        let f = &heads[n % heads.len()];
                        cache.on_logged_whole(f.head, &f.first, f.rest.iter());
                    }
                }
                Op::Bypass(k, v) => {
                    let frame = KvFrame::Set {
                        key: Bytes::copy_from_slice(&[k]),
                        value: Bytes::copy_from_slice(&v),
                    }
                    .encode();
                    cache.on_bypassed_frame(&frame);
                    *inflight.entry(k).or_default() += 1;
                }
                Op::Delete(k) => {
                    cache.on_delete(&[k]);
                    *inflight.entry(k).or_default() += 1;
                }
                Op::ServerAck(k) => {
                    let c = inflight.entry(k).or_default();
                    if *c > 0 {
                        *c -= 1;
                        cache.on_server_ack(&[k]);
                    }
                }
                Op::ReadResponse(k) => {
                    // A distinct sentinel per response stands in for a
                    // stale server snapshot (the response may have left
                    // the server before the in-flight updates applied).
                    nonce = nonce.wrapping_add(1);
                    let sentinel = vec![0xEE, k, nonce];
                    let fills_before = cache.counters().read_fills;
                    cache.on_read_response(&[k], &sentinel);
                    if inflight.get(&k).copied().unwrap_or(0) > 0 {
                        prop_assert_eq!(
                            cache.counters().read_fills, fills_before,
                            "read response filled key {} with {} update(s) in flight",
                            k, inflight[&k]
                        );
                        prop_assert!(
                            cache.lookup(&[k]).map(|p| p.concat()) != Some(sentinel.clone()),
                            "stale snapshot served for key {}", k
                        );
                    }
                }
                Op::Lookup(k) => {
                    let _ = cache.lookup(&[k]);
                }
            }
        }
    }

    #[test]
    fn states_follow_the_refined_figure_11_graph(
        ops in prop::collection::vec(op_strategy(), 0..100),
    ) {
        let mut cache = ReadCache::new(64);
        let mut inflight: FixedMap<u8, u32> = FixedMap::default();
        let mut prev: FixedMap<u8, CacheState> = FixedMap::default();
        let mut heads: Vec<(u8, Fragments)> = Vec::new();
        for op in ops {
            let key = match op {
                Op::Whole(_) if heads.is_empty() => continue,
                Op::Whole(n) => heads[n % heads.len()].0,
                Op::Update(k, _)
                | Op::Head(k, ..)
                | Op::Bypass(k, _)
                | Op::Delete(k)
                | Op::ServerAck(k)
                | Op::ReadResponse(k)
                | Op::Lookup(k) => k,
            };
            let before = prev.get(&key).copied().unwrap_or(CacheState::Invalid);
            match &op {
                Op::Update(k, v) => {
                    cache.on_update(&[*k], v);
                    *inflight.entry(*k).or_default() += 1;
                }
                Op::Head(k, v, cut) => {
                    let f = fragments(heads.len() as u32, *k, v, *cut);
                    cache.on_logged_head(&f.first, f.head);
                    heads.push((*k, f));
                    *inflight.entry(*k).or_default() += 1;
                }
                Op::Whole(n) => {
                    let (_, f) = &heads[n % heads.len()];
                    cache.on_logged_whole(f.head, &f.first, f.rest.iter());
                }
                Op::Bypass(k, v) => {
                    let frame = KvFrame::Set {
                        key: Bytes::copy_from_slice(&[*k]),
                        value: Bytes::copy_from_slice(v),
                    }
                    .encode();
                    cache.on_bypassed_frame(&frame);
                    *inflight.entry(*k).or_default() += 1;
                }
                Op::Delete(k) => {
                    cache.on_delete(&[*k]);
                    *inflight.entry(*k).or_default() += 1;
                }
                Op::ServerAck(k) => {
                    let c = inflight.entry(*k).or_default();
                    if *c > 0 {
                        *c -= 1;
                        cache.on_server_ack(&[*k]);
                    }
                }
                Op::ReadResponse(k) => cache.on_read_response(&[*k], b"srv"),
                Op::Lookup(k) => {
                    let _ = cache.lookup(&[*k]);
                }
            }
            let after = cache.state(&[key]);
            use CacheState::*;
            let legal = match (&op, before, after) {
                // T1/T3: first in-flight update -> Pending (a head's value
                // still arriving).
                (Op::Update(..) | Op::Head(..), Invalid | Persisted, Pending) => true,
                // Full cache may refuse to admit a new key.
                (Op::Update(..) | Op::Head(..), Invalid, Invalid) => true,
                // T4/T5: overlapping updates -> Stale.
                (Op::Update(..) | Op::Head(..), Pending | Stale, Stale) => true,
                // A delete or a bypassed update serves nothing: Stale, or
                // refused admission.
                (Op::Delete(..) | Op::Bypass(..), _, Stale) => true,
                (Op::Delete(..) | Op::Bypass(..), Invalid, Invalid) => true,
                // A whole value lands in its Pending entry, or nowhere.
                (Op::Whole(..), s, t) if s == t => true,
                // T2: ack persists Pending — or empties it, if its value
                // never arrived whole.
                (Op::ServerAck(..), Pending, Persisted | Invalid) => true,
                // T6 (refined): Stale drains to Invalid only at zero
                // in-flight; otherwise remains Stale.
                (Op::ServerAck(..), Stale, Invalid | Stale) => true,
                (Op::ServerAck(..), s, t) if s == t => true,
                // Read responses fill idle Invalid entries only.
                (Op::ReadResponse(..), Invalid, Persisted | Invalid) => true,
                (Op::ReadResponse(..), s, t) if s == t => true,
                // Lookups never change state.
                (Op::Lookup(..), s, t) if s == t => true,
                _ => false,
            };
            prop_assert!(
                legal,
                "illegal transition {:?}: {:?} -> {:?}",
                op, before, after
            );
            prev.insert(key, after);
        }
    }
}
