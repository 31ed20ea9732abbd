//! Replayable divergence artifacts.
//!
//! A divergence is only actionable if it can be re-examined away from the
//! run that produced it, so the checker wraps every violation in a
//! self-contained text artifact: the full recorded history, the durable
//! state snapshot (when one was taken), and the divergence verdict.
//! [`replay`] parses an artifact and re-runs the checker on it, which
//! must reproduce the identical verdict — the format is lossless.
//!
//! The format is line-oriented (`pmnet-model divergence v2`):
//!
//! ```text
//! pmnet-model divergence v2
//! index=7
//! reason=duplicate apply: update client 1 session 0 seq 3 ...
//! state=present            # or `absent` when the server was uninspectable
//! s 0x6b6579 0x76616c      # one durable entry: hex key, hex value
//! e at=120 client=1 session=0 seq=3 invoke update 0x01036b...
//! e at=140 client=1 session=0 seq=4 complete update acks=1,0+s reply=-
//! e at=150 client=1 session=0 seq=3 apply redo=false epoch=0 0x01036b...
//! e at=130 client=1 session=0 seq=3 devlog device=2000
//! e at=160 client=1 session=0 seq=9 cache device=2000 0x02...
//! ```
//!
//! Byte strings are `0x`-prefixed hex (`0x` alone = empty); a missing
//! reply is `-`; `acks=` lists each fragment's device-ACK count in order,
//! `+s` marking one the server had acknowledged too (v1 recorded one
//! count and one flag for the whole request); lines are
//! [`pmnet_sim::record`] records.

use std::collections::BTreeMap;

use bytes::Bytes;
use pmnet_net::Addr;
use pmnet_sim::kinds;
use pmnet_sim::record::{hex, unhex, Kinds, Reader, Token, Value, Writer};
use pmnet_telemetry::history::{Event, EventKind, FragAcks};
use pmnet_telemetry::span::OpKind;

use crate::checker::{check, CheckStats, Divergence};

const MAGIC: &str = "pmnet-model divergence v2";

/// Reads keep the client library's name, `bypass` (`PMNet_bypass`), so
/// artifact text is unchanged since histories were first recorded.
const REQ_KIND: Kinds<OpKind> = kinds!("request kind", OpKind {
    "update" => Update,
    "bypass" => Read,
});

const HEX: Token<Bytes> = Token(|b| hex(b), |s| unhex(s).map(Bytes::from));

/// A reply that may be missing: `-` or hex.
const REPLY: Token<Option<Bytes>> = Token(
    |reply| reply.as_ref().map_or("-".to_string(), |b| hex(b)),
    |s| (s != "-").then(|| HEX.get(s)).transpose(),
);

/// What each fragment completed on: `1,0+s`.
const FRAG_ACKS: Token<Vec<FragAcks>> = Token(
    |frags| {
        let one = |f: &FragAcks| {
            format!(
                "{}{}",
                f.device_acks,
                if f.server_acked { "+s" } else { "" }
            )
        };
        frags.iter().map(one).collect::<Vec<_>>().join(",")
    },
    |s| {
        let one = |f: &str| {
            let (n, server_acked) = f.strip_suffix("+s").map_or((f, false), |n| (n, true));
            let device_acks = u8::get(Some(n))?;
            Ok(FragAcks {
                device_acks,
                server_acked,
            })
        };
        s.split(',').map(one).collect()
    },
);

const ADDR: Token<Addr> = Token(|a| a.0.to_string(), |s| u32::get(Some(s)).map(Addr));

/// The event kinds of an `e` line: each verb and its fields, once.
const EVENT: Kinds<EventKind> = kinds!("event verb", EventKind {
    "invoke" => Invoke { kind: "" => REQ_KIND, payload: "" => HEX },
    "complete" => Complete {
        kind: "" => REQ_KIND,
        frags: "acks" => FRAG_ACKS,
        reply: "reply" => REPLY,
    },
    "apply" => Apply { redo: "redo", epoch: "epoch", payload: "" => HEX },
    "devlog" => DeviceLogged { device: "device" => ADDR },
    "cache" => CacheServe { device: "device" => ADDR, reply: "" => HEX },
});

/// Renders a complete, replayable artifact for one divergence.
pub fn render(
    history: &[Event],
    durable: Option<&BTreeMap<Vec<u8>, Vec<u8>>>,
    index: usize,
    reason: &str,
) -> String {
    let state = durable.map_or("absent", |_| "present");
    let reason = reason.replace('\n', " ");
    let mut out = format!("{MAGIC}\nindex={index}\nreason={reason}\nstate={state}\n");
    for (k, v) in durable.into_iter().flatten() {
        let mut w = Writer::new(' ');
        w.word("s").field("", k).field("", v);
        out += &(w.finish() + "\n");
    }
    for e in history {
        let mut w = Writer::new(' ');
        w.word("e").field("at", &e.at).field("client", &e.client.0);
        w.field("session", &e.session).field("seq", &e.seq);
        EVENT.write(&e.kind, &mut w);
        out += &(w.finish() + "\n");
    }
    out
}

/// A parsed artifact: the inputs and the recorded verdict.
#[derive(Debug, Clone)]
pub struct ParsedArtifact {
    /// Divergence index as recorded in the artifact.
    pub index: usize,
    /// Divergence reason as recorded in the artifact.
    pub reason: String,
    /// The full recorded history.
    pub history: Vec<Event>,
    /// The durable snapshot (`None` when the server was uninspectable).
    pub durable: Option<BTreeMap<Vec<u8>, Vec<u8>>>,
}

/// Parses an artifact back into the checker's inputs and the recorded
/// verdict.
pub fn parse(text: &str) -> Result<ParsedArtifact, String> {
    let mut lines = text.lines();
    if lines.next() != Some(MAGIC) {
        return Err(format!("not a {MAGIC} artifact"));
    }
    let mut head = |key: &str| match lines.next().and_then(|l| l.split_once('=')) {
        Some((k, v)) if k == key => Ok(v),
        _ => Err(format!("missing {key}= line")),
    };
    let index = usize::get(Some(head("index")?)).map_err(|e| format!("bad index: {e}"))?;
    // The reason is free text to the end of its line.
    let reason = head("reason")?.to_string();
    let durable = match head("state")? {
        "absent" => None,
        "present" => Some(BTreeMap::new()),
        other => return Err(format!("bad state {other:?}")),
    };
    let mut parsed = ParsedArtifact {
        index,
        reason,
        history: Vec::new(),
        durable,
    };
    for line in lines.filter(|l| !l.is_empty()) {
        let mut r = Reader::new(line);
        (|| {
            match r.take("") {
                Some("s") => {
                    let map = parsed.durable.as_mut().ok_or("state=absent artifact")?;
                    map.insert(r.field("")?, r.field("")?);
                }
                Some("e") => parsed.history.push(Event {
                    at: r.field("at")?,
                    client: Addr(r.field("client")?),
                    session: r.field("session")?,
                    seq: r.field("seq")?,
                    kind: EVENT.read(&mut r)?,
                }),
                _ => return Err("unrecognized line".to_string()),
            }
            r.finish()
        })()
        .map_err(|e| format!("{e} in {line:?}"))?;
    }
    Ok(parsed)
}

/// Parses an artifact and re-runs the checker on the recorded inputs.
/// `Ok(Err(..))` is the normal outcome — the divergence reproduced;
/// `Ok(Ok(..))` means the artifact no longer diverges (a checker change,
/// or a hand-edited artifact); `Err` is a parse failure.
#[allow(clippy::type_complexity)]
pub fn replay(text: &str) -> Result<Result<CheckStats, Divergence>, String> {
    let parsed = parse(text)?;
    Ok(check(&parsed.history, parsed.durable.as_ref()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_garbage() {
        assert!(parse("not an artifact").is_err());
        assert!(parse(MAGIC).is_err()); // missing fields
        let body = |line: &str| {
            parse(&format!(
                "{MAGIC}\nindex=0\nreason=r\nstate=present\n{line}\n"
            ))
        };
        assert!(body("s 0x6b 0x").is_ok());
        for (line, want) in [
            ("what is this", "unrecognized line"),
            // PR 19: sliced the `&str` by byte pairs and panicked here.
            ("s 0xa\u{e9}b 0x", "bad value `0xa\u{e9}b`: not a hex digit"),
            ("s 0x6b", "missing value"),
            ("s 0x6b 0x 0x", "unexpected `0x`"),
            (
                "e at=1 client=1 session=65536 seq=0 devlog device=1",
                "bad `session=65536`",
            ),
            (
                "e at=1 client=1 session=0 seq=0 vanish",
                "unknown event verb `vanish`",
            ),
            (
                "e at=1 client=1 session=0 seq=0 invoke read 0x",
                "unknown request kind `read`",
            ),
        ] {
            let e = body(line).unwrap_err();
            assert!(e.contains(want) && e.contains(line), "{e}");
        }
    }

    #[test]
    fn a_completion_with_more_fragments_than_its_seq_allows_diverges() {
        // Two fragments end at seq 0: the first would sit below seq 0.
        let text = format!(
            "{MAGIC}\nindex=0\nreason=r\nstate=absent\n\
             e at=1 client=1 session=0 seq=0 invoke update 0x\n\
             e at=2 client=1 session=0 seq=0 apply redo=false epoch=0 0x\n\
             e at=3 client=1 session=0 seq=0 complete update acks=1,1 reply=-\n"
        );
        let d = replay(&text).unwrap().unwrap_err();
        assert_eq!(d.index, 2);
        let want = "completed 2 fragments, more than its seq allows";
        assert!(d.reason.contains(want), "{}", d.reason);
    }
}
