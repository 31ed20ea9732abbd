//! The Twitter workload (Retwis-style, Section III-C / Figure 4).
//!
//! Clients post tweets, follow users and read timelines. Posting
//! increments a shared `lastUID`-style counter, but — as the paper
//! observes — clients do **not** order against one another: each post is
//! an independent update, so the whole write path benefits from in-network
//! persistence. Requests are encoded as opaque frames (not the plain
//! GET/SET interface), which is why the paper excludes Twitter from the
//! read-caching experiment; the device cache ignores these payloads.

use bytes::{BufMut, Bytes, BytesMut};
use pmnet_core::client::{AppRequest, RequestKind, RequestSource};
use pmnet_core::server::RequestHandler;
use pmnet_net::Addr;
use pmnet_pmem::KvOp;
use pmnet_sim::{Dur, SimRng};

use crate::kvhandler::KvHandler;
use crate::ycsb::Zipfian;

/// A Twitter operation on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TwitterOp {
    /// Post a tweet (update).
    Post {
        /// Author id.
        user: u32,
        /// Tweet text.
        text: Vec<u8>,
    },
    /// Follow a user (update).
    Follow {
        /// Follower id.
        follower: u32,
        /// Followee id.
        followee: u32,
    },
    /// Read a user's timeline (bypass).
    Timeline {
        /// Whose timeline.
        user: u32,
    },
}

impl TwitterOp {
    /// Serializes the op (an opaque app frame from the KV layer's view).
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::new();
        b.put_u8(b'T');
        match self {
            TwitterOp::Post { user, text } => {
                b.put_u8(b'P');
                b.put_u32_le(*user);
                b.put_slice(text);
            }
            TwitterOp::Follow { follower, followee } => {
                b.put_u8(b'F');
                b.put_u32_le(*follower);
                b.put_u32_le(*followee);
            }
            TwitterOp::Timeline { user } => {
                b.put_u8(b'L');
                b.put_u32_le(*user);
            }
        }
        b.freeze()
    }

    /// Parses an op; `None` on foreign payloads.
    pub fn decode(body: &[u8]) -> Option<TwitterOp> {
        if body.len() < 6 || body[0] != b'T' {
            return None;
        }
        let user = u32::from_le_bytes(body[2..6].try_into().ok()?);
        match body[1] {
            b'P' => Some(TwitterOp::Post {
                user,
                text: body[6..].to_vec(),
            }),
            b'F' if body.len() == 10 => Some(TwitterOp::Follow {
                follower: user,
                followee: u32::from_le_bytes(body[6..10].try_into().ok()?),
            }),
            b'L' if body.len() == 6 => Some(TwitterOp::Timeline { user }),
            _ => None,
        }
    }
}

/// The Retwis-style client: posts/follows vs timeline reads in the given
/// update ratio.
#[derive(Debug)]
pub struct TwitterSource {
    remaining: usize,
    user_popularity: Zipfian,
    update_ratio: f64,
    tweet_bytes: usize,
    my_user: u32,
}

impl TwitterSource {
    /// `n` requests by user `my_user` over a population of `users`.
    pub fn new(n: usize, users: u64, update_ratio: f64, my_user: u32) -> TwitterSource {
        TwitterSource {
            remaining: n,
            user_popularity: Zipfian::new(users, 0.99),
            update_ratio,
            tweet_bytes: 80,
            my_user,
        }
    }
}

impl RequestSource for TwitterSource {
    fn next_request(&mut self, rng: &mut SimRng) -> Option<AppRequest> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        if rng.chance(self.update_ratio) {
            // 80% of updates are posts, 20% follows (Retwis-like mix).
            let op = if rng.chance(0.8) {
                let mut text = vec![0u8; self.tweet_bytes];
                rng.fill_bytes(&mut text);
                TwitterOp::Post {
                    user: self.my_user,
                    text,
                }
            } else {
                TwitterOp::Follow {
                    follower: self.my_user,
                    followee: self.user_popularity.sample(rng) as u32,
                }
            };
            Some(AppRequest {
                kind: RequestKind::Update,
                payload: op.encode(),
            })
        } else {
            Some(AppRequest {
                kind: RequestKind::Bypass,
                payload: TwitterOp::Timeline {
                    user: self.user_popularity.sample(rng) as u32,
                }
                .encode(),
            })
        }
    }
}

/// The Retwis-style server: a PM-backed KV store holding tweets, per-user
/// timelines and follower sets (several KV operations per request, as in
/// the real Retwis schema).
#[derive(Debug)]
pub struct TwitterHandler {
    kv: KvHandler,
    next_tweet_id: u64,
}

impl TwitterHandler {
    /// Creates the handler over a `hashmap` index (Redis-style backend).
    pub fn new(seed: u64) -> TwitterHandler {
        TwitterHandler {
            kv: KvHandler::new("hashmap", seed).with_extra_cost(Dur::micros(4)),
            next_tweet_id: 0,
        }
    }

    /// Tweets stored so far (test support).
    pub fn tweet_count(&self) -> u64 {
        self.next_tweet_id
    }

    /// Reads a stored tweet (test support).
    pub fn tweet(&mut self, id: u64) -> Option<Vec<u8>> {
        self.kv.peek(format!("tweet:{id}").as_bytes())
    }
}

impl RequestHandler for TwitterHandler {
    fn handle_update(
        &mut self,
        client: Addr,
        session: u16,
        seq: u32,
        payload: &Bytes,
        rng: &mut SimRng,
    ) -> Dur {
        let mut t = Dur::ZERO;
        match TwitterOp::decode(payload) {
            Some(TwitterOp::Post { user, text }) => {
                // getUID-style counter increment: independent per client
                // (no cross-client ordering, Figure 4).
                let id = self.next_tweet_id;
                self.next_tweet_id += 1;
                t += self.kv.apply_costed(
                    &KvOp::Put {
                        key: b"lastUID",
                        value: &id.to_le_bytes(),
                    },
                    rng,
                );
                t += self.kv.apply_costed(
                    &KvOp::Put {
                        key: format!("tweet:{id}").as_bytes(),
                        value: &text,
                    },
                    rng,
                );
                t += self.kv.apply_costed(
                    &KvOp::Put {
                        key: format!("posts:{user}:{id}").as_bytes(),
                        value: &id.to_le_bytes(),
                    },
                    rng,
                );
            }
            Some(TwitterOp::Follow { follower, followee }) => {
                t += self.kv.apply_costed(
                    &KvOp::Put {
                        key: format!("followers:{followee}:{follower}").as_bytes(),
                        value: &[1],
                    },
                    rng,
                );
            }
            _ => t += Dur::micros(1),
        }
        // Durable applied-seq record, via the shared KV path.
        t + self
            .kv
            .handle_update(client, session, seq, &Bytes::new(), rng)
    }

    fn handle_bypass(&mut self, payload: &Bytes, rng: &mut SimRng) -> (Dur, Option<Bytes>) {
        match TwitterOp::decode(payload) {
            Some(TwitterOp::Timeline { user }) => {
                // Read a handful of recent post references.
                let mut t = Dur::micros(4);
                let mut out = BytesMut::new();
                for id in self.next_tweet_id.saturating_sub(10)..self.next_tweet_id {
                    let (dt, reply) = self
                        .kv
                        .get_costed(format!("posts:{user}:{id}").as_bytes(), rng);
                    t += dt;
                    out.put_slice(&reply);
                }
                (t, Some(out.freeze()))
            }
            _ => (Dur::micros(1), Some(Bytes::new())),
        }
    }

    fn applied_seq(&mut self, client: Addr, session: u16) -> Option<u32> {
        self.kv.applied_seq(client, session)
    }

    fn on_crash(&mut self, rng: &mut SimRng) {
        self.kv.on_crash(rng);
    }

    fn on_recover(&mut self) -> Dur {
        let d = self.kv.on_recover();
        // The tweet-id counter is re-derived from the durable lastUID.
        self.next_tweet_id = self
            .kv
            .peek(b"lastUID")
            .and_then(|v| v.try_into().ok().map(u64::from_le_bytes))
            .map_or(0, |id| id + 1);
        d
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_round_trip() {
        let ops = [
            TwitterOp::Post {
                user: 3,
                text: b"hello world".to_vec(),
            },
            TwitterOp::Follow {
                follower: 1,
                followee: 2,
            },
            TwitterOp::Timeline { user: 9 },
        ];
        for op in &ops {
            assert_eq!(TwitterOp::decode(&op.encode()).as_ref(), Some(op));
        }
        assert_eq!(TwitterOp::decode(b"garbage"), None);
        assert_eq!(TwitterOp::decode(b""), None);
    }

    #[test]
    fn posts_store_tweets_and_cost_several_kv_ops() {
        let mut h = TwitterHandler::new(1);
        let mut rng = SimRng::seed(1);
        let op = TwitterOp::Post {
            user: 5,
            text: b"first!".to_vec(),
        };
        let t = h.handle_update(Addr(1), 0, 0, &op.encode(), &mut rng);
        assert!(t > Dur::micros(8), "multi-op post should be heavy: {t}");
        assert_eq!(h.tweet_count(), 1);
        assert_eq!(h.tweet(0), Some(b"first!".to_vec()));
    }

    #[test]
    fn timeline_reads_reply() {
        let mut h = TwitterHandler::new(1);
        let mut rng = SimRng::seed(2);
        for i in 0..5 {
            h.handle_update(
                Addr(1),
                0,
                i,
                &TwitterOp::Post {
                    user: 7,
                    text: vec![b'x'; 10],
                }
                .encode(),
                &mut rng,
            );
        }
        let (t, reply) = h.handle_bypass(&TwitterOp::Timeline { user: 7 }.encode(), &mut rng);
        assert!(t > Dur::ZERO);
        assert!(!reply.unwrap().is_empty());
    }

    #[test]
    fn source_generates_the_requested_mix() {
        let mut s = TwitterSource::new(500, 100, 0.5, 3);
        let mut rng = SimRng::seed(3);
        let mut updates = 0;
        let mut total = 0;
        while let Some(r) = s.next_request(&mut rng) {
            total += 1;
            if r.kind == RequestKind::Update {
                updates += 1;
                assert!(matches!(
                    TwitterOp::decode(&r.payload),
                    Some(TwitterOp::Post { .. } | TwitterOp::Follow { .. })
                ));
            }
        }
        assert_eq!(total, 500);
        let ratio = f64::from(updates) / 500.0;
        assert!((ratio - 0.5).abs() < 0.08, "{ratio}");
    }

    #[test]
    fn crash_recovery_preserves_tweets() {
        let mut h = TwitterHandler::new(1);
        let mut rng = SimRng::seed(4);
        h.handle_update(
            Addr(1),
            0,
            0,
            &TwitterOp::Post {
                user: 1,
                text: b"durable".to_vec(),
            }
            .encode(),
            &mut rng,
        );
        h.on_crash(&mut rng);
        h.on_recover();
        assert_eq!(h.tweet(0), Some(b"durable".to_vec()));
        assert_eq!(h.applied_seq(Addr(1), 0), Some(0));
    }
}
