//! The TPCC workload (Section III-C, Figure 5).
//!
//! New-order transactions modify stock levels inside a critical section:
//! the client acquires a lock on the server (a *bypass* request, so the
//! server enforces cross-client ordering), performs a batch of stock
//! updates (each an in-network-logged *update* request), and releases the
//! lock (bypass again). With a mean of ~12.6 stock updates per
//! transaction, lock traffic is ~13.7 % of all requests — the fraction the
//! paper reports bypassing PMNet.

use bytes::{BufMut, Bytes, BytesMut};
use pmnet_core::client::{AppRequest, RequestKind, RequestSource};
use pmnet_core::server::RequestHandler;
use pmnet_net::Addr;
use pmnet_pmem::KvOp;
use pmnet_sim::hash::FixedMap;
use pmnet_sim::{Dur, SimRng};

use crate::kvhandler::KvHandler;

/// A TPCC operation on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TpccOp {
    /// Acquire the warehouse lock (bypass; enforced by the server).
    Lock {
        /// Warehouse id.
        warehouse: u32,
        /// Lock owner token (client-chosen).
        owner: u32,
    },
    /// Update one item's stock level (update; logged in-network).
    StockUpdate {
        /// Warehouse id.
        warehouse: u32,
        /// Item id.
        item: u32,
        /// New quantity.
        quantity: u32,
    },
    /// Release the warehouse lock (bypass).
    Unlock {
        /// Warehouse id.
        warehouse: u32,
        /// Lock owner token.
        owner: u32,
    },
    /// Read an order status (bypass; the read-heavy mix component).
    OrderStatus {
        /// Warehouse id.
        warehouse: u32,
        /// Item id.
        item: u32,
    },
}

impl TpccOp {
    /// Serializes the op.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::new();
        b.put_u8(b'X');
        match self {
            TpccOp::Lock { warehouse, owner } => {
                b.put_u8(b'L');
                b.put_u32_le(*warehouse);
                b.put_u32_le(*owner);
            }
            TpccOp::StockUpdate {
                warehouse,
                item,
                quantity,
            } => {
                b.put_u8(b'S');
                b.put_u32_le(*warehouse);
                b.put_u32_le(*item);
                b.put_u32_le(*quantity);
            }
            TpccOp::Unlock { warehouse, owner } => {
                b.put_u8(b'U');
                b.put_u32_le(*warehouse);
                b.put_u32_le(*owner);
            }
            TpccOp::OrderStatus { warehouse, item } => {
                b.put_u8(b'O');
                b.put_u32_le(*warehouse);
                b.put_u32_le(*item);
            }
        }
        b.freeze()
    }

    /// Parses an op; `None` on foreign payloads.
    pub fn decode(body: &[u8]) -> Option<TpccOp> {
        if body.len() < 10 || body[0] != b'X' {
            return None;
        }
        let w = u32::from_le_bytes(body[2..6].try_into().ok()?);
        let x = u32::from_le_bytes(body[6..10].try_into().ok()?);
        match body[1] {
            b'L' if body.len() == 10 => Some(TpccOp::Lock {
                warehouse: w,
                owner: x,
            }),
            b'U' if body.len() == 10 => Some(TpccOp::Unlock {
                warehouse: w,
                owner: x,
            }),
            b'O' if body.len() == 10 => Some(TpccOp::OrderStatus {
                warehouse: w,
                item: x,
            }),
            b'S' if body.len() == 14 => Some(TpccOp::StockUpdate {
                warehouse: w,
                item: x,
                quantity: u32::from_le_bytes(body[10..14].try_into().ok()?),
            }),
            _ => None,
        }
    }
}

#[derive(Debug)]
enum TxnPhase {
    Idle,
    Locked { updates_left: u32 },
}

/// The TPCC client: streams new-order transactions (lock → stock updates →
/// unlock), interleaved with order-status reads per the update ratio.
#[derive(Debug)]
pub struct TpccSource {
    remaining: usize,
    update_ratio: f64,
    warehouses: u32,
    items: u32,
    my_owner: u32,
    phase: TxnPhase,
    warehouse: u32,
    lock_ops: u64,
    update_ops: u64,
    read_ops: u64,
}

impl TpccSource {
    /// `n` requests from owner token `my_owner` over `warehouses`/`items`.
    pub fn new(n: usize, update_ratio: f64, my_owner: u32) -> TpccSource {
        TpccSource {
            remaining: n,
            update_ratio,
            warehouses: 10,
            items: 10_000,
            my_owner,
            phase: TxnPhase::Idle,
            warehouse: 0,
            lock_ops: 0,
            update_ops: 0,
            read_ops: 0,
        }
    }

    /// Fraction of issued requests that were lock/unlock (bypass) traffic.
    pub fn lock_fraction(&self) -> f64 {
        let total = self.lock_ops + self.update_ops + self.read_ops;
        if total == 0 {
            0.0
        } else {
            self.lock_ops as f64 / total as f64
        }
    }
}

impl RequestSource for TpccSource {
    fn next_request(&mut self, rng: &mut SimRng) -> Option<AppRequest> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        match &mut self.phase {
            TxnPhase::Idle => {
                if rng.chance(self.update_ratio) {
                    // Begin a new-order transaction: acquire the lock.
                    self.warehouse = rng.uniform_u64(0..u64::from(self.warehouses)) as u32;
                    // Mean 12.6 stock updates (uniform 8..=17).
                    let updates = rng.uniform_u64(8..18) as u32;
                    self.phase = TxnPhase::Locked {
                        updates_left: updates,
                    };
                    self.lock_ops += 1;
                    Some(AppRequest {
                        kind: RequestKind::Bypass,
                        payload: TpccOp::Lock {
                            warehouse: self.warehouse,
                            owner: self.my_owner,
                        }
                        .encode(),
                    })
                } else {
                    self.read_ops += 1;
                    Some(AppRequest {
                        kind: RequestKind::Bypass,
                        payload: TpccOp::OrderStatus {
                            warehouse: rng.uniform_u64(0..u64::from(self.warehouses)) as u32,
                            item: rng.uniform_u64(0..u64::from(self.items)) as u32,
                        }
                        .encode(),
                    })
                }
            }
            TxnPhase::Locked { updates_left } => {
                if *updates_left > 0 {
                    *updates_left -= 1;
                    self.update_ops += 1;
                    Some(AppRequest {
                        kind: RequestKind::Update,
                        payload: TpccOp::StockUpdate {
                            warehouse: self.warehouse,
                            item: rng.uniform_u64(0..u64::from(self.items)) as u32,
                            quantity: rng.uniform_u64(0..100) as u32,
                        }
                        .encode(),
                    })
                } else {
                    self.phase = TxnPhase::Idle;
                    self.lock_ops += 1;
                    Some(AppRequest {
                        kind: RequestKind::Bypass,
                        payload: TpccOp::Unlock {
                            warehouse: self.warehouse,
                            owner: self.my_owner,
                        }
                        .encode(),
                    })
                }
            }
        }
    }
}

/// The TPCC server: stock state in a PM-backed B-tree, plus a lock table
/// enforcing the application-level critical sections.
#[derive(Debug)]
pub struct TpccHandler {
    kv: KvHandler,
    locks: FixedMap<u32, u32>,
    grants: u64,
    denials: u64,
}

impl TpccHandler {
    /// Creates the handler.
    pub fn new(seed: u64) -> TpccHandler {
        TpccHandler {
            kv: KvHandler::new("btree", seed).with_extra_cost(Dur::micros(5)),
            locks: FixedMap::default(),
            grants: 0,
            denials: 0,
        }
    }

    /// Lock grants so far.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Lock denials so far (contention).
    pub fn denials(&self) -> u64 {
        self.denials
    }

    /// Reads a stock level (test support).
    pub fn stock(&mut self, warehouse: u32, item: u32) -> Option<u32> {
        self.kv
            .peek(format!("stock:{warehouse}:{item}").as_bytes())
            .and_then(|v| v.try_into().ok().map(u32::from_le_bytes))
    }
}

impl RequestHandler for TpccHandler {
    fn handle_update(
        &mut self,
        client: Addr,
        session: u16,
        seq: u32,
        payload: &Bytes,
        rng: &mut SimRng,
    ) -> Dur {
        let mut t = Dur::ZERO;
        if let Some(TpccOp::StockUpdate {
            warehouse,
            item,
            quantity,
        }) = TpccOp::decode(payload)
        {
            t += self.kv.apply_costed(
                &KvOp::Put {
                    key: format!("stock:{warehouse}:{item}").as_bytes(),
                    value: &quantity.to_le_bytes(),
                },
                rng,
            );
            // Order-line insert alongside the stock write.
            t += self.kv.apply_costed(
                &KvOp::Put {
                    key: format!("orderline:{warehouse}:{item}:{seq}").as_bytes(),
                    value: &quantity.to_le_bytes(),
                },
                rng,
            );
        } else {
            t += Dur::micros(1);
        }
        t + self
            .kv
            .handle_update(client, session, seq, &Bytes::new(), rng)
    }

    fn handle_bypass(&mut self, payload: &Bytes, rng: &mut SimRng) -> (Dur, Option<Bytes>) {
        match TpccOp::decode(payload) {
            Some(TpccOp::Lock { warehouse, owner }) => {
                let granted = match self.locks.get(&warehouse) {
                    None => {
                        self.locks.insert(warehouse, owner);
                        true
                    }
                    Some(&o) => o == owner,
                };
                if granted {
                    self.grants += 1;
                } else {
                    self.denials += 1;
                }
                (Dur::micros(5), Some(Bytes::from(vec![u8::from(granted)])))
            }
            Some(TpccOp::Unlock { warehouse, owner }) => {
                if self.locks.get(&warehouse) == Some(&owner) {
                    self.locks.remove(&warehouse);
                }
                (Dur::micros(5), Some(Bytes::from(vec![1])))
            }
            Some(TpccOp::OrderStatus { warehouse, item }) => {
                let (t, reply) = self
                    .kv
                    .get_costed(format!("stock:{warehouse}:{item}").as_bytes(), rng);
                (t + Dur::micros(5), Some(reply))
            }
            _ => (Dur::micros(1), Some(Bytes::new())),
        }
    }

    fn applied_seq(&mut self, client: Addr, session: u16) -> Option<u32> {
        self.kv.applied_seq(client, session)
    }

    fn on_crash(&mut self, rng: &mut SimRng) {
        // Locks are volatile server state: lost on crash by design (clients
        // re-acquire during recovery).
        self.locks.clear();
        self.kv.on_crash(rng);
    }

    fn on_recover(&mut self) -> Dur {
        self.kv.on_recover()
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
            TpccOp::Lock {
                warehouse: 1,
                owner: 7,
            },
            TpccOp::StockUpdate {
                warehouse: 1,
                item: 99,
                quantity: 42,
            },
            TpccOp::Unlock {
                warehouse: 1,
                owner: 7,
            },
            TpccOp::OrderStatus {
                warehouse: 2,
                item: 5,
            },
        ];
        for op in &ops {
            assert_eq!(TpccOp::decode(&op.encode()).as_ref(), Some(op));
        }
        assert_eq!(TpccOp::decode(b"?"), None);
    }

    #[test]
    fn lock_fraction_lands_near_thirteen_point_seven_percent() {
        // Pure new-order stream (100% update ratio).
        let mut s = TpccSource::new(50_000, 1.0, 1);
        let mut rng = SimRng::seed(5);
        while s.next_request(&mut rng).is_some() {}
        let frac = s.lock_fraction();
        assert!(
            (frac - 0.137).abs() < 0.015,
            "lock fraction {frac} should be ~13.7% (Section III-C)"
        );
    }

    #[test]
    fn locks_enforce_mutual_exclusion() {
        let mut h = TpccHandler::new(1);
        let mut rng = SimRng::seed(6);
        let lock = |o: u32| {
            TpccOp::Lock {
                warehouse: 3,
                owner: o,
            }
            .encode()
        };
        let (_, r1) = h.handle_bypass(&lock(1), &mut rng);
        assert_eq!(r1.unwrap()[0], 1, "first owner granted");
        let (_, r2) = h.handle_bypass(&lock(2), &mut rng);
        assert_eq!(r2.unwrap()[0], 0, "second owner denied");
        assert_eq!(h.denials(), 1);
        // Re-entrant for the same owner; freed by unlock.
        let (_, r3) = h.handle_bypass(&lock(1), &mut rng);
        assert_eq!(r3.unwrap()[0], 1);
        h.handle_bypass(
            &TpccOp::Unlock {
                warehouse: 3,
                owner: 1,
            }
            .encode(),
            &mut rng,
        );
        let (_, r4) = h.handle_bypass(&lock(2), &mut rng);
        assert_eq!(r4.unwrap()[0], 1, "granted after release");
    }

    #[test]
    fn stock_updates_persist_across_crash() {
        let mut h = TpccHandler::new(1);
        let mut rng = SimRng::seed(7);
        h.handle_update(
            Addr(1),
            0,
            0,
            &TpccOp::StockUpdate {
                warehouse: 2,
                item: 10,
                quantity: 55,
            }
            .encode(),
            &mut rng,
        );
        assert_eq!(h.stock(2, 10), Some(55));
        h.on_crash(&mut rng);
        h.on_recover();
        assert_eq!(h.stock(2, 10), Some(55));
        assert!(h.locks.is_empty(), "locks are volatile");
    }

    #[test]
    fn mixed_ratio_includes_order_status_reads() {
        let mut s = TpccSource::new(2000, 0.25, 1);
        let mut rng = SimRng::seed(8);
        let mut reads = 0;
        let mut total = 0;
        while let Some(r) = s.next_request(&mut rng) {
            total += 1;
            if let Some(TpccOp::OrderStatus { .. }) = TpccOp::decode(&r.payload) {
                reads += 1;
                assert_eq!(r.kind, RequestKind::Bypass);
            }
        }
        assert_eq!(total, 2000);
        // At 25% update ratio each started transaction still consumes
        // ~14.6 requests, so ~17% of all requests are order-status reads.
        assert!(
            reads > 250,
            "read-heavy mix must include order-status: {reads}"
        );
    }
}
