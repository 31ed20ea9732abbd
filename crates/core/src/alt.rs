//! Components for the Figure 17 alternative designs.
//!
//! * **Client-side logging** (Figure 17a): each client machine runs a
//!   dedicated logger process; an update completes once the local logger
//!   persisted it. With replication, copies go to [`PeerLogger`] processes
//!   on other client machines over the network — which is exactly what
//!   makes the design slow under replication (Figure 18).
//! * **Server-side logging** (Figure 17b) is implemented inside
//!   [`crate::ServerLib`] (`with_early_log`): requests persist at the
//!   kernel boundary and are acknowledged before user-space processing.

use pmnet_net::{Addr, Ctx, Msg, Node, Packet, PortNo};
use pmnet_pmem::{PmDevice, PmDeviceConfig};
use pmnet_sim::Dur;

use crate::config::HostProfile;
use crate::protocol::{PacketType, PmnetHeader};

/// The default local-logger persist latency for client-side logging:
/// IPC to the logger process, a PM write, and the completion notification
/// (calibrated to Figure 18's 10.4 µs end-to-end with ~1 µs application
/// overhead on each side).
pub const LOCAL_LOG_PERSIST: Dur = Dur::nanos(8_400);

/// A peer logger process on another client machine: receives update
/// copies, persists them, and acknowledges with a device id in the
/// peer-logger range.
#[derive(Debug)]
pub struct PeerLogger {
    addr: Addr,
    logger_id: u8,
    profile: HostProfile,
    pm: PmDevice,
    logged: u64,
}

impl PeerLogger {
    /// Creates a peer logger. `logger_id` must be ≥ 200 (the peer-logger
    /// id range).
    ///
    /// # Panics
    ///
    /// Panics if `logger_id` is below the peer-logger range.
    pub fn new(addr: Addr, logger_id: u8, profile: HostProfile) -> PeerLogger {
        assert!(
            logger_id >= crate::system::addrs::PEER_LOGGER_ID_BASE,
            "peer logger ids start at 200"
        );
        PeerLogger {
            addr,
            logger_id,
            profile,
            pm: PmDevice::new(PmDeviceConfig::fpga_board()),
            logged: 0,
        }
    }

    /// The id this logger's acks carry.
    pub fn id(&self) -> u8 {
        self.logger_id
    }

    /// Updates logged so far.
    pub fn logged(&self) -> u64 {
        self.logged
    }
}

impl Node for PeerLogger {
    fn on_msg(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        let Msg::Packet { packet, .. } = msg else {
            return;
        };
        let Some((header, _)) = PmnetHeader::decode(&packet.payload) else {
            return;
        };
        if header.ptype != PacketType::UpdateReq {
            return;
        }
        // Full receive stack (it is a user-space process), persist, ack.
        let len = packet.payload.len() as u32;
        let rx = self.profile.rx_delay(ctx.rng(), len, false);
        let persist_at = self.pm.schedule_write(ctx.now() + rx, packet.wire_bytes());
        self.logged += 1;
        let ack = header.ack_from_device(self.logger_id);
        let reply = Packet::udp(
            self.addr,
            header.client,
            packet.dst_port,
            packet.src_port,
            ack.encode(&[]),
        );
        let tx = self.profile.tx_delay(ctx.rng(), 0, false);
        let total = persist_at.saturating_since(ctx.now()) + tx;
        ctx.send_after(total, PortNo(0), reply);
    }

    fn addr(&self) -> Option<Addr> {
        Some(self.addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use pmnet_net::{EchoHost, LinkSpec, World};

    #[test]
    fn peer_logger_persists_and_acks() {
        let mut w = World::new(3);
        let client = w.add_node(Box::new(EchoHost::sink(Addr(1))));
        let logger = w.add_node(Box::new(PeerLogger::new(
            Addr(50),
            200,
            HostProfile::kernel_client(),
        )));
        w.connect(client, logger, LinkSpec::ten_gbps());
        w.populate_switch_routes();
        let h = PmnetHeader::request(PacketType::UpdateReq, 1, 0, Addr(1), Addr(50), 0, 1);
        w.inject(
            client,
            Packet::udp(Addr(1), Addr(50), 51001, 51000, h.encode(b"copy")),
        );
        w.run_to_quiescence(10_000);
        assert_eq!(w.node::<PeerLogger>(logger).logged(), 1);
        // The client received the peer's ack.
        assert_eq!(w.node::<EchoHost>(client).received(), 1);
    }

    #[test]
    fn non_update_packets_are_ignored() {
        let mut w = World::new(4);
        let client = w.add_node(Box::new(EchoHost::sink(Addr(1))));
        let logger = w.add_node(Box::new(PeerLogger::new(
            Addr(50),
            201,
            HostProfile::kernel_client(),
        )));
        w.connect(client, logger, LinkSpec::ten_gbps());
        w.populate_switch_routes();
        let h = PmnetHeader::request(PacketType::BypassReq, 1, 0, Addr(1), Addr(50), 0, 1);
        w.inject(
            client,
            Packet::udp(Addr(1), Addr(50), 51001, 51000, h.encode(b"read")),
        );
        w.inject(
            client,
            Packet::udp(Addr(1), Addr(50), 1234, 80, Bytes::from_static(b"other")),
        );
        w.run_to_quiescence(10_000);
        assert_eq!(w.node::<PeerLogger>(logger).logged(), 0);
        assert_eq!(w.node::<EchoHost>(client).received(), 0);
    }

    #[test]
    #[should_panic(expected = "peer logger ids")]
    fn low_logger_id_panics() {
        let _ = PeerLogger::new(Addr(1), 7, HostProfile::kernel_client());
    }
}
