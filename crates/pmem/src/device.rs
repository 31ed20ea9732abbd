//! Timing model of a persistent-memory module.
//!
//! Models the PM attached to a PMNet device (the FPGA's battery-backed
//! DRAM: 273 ns write latency, 2.5 GB/s — Sections V-A and VII) as a single
//! serial resource: accesses occupy the module for
//! `latency + bytes/bandwidth` and queue behind one another. The PMNet
//! device bounds this queue with the Eq. 2 BDP-sized log queue; queue
//! occupancy is exposed so callers can enforce that bound.

use pmnet_sim::{Dur, Time};

/// Static parameters of a PM module.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmDeviceConfig {
    /// Fixed latency of a write (device DRAM write through the FPGA DMA
    /// engine: 273 ns, Section V-A).
    pub write_latency: Dur,
    /// Fixed latency of a read (Eq. 2 uses 100 ns as the PM access time).
    pub read_latency: Dur,
    /// Sustained bandwidth in bytes per second (2.5 GB/s, Section VII).
    pub bandwidth_bytes_per_sec: u64,
}

impl PmDeviceConfig {
    /// The paper's FPGA board PM (Section V-A/VII).
    pub fn fpga_board() -> PmDeviceConfig {
        PmDeviceConfig {
            write_latency: Dur::nanos(273),
            read_latency: Dur::nanos(100),
            bandwidth_bytes_per_sec: 2_500_000_000,
        }
    }

    /// Returns a copy with a different write latency (for the media-sweep
    /// ablation: NVDIMM / STT-RAM / slower Optane generations).
    pub fn with_write_latency(mut self, d: Dur) -> PmDeviceConfig {
        self.write_latency = d;
        self
    }
}

/// Access counters of a [`PmDevice`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PmDeviceCounters {
    /// Completed writes.
    pub writes: u64,
    /// Completed reads.
    pub reads: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Bytes read.
    pub bytes_read: u64,
}

/// A PM module as a serial timed resource.
///
/// # Example
///
/// ```
/// use pmnet_pmem::{PmDevice, PmDeviceConfig};
/// use pmnet_sim::{Dur, Time};
///
/// let mut pm = PmDevice::new(PmDeviceConfig::fpga_board());
/// let done = pm.schedule_write(Time::ZERO, 100);
/// // 273 ns latency + 100 B / 2.5 GB/s = 40 ns occupancy.
/// assert_eq!(done, Time::ZERO + Dur::nanos(313));
/// ```
#[derive(Debug, Clone)]
pub struct PmDevice {
    config: PmDeviceConfig,
    busy_until: Time,
    counters: PmDeviceCounters,
    slowdown: u32,
}

impl PmDevice {
    /// Creates an idle device.
    pub fn new(config: PmDeviceConfig) -> PmDevice {
        PmDevice {
            config,
            busy_until: Time::ZERO,
            counters: PmDeviceCounters::default(),
            slowdown: 1,
        }
    }

    /// Sets a transient latency/bandwidth degradation factor (`1` =
    /// nominal). Fault injectors use this to model media slowdowns —
    /// thermal throttling, wear, a misbehaving DIMM — without rebuilding
    /// the device.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn set_slowdown(&mut self, factor: u32) {
        assert!(factor > 0, "slowdown factor must be at least 1");
        self.slowdown = factor;
    }

    /// Access counters.
    pub fn counters(&self) -> PmDeviceCounters {
        self.counters
    }

    /// How long a newly offered access would wait before starting.
    pub fn queue_delay(&self, now: Time) -> Dur {
        self.busy_until.saturating_since(now)
    }

    /// Bytes of work currently queued ahead of a new access, expressed via
    /// the device bandwidth (used to enforce the Eq. 2 log-queue bound).
    pub fn queued_bytes(&self, now: Time) -> u64 {
        let d = self.queue_delay(now).as_secs_f64();
        (d * self.config.bandwidth_bytes_per_sec as f64) as u64
    }

    fn occupy(&mut self, now: Time, latency: Dur, bytes: u32) -> Time {
        // `for_bytes_at` takes a bit-rate; the device bandwidth is in bytes.
        let transfer = Dur::for_bytes_at(
            u64::from(bytes) * u64::from(self.slowdown),
            self.config.bandwidth_bytes_per_sec * 8,
        );
        let latency = latency * u64::from(self.slowdown);
        let start = now.max(self.busy_until);
        self.busy_until = start + transfer;
        self.busy_until + latency
    }

    /// Schedules a `bytes`-byte write starting no earlier than `now`;
    /// returns the completion (persistence) instant.
    pub fn schedule_write(&mut self, now: Time, bytes: u32) -> Time {
        let done = self.occupy(now, self.config.write_latency, bytes);
        self.counters.writes += 1;
        self.counters.bytes_written += u64::from(bytes);
        done
    }

    /// Schedules a `bytes`-byte read starting no earlier than `now`;
    /// returns the completion instant.
    pub fn schedule_read(&mut self, now: Time, bytes: u32) -> Time {
        let done = self.occupy(now, self.config.read_latency, bytes);
        self.counters.reads += 1;
        self.counters.bytes_read += u64::from(bytes);
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> PmDevice {
        PmDevice::new(PmDeviceConfig::fpga_board())
    }

    #[test]
    fn single_write_latency_matches_paper() {
        let mut pm = dev();
        // 100 B: 40 ns transfer at 2.5 GB/s + 273 ns latency.
        assert_eq!(pm.schedule_write(Time::ZERO, 100), Time::from_nanos(313));
    }

    #[test]
    fn writes_serialize_on_the_device() {
        let mut pm = dev();
        let d1 = pm.schedule_write(Time::ZERO, 1000); // transfer 400 ns
        let d2 = pm.schedule_write(Time::ZERO, 1000);
        assert_eq!(d1, Time::from_nanos(673));
        // Second starts after first transfer (400 ns), not after d1.
        assert_eq!(d2, Time::from_nanos(1073));
    }

    #[test]
    fn queue_delay_reflects_backlog() {
        let mut pm = dev();
        assert_eq!(pm.queue_delay(Time::ZERO), Dur::ZERO);
        pm.schedule_write(Time::ZERO, 2500); // 1 us transfer
        assert_eq!(pm.queue_delay(Time::ZERO), Dur::micros(1));
        assert_eq!(pm.queued_bytes(Time::ZERO), 2500);
        // Once time passes the backlog, delay decays to zero.
        assert_eq!(pm.queue_delay(Time::from_nanos(2_000)), Dur::ZERO);
    }

    #[test]
    fn reads_use_read_latency() {
        let mut pm = dev();
        assert_eq!(pm.schedule_read(Time::ZERO, 100), Time::from_nanos(140));
    }

    #[test]
    fn slowdown_scales_latency_and_transfer() {
        let mut pm = dev();
        pm.set_slowdown(10);
        // 100 B: (40 ns transfer + 273 ns latency) x 10.
        assert_eq!(pm.schedule_write(Time::ZERO, 100), Time::from_nanos(3130));
        pm.set_slowdown(1);
        assert_eq!(pm.queue_delay(Time::from_nanos(400)), Dur::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_slowdown_panics() {
        dev().set_slowdown(0);
    }

    #[test]
    fn counters_accumulate() {
        let mut pm = dev();
        pm.schedule_write(Time::ZERO, 10);
        pm.schedule_write(Time::ZERO, 20);
        pm.schedule_read(Time::ZERO, 5);
        let c = pm.counters();
        assert_eq!(c.writes, 2);
        assert_eq!(c.bytes_written, 30);
        assert_eq!(c.reads, 1);
        assert_eq!(c.bytes_read, 5);
    }
}
