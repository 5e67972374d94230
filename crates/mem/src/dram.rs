//! Direct Rambus DRAM (DRDRAM) main-memory model.
//!
//! The paper models a 128 MB Direct Rambus system: a DRDRAM controller driving
//! 8 Rambus chips over a 128-bit, 200 MHz bi-directional bus delivering up to
//! 3.2 GB/s. At the processor clock this amounts to a fixed access latency
//! plus a per-line transfer occupancy on a shared channel; queuing behind
//! earlier transfers adds to the observed latency, which is how bandwidth
//! saturation appears in the model.

/// Configuration of the main-memory channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Latency from request to first data, in CPU cycles.
    pub access_latency: u64,
    /// Channel occupancy per transferred line, in CPU cycles.
    pub cycles_per_line: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        // ~60 CPU cycles access latency; a 128-byte L2 line at 3.2 GB/s on a
        // processor running a few times faster than the 200 MHz memory bus
        // occupies the channel for ~16 CPU cycles.
        Self { access_latency: 60, cycles_per_line: 16 }
    }
}

/// Statistics of the DRAM channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Number of line transfers (reads + write-backs).
    pub transfers: u64,
    /// Total cycles the channel was busy.
    pub busy_cycles: u64,
    /// Total queueing delay suffered by requests (cycles spent waiting for the
    /// channel).
    pub queue_cycles: u64,
}

/// The Direct Rambus channel: a single shared resource with fixed latency and
/// per-line occupancy.
#[derive(Debug, Clone)]
pub struct Dram {
    config: DramConfig,
    busy_until: u64,
    stats: DramStats,
}

impl Dram {
    /// Create an idle channel.
    pub fn new(config: DramConfig) -> Self {
        Self { config, busy_until: 0, stats: DramStats::default() }
    }

    /// Configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Statistics so far.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Return the channel to its just-built idle state with zeroed statistics
    /// (the machine-reuse `reset()` path).
    pub fn reset(&mut self) {
        self.busy_until = 0;
        self.stats = DramStats::default();
    }

    /// Transfer one line starting no earlier than `cycle`; returns the cycle
    /// at which the data is available.
    pub fn transfer_line(&mut self, cycle: u64) -> u64 {
        let start = cycle.max(self.busy_until);
        self.stats.queue_cycles += start - cycle;
        self.busy_until = start + self.config.cycles_per_line;
        self.stats.transfers += 1;
        self.stats.busy_cycles += self.config.cycles_per_line;
        start + self.config.access_latency + self.config.cycles_per_line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_transfer_latency() {
        let mut d = Dram::new(DramConfig { access_latency: 50, cycles_per_line: 10 });
        assert_eq!(d.transfer_line(100), 160);
        assert_eq!(d.stats().transfers, 1);
        assert_eq!(d.stats().queue_cycles, 0);
    }

    #[test]
    fn back_to_back_transfers_queue_on_the_channel() {
        let mut d = Dram::new(DramConfig { access_latency: 50, cycles_per_line: 10 });
        let a = d.transfer_line(0);
        let b = d.transfer_line(0);
        assert_eq!(a, 60);
        assert_eq!(b, 70, "second transfer waits for channel occupancy, not full latency");
        assert_eq!(d.stats().queue_cycles, 10);
        assert_eq!(d.stats().busy_cycles, 20);
    }

    #[test]
    fn idle_gaps_do_not_queue() {
        let mut d = Dram::new(DramConfig::default());
        let first = d.transfer_line(0);
        let second = d.transfer_line(first + 100);
        assert!(second > first + 100);
        assert_eq!(d.stats().queue_cycles, 0);
    }
}
