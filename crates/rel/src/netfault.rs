//! Seeded network fault injection for the wire protocol.
//!
//! The storage fault plane ([`crate::fault`]) covers everything
//! *below* the session layer; this module covers the wire itself. A
//! [`NetFaultConfig`] describes, with per-frame probabilities, the four
//! failure shapes a TCP peer actually meets:
//!
//! * **torn write** — a frame's prefix goes out, then the connection dies
//!   mid-frame (the peer sees a truncated frame, then EOF);
//! * **disconnect** — the connection dies cleanly *between* frames;
//! * **delayed write** — the frame goes out whole, after a seeded pause;
//! * **stalled read** — the reader sleeps before draining the socket,
//!   simulating a slow or wedged peer.
//!
//! Decisions follow the same discipline as the storage plane: each is a
//! pure function of `(seed, connection, direction, frame index)` via
//! [`crate::fault::splitmix64`] — no RNG state, no ordering dependence
//! between connections. A given connection therefore sees the same fault
//! script every run; what stays nondeterministic is only the interleaving
//! of connections, which is exactly the gap the soak harness's
//! convergence-to-oracle check is designed to close.
//!
//! Injection happens inside the codec (`server::write_frame` /
//! `read_frame` wrappers), symmetric on both sides: servers arm a config
//! via `ServerOptions::net_fault`, clients via `ClientOptions::net_fault`.

use crate::fault::splitmix64;
use std::time::Duration;

/// Per-frame fault probabilities for one side of a connection. All four
/// probabilities are independent rolls; the first that fires (in the fixed
/// order torn → disconnect → delay) decides the write's fate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetFaultConfig {
    /// Seed shared by every decision this config makes.
    pub seed: u64,
    /// P(frame write is torn: a seeded prefix is sent, then the
    /// connection is shut down mid-frame).
    pub p_torn_write: f64,
    /// P(connection is shut down cleanly instead of writing the frame).
    pub p_disconnect: f64,
    /// P(frame write is delayed by a seeded pause before going out whole).
    pub p_delay_write: f64,
    /// P(read stalls for a seeded pause before draining the socket).
    pub p_stall_read: f64,
    /// Cap on injected pauses, in nanoseconds (delays and stalls are
    /// seeded fractions of this).
    pub max_delay_nanos: u64,
}

impl Default for NetFaultConfig {
    fn default() -> Self {
        NetFaultConfig {
            seed: 0,
            p_torn_write: 0.0,
            p_disconnect: 0.0,
            p_delay_write: 0.0,
            p_stall_read: 0.0,
            max_delay_nanos: 5_000_000, // 5ms
        }
    }
}

impl NetFaultConfig {
    /// A config that injects nothing (every probability zero).
    pub fn none() -> Self {
        NetFaultConfig::default()
    }

    /// Whether any fault can fire at all.
    pub fn is_active(&self) -> bool {
        self.p_torn_write > 0.0
            || self.p_disconnect > 0.0
            || self.p_delay_write > 0.0
            || self.p_stall_read > 0.0
    }
}

/// Decision site tags, mixed into the hash so the write and read planes
/// draw independent streams.
const SITE_WRITE: u64 = 0x6e66_5752; // "nfWR"
const SITE_READ: u64 = 0x6e66_5244; // "nfRD"

/// Fate of one outgoing frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Send the frame normally.
    None,
    /// Sleep this long, then send the frame whole.
    Delay(Duration),
    /// Send exactly `prefix` bytes of the frame, then kill the connection.
    Torn {
        /// Bytes of the frame (header + payload) that make it out.
        prefix: usize,
    },
    /// Kill the connection without sending anything.
    Disconnect,
}

/// Fate of one incoming frame read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadFault {
    /// Read normally.
    None,
    /// Sleep this long before reading.
    Stall(Duration),
}

/// Per-connection fault decision stream: a config plus the connection's id
/// and monotonically increasing frame counters. Cheap to construct, holds
/// no I/O resources.
#[derive(Debug, Clone)]
pub struct NetFaultState {
    config: NetFaultConfig,
    /// Connection id: accept order on the server, connect order (or an
    /// explicit client id) on the client.
    conn: u64,
    writes: u64,
    reads: u64,
}

/// Map a hash to a uniform draw in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl NetFaultState {
    /// Decision stream for connection `conn` under `config`.
    pub fn new(config: NetFaultConfig, conn: u64) -> NetFaultState {
        NetFaultState {
            config,
            conn,
            writes: 0,
            reads: 0,
        }
    }

    /// The config this stream draws from.
    pub fn config(&self) -> &NetFaultConfig {
        &self.config
    }

    fn roll(&self, site: u64, frame: u64, salt: u64) -> u64 {
        splitmix64(
            self.config
                .seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(splitmix64(site ^ self.conn.rotate_left(17)))
                .wrapping_add(frame.wrapping_mul(0x2545_f491_4f6c_dd1d))
                .wrapping_add(salt),
        )
    }

    /// Decide the fate of the next outgoing frame of `len` bytes and
    /// advance the write counter. Pure in `(seed, conn, frame index)`.
    pub fn on_write(&mut self, len: usize) -> WriteFault {
        let frame = self.writes;
        self.writes += 1;
        if !self.config.is_active() {
            return WriteFault::None;
        }
        let h = self.roll(SITE_WRITE, frame, 0);
        let mut p = unit(h);
        if p < self.config.p_torn_write {
            // A torn frame must be a *strict* prefix (possibly empty) so
            // the peer observes truncation, never a whole frame.
            let cut = self.roll(SITE_WRITE, frame, 1) as usize % len.max(1);
            return WriteFault::Torn { prefix: cut };
        }
        p -= self.config.p_torn_write;
        if p < self.config.p_disconnect {
            return WriteFault::Disconnect;
        }
        p -= self.config.p_disconnect;
        if p < self.config.p_delay_write {
            let nanos = self.roll(SITE_WRITE, frame, 2) % self.config.max_delay_nanos.max(1);
            return WriteFault::Delay(Duration::from_nanos(nanos));
        }
        WriteFault::None
    }

    /// Decide the fate of the next frame read and advance the read
    /// counter. Pure in `(seed, conn, frame index)`.
    pub fn on_read(&mut self) -> ReadFault {
        let frame = self.reads;
        self.reads += 1;
        if self.config.p_stall_read <= 0.0 {
            return ReadFault::None;
        }
        let h = self.roll(SITE_READ, frame, 0);
        if unit(h) < self.config.p_stall_read {
            let nanos = self.roll(SITE_READ, frame, 1) % self.config.max_delay_nanos.max(1);
            return ReadFault::Stall(Duration::from_nanos(nanos));
        }
        ReadFault::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaos() -> NetFaultConfig {
        NetFaultConfig {
            seed: 11,
            p_torn_write: 0.2,
            p_disconnect: 0.1,
            p_delay_write: 0.2,
            p_stall_read: 0.3,
            max_delay_nanos: 1_000,
        }
    }

    #[test]
    fn decisions_are_a_pure_function_of_seed_conn_and_frame() {
        let mut a = NetFaultState::new(chaos(), 3);
        let mut b = NetFaultState::new(chaos(), 3);
        for _ in 0..200 {
            assert_eq!(a.on_write(64), b.on_write(64));
            assert_eq!(a.on_read(), b.on_read());
        }
    }

    #[test]
    fn connections_draw_independent_streams() {
        let mut a = NetFaultState::new(chaos(), 1);
        let mut b = NetFaultState::new(chaos(), 2);
        let fates_a: Vec<_> = (0..100).map(|_| a.on_write(64)).collect();
        let fates_b: Vec<_> = (0..100).map(|_| b.on_write(64)).collect();
        assert_ne!(fates_a, fates_b);
    }

    #[test]
    fn inactive_config_never_fires() {
        let mut state = NetFaultState::new(NetFaultConfig::none(), 0);
        for _ in 0..500 {
            assert_eq!(state.on_write(64), WriteFault::None);
            assert_eq!(state.on_read(), ReadFault::None);
        }
        assert!(!NetFaultConfig::none().is_active());
        assert!(chaos().is_active());
    }

    #[test]
    fn fault_mix_roughly_tracks_probabilities() {
        let mut state = NetFaultState::new(chaos(), 7);
        let mut torn = 0usize;
        let mut disc = 0usize;
        let mut delay = 0usize;
        let n = 2_000;
        for _ in 0..n {
            match state.on_write(64) {
                WriteFault::Torn { prefix } => {
                    assert!(prefix < 64, "torn prefix must truncate the frame");
                    torn += 1;
                }
                WriteFault::Disconnect => disc += 1,
                WriteFault::Delay(d) => {
                    assert!(d.as_nanos() < 1_000);
                    delay += 1;
                }
                WriteFault::None => {}
            }
        }
        // Loose bounds: this is a determinism check, not a statistics exam.
        assert!((200..600).contains(&torn), "torn={torn}");
        assert!((80..350).contains(&disc), "disc={disc}");
        assert!((200..600).contains(&delay), "delay={delay}");
    }
}
