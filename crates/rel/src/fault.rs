//! Deterministic fault injection for the storage and executor layers.
//!
//! A [`FaultPlane`] turns a [`FaultConfig`] into reproducible fault
//! decisions: every decision is a pure function of `(seed, token)`, hashed
//! through a splitmix64 finalizer, so a run with the same seed and the same
//! sequence of gated operations injects exactly the same faults —
//! independent of thread count or wall-clock time. This is what lets the
//! fault-schedule matrices judge a faulted statement against an oracle.
//!
//! Storage gates draw tokens from a serial counter. The morsel-driven
//! executor keeps the counter sequence deterministic by gating each storage
//! access exactly once, *before* fanning morsels out to workers, and by
//! keeping per-probe-gated operators (index nested loop joins) serial — so
//! the gate order is a function of the plan, never of worker interleaving.
//! Page-budget charges alone would commute (the sum is order-independent),
//! but the probabilistic fault roll consumes one token per gate, and its
//! sequence must match the serial execution's.

use crate::error::{RelError, RelResult};
use std::sync::atomic::{AtomicU64, Ordering};

/// Site tag mixed into storage-fault hashes.
pub const SITE_STORAGE: u64 = 0x7374_6f72; // "stor"

/// Knobs for deterministic fault injection. The default value is inert
/// (no faults, no budget).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed for all fault decisions. Two planes with equal configs make
    /// identical decisions for identical token sequences.
    pub seed: u64,
    /// Probability that a gated page read fails with [`RelError::Fault`].
    pub p_storage: f64,
    /// Optional budget of heap pages the executor may read before storage
    /// gates start failing with [`RelError::ResourceExhausted`].
    pub budget_pages: Option<u64>,
    /// Arm checksum verification without any injected faults or budget.
    /// The executor verifies structure checksums whenever a plane is
    /// attached; this flag makes an otherwise-inert config active, which is
    /// how the scrubber and heal harness detect seeded corruption while
    /// keeping fault-plane charges comparable to an uncorrupted oracle.
    pub verify_checksums: bool,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            p_storage: 0.0,
            budget_pages: None,
            verify_checksums: false,
        }
    }
}

impl FaultConfig {
    /// Whether this config can ever inject a fault, exhaust a budget, or
    /// detect corruption.
    pub fn is_active(&self) -> bool {
        self.p_storage > 0.0 || self.budget_pages.is_some() || self.verify_checksums
    }
}

/// Counters describing what a [`FaultPlane`] has injected so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Storage gates that failed (probabilistic faults, not budget).
    pub storage_faults: u64,
    /// Storage gates that failed because the page budget ran out.
    pub budget_denials: u64,
    /// Heap pages charged against the budget so far.
    pub pages_charged: u64,
}

/// A live fault injector built from a [`FaultConfig`]. Cheap to share by
/// reference; all state is atomic.
#[derive(Debug)]
pub struct FaultPlane {
    config: FaultConfig,
    serial: AtomicU64,
    pages_charged: AtomicU64,
    storage_faults: AtomicU64,
    budget_denials: AtomicU64,
    verifications: AtomicU64,
}

/// A full snapshot of a plane's mutable counters, for charge-neutral retry
/// loops: save before an attempt, restore if the attempt is abandoned, and
/// the plane behaves as if the attempt never ran — same budget charges,
/// same token sequence, same fault decisions on the retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaneState {
    serial: u64,
    pages_charged: u64,
    storage_faults: u64,
    budget_denials: u64,
    verifications: u64,
}

/// What a simulated crash does to the frame being written when a
/// [`CrashPoint`] fires. All three model a process dying mid-append; they
/// differ in how much of the in-flight frame reaches the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashKind {
    /// The frame is not written at all: the log ends cleanly at the last
    /// completed frame.
    Clean,
    /// A seeded strict prefix of the frame is written: recovery must
    /// recognize and discard the torn tail.
    TornTail,
    /// The whole frame is written with one seeded bit flipped: recovery
    /// must reject the frame on its CRC and stop there.
    BitFlip,
}

impl std::fmt::Display for CrashKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrashKind::Clean => write!(f, "clean"),
            CrashKind::TornTail => write!(f, "torn-tail"),
            CrashKind::BitFlip => write!(f, "bit-flip"),
        }
    }
}

impl std::str::FromStr for CrashKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "clean" => Ok(CrashKind::Clean),
            "torn" | "torn-tail" | "torntail" => Ok(CrashKind::TornTail),
            "bitflip" | "bit-flip" => Ok(CrashKind::BitFlip),
            other => Err(format!(
                "unknown crash kind '{other}'; known: clean torn-tail bit-flip"
            )),
        }
    }
}

/// A deterministic crash point for the WAL writer: after `after_writes`
/// further successful frame appends, the next append "crashes the process"
/// — it damages (or drops) the in-flight frame per `kind`, marks the writer
/// dead, and fails with [`RelError::Crashed`]. The seed drives the torn
/// prefix length / flipped bit position, so a given `(after_writes, kind,
/// seed)` always produces byte-identical damage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Successful frame appends allowed before the crash fires.
    pub after_writes: u64,
    /// What happens to the frame in flight at the crash.
    pub kind: CrashKind,
    /// Seed for the damage geometry (prefix length, bit position).
    pub seed: u64,
}

/// splitmix64 finalizer: a cheap, well-mixed 64-bit permutation.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Map `(seed, token)` to a uniform float in `[0, 1)`.
fn unit_roll(seed: u64, token: u64) -> f64 {
    let h = splitmix64(splitmix64(seed ^ SITE_STORAGE) ^ token);
    // Top 53 bits give a uniform double in [0, 1).
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultPlane {
    /// Build a plane from a config.
    pub fn new(config: FaultConfig) -> Self {
        FaultPlane {
            config,
            serial: AtomicU64::new(0),
            pages_charged: AtomicU64::new(0),
            storage_faults: AtomicU64::new(0),
            budget_denials: AtomicU64::new(0),
            verifications: AtomicU64::new(0),
        }
    }

    /// The config this plane was built from.
    pub fn config(&self) -> FaultConfig {
        self.config
    }

    /// Gate a storage access that reads `pages` heap pages from `table`.
    /// Charges the page budget first (budget exhaustion is not probabilistic),
    /// then rolls for an injected page-read fault on the next serial token.
    pub fn storage_gate(&self, table: &str, pages: u64) -> RelResult<()> {
        let charged = self.pages_charged.fetch_add(pages, Ordering::Relaxed) + pages;
        if let Some(budget) = self.config.budget_pages {
            if charged > budget {
                self.budget_denials.fetch_add(1, Ordering::Relaxed);
                return Err(RelError::ResourceExhausted(format!(
                    "page budget exhausted: {charged} pages read, budget {budget} \
                     (reading '{table}')"
                )));
            }
        }
        if self.config.p_storage > 0.0 {
            let token = self.serial.fetch_add(1, Ordering::Relaxed);
            if unit_roll(self.config.seed, token) < self.config.p_storage {
                self.storage_faults.fetch_add(1, Ordering::Relaxed);
                return Err(RelError::Fault(format!(
                    "injected page-read fault on '{table}' (token {token})"
                )));
            }
        }
        Ok(())
    }

    /// Snapshot the injection counters.
    pub fn snapshot(&self) -> FaultStats {
        FaultStats {
            storage_faults: self.storage_faults.load(Ordering::Relaxed),
            budget_denials: self.budget_denials.load(Ordering::Relaxed),
            pages_charged: self.pages_charged.load(Ordering::Relaxed),
        }
    }

    /// Record one checksum verification performed under this plane. The
    /// executor's per-statement ledger guarantees each structure is counted
    /// at most once per statement; tests assert on the total.
    pub fn record_verification(&self) {
        self.verifications.fetch_add(1, Ordering::Relaxed);
    }

    /// Checksum verifications recorded so far.
    pub fn verifications(&self) -> u64 {
        self.verifications.load(Ordering::Relaxed)
    }

    /// Save every mutable counter, including the serial token counter.
    pub fn save(&self) -> PlaneState {
        PlaneState {
            serial: self.serial.load(Ordering::Relaxed),
            pages_charged: self.pages_charged.load(Ordering::Relaxed),
            storage_faults: self.storage_faults.load(Ordering::Relaxed),
            budget_denials: self.budget_denials.load(Ordering::Relaxed),
            verifications: self.verifications.load(Ordering::Relaxed),
        }
    }

    /// Restore a previously saved counter state, making everything gated
    /// since the [`FaultPlane::save`] charge-free and token-free. Only
    /// valid while no other thread is concurrently gating — the healing
    /// retry loop runs on the serial statement path.
    pub fn restore(&self, state: PlaneState) {
        self.serial.store(state.serial, Ordering::Relaxed);
        self.pages_charged
            .store(state.pages_charged, Ordering::Relaxed);
        self.storage_faults
            .store(state.storage_faults, Ordering::Relaxed);
        self.budget_denials
            .store(state.budget_denials, Ordering::Relaxed);
        self.verifications
            .store(state.verifications, Ordering::Relaxed);
    }
}

/// Deterministic bounded-exponential backoff with seeded jitter, in
/// nanoseconds. The healing retry loop *records* these delays (the engine
/// models I/O costs rather than sleeping, so the schedule is part of the
/// deterministic heal report, not wall-clock behavior). Attempt `n` draws
/// from the half-open window `[2^n·BASE/2, 2^n·BASE)`, capped at
/// [`BACKOFF_CAP_NANOS`].
pub fn backoff_nanos(seed: u64, attempt: u32) -> u64 {
    const BASE: u64 = 1_000_000; // 1 ms
    let window = (BASE << attempt.min(6)).min(BACKOFF_CAP_NANOS);
    let half = (window / 2).max(1);
    let jitter = splitmix64(seed ^ SITE_BACKOFF ^ u64::from(attempt)) % half;
    window - half + jitter
}

/// Upper bound on one backoff window (64 ms).
pub const BACKOFF_CAP_NANOS: u64 = 64_000_000;

/// Site tag mixed into backoff jitter hashes.
pub const SITE_BACKOFF: u64 = 0x6261_636b; // "back"

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_inert() {
        let config = FaultConfig::default();
        assert!(!config.is_active());
        let plane = FaultPlane::new(config);
        for _ in 0..1000 {
            assert!(plane.storage_gate("t", 3).is_ok());
        }
        assert_eq!(plane.snapshot().storage_faults, 0);
    }

    #[test]
    fn rolls_are_deterministic_per_seed() {
        let config = FaultConfig {
            seed: 42,
            p_storage: 0.3,
            ..FaultConfig::default()
        };
        let a = FaultPlane::new(config);
        let b = FaultPlane::new(config);
        for _ in 0..500 {
            assert_eq!(
                a.storage_gate("t", 1).is_ok(),
                b.storage_gate("t", 1).is_ok()
            );
        }
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn seeds_diverge() {
        let mk = |seed| {
            let plane = FaultPlane::new(FaultConfig {
                seed,
                p_storage: 0.5,
                ..FaultConfig::default()
            });
            (0..64)
                .map(|_| plane.storage_gate("t", 1).is_ok())
                .collect::<Vec<_>>()
        };
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn fault_rate_tracks_probability() {
        let plane = FaultPlane::new(FaultConfig {
            seed: 7,
            p_storage: 0.25,
            ..FaultConfig::default()
        });
        let n = 10_000u64;
        let faults = (0..n)
            .filter(|_| plane.storage_gate("t", 1).is_err())
            .count() as f64;
        let rate = faults / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "observed rate {rate}");
    }

    #[test]
    fn budget_exhausts_deterministically() {
        let plane = FaultPlane::new(FaultConfig {
            seed: 0,
            budget_pages: Some(10),
            ..FaultConfig::default()
        });
        assert!(plane.storage_gate("t", 6).is_ok());
        assert!(plane.storage_gate("t", 4).is_ok());
        let err = plane.storage_gate("t", 1).unwrap_err();
        assert!(matches!(err, RelError::ResourceExhausted(_)));
        assert!(!err.is_transient());
        assert_eq!(plane.snapshot().budget_denials, 1);
        assert_eq!(plane.snapshot().pages_charged, 11);
    }

    #[test]
    fn verify_checksums_arms_an_otherwise_inert_config() {
        let config = FaultConfig {
            verify_checksums: true,
            ..FaultConfig::default()
        };
        assert!(config.is_active());
        // Nothing ever faults or exhausts under it.
        let plane = FaultPlane::new(config);
        for _ in 0..100 {
            assert!(plane.storage_gate("t", 5).is_ok());
        }
        assert_eq!(plane.snapshot().storage_faults, 0);
    }

    #[test]
    fn save_restore_makes_attempts_charge_and_token_neutral() {
        let plane = FaultPlane::new(FaultConfig {
            seed: 5,
            p_storage: 0.2,
            budget_pages: Some(1_000_000),
            ..FaultConfig::default()
        });
        // Burn some state first so restore targets a non-zero baseline.
        for _ in 0..10 {
            let _ = plane.storage_gate("t", 2);
        }
        let saved = plane.save();
        let reference: Vec<bool> = (0..50)
            .map(|_| plane.storage_gate("t", 3).is_ok())
            .collect();
        let after_first = plane.snapshot();
        plane.restore(saved);
        assert_eq!(plane.save(), saved);
        // The retry sees the identical token sequence, rolls, and charges.
        let retry: Vec<bool> = (0..50)
            .map(|_| plane.storage_gate("t", 3).is_ok())
            .collect();
        assert_eq!(reference, retry);
        assert_eq!(plane.snapshot(), after_first);
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        for attempt in 0..10u32 {
            let a = backoff_nanos(42, attempt);
            assert_eq!(a, backoff_nanos(42, attempt), "deterministic");
            assert!(a > 0 && a < BACKOFF_CAP_NANOS);
        }
        // Windows grow with attempts until the cap: attempt 6 draws from a
        // strictly higher window than attempt 0.
        assert!(backoff_nanos(1, 6) > backoff_nanos(1, 0));
        // Seeds jitter within the window.
        assert_ne!(backoff_nanos(1, 3), backoff_nanos(2, 3));
    }

    #[test]
    fn injected_faults_are_transient() {
        let plane = FaultPlane::new(FaultConfig {
            seed: 9,
            p_storage: 1.0,
            ..FaultConfig::default()
        });
        let err = plane.storage_gate("t", 1).unwrap_err();
        assert!(err.is_transient());
    }
}
