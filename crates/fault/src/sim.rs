//! Simulation-layer faults: deterministic model-level failure modes.
//!
//! Each kind is paired with the supervision mechanism that must catch
//! it, so a chaos sweep is a live proof of the runner's defenses:
//!
//! | fault            | symptom                         | caught by            |
//! |------------------|---------------------------------|----------------------|
//! | [`StuckBank`]    | responses held for a window     | deadline → retry     |
//! | [`DropResponse`] | a core waits forever            | deadline → quarantine|
//! | [`FreezeClock`]  | simulated clock stops advancing | stall watchdog       |
//! | [`Panic`]        | worker thread panics            | panic isolation      |
//!
//! Faults are drawn per job id from a seed ([`draw_sim_fault`]), so
//! `--fault-seed 7` assigns the same faults to the same jobs on every
//! host — a failed chaos sweep reproduces from its quarantine bundle.
//!
//! [`StuckBank`]: SimFaultKind::StuckBank
//! [`DropResponse`]: SimFaultKind::DropResponse
//! [`FreezeClock`]: SimFaultKind::FreezeClock
//! [`Panic`]: SimFaultKind::Panic

use std::fmt;
use std::time::{Duration, Instant};

/// A model-level fault, injected into `System` runs at any shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimFaultKind {
    /// A memory bank wedges: every response completing in
    /// `[at, at + hold)` is held and delivered in arrival order at
    /// `at + hold`. Transient by nature — first-attempt-only draws model
    /// a glitch an escalated retry rides out.
    StuckBank {
        /// Cycle at which the bank wedges.
        at: u64,
        /// Cycles the bank stays wedged.
        hold: u64,
    },
    /// The `nth` (1-based) response bound for the primary domain is
    /// silently dropped, so the victim core waits forever and the run
    /// can only end by exhausting its cycle budget. Persistent: every
    /// attempt loses the same response.
    DropResponse {
        /// Which primary-domain response to drop (1-based).
        nth: u64,
    },
    /// The *simulated* clock freezes at cycle `at` while host time keeps
    /// passing — the livelock signature the stall watchdog exists to
    /// catch. Implemented at the supervision layer (the chunked run loop
    /// pins the clock and keeps heartbeating the frozen value).
    FreezeClock {
        /// Cycle at which the simulated clock pins.
        at: u64,
    },
    /// The worker thread panics deterministically at cycle `at`,
    /// exercising the runner's per-job panic isolation.
    Panic {
        /// Cycle at which the panic fires.
        at: u64,
    },
}

impl SimFaultKind {
    /// Whether this kind recurs on retries by default. Data-loss and
    /// crash faults are modeled as persistent (the "bad config point"
    /// shape that must end in quarantine); stalls and glitches are
    /// one-time (a fresh attempt genuinely recovers).
    pub fn default_every_attempt(self) -> bool {
        matches!(
            self,
            SimFaultKind::DropResponse { .. } | SimFaultKind::Panic { .. }
        )
    }
}

impl fmt::Display for SimFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SimFaultKind::StuckBank { at, hold } => write!(f, "stuck@{at}+{hold}"),
            SimFaultKind::DropResponse { nth } => write!(f, "drop@{nth}"),
            SimFaultKind::FreezeClock { at } => write!(f, "freeze@{at}"),
            SimFaultKind::Panic { at } => write!(f, "panic@{at}"),
        }
    }
}

/// A simulation fault with its retry scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimFault {
    /// What goes wrong.
    pub kind: SimFaultKind,
    /// Whether the fault re-fires on retry attempts (`false` =
    /// first-attempt-only, so a retry proves recovery).
    pub every_attempt: bool,
}

impl SimFault {
    /// Wraps a kind with its default retry scope
    /// (see [`SimFaultKind::default_every_attempt`]).
    pub fn new(kind: SimFaultKind) -> Self {
        Self {
            kind,
            every_attempt: kind.default_every_attempt(),
        }
    }

    /// Whether the fault fires on the given zero-based attempt.
    pub fn fires_on(&self, attempt: u32) -> bool {
        self.every_attempt || attempt == 0
    }

    /// Parses `stuck@AT+HOLD`, `drop@NTH`, `freeze@AT`, or `panic@AT`,
    /// with an optional trailing `!` forcing the fault onto every
    /// attempt.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed specs.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (body, forced) = match spec.strip_suffix('!') {
            Some(b) => (b, true),
            None => (spec, false),
        };
        let bad = || {
            format!(
                "bad sim fault `{spec}` (expected stuck@AT+HOLD, drop@NTH, freeze@AT, or panic@AT)"
            )
        };
        let (name, args) = body.split_once('@').ok_or_else(bad)?;
        let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
        let kind = match name {
            "stuck" => {
                let (at, hold) = args.split_once('+').ok_or_else(bad)?;
                SimFaultKind::StuckBank {
                    at: num(at)?,
                    hold: num(hold)?,
                }
            }
            "drop" => SimFaultKind::DropResponse { nth: num(args)? },
            "freeze" => SimFaultKind::FreezeClock { at: num(args)? },
            "panic" => SimFaultKind::Panic { at: num(args)? },
            _ => return Err(bad()),
        };
        let mut fault = Self::new(kind);
        if forced {
            fault.every_attempt = true;
        }
        Ok(fault)
    }
}

impl fmt::Display for SimFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)?;
        if self.every_attempt && !self.kind.default_every_attempt() {
            write!(f, "!")?;
        }
        Ok(())
    }
}

/// FNV-1a over bytes, finished with a SplitMix64 mix — the same recipe
/// the runner uses for job seeds, duplicated here so `dg-fault` stays
/// dependency-free.
fn mix_id(seed: u64, id: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed;
    for &b in id.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    splitmix(h)
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draws the fault (if any) a chaos plan assigns to `job_id`: a pure
/// function of `(seed, job_id, rate)`. `rate` is the probability in
/// `[0, 1]` that the job gets a fault at all; kinds are equally likely
/// among the assigned.
pub fn draw_sim_fault(seed: u64, job_id: &str, rate: f64) -> Option<SimFault> {
    let h = mix_id(seed, job_id);
    // 53 uniform mantissa bits -> [0, 1).
    let p = (h >> 11) as f64 / (1u64 << 53) as f64;
    if p >= rate.clamp(0.0, 1.0) {
        return None;
    }
    let r1 = splitmix(h ^ 0x6661_756c_742d_3031); // "fault-01"
    let r2 = splitmix(h ^ 0x6661_756c_742d_3032);
    // Activation cycles land early enough that smoke-scale runs reach
    // them, late enough that the system is warmed up.
    let at = 2_000 + r1 % 200_000;
    let kind = match h & 3 {
        0 => SimFaultKind::StuckBank {
            at,
            hold: 50_000 + r2 % 2_000_000,
        },
        1 => SimFaultKind::DropResponse { nth: 1 + r2 % 16 },
        2 => SimFaultKind::FreezeClock { at },
        _ => SimFaultKind::Panic { at },
    };
    Some(SimFault::new(kind))
}

/// Host-time escape hatch for an injected frozen clock: even with no
/// supervisor armed, the spin gives up after this long so a chaos sweep
/// cannot hang a host forever.
pub const FREEZE_CAP: Duration = Duration::from_secs(120);

/// Holds a frozen simulated clock: publishes `heartbeat` (which should
/// re-record the pinned cycle so a watchdog sees host time passing with
/// no simulated progress) and polls `cancelled` until a supervisor
/// intervenes or [`FREEZE_CAP`] expires. Returns the abort diagnosis.
pub fn hold_frozen_clock(
    at: u64,
    mut heartbeat: impl FnMut(),
    mut cancelled: impl FnMut() -> bool,
) -> String {
    let started = Instant::now();
    loop {
        heartbeat();
        if cancelled() {
            return format!("injected frozen clock at cycle {at}: supervisor cancelled");
        }
        if started.elapsed() > FREEZE_CAP {
            return format!(
                "injected frozen clock at cycle {at}: no supervisor intervened within {:.1}s",
                FREEZE_CAP.as_secs_f64()
            );
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draw_is_deterministic_and_rate_scaled() {
        let a = draw_sim_fault(7, "sweep/job-a", 1.0);
        assert_eq!(a, draw_sim_fault(7, "sweep/job-a", 1.0));
        assert!(a.is_some(), "rate 1.0 always assigns a fault");
        assert_eq!(draw_sim_fault(7, "sweep/job-a", 0.0), None);
        // Different seeds reassign.
        let ids: Vec<String> = (0..64).map(|i| format!("sweep/job-{i}")).collect();
        let with_a: Vec<_> = ids.iter().map(|i| draw_sim_fault(1, i, 0.5)).collect();
        let with_b: Vec<_> = ids.iter().map(|i| draw_sim_fault(2, i, 0.5)).collect();
        assert_ne!(with_a, with_b);
        // Rate 0.5 hits a middling fraction, not all or none.
        let hits = with_a.iter().filter(|f| f.is_some()).count();
        assert!((8..=56).contains(&hits), "rate 0.5 hit {hits}/64");
    }

    #[test]
    fn all_kinds_are_reachable() {
        let mut seen = [false; 4];
        for i in 0..256 {
            if let Some(f) = draw_sim_fault(3, &format!("k/{i}"), 1.0) {
                let idx = match f.kind {
                    SimFaultKind::StuckBank { .. } => 0,
                    SimFaultKind::DropResponse { .. } => 1,
                    SimFaultKind::FreezeClock { .. } => 2,
                    SimFaultKind::Panic { .. } => 3,
                };
                seen[idx] = true;
            }
        }
        assert_eq!(seen, [true; 4]);
    }

    #[test]
    fn retry_scope_defaults_match_fault_classes() {
        let stuck = SimFault::parse("stuck@100+50").unwrap();
        assert!(stuck.fires_on(0) && !stuck.fires_on(1), "glitches heal");
        let freeze = SimFault::parse("freeze@100").unwrap();
        assert!(!freeze.fires_on(1), "stalls heal on retry");
        let drop = SimFault::parse("drop@3").unwrap();
        assert!(drop.fires_on(0) && drop.fires_on(5), "data loss persists");
        let panic = SimFault::parse("panic@9").unwrap();
        assert!(panic.fires_on(2), "crashes persist");
        let forced = SimFault::parse("stuck@100+50!").unwrap();
        assert!(forced.fires_on(7), "`!` forces every attempt");
    }

    #[test]
    fn parse_and_display_round_trip() {
        for spec in [
            "stuck@100+50",
            "drop@3",
            "freeze@4096",
            "panic@77",
            "stuck@1+2!",
        ] {
            let f = SimFault::parse(spec).unwrap();
            assert_eq!(f.to_string(), spec);
        }
        assert!(SimFault::parse("melt@3").is_err());
        assert!(SimFault::parse("stuck@100").is_err());
        assert!(SimFault::parse("drop@x").is_err());
    }

    #[test]
    fn frozen_clock_spin_obeys_cancellation() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let beats = AtomicU32::new(0);
        let msg = hold_frozen_clock(
            42,
            || {
                beats.fetch_add(1, Ordering::Relaxed);
            },
            || beats.load(Ordering::Relaxed) >= 3,
        );
        assert!(msg.contains("frozen clock at cycle 42"), "{msg}");
        assert!(msg.contains("supervisor cancelled"), "{msg}");
        assert_eq!(beats.load(Ordering::Relaxed), 3);
    }
}
