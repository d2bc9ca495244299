//! Monitor configuration: dashboard, events stream, watchdog knobs.

use std::path::PathBuf;
use std::time::Duration;

/// How a sweep should be monitored. The zero value (all off) is the
/// default so existing callers pay nothing.
#[derive(Debug, Clone, Default)]
pub struct MonitorConfig {
    /// Render the in-terminal dashboard (`dg-run --live`).
    pub live: bool,
    /// Stream snapshots as append-only JSONL (`dg-run --events PATH`).
    pub events: Option<PathBuf>,
    /// Cancel a running job whose simulated clock has not advanced within
    /// this host-time budget (`--stall-s`).
    pub stall_timeout: Option<Duration>,
    /// Snapshot/watchdog sampling period; `None` means "use
    /// [`MonitorConfig::interval`]'s default".
    pub interval: Option<Duration>,
}

impl MonitorConfig {
    /// Whether any monitoring machinery needs to run at all.
    pub fn enabled(&self) -> bool {
        self.live || self.events.is_some() || self.stall_timeout.is_some()
    }

    /// The effective sampling period (default 500 ms, clamped down to the
    /// stall budget so the watchdog can actually fire within it).
    pub fn interval(&self) -> Duration {
        let base = self.interval.unwrap_or(Duration::from_millis(500));
        match self.stall_timeout {
            Some(stall) if stall < base => stall.max(Duration::from_millis(10)),
            _ => base.max(Duration::from_millis(10)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled() {
        let cfg = MonitorConfig::default();
        assert!(!cfg.enabled());
        assert_eq!(cfg.interval(), Duration::from_millis(500));
    }

    #[test]
    fn any_feature_enables() {
        let cfg = MonitorConfig {
            live: true,
            ..Default::default()
        };
        assert!(cfg.enabled());
        let cfg = MonitorConfig {
            events: Some("e.jsonl".into()),
            ..Default::default()
        };
        assert!(cfg.enabled());
        let cfg = MonitorConfig {
            stall_timeout: Some(Duration::from_secs(1)),
            ..Default::default()
        };
        assert!(cfg.enabled());
    }

    #[test]
    fn interval_clamps_to_stall_budget() {
        let cfg = MonitorConfig {
            stall_timeout: Some(Duration::from_millis(100)),
            ..Default::default()
        };
        assert_eq!(cfg.interval(), Duration::from_millis(100));
        let cfg = MonitorConfig {
            stall_timeout: Some(Duration::from_millis(1)),
            ..Default::default()
        };
        assert_eq!(cfg.interval(), Duration::from_millis(10));
        let cfg = MonitorConfig {
            interval: Some(Duration::from_millis(50)),
            ..Default::default()
        };
        assert_eq!(cfg.interval(), Duration::from_millis(50));
    }
}
