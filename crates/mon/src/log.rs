//! Leveled structured logging with a shared stderr gate.
//!
//! The facade exists for two reasons: the harnesses' diagnostics were ~22
//! ad-hoc `eprintln!` sites with no level control, and the `--live`
//! dashboard repaints a multi-line stderr region that a concurrently
//! printed diagnostic would shear through. Both now go through one global
//! gate: a log line first wipes the live region (the next dashboard tick
//! repaints it below the log line), so output never interleaves.
//!
//! Levels are filtered by the `DG_LOG` environment variable
//! (`error|warn|info|debug`, default `info`, see [`crate::env`]), read once
//! per process. Every line has the shape
//!
//! ```text
//! [warn] retrying after budget exhaustion job=smoke/a/insecure attempt=2
//! ```
//!
//! — a human message followed by a machine-parseable `key=value` tail.
//! Values containing whitespace, `=`, or quotes are double-quoted.

use std::fmt;
use std::io::Write;
use std::sync::{Mutex, OnceLock};

/// Log severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Failures the run cannot paper over (always printed).
    Error,
    /// Anomalies the run recovered from (partial journal tails, stalls).
    Warn,
    /// Run lifecycle (default threshold).
    Info,
    /// Per-decision detail for debugging the harness itself.
    Debug,
}

impl Level {
    fn label(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    pub(crate) fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }
}

/// The process-wide threshold: `DG_LOG`, default `info`.
fn threshold() -> Level {
    static THRESHOLD: OnceLock<Level> = OnceLock::new();
    *THRESHOLD.get_or_init(crate::env::log_level)
}

/// Whether a message at `level` would be printed.
pub fn enabled(level: Level) -> bool {
    level <= threshold()
}

/// The live region currently painted at the bottom of stderr (0 lines when
/// no dashboard is active). Guarded by one global mutex that doubles as
/// the stderr gate: log lines and dashboard repaints serialize on it.
struct Region {
    lines: usize,
}

fn region() -> &'static Mutex<Region> {
    static REGION: Mutex<Region> = Mutex::new(Region { lines: 0 });
    &REGION
}

fn lock_region() -> std::sync::MutexGuard<'static, Region> {
    region().lock().unwrap_or_else(|e| e.into_inner())
}

/// Moves the cursor up over the painted region and erases it.
fn erase(err: &mut impl Write, lines: usize) {
    if lines > 0 {
        // Cursor up N, then clear to end of screen.
        let _ = write!(err, "\x1b[{lines}A\x1b[0J");
    }
}

/// Quotes a `key=value` tail value when it would not survive
/// whitespace-splitting.
fn push_kv_value(line: &mut String, v: &str) {
    if !v.is_empty() && !v.contains(|c: char| c.is_whitespace() || c == '=' || c == '"') {
        line.push_str(v);
    } else {
        line.push('"');
        for c in v.chars() {
            if c == '"' || c == '\\' {
                line.push('\\');
            }
            line.push(c);
        }
        line.push('"');
    }
}

/// Formats and prints one log line under the stderr gate. Callers go
/// through the [`log_error!`](crate::log_error)/…/
/// [`log_debug!`](crate::log_debug) macros, which also apply the level
/// filter before arguments are formatted.
pub fn log_kv(level: Level, msg: fmt::Arguments<'_>, kv: &[(&str, &dyn fmt::Display)]) {
    if !enabled(level) {
        return;
    }
    let mut line = format!("[{}] {}", level.label(), msg);
    for (k, v) in kv {
        line.push(' ');
        line.push_str(k);
        line.push('=');
        push_kv_value(&mut line, &v.to_string());
    }
    let guard = lock_region();
    let mut err = std::io::stderr().lock();
    erase(&mut err, guard.lines);
    let _ = writeln!(err, "{line}");
    drop(err);
    // The region was wiped; the next dashboard tick repaints it.
    drop_region_lines(guard);
}

fn drop_region_lines(mut guard: std::sync::MutexGuard<'_, Region>) {
    guard.lines = 0;
}

/// Repaints the live region with `lines`, erasing the previous paint.
/// With `ansi` off nothing persistent is drawn, so the caller is expected
/// to print plain fallback lines through the logger instead.
pub(crate) fn paint_live(lines: &[String], ansi: bool) {
    let mut guard = lock_region();
    let mut err = std::io::stderr().lock();
    if ansi {
        erase(&mut err, guard.lines);
        for l in lines {
            let _ = writeln!(err, "{l}");
        }
        guard.lines = lines.len();
    }
    let _ = err.flush();
}

/// Erases the live region (end of a `--live` run).
pub(crate) fn clear_live() {
    let mut guard = lock_region();
    let mut err = std::io::stderr().lock();
    erase(&mut err, guard.lines);
    guard.lines = 0;
    let _ = err.flush();
}

/// Logs at [`Level::Error`]. Optional structured tail after a semicolon:
/// `log_error!("writing {} failed", path; "stage" => "journal")`.
#[macro_export]
macro_rules! log_error {
    ($($t:tt)+) => { $crate::log_at!($crate::log::Level::Error, $($t)+) };
}

/// Logs at [`Level::Warn`] (see [`log_error!`](crate::log_error) for the syntax).
#[macro_export]
macro_rules! log_warn {
    ($($t:tt)+) => { $crate::log_at!($crate::log::Level::Warn, $($t)+) };
}

/// Logs at [`Level::Info`] (see [`log_error!`](crate::log_error) for the syntax).
#[macro_export]
macro_rules! log_info {
    ($($t:tt)+) => { $crate::log_at!($crate::log::Level::Info, $($t)+) };
}

/// Logs at [`Level::Debug`] (see [`log_error!`](crate::log_error) for the syntax).
#[macro_export]
macro_rules! log_debug {
    ($($t:tt)+) => { $crate::log_at!($crate::log::Level::Debug, $($t)+) };
}

/// Shared expansion of the level macros: message format args, then an
/// optional `; "key" => value, …` structured tail.
#[macro_export]
macro_rules! log_at {
    ($lvl:expr, $fmt:literal $(, $arg:expr)* ; $($k:literal => $v:expr),+ $(,)?) => {
        if $crate::log::enabled($lvl) {
            $crate::log::log_kv(
                $lvl,
                format_args!($fmt $(, $arg)*),
                &[$(($k, &($v) as &dyn ::std::fmt::Display)),+],
            );
        }
    };
    ($lvl:expr, $($t:tt)+) => {
        if $crate::log::enabled($lvl) {
            $crate::log::log_kv($lvl, format_args!($($t)+), &[]);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_parse() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse(" debug "), Some(Level::Debug));
        assert_eq!(Level::parse("verbose"), None);
    }

    #[test]
    fn kv_values_quote_only_when_needed() {
        let mut line = String::new();
        push_kv_value(&mut line, "plain/value-1");
        assert_eq!(line, "plain/value-1");
        let mut line = String::new();
        push_kv_value(&mut line, "two words");
        assert_eq!(line, "\"two words\"");
        let mut line = String::new();
        push_kv_value(&mut line, "a\"b");
        assert_eq!(line, "\"a\\\"b\"");
        let mut line = String::new();
        push_kv_value(&mut line, "");
        assert_eq!(line, "\"\"");
    }

    #[test]
    fn macros_expand_with_and_without_tails() {
        // Smoke: both arms compile and run (error level is always enabled).
        crate::log_error!("unit test message {}", 1);
        crate::log_error!("unit test message {}", 2; "job" => "a/b", "attempt" => 1 + 1);
        crate::log_debug!("filtered unless DG_LOG=debug");
    }
}
