//! The four environment variables the simulator reads; every other setting
//! is a command-line flag or a spec/config field. DESIGN.md
//! ("Configuration surface") tabulates them.
//!
//! One rule covers all four: unset or empty means the default, and a set
//! value that does not parse is an error naming the variable. Binaries
//! call [`check`] before any work and exit with a usage error; the readers
//! panic with the same message when a library caller skipped that check.
//! `DG_NO_SKIP` is read at every system construction, not cached, because
//! perfbench toggles it between runs.

use crate::log::Level;

/// `1` forces the naive per-cycle engine, `0` keeps the event engine.
const NO_SKIP: &str = "DG_NO_SKIP";
/// Positive cap on a sharded system's worker threads.
const SHARD_PARTIES: &str = "DG_SHARD_PARTIES";
/// Threshold of the leveled log facade.
const LOG: &str = "DG_LOG";
/// Job-id substring: the matching job holds its simulated clock until a
/// supervisor cancels it (the stall-watchdog smoke).
pub const MON_TEST_STALL: &str = "DG_MON_TEST_STALL";

/// The one parse rule: unset or empty is `None`, anything else must parse.
fn parse<T>(
    var: &str,
    expected: &str,
    raw: Option<&str>,
    f: impl FnOnce(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    match raw.filter(|v| !v.is_empty()) {
        None => Ok(None),
        Some(v) => f(v.trim())
            .map(Some)
            .ok_or_else(|| format!("{var} must be {expected}, got {v:?}")),
    }
}

/// `DG_NO_SKIP`: whether to force the naive per-cycle engine.
fn parse_no_skip(raw: Option<&str>) -> Result<bool, String> {
    let on = parse(NO_SKIP, "0 or 1", raw, |v| match v {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    })?;
    Ok(on.unwrap_or(false))
}

/// `DG_SHARD_PARTIES`: the worker-thread cap, `None` for no cap.
fn parse_shard_parties(raw: Option<&str>) -> Result<Option<usize>, String> {
    parse(SHARD_PARTIES, "a positive integer", raw, |v| {
        v.parse().ok().filter(|&n| n >= 1)
    })
}

/// `DG_LOG`: the log threshold, `info` by default.
fn parse_log(raw: Option<&str>) -> Result<Level, String> {
    let level = parse(LOG, "one of error, warn, info, debug", raw, Level::parse)?;
    Ok(level.unwrap_or(Level::Info))
}

/// `DG_MON_TEST_STALL`: the job-id substring to stall, `None` for none.
/// A blank value is rejected: trimmed, it would match every job.
fn parse_test_stall(raw: Option<&str>) -> Result<Option<String>, String> {
    parse(MON_TEST_STALL, "a non-blank job-id substring", raw, |v| {
        (!v.is_empty()).then(|| v.to_string())
    })
}

fn read<T>(var: &str, parse: fn(Option<&str>) -> Result<T, String>) -> Result<T, String> {
    parse(
        std::env::var_os(var)
            .map(|v| v.to_string_lossy().into_owned())
            .as_deref(),
    )
}

/// Validates all four variables; binaries call this before any work.
pub fn check() -> Result<(), String> {
    read(NO_SKIP, parse_no_skip)?;
    read(SHARD_PARTIES, parse_shard_parties)?;
    read(LOG, parse_log)?;
    read(MON_TEST_STALL, parse_test_stall)?;
    Ok(())
}

/// The current `DG_NO_SKIP`; panics when it does not parse.
pub fn no_skip() -> bool {
    read(NO_SKIP, parse_no_skip).unwrap_or_else(|e| panic!("{e}"))
}

/// The current `DG_SHARD_PARTIES`; panics when it does not parse.
pub fn shard_parties() -> Option<usize> {
    read(SHARD_PARTIES, parse_shard_parties).unwrap_or_else(|e| panic!("{e}"))
}

/// The current `DG_LOG`; panics when it does not parse.
pub fn log_level() -> Level {
    read(LOG, parse_log).unwrap_or_else(|e| panic!("{e}"))
}

/// The current `DG_MON_TEST_STALL`; panics when it does not parse.
pub fn test_stall() -> Option<String> {
    read(MON_TEST_STALL, parse_test_stall).unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_skip_is_a_zero_or_one_switch() {
        for (raw, on) in [(None, false), (Some(""), false), (Some("0"), false)] {
            assert_eq!(parse_no_skip(raw), Ok(on), "{raw:?}");
        }
        assert_eq!(parse_no_skip(Some("1")), Ok(true));
        assert_eq!(parse_no_skip(Some(" 1 ")), Ok(true));
        for bad in ["true", "2", "yes"] {
            let want = format!("DG_NO_SKIP must be 0 or 1, got {bad:?}");
            assert_eq!(parse_no_skip(Some(bad)), Err(want));
        }
    }

    #[test]
    fn shard_parties_is_an_optional_positive_count() {
        assert_eq!(parse_shard_parties(None), Ok(None));
        assert_eq!(parse_shard_parties(Some("")), Ok(None));
        assert_eq!(parse_shard_parties(Some("1")), Ok(Some(1)));
        assert_eq!(parse_shard_parties(Some(" 3 ")), Ok(Some(3)));
        for bad in ["0", "-1", "two", "1.5"] {
            let want = format!("DG_SHARD_PARTIES must be a positive integer, got {bad:?}");
            assert_eq!(parse_shard_parties(Some(bad)), Err(want));
        }
    }

    #[test]
    fn log_accepts_the_four_levels() {
        assert_eq!(parse_log(None), Ok(Level::Info));
        assert_eq!(parse_log(Some("")), Ok(Level::Info));
        for (raw, level) in [
            ("error", Level::Error),
            ("warn", Level::Warn),
            ("warning", Level::Warn),
            ("INFO", Level::Info),
            (" debug ", Level::Debug),
        ] {
            assert_eq!(parse_log(Some(raw)), Ok(level), "{raw}");
        }
        let want = "DG_LOG must be one of error, warn, info, debug, got \"verbose\"";
        assert_eq!(parse_log(Some("verbose")), Err(want.to_string()));
    }

    #[test]
    fn test_stall_takes_a_non_blank_pattern() {
        assert_eq!(parse_test_stall(None), Ok(None));
        assert_eq!(parse_test_stall(Some("")), Ok(None));
        let id = "+xz/dagguise";
        assert_eq!(parse_test_stall(Some(id)), Ok(Some(id.to_string())));
        let want = "DG_MON_TEST_STALL must be a non-blank job-id substring, got \"  \"";
        assert_eq!(parse_test_stall(Some("  ")), Err(want.to_string()));
    }
}
