//! `perf_throughput` refuses what it cannot parse before it benchmarks
//! anything: `--help` prints the usage and exits 0, an unknown flag prints
//! it and exits 2, and neither appends a run record.

use std::process::Command;

#[test]
fn help_and_unknown_flags_exit_without_appending_a_record() {
    let dir = std::env::temp_dir().join(format!("perf_throughput_cli_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = dir.join("BENCH_perf.json");
    for (flag, code, usage_on_stdout) in [("--help", 0, true), ("--bogus", 2, false)] {
        let run = Command::new(env!("CARGO_BIN_EXE_perf_throughput"))
            .arg("--out")
            .arg(&out)
            .arg(flag)
            .output()
            .expect("perf_throughput starts");
        let (stdout, stderr) = (
            String::from_utf8_lossy(&run.stdout),
            String::from_utf8_lossy(&run.stderr),
        );
        assert_eq!(run.status.code(), Some(code), "{flag}: {stderr}");
        let usage = if usage_on_stdout { &stdout } else { &stderr };
        assert!(usage.contains("usage: perf_throughput"), "{flag}: {usage}");
        assert!(!out.exists(), "{flag} appended a benchmark record");
    }
    std::fs::remove_dir_all(&dir).expect("clean up");
}
