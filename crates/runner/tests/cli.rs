//! `dg-run` end to end: the repro command in a quarantine bundle carries
//! every flag that overrode the spec and the watchdog that cancelled the
//! job, so it re-runs the failed job on the same topology with the same
//! fault plan, bounded the same way.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn quarantine_repro_keeps_the_spec_overrides() {
    let dir = std::env::temp_dir().join(format!("dg_run_cli_repro_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/smoke.toml");
    let (leak, profile) = (dir.join("leak.json"), dir.join("profile.json"));
    let id = "smoke/docdist-s0+xz/dagguise";
    let out = Command::new(env!("CARGO_BIN_EXE_dg-run"))
        .arg(&spec)
        .args(["--quiet", "--jobs", "1"])
        .args(["--retries", "0", "--escalation", "2"])
        .args(["--only", id, "--stall-s", "0.2"])
        .args(["--shards", "4", "--fault-seed", "462", "--fault-rate", "1"])
        .arg("--leak")
        .arg(&leak)
        .arg("--profile")
        .arg(&profile)
        .arg("--retry-stalled")
        .arg("--out")
        .arg(dir.join("out.json"))
        // The stall hook holds the job's simulated clock until the
        // watchdog cancels it, so the job lands in quarantine.
        .env(dg_mon::env::MON_TEST_STALL, id)
        .output()
        .expect("dg-run starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(4),
        "a stall-dominated failure: {stderr}"
    );

    let bundle = dir.join("quarantine/smoke/smoke_docdist-s0_xz_dagguise.json");
    let doc = std::fs::read_to_string(&bundle).expect("quarantine bundle");
    let repro = format!(
        "dg-run {} --shards 4 --fault-seed 462 --fault-rate 1 --leak {} --profile {} \
         --retry-stalled --only '{id}' --retries 0 --escalation 2 --stall-s 0.2",
        spec.display(),
        leak.display(),
        profile.display(),
    );
    assert!(doc.contains(&repro), "repro should be `{repro}`: {doc}");
    assert!(
        doc.contains("\"shards\": 4"),
        "manifest records the topology: {doc}"
    );
    std::fs::remove_dir_all(&dir).expect("clean up");
}
