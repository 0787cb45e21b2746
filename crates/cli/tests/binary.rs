//! End-to-end tests of the compiled `helios` binary.

use std::process::Command;

fn helios() -> Command {
    Command::new(env!("CARGO_BIN_EXE_helios"))
}

#[test]
fn help_and_unknown_command() {
    let out = helios().arg("help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("generate"));

    let out = helios().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn no_args_is_usage_error() {
    let out = helios().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn full_pipeline_through_the_binary() {
    let dir = std::env::temp_dir().join("helios-bin-test");
    std::fs::create_dir_all(&dir).unwrap();
    let wf = dir.join("wf.json");

    let out = helios()
        .args([
            "generate",
            "--family",
            "cybershake",
            "--tasks",
            "60",
            "--seed",
            "9",
            "--out",
            wf.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = helios()
        .args([
            "schedule",
            "--workflow",
            wf.to_str().unwrap(),
            "--scheduler",
            "peft",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("peft on hpc_node"));

    let report = dir.join("report.json");
    let out = helios()
        .args([
            "run",
            "--workflow",
            wf.to_str().unwrap(),
            "--caching",
            "--report",
            report.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let json = std::fs::read_to_string(&report).unwrap();
    assert!(serde_json::from_str::<serde_json::Value>(&json).is_ok());
}

const SPEC_JSON: &str = r#"{
    "name": "bin-smoke",
    "families": ["sipht"],
    "platforms": ["workstation"],
    "schedulers": ["heft"],
    "seeds": {"base": 3, "count": 2},
    "tasks": 20
}"#;

#[test]
fn campaign_sharded_sweep_through_the_binary() {
    let dir = std::env::temp_dir().join("helios-bin-sweep");
    // Stale outputs from earlier runs would trigger resume semantics.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    std::fs::write(dir.join("spec.json"), SPEC_JSON).unwrap();

    let run = |args: &[&str]| {
        let out = helios().args(args).output().unwrap();
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out
    };

    run(&[
        "campaign",
        "run",
        "--spec",
        &path("spec.json"),
        "--out",
        &path("full.json"),
    ]);
    run(&[
        "campaign",
        "run",
        "--spec",
        &path("spec.json"),
        "--shard",
        "1/2",
        "--out",
        &path("s1.json"),
    ]);
    run(&[
        "campaign",
        "run",
        "--spec",
        &path("spec.json"),
        "--shard",
        "2/2",
        "--out",
        &path("s2.json"),
    ]);
    let out = run(&[
        "campaign",
        "merge",
        "--in",
        &path("s1.json"),
        "--in",
        &path("s2.json"),
        "--out",
        &path("merged.json"),
    ]);
    assert!(String::from_utf8_lossy(&out.stdout).contains("bin-smoke"));

    let full = std::fs::read(dir.join("full.json")).unwrap();
    let merged = std::fs::read(dir.join("merged.json")).unwrap();
    assert_eq!(full, merged, "shard merge must be byte-identical");
}

/// `campaign merge` reads what `query` reads: a complete sweep report
/// merges as shard 1/1 back to itself, and a file that is no result
/// file is refused naming every kind it could have been.
#[test]
fn merge_accepts_a_complete_sweep_report() {
    let dir = std::env::temp_dir().join("helios-bin-remerge");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    std::fs::write(dir.join("spec.json"), SPEC_JSON).unwrap();
    let out = helios()
        .args([
            "campaign",
            "run",
            "--spec",
            &path("spec.json"),
            "--out",
            &path("full.json"),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());

    let out = helios()
        .args([
            "campaign",
            "merge",
            "--in",
            &path("full.json"),
            "--out",
            &path("remerged.json"),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let full = std::fs::read(dir.join("full.json")).unwrap();
    let remerged = std::fs::read(dir.join("remerged.json")).unwrap();
    assert_eq!(full, remerged, "a sweep report merges back to itself");

    for cmd in [
        &["campaign", "merge"][..],
        &["query", "SELECT count(*)"][..],
    ] {
        let out = helios()
            .args(cmd)
            .args(["--in", &path("spec.json")])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{cmd:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("is neither a store, a journal, nor a JSON sweep/shard report"),
            "{cmd:?}: {err}"
        );
    }
}

#[test]
fn killed_sweep_resumes_byte_identically() {
    let dir = std::env::temp_dir().join("helios-bin-resume");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    std::fs::write(dir.join("spec.json"), SPEC_JSON).unwrap();

    // The uninterrupted reference run.
    let out = helios()
        .args([
            "campaign",
            "run",
            "--spec",
            &path("spec.json"),
            "--out",
            &path("full.json"),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());

    // Without a durable sink nothing could resume the cut run, so the
    // crash hook is refused up front, naming the sinks.
    let out = helios()
        .args([
            "campaign",
            "run",
            "--spec",
            &path("spec.json"),
            "--out",
            &path("resumed.json"),
        ])
        .env("HELIOS_SWEEP_ABORT_AFTER", "1")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "a usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--store") && stderr.contains("--journal"),
        "{stderr}"
    );
    assert!(!dir.join("resumed.json").exists(), "nothing was run");

    // "Crash" after one cell: one durable row, nonzero exit, no view.
    let out = helios()
        .args([
            "campaign",
            "run",
            "--spec",
            &path("spec.json"),
            "--store",
            &path("sweep.store"),
            "--out",
            &path("resumed.json"),
        ])
        .env("HELIOS_SWEEP_ABORT_AFTER", "1")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "an aborted sweep must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("HELIOS_SWEEP_ABORT_AFTER"), "{stderr}");
    assert!(stderr.contains("re-run with the same --store"), "{stderr}");
    assert!(!dir.join("resumed.json").exists(), "no view of a cut run");

    // Resume against the store: skips the done cell, completes, and
    // the view overwrites a foreign JSON file already at --out.
    std::fs::write(dir.join("resumed.json"), r#"{"not": "a report"}"#).unwrap();
    let out = helios()
        .args([
            "campaign",
            "run",
            "--spec",
            &path("spec.json"),
            "--store",
            &path("sweep.store"),
            "--out",
            &path("resumed.json"),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 completed row(s) salvaged"), "{stdout}");

    let full = std::fs::read(dir.join("full.json")).unwrap();
    let resumed = std::fs::read(dir.join("resumed.json")).unwrap();
    assert_eq!(
        full, resumed,
        "kill-and-resume must be byte-identical to the uninterrupted run"
    );

    // A foreign spec is refused by the store, not silently mixed in.
    std::fs::write(
        dir.join("other.json"),
        SPEC_JSON.replace(r#""tasks": 20"#, r#""tasks": 25"#),
    )
    .unwrap();
    let out = helios()
        .args([
            "campaign",
            "run",
            "--spec",
            &path("other.json"),
            "--store",
            &path("sweep.store"),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("refusing"), "{stderr}");

    // Without a sink, `--out` is a plain view: a re-run, even of another
    // spec, overwrites it.
    let out = helios()
        .args([
            "campaign",
            "run",
            "--spec",
            &path("other.json"),
            "--out",
            &path("resumed.json"),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let other = std::fs::read_to_string(dir.join("resumed.json")).unwrap();
    assert!(other.contains("\"summary\""), "a sweep report: {other}");
    assert_ne!(other.as_bytes(), full.as_slice(), "of the other spec");
}

/// `campaign recover` predicts quarantine with the threshold `campaign
/// run` applies, `HELIOS_POISON_LIMIT` included.
#[test]
fn recover_predicts_quarantine_under_the_poison_limit_override() {
    let dir = std::env::temp_dir().join("helios-bin-poison");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    std::fs::write(dir.join("spec.json"), SPEC_JSON).unwrap();

    // Crash right after journaling cell 0's attempt: one attempt, no
    // completion.
    let out = helios()
        .args([
            "campaign",
            "run",
            "--spec",
            &path("spec.json"),
            "--journal",
            &path("sweep.journal"),
        ])
        .env("HELIOS_JOURNAL_CRASH_CELL", "0")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "the injected crash must fail");

    let recover = |limit: Option<&str>| {
        let mut cmd = helios();
        cmd.args(["campaign", "recover", &path("sweep.journal")]);
        match limit {
            Some(limit) => cmd.env("HELIOS_POISON_LIMIT", limit),
            None => cmd.env_remove("HELIOS_POISON_LIMIT"),
        };
        cmd.output().unwrap()
    };
    let out = recover(Some("1"));
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(
            "cell 0: 1 attempt(s) without completion — will be quarantined as poisoned on resume"
        ),
        "{stdout}"
    );

    let out = recover(None);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("cell 0: 1 attempt(s) without completion\n"),
        "{stdout}"
    );
    assert!(!stdout.contains("quarantined"), "{stdout}");

    // A bad override is the usage error `campaign run` gives.
    let out = recover(Some("many"));
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("HELIOS_POISON_LIMIT must be a non-negative integer"),
        "{stderr}"
    );
}

#[test]
fn malformed_spec_file_is_a_hard_error() {
    let dir = std::env::temp_dir().join("helios-bin-badspec");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.json");
    std::fs::write(&bad, r#"{"name": "x", "families": "#).unwrap();

    let out = helios()
        .args(["campaign", "run", "--spec", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("malformed campaign spec"), "{stderr}");
}

#[test]
fn empty_sweep_grid_is_a_hard_error() {
    let dir = std::env::temp_dir().join("helios-bin-emptyspec");
    std::fs::create_dir_all(&dir).unwrap();
    let empty = dir.join("empty.json");
    std::fs::write(&empty, SPEC_JSON.replace(r#"["sipht"]"#, "[]")).unwrap();

    let out = helios()
        .args(["campaign", "run", "--spec", empty.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("`families` is empty") && stderr.contains("no cells"),
        "{stderr}"
    );
}

/// A fault-topology spec must die at validation with an error naming
/// the offending value and the legal alternatives — not deep inside a
/// shard run.
#[test]
fn fault_topology_spec_errors_are_actionable() {
    let dir = std::env::temp_dir().join("helios-bin-faultspec");
    std::fs::create_dir_all(&dir).unwrap();
    let resilience = r#", "resilience": {
        "mttf_secs": 0.5, "degraded_prob": 0.1,
        "policy": {"kind": "retry-backoff", "base_secs": 0.001,
                   "factor": 2.0, "cap_secs": 0.01}
    }"#;
    let with = |extra: &str| {
        let mut s = SPEC_JSON.trim_end().trim_end_matches('}').to_owned();
        s.push_str(extra);
        s.push('}');
        s
    };
    let cases: [(&str, String, &[&str]); 5] = [
        (
            "bad-distribution.json",
            with(&format!(
                r#"{resilience}, "interconnect_faults":
                    {{"distribution": "gamma", "mttf_secs": 1.0}}"#
            )),
            &["gamma", "exponential", "weibull"],
        ),
        (
            "links-without-resilience.json",
            with(r#", "interconnect_faults": {"distribution": "exponential", "mttf_secs": 1.0}"#),
            &["resilience"],
        ),
        (
            "unknown-device.json",
            with(&format!(
                r#"{resilience}, "failure_domains": [{{"kind": "rack", "name": "r0",
                    "devices": ["xpu9"], "mttf_secs": 1.0, "degraded_prob": 1.0}}]"#
            )),
            &["xpu9", "cpu0"],
        ),
        (
            "unknown-link.json",
            with(&format!(
                r#"{resilience}, "failure_domains": [{{"kind": "rack", "name": "r0",
                    "links": ["myrinet"], "mttf_secs": 1.0, "degraded_prob": 1.0}}]"#
            )),
            &["myrinet", "pcie3-x16"],
        ),
        (
            "zero-budget.json",
            with(r#", "cell_step_budget": 0"#),
            &["cell_step_budget"],
        ),
    ];
    for (file, json, needles) in cases {
        let path = dir.join(file);
        std::fs::write(&path, json).unwrap();
        let out = helios()
            .args(["campaign", "run", "--spec", path.to_str().unwrap()])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{file} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for needle in needles {
            assert!(stderr.contains(needle), "{file}: {needle} not in {stderr}");
        }
    }
}

/// `HELIOS_CELL_STEP_BUDGET` starves every cell from the environment
/// without editing the spec; cells come back timed out, not as errors.
#[test]
fn step_budget_env_override_times_cells_out() {
    let dir = std::env::temp_dir().join("helios-bin-budget");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("spec.json"), SPEC_JSON).unwrap();
    let out_path = dir.join("out.json");

    let out = helios()
        .args([
            "campaign",
            "run",
            "--spec",
            dir.join("spec.json").to_str().unwrap(),
            "--out",
            out_path.to_str().unwrap(),
        ])
        .env("HELIOS_CELL_STEP_BUDGET", "5")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&out_path).unwrap();
    assert!(json.contains("timed_out"), "{json}");

    let out = helios()
        .args([
            "campaign",
            "run",
            "--spec",
            dir.join("spec.json").to_str().unwrap(),
        ])
        .env("HELIOS_CELL_STEP_BUDGET", "many")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "garbage budget must be refused");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("HELIOS_CELL_STEP_BUDGET"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `HELIOS_CELL_STEP_BUDGET` is held to the same declared range as the
/// spec's `cell_step_budget`: zero is refused naming the variable. It is
/// read before anything is written, so a store-backed run leaves no
/// store file behind.
#[test]
fn zero_step_budget_env_is_refused_naming_the_variable() {
    let dir = std::env::temp_dir().join("helios-bin-budget-zero");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("spec.json");
    std::fs::write(&spec, SPEC_JSON).unwrap();
    let store = dir.join("refused.store");
    let _ = std::fs::remove_file(&store);
    let run = ["campaign", "run", "--spec", spec.to_str().unwrap()];
    let with_store = ["--store", store.to_str().unwrap()];
    for extra in [&[][..], &with_store[..]] {
        let out = helios()
            .args(run)
            .args(extra)
            .env("HELIOS_CELL_STEP_BUDGET", "0")
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "a zero budget must be refused");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("`HELIOS_CELL_STEP_BUDGET` must be >= 1, got 0"),
            "{extra:?}: {stderr}"
        );
        assert!(!store.exists(), "{extra:?}: the refused run wrote a store");
    }
}

#[test]
fn bad_workflow_file_is_reported() {
    let out = helios()
        .args(["analyze", "--workflow", "/nonexistent/wf.json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("io error"));
}

/// The member-based `helios campaign` prints each ensemble report; its
/// stdout is pinned for every arbitration policy. Two identical
/// CyberShake members arrive together (the second is the VIP) and a
/// Montage member arrives 5 ms later.
#[test]
fn campaign_member_output_is_pinned_per_policy() {
    let dir = std::env::temp_dir().join("helios-bin-members");
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("a.json");
    let b = dir.join("b.json");
    for (path, family, seed) in [(&a, "cybershake", "3"), (&b, "montage", "5")] {
        let out = helios()
            .args([
                "generate", "--family", family, "--tasks", "40", "--seed", seed,
            ])
            .args(["--out", path.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(out.status.success());
    }
    let pinned = [
        (
            "fifo",
            "campaign of 3 members on hpc_node (fifo): makespan 0.2161s, mean turnaround 0.2119s\n\
             \x20 member 0: started 0.0000s finished 0.2118s turnaround 0.2118s\n\
             \x20 member 1: started 0.0000s finished 0.2128s turnaround 0.2128s\n\
             \x20 member 2: started 0.0050s finished 0.2161s turnaround 0.2111s\n",
        ),
        (
            "priority",
            "campaign of 3 members on hpc_node (priority): makespan 0.2171s, mean turnaround 0.1602s\n\
             \x20 member 0: started 0.0000s finished 0.2171s turnaround 0.2171s\n\
             \x20 member 1: started 0.0000s finished 0.1339s turnaround 0.1339s\n\
             \x20 member 2: started 0.0050s finished 0.1345s turnaround 0.1295s\n",
        ),
        (
            "fair-share",
            "campaign of 3 members on hpc_node (fair-share): makespan 0.2202s, mean turnaround 0.2061s\n\
             \x20 member 0: started 0.0000s finished 0.2202s turnaround 0.2202s\n\
             \x20 member 1: started 0.0000s finished 0.2025s turnaround 0.2025s\n\
             \x20 member 2: started 0.0050s finished 0.2008s turnaround 0.1958s\n",
        ),
    ];
    let a = a.to_str().unwrap();
    for (policy, want) in pinned {
        let out = helios()
            .args(["campaign", "--member", a, "--member", &format!("{a}:0:10")])
            .args(["--member", &format!("{}:0.005:3", b.to_str().unwrap())])
            .args(["--policy", policy])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(String::from_utf8_lossy(&out.stdout), want, "{policy}");
    }
}
