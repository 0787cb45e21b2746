//! Byte-for-byte pins of every text the `helios` binary prints about
//! its two durable sweep files, the cell journal and the columnar cell
//! store: the resume, quarantine and shard lines of `campaign run`, its
//! abort and drain errors, `campaign recover` on a torn file of either
//! kind, the refusal of a durable file as an `--out` view, and the
//! errors for a file that is neither. Each case compares the whole
//! stdout and stderr, not fragments. The binary runs in the case's own
//! directory, so the texts name files by relative paths.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::Ordering;

const SPEC_JSON: &str = r#"{
    "name": "durable-texts",
    "families": ["sipht"],
    "platforms": ["workstation"],
    "schedulers": ["heft"],
    "seeds": {"base": 11, "count": 4},
    "tasks": 20
}"#;

/// A fresh directory holding `spec.json`.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("helios-durable-texts-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("spec.json"), SPEC_JSON).unwrap();
    dir
}

/// Runs the binary in `dir` with `env` set: exit code, stdout, stderr.
fn helios(dir: &Path, env: &[(&str, &str)], args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_helios"))
        .current_dir(dir)
        .envs(env.iter().copied())
        .args(args)
        .output()
        .unwrap();
    (
        out.status.code(),
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap(),
    )
}

fn ok(stdout: &str) -> (Option<i32>, String, String) {
    (Some(0), stdout.to_owned(), String::new())
}

fn failed(code: i32, stderr: &str) -> (Option<i32>, String, String) {
    (Some(code), String::new(), stderr.to_owned())
}

const ABORT_AFTER_2: &[(&str, &str)] = &[("HELIOS_SWEEP_ABORT_AFTER", "2")];

#[test]
fn journal_run_texts_are_pinned() {
    let dir = fresh_dir("journal-run");
    let run = |env: &[(&str, &str)], extra: &[&str]| {
        let mut args = vec!["campaign", "run", "--spec", "spec.json", "--shard", "1/1"];
        args.extend_from_slice(extra);
        helios(&dir, env, &args)
    };

    assert_eq!(
        run(ABORT_AFTER_2, &["--journal", "s.journal"]),
        failed(
            1,
            "helios: aborted by HELIOS_SWEEP_ABORT_AFTER after 2 cells: 2 of 4 owned cells \
             durable in s.journal, 2 remaining; re-run with the same --journal to resume\n"
        )
    );
    assert_eq!(
        run(&[], &["--journal", "s.journal", "--out", "v.json"]),
        ok(
            "resumed s.journal: 2 completed cell(s) salvaged, 0 torn byte(s) dropped\n\
            shard 1/1 of \"durable-texts\": 4 of 4 cells journaled in s.journal\n\
            wrote v.json (view compiled from the journal)\n"
        )
    );

    // A torn append resumed directly: the tear is dropped on resume,
    // and a poison limit of one quarantines the cell it interrupted.
    assert_eq!(
        run(
            &[("HELIOS_JOURNAL_TORN_WRITE", "3")],
            &["--journal", "t.journal"]
        ),
        failed(
            1,
            "helios: invalid engine config: injected torn journal write: wrote 271 of 542 \
             record bytes to t.journal and aborted\n"
        )
    );
    assert_eq!(
        run(&[("HELIOS_POISON_LIMIT", "1")], &["--journal", "t.journal"]),
        ok(
            "resumed t.journal: 1 completed cell(s) salvaged, 271 torn byte(s) dropped\n\
            cell 1 quarantined as poisoned: it crashed the process repeatedly and is \
            reported with completed=false\n\
            shard 1/1 of \"durable-texts\": 4 of 4 cells journaled in t.journal\n"
        )
    );
}

#[test]
fn store_run_texts_are_pinned() {
    let dir = fresh_dir("store-run");
    let run = |env: &[(&str, &str)], extra: &[&str]| {
        let mut args = vec!["campaign", "run", "--spec", "spec.json", "--shard", "1/1"];
        args.extend_from_slice(extra);
        helios(&dir, env, &args)
    };

    assert_eq!(
        run(ABORT_AFTER_2, &["--store", "s.store"]),
        failed(
            1,
            "helios: aborted by HELIOS_SWEEP_ABORT_AFTER after 2 cells: 2 of 4 owned cells \
             durable in s.store, 2 remaining; re-run with the same --store to resume\n"
        )
    );
    // The journal's hooks are not read for a store, not even to refuse
    // a malformed value.
    assert_eq!(
        run(
            &[
                ("HELIOS_JOURNAL_CRASH_CELL", "x"),
                ("HELIOS_POISON_LIMIT", "x")
            ],
            &["--store", "s.store", "--out", "v.json"]
        ),
        ok(
            "resumed s.store: 2 completed row(s) salvaged, 0 torn byte(s) dropped\n\
            shard 1/1 of \"durable-texts\": 4 of 4 cells stored in s.store\n\
            wrote v.json (view compiled from the store)\n"
        )
    );

    assert_eq!(
        run(&[], &["--journal", "a.journal", "--store", "a.store"]),
        failed(
            2,
            "helios: usage error: --journal and --store are both durable result paths; \
             pick one\n"
        )
    );
    assert_eq!(
        run(
            &[("HELIOS_JOURNAL_CRASH_CELL", "x")],
            &["--journal", "a.journal"]
        ),
        failed(
            2,
            "helios: usage error: HELIOS_JOURNAL_CRASH_CELL must be a non-negative \
             integer, got \"x\"\n"
        )
    );
}

/// A drain request before any cell starts: the salvaged cells are all
/// that is durable. The drain flag belongs to the process, so this
/// case runs in-process and is the only in-process case here.
#[test]
fn drain_errors_are_pinned() {
    let dir = fresh_dir("drain");
    let at = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let spec = at("spec.json");
    for (flag, unit) in [("journal", "cell"), ("store", "row")] {
        let file = at(&format!("d.{flag}"));
        assert_eq!(
            helios(
                &dir,
                ABORT_AFTER_2,
                &[
                    "campaign",
                    "run",
                    "--spec",
                    "spec.json",
                    &format!("--{flag}"),
                    &file
                ]
            )
            .0,
            Some(1)
        );
        let argv: Vec<String> = [
            "campaign",
            "run",
            "--spec",
            &spec,
            &format!("--{flag}"),
            &file,
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let drain = helios_cli::drain::install();
        drain.store(true, Ordering::Relaxed);
        let mut stdout = Vec::new();
        let err = helios_cli::run(&argv, &mut stdout).unwrap_err();
        drain.store(false, Ordering::Relaxed);
        assert_eq!(
            String::from_utf8(stdout).unwrap(),
            format!("resumed {file}: 2 completed {unit}(s) salvaged, 0 torn byte(s) dropped\n")
        );
        assert!(
            matches!(err, helios_cli::CliError::Interrupted(_)),
            "{err:?}"
        );
        assert_eq!(
            err.to_string(),
            format!(
                "interrupted: drained on signal: 2 of 4 owned cells durable in {file}; \
                 re-run with the same --{flag} to resume"
            )
        );
    }
}

#[test]
fn recover_texts_are_pinned() {
    let dir = fresh_dir("recover");
    let setup = |env: &[(&str, &str)], flag: &str, file: &str| {
        helios(
            &dir,
            env,
            &["campaign", "run", "--spec", "spec.json", flag, file],
        )
        .0
    };

    assert_eq!(
        setup(
            &[("HELIOS_JOURNAL_TORN_WRITE", "3")],
            "--journal",
            "t.journal"
        ),
        Some(1)
    );
    assert_eq!(
        helios(
            &dir,
            &[],
            &["campaign", "recover", "t.journal", "--out", "tj.json"]
        ),
        ok(
            "journal t.journal: spec \"durable-texts\" (digest c0b597abba7ef624), shard 1/1, \
            4 total cells\n\
            salvaged 1 completed cell(s); truncated 271 torn byte(s)\n\
            cell 1: 1 attempt(s) without completion\n\
            wrote tj.json (view compiled from the journal)\n\
            resume with: helios campaign run --spec SPEC --journal t.journal\n"
        )
    );
    assert_eq!(
        helios(
            &dir,
            &[("HELIOS_POISON_LIMIT", "1")],
            &["campaign", "recover", "t.journal"]
        ),
        ok(
            "journal t.journal: spec \"durable-texts\" (digest c0b597abba7ef624), shard 1/1, \
            4 total cells\n\
            salvaged 1 completed cell(s); truncated 0 torn byte(s)\n\
            cell 1: 1 attempt(s) without completion — will be quarantined as poisoned \
            on resume\n\
            resume with: helios campaign run --spec SPEC --journal t.journal\n"
        )
    );

    // Two row groups (two cells each), the second torn ten bytes short.
    assert_eq!(setup(ABORT_AFTER_2, "--store", "t.store"), Some(1));
    assert_eq!(setup(&[], "--store", "t.store"), Some(0));
    let store = std::fs::read(dir.join("t.store")).unwrap();
    std::fs::write(dir.join("t.store"), &store[..store.len() - 10]).unwrap();
    assert_eq!(
        helios(
            &dir,
            &[],
            &["campaign", "recover", "t.store", "--out", "ts.json"]
        ),
        ok(
            "store t.store: spec \"durable-texts\" (digest c0b597abba7ef624), shard 1/1, \
            4 total cells\n\
            salvaged 2 completed row(s); truncated 356 torn byte(s)\n\
            wrote ts.json (view compiled from the store)\n\
            resume with: helios campaign run --spec SPEC --store t.store\n"
        )
    );
}

#[test]
fn durable_out_refusals_and_foreign_files_are_pinned() {
    let dir = fresh_dir("refusals");
    for flag in ["--journal", "--store"] {
        let file = format!("s.{}", &flag[2..]);
        let made = helios(
            &dir,
            &[],
            &["campaign", "run", "--spec", "spec.json", flag, &file],
        );
        assert_eq!(made.0, Some(0), "{}", made.2);
    }
    let view = |file: &str| {
        helios(
            &dir,
            &[],
            &["campaign", "run", "--spec", "spec.json", "--out", file],
        )
    };
    assert_eq!(
        view("s.journal"),
        failed(
            2,
            "helios: usage error: \"s.journal\" is a cell journal, not a JSON report; resume \
             it with --journal s.journal (and drop --out, or point --out elsewhere for the \
             view)\n"
        )
    );
    assert_eq!(
        view("s.store"),
        failed(
            2,
            "helios: usage error: \"s.store\" is a columnar cell store, not a JSON report; \
             resume it with --store s.store (and drop --out, or point --out elsewhere for \
             the view)\n"
        )
    );

    std::fs::write(dir.join("g.txt"), "garbage\n").unwrap();
    assert_eq!(
        helios(&dir, &[], &["campaign", "merge", "--in", "g.txt"]),
        failed(
            1,
            "helios: shard report \"g.txt\" is neither a store, a journal, nor a JSON \
             sweep/shard report: unexpected character `g` at byte 0\n"
        )
    );
    assert_eq!(
        helios(&dir, &[], &["query", "SELECT count(*)", "--in", "g.txt"]),
        failed(
            1,
            "helios: query input \"g.txt\" is neither a store, a journal, nor a JSON \
             sweep/shard report: unexpected character `g` at byte 0\n"
        )
    );
    assert_eq!(
        helios(&dir, &[], &["campaign", "recover", "g.txt"]),
        failed(
            1,
            "helios: campaign error: corrupt resume file \"g.txt\" at byte 0: neither a cell \
             store nor a cell journal, the only files recover repairs; a JSON report is a \
             view, so re-run the sweep to rewrite it\n"
        )
    );
}
