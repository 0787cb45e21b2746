//! End-to-end crash tests of the compiled `helios` binary: SIGTERM
//! drain, torn-write injection + `campaign recover`, and the guard that
//! keeps a `--out` view from overwriting a durable file.

use std::process::Command;

fn helios() -> Command {
    Command::new(env!("CARGO_BIN_EXE_helios"))
}

const SPEC_JSON: &str = r#"{
    "name": "crash-cli",
    "families": ["sipht"],
    "platforms": ["workstation"],
    "schedulers": ["heft"],
    "seeds": {"base": 11, "count": 4},
    "tasks": 20
}"#;

fn fresh_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("helios-crashcli-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn sigterm_drains_to_a_resumable_journal() {
    let dir = fresh_dir("sigterm");
    let path = |n: &str| dir.join(n).to_str().unwrap().to_owned();
    // Enough cells that the run is still going ~0.3 s in (debug binary).
    std::fs::write(
        dir.join("spec.json"),
        SPEC_JSON.replace(r#""count": 4"#, r#""count": 2000"#),
    )
    .unwrap();

    let reference = helios()
        .args([
            "campaign",
            "run",
            "--spec",
            &path("spec.json"),
            "--out",
            &path("ref.json"),
        ])
        .output()
        .unwrap();
    assert!(
        reference.status.success(),
        "{}",
        String::from_utf8_lossy(&reference.stderr)
    );

    let child = helios()
        .args([
            "campaign",
            "run",
            "--spec",
            &path("spec.json"),
            "--journal",
            &path("sweep.journal"),
            "--out",
            &path("out.json"),
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(300));
    let _ = Command::new("sh")
        .args(["-c", &format!("kill -TERM {}", child.id())])
        .status();
    let out = child.wait_with_output().unwrap();

    match out.status.code() {
        // Drained: exit code 3, resumable message, journal intact.
        Some(3) => {
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains("re-run with the same --journal"),
                "{stderr}"
            );
            let resume = helios()
                .args([
                    "campaign",
                    "run",
                    "--spec",
                    &path("spec.json"),
                    "--journal",
                    &path("sweep.journal"),
                    "--out",
                    &path("out.json"),
                ])
                .output()
                .unwrap();
            assert!(
                resume.status.success(),
                "{}",
                String::from_utf8_lossy(&resume.stderr)
            );
        }
        // The run beat the signal: fine, it must simply have finished.
        Some(0) => {}
        other => panic!(
            "expected drain (3) or completion (0), got {other:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        ),
    }
    assert_eq!(
        std::fs::read_to_string(path("out.json")).unwrap(),
        std::fs::read_to_string(path("ref.json")).unwrap(),
        "drained-and-resumed bytes must equal the uninterrupted run"
    );
}

#[test]
fn torn_write_is_salvaged_by_recover_and_resumes_byte_identically() {
    let dir = fresh_dir("torn");
    let path = |n: &str| dir.join(n).to_str().unwrap().to_owned();
    std::fs::write(dir.join("spec.json"), SPEC_JSON).unwrap();

    let reference = helios()
        .args([
            "campaign",
            "run",
            "--spec",
            &path("spec.json"),
            "--out",
            &path("ref.json"),
        ])
        .output()
        .unwrap();
    assert!(reference.status.success());

    // Tear the 4th journal append halfway through its bytes.
    let torn = helios()
        .env("HELIOS_JOURNAL_TORN_WRITE", "3")
        .args([
            "campaign",
            "run",
            "--spec",
            &path("spec.json"),
            "--journal",
            &path("sweep.journal"),
        ])
        .output()
        .unwrap();
    assert_eq!(torn.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&torn.stderr);
    assert!(stderr.contains("injected torn journal write"), "{stderr}");

    let recover = helios()
        .args(["campaign", "recover", &path("sweep.journal")])
        .output()
        .unwrap();
    assert!(
        recover.status.success(),
        "{}",
        String::from_utf8_lossy(&recover.stderr)
    );
    let stdout = String::from_utf8_lossy(&recover.stdout);
    assert!(stdout.contains("torn byte(s)"), "{stdout}");
    assert!(stdout.contains("resume with"), "{stdout}");

    let resume = helios()
        .args([
            "campaign",
            "run",
            "--spec",
            &path("spec.json"),
            "--journal",
            &path("sweep.journal"),
            "--out",
            &path("out.json"),
        ])
        .output()
        .unwrap();
    assert!(
        resume.status.success(),
        "{}",
        String::from_utf8_lossy(&resume.stderr)
    );
    assert_eq!(
        std::fs::read_to_string(path("out.json")).unwrap(),
        std::fs::read_to_string(path("ref.json")).unwrap()
    );

    // The journal itself merges directly, producing the same bytes.
    let merge = helios()
        .args([
            "campaign",
            "merge",
            "--in",
            &path("sweep.journal"),
            "--out",
            &path("merged.json"),
        ])
        .output()
        .unwrap();
    assert!(
        merge.status.success(),
        "{}",
        String::from_utf8_lossy(&merge.stderr)
    );
    assert_eq!(
        std::fs::read_to_string(path("merged.json")).unwrap(),
        std::fs::read_to_string(path("ref.json")).unwrap()
    );
}

/// Handing a journal or a store to `--out` is guided, not punished: the
/// run is refused before it starts, the durable file keeps its bytes,
/// and the message names the flag that resumes it. `recover` repairs
/// only those two kinds; anything else is a typed corrupt-resume error.
#[test]
fn durable_files_handed_to_out_are_refused_and_only_they_recover() {
    let dir = fresh_dir("misuse");
    let path = |n: &str| dir.join(n).to_str().unwrap().to_owned();
    std::fs::write(dir.join("spec.json"), SPEC_JSON).unwrap();
    let run = |args: &[&str]| helios().args(args).output().unwrap();

    for flag in ["journal", "store"] {
        let file = path(&format!("sweep.{flag}"));
        let sink = run(&[
            "campaign",
            "run",
            "--spec",
            &path("spec.json"),
            &format!("--{flag}"),
            &file,
        ]);
        assert!(sink.status.success(), "--{flag}");
        let durable = std::fs::read(&file).unwrap();

        // As the only output, and as the view of another durable run.
        let other = path(&format!("other.{flag}"));
        for extra in [&[][..], &[format!("--{flag}"), other.clone()][..]] {
            let misuse = helios()
                .args(["campaign", "run", "--spec", &path("spec.json")])
                .args(extra)
                .args(["--out", &file])
                .output()
                .unwrap();
            assert_eq!(misuse.status.code(), Some(2), "--{flag} {extra:?}");
            let stderr = String::from_utf8_lossy(&misuse.stderr);
            assert!(
                stderr.contains(&format!("resume it with --{flag} {file}")),
                "{stderr}"
            );
            assert_eq!(std::fs::read(&file).unwrap(), durable, "--{flag} {extra:?}");
            assert!(!dir.join(&other).exists(), "refused before the run");
        }

        // The view pointed at the sink's own fresh file: the run fills
        // it, and the view is refused instead of overwriting it.
        let same = path(&format!("same.{flag}"));
        let sink_args = [format!("--{flag}"), same.clone()];
        let run_same = |view: &[&str]| {
            helios()
                .args(["campaign", "run", "--spec", &path("spec.json")])
                .args(&sink_args)
                .args(view)
                .output()
                .unwrap()
        };
        let clobber = run_same(&["--out", &same]);
        assert_eq!(clobber.status.code(), Some(2), "--{flag} X --out X");
        let resumed = run_same(&[]);
        assert!(
            resumed.status.success(),
            "--{flag} X still resumes: {}",
            String::from_utf8_lossy(&resumed.stderr)
        );
    }

    let report = run(&[
        "campaign",
        "run",
        "--spec",
        &path("spec.json"),
        "--out",
        &path("full.json"),
    ]);
    assert!(report.status.success());
    let refused = run(&["campaign", "recover", &path("full.json")]);
    assert_eq!(refused.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(stderr.contains("corrupt resume file"), "{stderr}");
    assert!(
        stderr.contains("cell store") && stderr.contains("cell journal"),
        "{stderr}"
    );
}
