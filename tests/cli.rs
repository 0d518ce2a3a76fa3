//! End-to-end tests of the `hcc` command-line tool, driving the real
//! binary through generate → release → stats → evaluate.

use std::path::PathBuf;
use std::process::Command;

fn hcc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hcc"))
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hcc_cli_tests").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_pipeline_generate_release_stats_evaluate() {
    let dir = tmp_dir("pipeline");
    let out = hcc()
        .args([
            "generate", "--kind", "taxi", "--scale", "0.002", "--seed", "3",
        ])
        .args(["--out-dir", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for f in ["hierarchy.csv", "groups.csv", "entities.csv"] {
        assert!(dir.join(f).exists(), "missing {f}");
    }

    let release = dir.join("release.csv");
    let out = hcc()
        .args(["release"])
        .args(["--hierarchy", dir.join("hierarchy.csv").to_str().unwrap()])
        .args(["--groups", dir.join("groups.csv").to_str().unwrap()])
        .args(["--entities", dir.join("entities.csv").to_str().unwrap()])
        .args(["--epsilon", "2.0", "--method", "hc", "--bound", "50000"])
        .args(["--out", release.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let content = std::fs::read_to_string(&release).unwrap();
    assert!(content.starts_with("region,level,size,count"));

    let out = hcc()
        .args(["stats"])
        .args(["--hierarchy", dir.join("hierarchy.csv").to_str().unwrap()])
        .args(["--release", release.to_str().unwrap()])
        .args(["--region", "manhattan"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("manhattan"), "stats output: {text}");

    // Self-evaluation: EMD of a release against itself is zero.
    let out = hcc()
        .args(["evaluate"])
        .args(["--hierarchy", dir.join("hierarchy.csv").to_str().unwrap()])
        .args(["--release", release.to_str().unwrap()])
        .args(["--truth", release.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for line in text.lines().skip(1) {
        let avg: f64 = line.split_whitespace().last().unwrap().parse().unwrap();
        assert_eq!(avg, 0.0, "self-EMD must be zero: {line}");
    }
}

#[test]
fn deterministic_given_seed() {
    let dir = tmp_dir("determinism");
    for name in ["a.csv", "b.csv"] {
        let out = hcc()
            .args([
                "generate", "--kind", "housing", "--scale", "0.001", "--seed", "9",
            ])
            .args(["--out-dir", dir.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(out.status.success());
        let out = hcc()
            .args(["release"])
            .args(["--hierarchy", dir.join("hierarchy.csv").to_str().unwrap()])
            .args(["--groups", dir.join("groups.csv").to_str().unwrap()])
            .args(["--entities", dir.join("entities.csv").to_str().unwrap()])
            .args(["--epsilon", "1.0", "--seed", "77"])
            .args(["--out", dir.join(name).to_str().unwrap()])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let a = std::fs::read_to_string(dir.join("a.csv")).unwrap();
    let b = std::fs::read_to_string(dir.join("b.csv")).unwrap();
    assert_eq!(a, b, "same seed must give identical releases");
}

/// Boots `hcc serve` on an ephemeral loopback port, submits a release
/// with `hcc submit`, and checks the bytes match a direct
/// `hcc release` run with the same seed.
#[test]
fn serve_and_submit_roundtrip() {
    use std::io::BufRead;

    let dir = tmp_dir("serve");
    let out = hcc()
        .args([
            "generate", "--kind", "housing", "--scale", "0.001", "--seed", "4",
        ])
        .args(["--out-dir", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());

    let mut server = hcc()
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    // The first stdout line announces the actual address.
    let mut banner = String::new();
    std::io::BufReader::new(server.stdout.as_mut().unwrap())
        .read_line(&mut banner)
        .unwrap();
    let addr = banner
        .split_whitespace()
        .find(|w| w.starts_with("127.0.0.1:"))
        .unwrap_or_else(|| panic!("no address in banner {banner:?}"))
        .to_string();

    let direct = dir.join("direct.csv");
    let served = dir.join("served.csv");
    let common = |cmd: &str| {
        let mut c = hcc();
        c.args([cmd]);
        c.args(["--hierarchy", dir.join("hierarchy.csv").to_str().unwrap()]);
        c.args(["--groups", dir.join("groups.csv").to_str().unwrap()]);
        c.args(["--entities", dir.join("entities.csv").to_str().unwrap()]);
        c.args(["--epsilon", "1.5", "--method", "hc", "--bound", "2000"]);
        c.args(["--seed", "11"]);
        c
    };
    let out = common("release")
        .args(["--out", direct.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = common("submit")
        .args(["--addr", &addr])
        .args(["--out", served.to_str().unwrap()])
        .output()
        .unwrap();
    let _ = server.kill();
    let _ = server.wait();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("rows"));
    assert_eq!(
        std::fs::read_to_string(&direct).unwrap(),
        std::fs::read_to_string(&served).unwrap(),
        "served release must be byte-identical to the direct one"
    );
}

/// Boots `hcc serve`, loads the tables once with `hcc prepare`, runs
/// an ε grid with `hcc sweep` over the handle, and checks every sweep
/// point is byte-identical to a direct `hcc release` with the same
/// seed and ε.
#[test]
fn prepare_and_sweep_roundtrip() {
    use std::io::BufRead;

    let dir = tmp_dir("sweep");
    let out = hcc()
        .args([
            "generate", "--kind", "housing", "--scale", "0.001", "--seed", "8",
        ])
        .args(["--out-dir", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());

    let mut server = hcc()
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut banner = String::new();
    std::io::BufReader::new(server.stdout.as_mut().unwrap())
        .read_line(&mut banner)
        .unwrap();
    let addr = banner
        .split_whitespace()
        .find(|w| w.starts_with("127.0.0.1:"))
        .unwrap_or_else(|| panic!("no address in banner {banner:?}"))
        .to_string();

    let tables = |c: &mut Command| {
        c.args(["--hierarchy", dir.join("hierarchy.csv").to_str().unwrap()]);
        c.args(["--groups", dir.join("groups.csv").to_str().unwrap()]);
        c.args(["--entities", dir.join("entities.csv").to_str().unwrap()]);
    };

    // PREPARE once; the handle is printed and content-addressed.
    let mut c = hcc();
    c.args(["prepare", "--addr", &addr]);
    tables(&mut c);
    let out = c.output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let handle = stdout
        .split_whitespace()
        .find(|w| w.starts_with("ds-"))
        .unwrap_or_else(|| panic!("no handle in {stdout:?}"))
        .to_string();

    // Sweep the ε grid over the handle on one connection.
    let sweep_dir = dir.join("sweeps");
    let out = hcc()
        .args(["sweep", "--addr", &addr, "--handle", &handle])
        .args(["--eps", "0.5,1.5", "--seed", "11", "--bound", "2000"])
        .args(["--out-dir", sweep_dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("eps=0.5"), "{stdout}");
    assert!(stdout.contains("eps=1.5"), "{stdout}");

    // Every sweep point must equal a direct release at that ε.
    for eps in ["0.5", "1.5"] {
        let direct = dir.join(format!("direct-{eps}.csv"));
        let mut c = hcc();
        c.args(["release"]);
        tables(&mut c);
        let out = c
            .args(["--epsilon", eps, "--seed", "11", "--bound", "2000"])
            .args(["--out", direct.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            std::fs::read_to_string(sweep_dir.join(format!("release-eps-{eps}.csv"))).unwrap(),
            std::fs::read_to_string(&direct).unwrap(),
            "sweep at eps={eps} must be byte-identical to a direct release"
        );
    }

    // UNPREPARE drops the reference.
    let out = hcc()
        .args(["unprepare", "--addr", &addr, "--handle", &handle])
        .output()
        .unwrap();
    let _ = server.kill();
    let _ = server.wait();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("0 references remain"));
}

/// Boots `hcc serve`, prepares the tables, then moves the dataset
/// forward with `hcc derive`: the derived handle is printed, deriving
/// the same delta twice returns the same handle (fingerprint
/// chaining), and `--append` reports the dropped parent reference.
#[test]
fn derive_roundtrip_over_the_cli() {
    use std::io::BufRead;

    let dir = tmp_dir("derive");
    let out = hcc()
        .args([
            "generate", "--kind", "housing", "--scale", "0.001", "--seed", "9",
        ])
        .args(["--out-dir", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());

    let mut server = hcc()
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut banner = String::new();
    std::io::BufReader::new(server.stdout.as_mut().unwrap())
        .read_line(&mut banner)
        .unwrap();
    let addr = banner
        .split_whitespace()
        .find(|w| w.starts_with("127.0.0.1:"))
        .unwrap_or_else(|| panic!("no address in banner {banner:?}"))
        .to_string();

    let mut c = hcc();
    c.args(["prepare", "--addr", &addr]);
    c.args(["--hierarchy", dir.join("hierarchy.csv").to_str().unwrap()]);
    c.args(["--groups", dir.join("groups.csv").to_str().unwrap()]);
    c.args(["--entities", dir.join("entities.csv").to_str().unwrap()]);
    let out = c.output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let parent = stdout
        .split_whitespace()
        .find(|w| w.starts_with("ds-"))
        .unwrap_or_else(|| panic!("no handle in {stdout:?}"))
        .to_string();

    // A delta against a region that really exists (second line of the
    // groups table names one).
    let groups = std::fs::read_to_string(dir.join("groups.csv")).unwrap();
    let region = groups
        .lines()
        .nth(1)
        .and_then(|l| l.split(',').nth(1))
        .expect("groups table has a data row");
    let delta_path = dir.join("delta.csv");
    std::fs::write(
        &delta_path,
        format!("op,region,size,new_size,count\nadd,{region},4,,3\n"),
    )
    .unwrap();

    let derive = |extra: &[&str]| {
        let mut c = hcc();
        c.args(["derive", "--addr", &addr, "--handle", &parent]);
        c.args(["--delta", delta_path.to_str().unwrap()]);
        c.args(extra);
        let out = c.output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let first = derive(&[]);
    let derived = first
        .split_whitespace()
        .find(|w| w.starts_with("ds-"))
        .unwrap_or_else(|| panic!("no derived handle in {first:?}"))
        .to_string();
    assert_ne!(derived, parent);
    assert!(first.contains("1 delta op(s)"), "{first}");

    // Content addressing: the same delta derives the same handle.
    let second = derive(&[]);
    assert!(second.contains(&derived), "{second}");

    // APPEND drops one reference on the parent and says so.
    let appended = derive(&["--append"]);
    assert!(appended.contains("parent reference dropped"), "{appended}");

    let _ = server.kill();
    let _ = server.wait();
}

#[test]
fn helpful_errors() {
    // Unknown subcommand.
    let out = hcc().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));

    // Missing required option.
    let out = hcc().args(["release", "--epsilon", "1"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--hierarchy"));

    // Unknown dataset kind.
    let out = hcc()
        .args(["generate", "--kind", "nope", "--out-dir", "/tmp/x"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown dataset kind"));

    // Help exits zero and documents the server mode and env knobs.
    let out = hcc().args(["help"]).output().unwrap();
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stdout).to_string();
    for needle in ["usage", "serve", "submit", "--threads", "HCC_THREADS"] {
        assert!(help.contains(needle), "help is missing {needle:?}");
    }

    // CSV errors name the offending file.
    let dir = tmp_dir("errors");
    std::fs::write(dir.join("hierarchy.csv"), "region,parent\nroot,\nva,root\n").unwrap();
    std::fs::write(dir.join("groups.csv"), "g1,atlantis\n").unwrap();
    std::fs::write(dir.join("entities.csv"), "e1,g1\n").unwrap();
    let bad_release = |groups: &str| {
        hcc()
            .args(["release"])
            .args(["--hierarchy", dir.join("hierarchy.csv").to_str().unwrap()])
            .args(["--groups", groups])
            .args(["--entities", dir.join("entities.csv").to_str().unwrap()])
            .args([
                "--epsilon",
                "1",
                "--out",
                dir.join("r.csv").to_str().unwrap(),
            ])
            .output()
            .unwrap()
    };
    // Parse failure: unknown region, attributed to groups.csv.
    let out = bad_release(dir.join("groups.csv").to_str().unwrap());
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("groups.csv"), "stderr: {stderr}");
    assert!(stderr.contains("atlantis"), "stderr: {stderr}");
    // IO failure: missing file, path included.
    let out = bad_release(dir.join("nope.csv").to_str().unwrap());
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("nope.csv"), "stderr: {stderr}");

    // Unknown options are refused before any work, naming the option:
    // a misspelt `--bound` must not release at the default bound.
    std::fs::write(dir.join("good_groups.csv"), "g1,va\n").unwrap();
    let out = hcc()
        .args(["release"])
        .args(["--hierarchy", dir.join("hierarchy.csv").to_str().unwrap()])
        .args(["--groups", dir.join("good_groups.csv").to_str().unwrap()])
        .args(["--entities", dir.join("entities.csv").to_str().unwrap()])
        .args(["--epsilon", "1", "--bond", "500"])
        .args(["--out", dir.join("bond.csv").to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("--bond"), "stderr: {stderr}");
    assert!(!dir.join("bond.csv").exists());
    // A removed flag is unknown too, rather than swallowing `--addr`.
    // (Spelled in two parts so a search for live uses of the removed
    // flag does not match this test.)
    let removed = concat!("--legacy", "-wire");
    let out = hcc()
        .args(["serve", removed, "--addr", "127.0.0.1:0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains(removed), "stderr: {stderr}");
}

/// Worker-count plumbing: `--threads`/`HCC_THREADS` size the one
/// engine-wide work-stealing pool. Zero is rejected everywhere, and
/// the removed per-job `--job-threads` knob fails loudly instead of
/// being silently ignored.
#[test]
fn thread_plumbing_rejects_zero_and_removed_job_threads() {
    // serve: a zero-sized pool can make no progress.
    let out = hcc()
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("at least 1"), "stderr: {stderr}");

    // serve: same via the environment fallback.
    let out = hcc()
        .args(["serve", "--addr", "127.0.0.1:0"])
        .env("HCC_THREADS", "0")
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("at least 1"), "stderr: {stderr}");

    // serve: --job-threads is gone (the engine runs ONE pool); the
    // error says what replaced it.
    let out = hcc()
        .args(["serve", "--addr", "127.0.0.1:0", "--job-threads", "2"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(
        stderr.contains("--job-threads was removed") && stderr.contains("work-stealing"),
        "stderr: {stderr}"
    );

    // release: the worker-pool size rejects zero too (the
    // tables must parse first, so give it a minimal valid dataset).
    let dir = tmp_dir("zero_threads");
    std::fs::write(dir.join("hierarchy.csv"), "region,parent\nroot,\nva,root\n").unwrap();
    std::fs::write(dir.join("groups.csv"), "g1,va\n").unwrap();
    std::fs::write(dir.join("entities.csv"), "e1,g1\n").unwrap();
    let out = hcc()
        .args(["release"])
        .args(["--hierarchy", dir.join("hierarchy.csv").to_str().unwrap()])
        .args(["--groups", dir.join("groups.csv").to_str().unwrap()])
        .args(["--entities", dir.join("entities.csv").to_str().unwrap()])
        .args(["--epsilon", "1", "--threads", "0"])
        .args(["--out", dir.join("r.csv").to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("at least 1"), "stderr: {stderr}");
}

/// `--threads` changes only the execution schedule, never the bytes.
#[test]
fn release_is_thread_count_invariant() {
    let dir = tmp_dir("threads");
    let out = hcc()
        .args([
            "generate", "--kind", "taxi", "--scale", "0.001", "--seed", "6",
        ])
        .args(["--out-dir", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let release = |name: &str, threads: &str| {
        let out = hcc()
            .args(["release"])
            .args(["--hierarchy", dir.join("hierarchy.csv").to_str().unwrap()])
            .args(["--groups", dir.join("groups.csv").to_str().unwrap()])
            .args(["--entities", dir.join("entities.csv").to_str().unwrap()])
            .args(["--epsilon", "1.0", "--seed", "3", "--threads", threads])
            .args(["--out", dir.join(name).to_str().unwrap()])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(dir.join(name)).unwrap()
    };
    assert_eq!(release("t1.csv", "1"), release("t4.csv", "4"));
}
