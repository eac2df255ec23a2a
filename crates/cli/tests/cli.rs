//! End-to-end tests of the `psc` binary: generate → search → verify.

use std::path::PathBuf;
use std::process::Command;

fn psc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_psc"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("psc-cli-test-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn no_args_prints_usage() {
    let out = psc().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("psc"));
}

#[test]
fn unknown_command_fails() {
    let out = psc().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn removed_overlap_flag_is_rejected() {
    let out = psc()
        .args(["search", "--proteins", "p.fa", "--genome", "g.fa"])
        .args(["--overlap", "on"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --overlap"), "{err}");
}

#[test]
fn removed_split_kernel_is_rejected() {
    // The byte-lane filter subsumed the `split` kernel; asking for it by
    // name is a usage error that lists what is left.
    for cmd in [
        ["search", "--proteins", "p.fa", "--genome", "g.fa"].as_slice(),
        ["serve", "--index", "g.psc"].as_slice(),
    ] {
        let out = psc()
            .args(cmd)
            .args(["--step2-kernel", "split"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("bad --step2-kernel value \"split\" (auto|scalar|profile|simd|wide)"),
            "{err}"
        );
    }
}

/// A flag value no run could honour is a usage error at startup: exit
/// 2, one line naming the flag (so no panic backtrace), no output.
fn assert_usage_error(args: &[&str], message: &str) {
    let out = psc().args(args).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(err.trim_end(), format!("error: {message}"), "{args:?}");
    assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
}

/// A board flag `RascBoard::new` would assert on.
fn assert_board_flag_rejected(cmd: &[&str], flag: [&str; 2], message: &str) {
    assert_usage_error(&[cmd, &["--backend", "rasc"], &flag].concat(), message);
}

#[test]
fn search_rejects_an_fpga_count_the_board_does_not_have() {
    let search = ["search", "--proteins", "p.fa", "--genome", "g.fa"];
    for n in ["0", "3"] {
        let message = format!("--fpgas must be 1 or 2 (got {n})");
        assert_board_flag_rejected(&search, ["--fpgas", n], &message);
    }
}

#[test]
fn search_rejects_a_pe_array_that_is_empty_or_does_not_fit() {
    let search = ["search", "--proteins", "p.fa", "--genome", "g.fa"];
    assert_board_flag_rejected(&search, ["--pes", "0"], "--pes must be at least 1");
    assert_board_flag_rejected(
        &search,
        ["--pes", "100000"],
        "--pes 100000: operator does not fit the FPGA: \
         design needs 19086300 slices, LX200 has 89088",
    );
}

/// `--threads 0` reached the pipeline as zero workers, and every
/// consumer had to clamp it on its own; `--step3-threads 0` was
/// silently run as one.
#[test]
fn threads_must_be_at_least_one() {
    let search = ["search", "--proteins", "p.fa", "--genome", "g.fa"];
    let serve = ["serve", "--index", "g.psc"];
    for cmd in [
        search.as_slice(),
        serve.as_slice(),
        ["index", "--genome", "g.fa", "-o", "never-written.psc"].as_slice(),
    ] {
        assert_usage_error(
            &[cmd, &["--threads", "0"]].concat(),
            "--threads must be at least 1",
        );
    }
    assert!(!std::path::Path::new("never-written.psc").exists());
    for cmd in [search.as_slice(), serve.as_slice()] {
        assert_usage_error(
            &[cmd, &["--step3-threads", "0"]].concat(),
            "--step3-threads must be at least 1",
        );
    }
}

/// The simulated board no longer models faults: each of its five fault
/// flags is an unknown flag to `search` and `serve` alike.
#[test]
fn removed_fault_flags_are_usage_errors() {
    for cmd in [
        ["search", "--proteins", "p.fa", "--genome", "g.fa"].as_slice(),
        ["serve", "--index", "g.psc"].as_slice(),
    ] {
        for flag in [
            ["--fault-seed", "7"],
            ["--fault-rate", "1000"],
            ["--fault-plan", "0:pe-flip:2"],
            ["--fault-retries", "3"],
            ["--fault-degrade", "off"],
        ] {
            let out = psc()
                .args(cmd)
                .args(["--backend", "rasc"])
                .args(flag)
                .output()
                .unwrap();
            assert_eq!(out.status.code(), Some(2), "{cmd:?} {flag:?}: {out:?}");
            assert!(out.stdout.is_empty(), "{cmd:?} {flag:?}: {out:?}");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.contains(&format!("unknown flag {}", flag[0])), "{err}");
        }
    }
}

/// The multi-board fleet is gone: its flags and the `#BOARD` pin of a
/// fault-plan item (now an unknown flag with the rest of the fault
/// model) are usage errors, not silently ignored.
#[test]
fn removed_fleet_flags_are_usage_errors() {
    let search = [
        "search",
        "--proteins",
        "p.fa",
        "--genome",
        "g.fa",
        "--backend",
        "rasc",
    ];
    for flag in [
        ["--boards", "2"],
        ["--steal-policy", "richest"],
        ["--quarantine-after", "1"],
        ["--fault-tail", "heavy"],
    ] {
        let out = psc().args(search).args(flag).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{flag:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown flag {}", flag[0])), "{err}");
    }
    for item in ["3:fifo-stall:9#1", "0:pe-flip#1", "2:adr-fault:2@1#1"] {
        let out = psc()
            .args(search)
            .args(["--fault-plan", item])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{item}: {out:?}");
        assert!(out.stdout.is_empty(), "{item}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown flag --fault-plan"), "{err}");
    }
}

/// `resources` divided by `--slot 0` and printed a fit for an array
/// of no PEs or no window.
#[test]
fn resources_rejects_an_array_that_cannot_exist() {
    for flag in ["--pes", "--window", "--slot"] {
        let message = format!("{flag} must be at least 1");
        assert_usage_error(&["resources", flag, "0"], &message);
    }
}

/// `generate-bank` panicked drawing a length from an empty range.
#[test]
fn generate_bank_rejects_an_empty_length_range() {
    let args = ["generate-bank", "--count", "3", "-o", "never-written.fa"];
    let range = ["--min-len", "50", "--max-len", "10"];
    assert_usage_error(
        &[&args[..], &range].concat(),
        "--min-len 50 exceeds --max-len 10",
    );
    assert!(!std::path::Path::new("never-written.fa").exists());
}

/// `--evalue nan` (or `-1`) ran the whole search and printed an empty
/// table with exit 0; `psc serve` refuses it before `listening on`.
#[test]
fn evalue_must_be_positive_and_finite() {
    for cmd in [
        ["search", "--proteins", "p.fa", "--genome", "g.fa"].as_slice(),
        ["blast", "--proteins", "p.fa", "--genome", "g.fa"].as_slice(),
        ["serve", "--index", "g.psc"].as_slice(),
    ] {
        for (given, shown) in [("nan", "NaN"), ("-1", "-1"), ("0", "0"), ("inf", "inf")] {
            let message = format!("--evalue must be a positive finite number (got {shown})");
            assert_usage_error(&[cmd, &["--evalue", given]].concat(), &message);
        }
    }
}

#[test]
fn matrix_prints_blosum62() {
    let out = psc().arg("matrix").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // W/W = 11 must appear in the W row.
    let wrow = text.lines().find(|l| l.starts_with(" W")).unwrap();
    assert!(wrow.contains("11"), "{wrow}");
}

#[test]
fn resources_reports_fit() {
    let out = psc()
        .args(["resources", "--pes", "192", "--window", "60"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("192 PEs"));
    assert!(text.contains("largest fitting array"));
}

/// One schema version is read, so `--compare` cannot see a mixed
/// pair: a report of an older one is an ordinary error naming it.
#[test]
fn compare_with_an_old_schema_report_exits_1_naming_it() {
    let dir = tmpdir("schema-old");
    let old = dir.join("old.json");
    let new = dir.join("new.json");
    std::fs::write(&old, "{\"schema_version\": 1}").unwrap();
    std::fs::write(&new, "{\"schema_version\": 2}").unwrap();
    let out = psc()
        .args(["report", "--compare"])
        .args([old.to_str().unwrap(), new.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("old.json: unsupported schema_version 1"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_search_blast_round_trip() {
    let dir = tmpdir("roundtrip");
    let bank = dir.join("bank.fasta");
    let genome = dir.join("genome.fasta");

    // Generate a bank.
    let out = psc()
        .args(["generate-bank", "--count", "8", "--seed", "9"])
        .args(["--min-len", "120", "--max-len", "250"])
        .args(["-o", bank.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Generate a genome with plants from the bank.
    let out = psc()
        .args([
            "generate-genome",
            "--len",
            "15000",
            "--genes",
            "4",
            "--seed",
            "10",
        ])
        .args(["--bank", bank.to_str().unwrap()])
        .args(["-o", genome.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let plants = String::from_utf8_lossy(&out.stderr)
        .lines()
        .filter(|l| l.contains("plant:"))
        .count();
    assert!(plants >= 1);

    // Search with the RASC backend.
    let out = psc()
        .args(["search", "--proteins", bank.to_str().unwrap()])
        .args(["--genome", genome.to_str().unwrap()])
        .args(["--backend", "rasc", "--pes", "64"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let table = String::from_utf8_lossy(&out.stdout);
    let matches = table.lines().filter(|l| !l.starts_with('#')).count();
    assert!(
        matches >= plants,
        "search found {matches} < {plants} plants:\n{table}"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("simulated accelerator"));

    // Baseline agrees on the hit count order of magnitude.
    let out = psc()
        .args(["blast", "--proteins", bank.to_str().unwrap()])
        .args(["--genome", genome.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let blast_matches = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| !l.starts_with('#'))
        .count();
    assert!(blast_matches >= plants);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn translate_outputs_six_frames() {
    let dir = tmpdir("translate");
    let genome = dir.join("g.fasta");
    std::fs::write(&genome, ">g\nATGGCCTAAATGGCCTAAATGGCC\n").unwrap();
    let out = psc()
        .args(["translate", "--genome", genome.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.matches('>').count(), 6);
    assert!(text.contains("frame+1"));
    assert!(text.contains("frame-3"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn search_rejects_multi_sequence_genome() {
    let dir = tmpdir("multiseq");
    let bank = dir.join("bank.fasta");
    let genome = dir.join("g.fasta");
    std::fs::write(&bank, ">p\nMKVLAW\n").unwrap();
    std::fs::write(&genome, ">a\nACGT\n>b\nACGT\n").unwrap();
    let out = psc()
        .args(["search", "--proteins", bank.to_str().unwrap()])
        .args(["--genome", genome.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("exactly one"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_json_round_trip_through_report_command() {
    let dir = tmpdir("report");
    let bank = dir.join("bank.fasta");
    let genome = dir.join("genome.fasta");
    let report = dir.join("run.json");

    let out = psc()
        .args(["generate-bank", "--count", "6", "--seed", "21"])
        .args(["--min-len", "100", "--max-len", "200"])
        .args(["-o", bank.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = psc()
        .args([
            "generate-genome",
            "--len",
            "12000",
            "--genes",
            "3",
            "--seed",
            "22",
        ])
        .args(["--bank", bank.to_str().unwrap()])
        .args(["-o", genome.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());

    // Search on the RASC backend, writing a run report.
    let out = psc()
        .args(["search", "--proteins", bank.to_str().unwrap()])
        .args(["--genome", genome.to_str().unwrap()])
        .args(["--backend", "rasc", "--pes", "64", "--fpgas", "2"])
        .args(["--report-json", report.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("run report written"));

    // The JSON carries the schema and the per-step / per-FPGA details.
    let json = std::fs::read_to_string(&report).unwrap();
    for needle in [
        "\"schema_version\": 2",
        "\"steps\"",
        "\"counters\"",
        "step2.pairs",
        "\"board\"",
        "\"fifo_peak\"",
        "\"wire_in_seconds\"",
        "step2.pairs_per_key",
    ] {
        assert!(json.contains(needle), "missing {needle} in report:\n{json}");
    }

    // `psc report` renders the paper-style views from the file.
    let out = psc()
        .args(["report", report.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "Step time breakdown",
        "Simulated RASC board",
        "fifo_peak",
        "step2.pairs_per_key",
        "backend = rasc",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_command_rejects_bad_input() {
    let dir = tmpdir("badreport");
    let path = dir.join("bad.json");
    std::fs::write(&path, "{\"schema_version\": 999}").unwrap();
    let out = psc()
        .args(["report", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unsupported schema_version"));

    let out = psc().arg("report").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: psc report"));
    std::fs::remove_dir_all(&dir).ok();
}
