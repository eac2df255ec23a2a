//! End-to-end tests of the index → serve → query flow: the server must
//! answer concurrent queries byte-identically to one-shot `psc search`
//! runs, bound its in-flight work, and reject overload gracefully.

// Like the crate it tests, this file may read the wall clock.
#![allow(clippy::disallowed_methods)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

fn psc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_psc"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("psc-serve-test-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Generate a bank + genome and build an index bundle (T0 included).
fn build_workload(dir: &Path) -> (PathBuf, PathBuf, PathBuf) {
    let bank = dir.join("bank.fasta");
    let genome = dir.join("genome.fasta");
    let bundle = dir.join("genome.psc");
    let out = psc()
        .args(["generate-bank", "--count", "6", "--seed", "31"])
        .args(["--min-len", "100", "--max-len", "200"])
        .args(["-o", bank.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let out = psc()
        .args([
            "generate-genome",
            "--len",
            "12000",
            "--genes",
            "3",
            "--seed",
            "32",
        ])
        .args(["--bank", bank.to_str().unwrap()])
        .args(["-o", genome.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let out = psc()
        .args(["index", "--genome", genome.to_str().unwrap()])
        .args(["--proteins", bank.to_str().unwrap()])
        .args(["-o", bundle.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    (bank, genome, bundle)
}

/// A `psc serve` child that dies with the test, plus its bound address.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn spawn(extra: &[&str]) -> Server {
        let mut child = psc()
            .arg("serve")
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .unwrap();
        let mut line = String::new();
        BufReader::new(child.stdout.as_mut().unwrap())
            .read_line(&mut line)
            .unwrap();
        let addr = line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split(' ').next())
            .unwrap_or_else(|| panic!("no address in {line:?}"))
            .to_string();
        Server { child, addr }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

#[test]
fn concurrent_queries_are_byte_identical_to_search() {
    let dir = tmpdir("concurrent");
    let (bank, _genome, bundle) = build_workload(&dir);

    // Reference: one-shot search answering from the same artifact.
    let reference = psc()
        .args(["search", "--proteins", bank.to_str().unwrap()])
        .args(["--index", bundle.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        reference.status.success(),
        "{}",
        String::from_utf8_lossy(&reference.stderr)
    );
    assert!(
        !String::from_utf8_lossy(&reference.stdout)
            .lines()
            .all(|l| l.starts_with('#')),
        "reference search found nothing"
    );

    let server = Server::spawn(&["--index", bundle.to_str().unwrap(), "--queue", "8"]);
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let addr = server.addr.clone();
            let bank = bank.clone();
            std::thread::spawn(move || {
                psc()
                    .args(["query", "--connect", &addr])
                    .args(["--proteins", bank.to_str().unwrap()])
                    .output()
                    .unwrap()
            })
        })
        .collect();
    for h in handles {
        let out = h.join().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            out.stdout, reference.stdout,
            "served query differs from one-shot search"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn admission_queue_rejects_overload_then_recovers() {
    let dir = tmpdir("busy");
    let (bank, _genome, bundle) = build_workload(&dir);
    let server = Server::spawn(&["--index", bundle.to_str().unwrap(), "--queue", "1"]);

    // Occupy the single admission slot deterministically.
    let mut hold = TcpStream::connect(&server.addr).unwrap();
    hold.write_all(b"HOLD 3000\n").unwrap();
    hold.flush().unwrap();
    let mut reader = BufReader::new(hold.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "+HOLDING");

    // A query while the gate is full is rejected gracefully: exit 4,
    // a -BUSY explanation, no output rows.
    let out = psc()
        .args(["query", "--connect", &server.addr])
        .args(["--proteins", bank.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("admission queue full"), "{err}");
    assert!(out.stdout.is_empty(), "rejected query produced output");

    // Release the slot early by dropping the holder connection is not
    // possible (the server sleeps), so wait for +HELD; afterwards the
    // same query is admitted and answers.
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "+HELD");
    let out = psc()
        .args(["query", "--connect", &server.addr])
        .args(["--proteins", bank.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!out.stdout.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn protocol_answers_ping_info_and_rejects_junk() {
    let dir = tmpdir("protocol");
    let (_bank, _genome, bundle) = build_workload(&dir);
    let server = Server::spawn(&["--index", bundle.to_str().unwrap()]);
    let mut conn = TcpStream::connect(&server.addr).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut line = String::new();

    conn.write_all(b"PING\n").unwrap();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "+PONG");

    line.clear();
    conn.write_all(b"INFO\n").unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.starts_with("+INFO genome=") && line.contains("queue="),
        "{line}"
    );

    line.clear();
    conn.write_all(b"FROBNICATE\n").unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("-ERR unknown command"), "{line}");

    // SHUTDOWN ends the process cleanly.
    line.clear();
    conn.write_all(b"SHUTDOWN\n").unwrap();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "+BYE");
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_refuses_bad_board_flags_before_listening() {
    // Found on the parent build: the server printed `listening on …`
    // and then panicked a worker on every query.
    let dir = tmpdir("board-flags");
    let (_bank, _genome, bundle) = build_workload(&dir);
    for flag in [["--fpgas", "3"], ["--pes", "0"], ["--pes", "100000"]] {
        let mut child = psc()
            .args(["serve", "--index", bundle.to_str().unwrap()])
            .args(["--listen", "127.0.0.1:0", "--backend", "rasc"])
            .args(flag)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        // A server that started anyway never exits: bound the wait.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        while child.try_wait().unwrap().is_none() && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        child.kill().ok();
        let out = child.wait_with_output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{flag:?} reached: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.starts_with("error: --") && err.lines().count() == 1,
            "{err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn search_index_rejects_model_mismatch_cleanly() {
    let dir = tmpdir("mismatch");
    let (bank, _genome, bundle) = build_workload(&dir);
    // The bundle was built under the default subset model; asking for
    // exact4 must be a clean fingerprint error, not a rebuild or panic.
    let out = psc()
        .args(["search", "--proteins", bank.to_str().unwrap()])
        .args(["--index", bundle.to_str().unwrap()])
        .args(["--seed-model", "exact4"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("was built with seed model"), "{err}");

    // An artifact this build cannot read — the previous format version
    // (byte 8 is the version's low byte), a file that is no bundle, a
    // damaged one — is refused by `search` and by `serve` alike, before
    // the server announces itself, and the first two say what to do.
    let good = std::fs::read(&bundle).unwrap();
    let mut stale = good.clone();
    stale[8] = 1;
    let mut flipped = good.clone();
    flipped[good.len() / 2] ^= 0x10;
    for (bytes, needle) in [
        (
            &stale[..],
            "format version 1, this build reads version 2; rebuild it with `psc index`",
        ),
        (
            &b"\x89PNG\r\n\x1a\n, not a bundle"[..],
            "not a PSC index bundle; rebuild it with `psc index`",
        ),
        (&flipped[..], "corrupt index: checksum mismatch"),
        (&good[..good.len() - 1], "corrupt index: checksum mismatch"),
    ] {
        let path = dir.join("unreadable.psc");
        std::fs::write(&path, bytes).unwrap();
        for command in [
            &["search", "--proteins", bank.to_str().unwrap()][..],
            &["serve"],
        ] {
            let out = psc()
                .args(command)
                .args(["--index", path.to_str().unwrap()])
                .output()
                .unwrap();
            assert_eq!(out.status.code(), Some(1), "{out:?}");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.contains(needle) && !err.contains("panicked"), "{err}");
            assert!(out.stdout.is_empty(), "{out:?}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn search_rejects_index_plus_genome_and_unknown_flags() {
    let dir = tmpdir("flags");
    let (bank, genome, bundle) = build_workload(&dir);
    let out = psc()
        .args(["search", "--proteins", bank.to_str().unwrap()])
        .args(["--genome", genome.to_str().unwrap()])
        .args(["--index", bundle.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("mutually exclusive"));

    // The old parser silently swallowed typo'd flags; now they are
    // rejected with a nearest-match suggestion.
    let out = psc()
        .args(["search", "--proteins", bank.to_str().unwrap()])
        .args(["--genome", genome.to_str().unwrap()])
        .args(["--step2-kernal", "wide"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown flag --step2-kernal") && err.contains("--step2-kernel"),
        "{err}"
    );

    // A removed flag is an unknown flag: `--overlap` went with the
    // streamed step-2 mode it selected.
    let out = psc()
        .args(["serve", "--index", bundle.to_str().unwrap()])
        .args(["--listen", "127.0.0.1:0", "--overlap", "on"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --overlap"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
