//! `psc serve` / `psc query` — a long-running query server over a
//! loaded index bundle, and its line-protocol client.
//!
//! The server loads pipeline state (frames, T1 index, scoring) once
//! from a bundle written by `psc index`, then answers protein-bank
//! queries over TCP. Queries run concurrently — the engine is shared
//! immutable state — behind a bounded admission gate: at most
//! `--queue` queries are in flight, and an arrival past that is
//! rejected with `-BUSY` instead of queueing unboundedly. Each query
//! records its own telemetry (a per-query `RunReport` when
//! `--report-dir` is set), with the serve-level keys registered in
//! `psc_telemetry::keys`.
//!
//! ## Protocol (line-based, all text)
//!
//! ```text
//! client: PING                    server: +PONG
//! client: INFO                    server: +INFO genome=<id> genome_len=<n> queue=<cap>
//! client: QUERY                   server: +READY            (or -BUSY ...)
//! client: <FASTA lines>
//! client: END
//!                                 server: +MATCHES <k> wall=<s> step1=<s> step2=<s> step3=<s>
//!                                 server: <k tab-format match lines>
//!                                 server: +DONE             (or -ERR <why>)
//! client: HOLD <ms>               server: +HOLDING … +HELD  (or -BUSY ...)
//! client: SHUTDOWN                server: +BYE, then the process exits
//! ```
//!
//! `HOLD` occupies an admission slot for a fixed time and exists so
//! tests can fill the gate deterministically. Match lines use exactly
//! `psc search`'s tab format, so a `psc query` stdout is byte-identical
//! to the equivalent one-shot `psc search --index` stdout.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use psc_core::{build_run_report, MemRecorder, NullTracer, PipelineConfig, Recorder, SearchEngine};
use psc_seqio::{read_fasta, read_fasta_path, write_fasta, SeqKind};
use psc_telemetry::keys;

use crate::{load_engine, match_line, pipeline_config, Flags, TAB_HEADER};

/// State shared by all connection threads.
struct Shared {
    engine: SearchEngine,
    config: PipelineConfig,
    /// Queries (and HOLDs) currently admitted.
    inflight: AtomicUsize,
    /// Admission capacity (`--queue`).
    cap: usize,
    /// Monotone query sequence number.
    seq: AtomicU64,
    /// Where per-query run reports go, when requested.
    report_dir: Option<PathBuf>,
}

/// Releases an admission slot on drop, so early returns and protocol
/// errors can never leak one.
struct Admission<'a>(&'a AtomicUsize);

impl Drop for Admission<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Claim an admission slot unless the gate is full; returns the guard
/// and the in-flight depth including this claim.
fn try_admit(inflight: &AtomicUsize, cap: usize) -> Option<(Admission<'_>, usize)> {
    let mut n = inflight.load(Ordering::SeqCst);
    loop {
        if n >= cap {
            return None;
        }
        match inflight.compare_exchange(n, n + 1, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => return Some((Admission(inflight), n + 1)),
            Err(current) => n = current,
        }
    }
}

pub fn serve(flags: &Flags) -> Result<(), String> {
    let path = flags.required("index")?;
    let config = pipeline_config(flags)?;
    let engine = load_engine(path, config.clone())?;
    let cap = flags.parsed("queue", 4usize)?.max(1);
    let report_dir = flags.get("report-dir").map(PathBuf::from);
    if let Some(dir) = &report_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let listen = flags.get("listen").unwrap_or("127.0.0.1:0");
    let listener = TcpListener::bind(listen).map_err(|e| format!("bind {listen}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    // The bound address goes to stdout (port 0 picks a free port);
    // scripts parse this line to find the server.
    println!(
        "psc serve: listening on {addr} (genome {}, {} nt, queue {cap})",
        engine.genome_id(),
        engine.genome_len()
    );
    std::io::stdout().flush().ok();
    let shared = Arc::new(Shared {
        engine,
        config,
        inflight: AtomicUsize::new(0),
        cap,
        seq: AtomicU64::new(0),
        report_dir,
    });
    for conn in listener.incoming() {
        match conn {
            Ok(stream) => {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    if let Err(e) = handle_conn(stream, &shared) {
                        eprintln!("psc serve: connection: {e}");
                    }
                });
            }
            Err(e) => eprintln!("psc serve: accept: {e}"),
        }
    }
    Ok(())
}

fn handle_conn(stream: TcpStream, sh: &Shared) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut w = BufWriter::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(());
        }
        let cmd = line.trim_end().to_string();
        if cmd.is_empty() {
            continue;
        }
        if cmd == "PING" {
            writeln!(w, "+PONG")?;
        } else if cmd == "INFO" {
            writeln!(
                w,
                "+INFO genome={} genome_len={} queue={}",
                sh.engine.genome_id(),
                sh.engine.genome_len(),
                sh.cap
            )?;
        } else if let Some(ms) = cmd.strip_prefix("HOLD ") {
            match (ms.parse::<u64>(), try_admit(&sh.inflight, sh.cap)) {
                (Err(_), _) => writeln!(w, "-ERR bad HOLD duration {ms:?}")?,
                (Ok(_), None) => write_busy(&mut w, sh)?,
                (Ok(ms), Some((slot, _))) => {
                    writeln!(w, "+HOLDING")?;
                    w.flush()?;
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                    drop(slot);
                    writeln!(w, "+HELD")?;
                }
            }
        } else if cmd == "QUERY" {
            let Some((slot, depth)) = try_admit(&sh.inflight, sh.cap) else {
                write_busy(&mut w, sh)?;
                w.flush()?;
                continue;
            };
            writeln!(w, "+READY")?;
            w.flush()?;
            let mut fasta = String::new();
            loop {
                line.clear();
                if reader.read_line(&mut line)? == 0 {
                    return Ok(()); // client vanished mid-query
                }
                if line.trim_end() == "END" {
                    break;
                }
                fasta.push_str(&line);
            }
            match run_query(sh, &fasta, depth) {
                Ok((lines, profile)) => {
                    writeln!(w, "+MATCHES {} {profile}", lines.len())?;
                    for l in &lines {
                        writeln!(w, "{l}")?;
                    }
                    writeln!(w, "+DONE")?;
                }
                Err(e) => writeln!(w, "-ERR {e}")?,
            }
            drop(slot);
        } else if cmd == "SHUTDOWN" {
            writeln!(w, "+BYE")?;
            w.flush()?;
            std::process::exit(0);
        } else {
            writeln!(w, "-ERR unknown command {cmd:?}")?;
        }
        w.flush()?;
    }
}

fn write_busy(w: &mut impl Write, sh: &Shared) -> std::io::Result<()> {
    writeln!(
        w,
        "-BUSY admission queue full ({} in flight, limit {}); retry later",
        sh.cap, sh.cap
    )
}

/// Parse the FASTA payload, run the query against the shared engine,
/// and render the tab match lines plus a profile summary. Per-query
/// telemetry goes to a fresh recorder; a failed query is answered
/// with its error and does not take the server down.
fn run_query(sh: &Shared, fasta: &str, depth: usize) -> Result<(Vec<String>, String), String> {
    let bank = read_fasta(fasta.as_bytes(), SeqKind::Protein).map_err(|e| e.to_string())?;
    if bank.is_empty() {
        return Err("query carried no sequences".into());
    }
    let seq_no = sh.seq.fetch_add(1, Ordering::SeqCst);
    let started = Instant::now();
    let rec = MemRecorder::new();
    rec.set_meta(keys::SERVE_QUERY_SEQ, &seq_no.to_string());
    rec.add(keys::SERVE_QUEUE_DEPTH, depth as u64);
    let result = sh
        .engine
        .query_traced(&bank, &rec, &NullTracer)
        .map_err(|e| e.to_string())?;
    let wall = started.elapsed().as_secs_f64();
    rec.record_span(keys::SERVE_QUERY_WALL, wall);
    if let Some(dir) = &sh.report_dir {
        let report = build_run_report(&result.output, &sh.config, &rec.snapshot());
        let path = dir.join(format!("query-{seq_no:06}.json"));
        std::fs::write(&path, report.to_json_string())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let p = &result.output.profile;
    let profile = format!(
        "wall={:.6} step1={:.6} step2={:.6} step3={:.6}",
        wall,
        p.step1,
        p.step2(),
        p.step3
    );
    Ok((result.matches.iter().map(match_line).collect(), profile))
}

/// How a `psc query` run failed, split so the process exit code can
/// distinguish a graceful capacity rejection from a real error.
enum ClientError {
    /// The server rejected the query at admission (`-BUSY`).
    Busy(String),
    Other(String),
}

impl From<String> for ClientError {
    fn from(message: String) -> ClientError {
        ClientError::Other(message)
    }
}

/// Exit code for a `-BUSY` rejection: scripts can tell "server at
/// capacity, retry" (4) from "query failed" (1).
const BUSY_EXIT: u8 = 4;

pub fn query(flags: &Flags) -> ExitCode {
    match run_client(flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(ClientError::Busy(msg)) => {
            eprintln!("busy: {msg}");
            ExitCode::from(BUSY_EXIT)
        }
        Err(ClientError::Other(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run_client(flags: &Flags) -> Result<(), ClientError> {
    let addr = flags.required("connect")?;
    let bank = read_fasta_path(flags.required("proteins")?, SeqKind::Protein)
        .map_err(|e| e.to_string())?;
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut w = BufWriter::new(stream);
    let io = |e: std::io::Error| ClientError::Other(format!("server i/o: {e}"));
    writeln!(w, "QUERY").map_err(io)?;
    w.flush().map_err(io)?;
    let resp = read_line(&mut reader)?;
    if let Some(rest) = resp.strip_prefix("-BUSY ") {
        return Err(ClientError::Busy(rest.to_string()));
    }
    if resp != "+READY" {
        return Err(format!("unexpected response {resp:?}").into());
    }
    let mut fasta = Vec::new();
    write_fasta(&mut fasta, &bank).map_err(|e| e.to_string())?;
    w.write_all(&fasta).map_err(io)?;
    writeln!(w, "END").map_err(io)?;
    w.flush().map_err(io)?;
    let head = read_line(&mut reader)?;
    if let Some(rest) = head.strip_prefix("-ERR ") {
        return Err(format!("server rejected query: {rest}").into());
    }
    let rest = head
        .strip_prefix("+MATCHES ")
        .ok_or_else(|| format!("unexpected response {head:?}"))?;
    let (count, profile) = rest.split_once(' ').unwrap_or((rest, ""));
    let count: usize = count
        .parse()
        .map_err(|_| format!("bad match count in {head:?}"))?;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    writeln!(out, "{TAB_HEADER}").map_err(|e| e.to_string())?;
    for _ in 0..count {
        writeln!(out, "{}", read_line(&mut reader)?).map_err(|e| e.to_string())?;
    }
    let done = read_line(&mut reader)?;
    if done != "+DONE" {
        return Err(format!("unexpected trailer {done:?}").into());
    }
    eprintln!("serve query: {count} matches ({profile})");
    Ok(())
}

fn read_line(reader: &mut impl BufRead) -> Result<String, ClientError> {
    let mut line = String::new();
    let n = reader
        .read_line(&mut line)
        .map_err(|e| ClientError::Other(format!("server i/o: {e}")))?;
    if n == 0 {
        return Err("server closed the connection".to_string().into());
    }
    Ok(line.trim_end().to_string())
}
