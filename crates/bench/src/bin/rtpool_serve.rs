//! `rtpool-serve`: a long-lived schedulability admission service.
//!
//! Reads JSON-lines admission requests (inline `.rtp` source or content
//! hash of a previously submitted set) from stdin — or, with
//! `--socket`, from sequential connections on a Unix domain socket —
//! and writes one JSON verdict line per request. Overload surfaces as
//! explicit `busy` (bounded ingress queue) and `shed` (latency-SLO
//! circuit breaker) verdicts; per-request deadline budgets degrade the
//! analysis gracefully instead of stalling the pipe; panicking analysis
//! workers are supervised and every request is answered exactly once.
//!
//! ```text
//! rtpool-serve [--workers N] [--queue-cap N]
//!              [--default-deadline-us U] [--slo-p99-us U]
//!              [--shed-below-priority P] [--window N]
//!              [--interner-cap N] [--socket PATH]
//!              [--trace PATH] [--summary]
//! ```
//!
//! `--workers` past `MAX_PARTITIONED_THREADS` (4096) is refused before
//! any thread starts. Defaults: one worker thread per core, queue 256,
//! no default deadline, 50 ms p99 SLO, shed priorities `< 4`,
//! 64-response breaker window, interner 256. On
//! EOF (or socket shutdown) the backlog drains, the final report goes
//! to stderr (`--summary` prints it as JSON), and `--trace PATH` writes
//! the request-lifecycle trace as Chrome trace-event JSON.
//!
//! Request lines: `{"id": 1, "m": 8, "priority": 5, "deadline_us":
//! 20000, "source": "task period=...\n..."}` or `{"id": 2, "m": 8,
//! "hash": "<16 hex digits>"}`.

use std::io::{BufRead, BufReader, Write};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::Duration;

use rtpool_bench::cli::{number, thread_count, value};
use rtpool_bench::serve::protocol::encode_response;
use rtpool_bench::serve::{BreakerConfig, Response, ServeConfig, Server};

struct Args {
    workers: usize,
    config: ServeConfig,
    socket: Option<String>,
    trace: Option<String>,
    summary: bool,
}

fn usage() -> &'static str {
    "usage: rtpool-serve [--workers N] [--queue-cap N] \
     [--default-deadline-us U] [--slo-p99-us U] [--shed-below-priority P] \
     [--window N] [--interner-cap N] [--socket PATH] [--trace PATH] [--summary]"
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workers: 0,
        config: ServeConfig::default(),
        socket: None,
        trace: None,
        summary: false,
    };
    let mut breaker = BreakerConfig::default();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            // 0 asks for one worker per core.
            "--workers" => args.workers = thread_count(&mut it, "--workers")?,
            "--queue-cap" => args.config.queue_cap = number(&mut it, "--queue-cap")?,
            "--default-deadline-us" => {
                args.config.default_deadline_us = number(&mut it, "--default-deadline-us")?;
            }
            "--slo-p99-us" => breaker.slo_p99_us = number(&mut it, "--slo-p99-us")?,
            "--shed-below-priority" => {
                breaker.shed_below_priority = number(&mut it, "--shed-below-priority")?;
            }
            "--window" => breaker.window = number(&mut it, "--window")?,
            "--interner-cap" => args.config.interner_cap = number(&mut it, "--interner-cap")?,
            "--socket" => args.socket = Some(value(&mut it, "--socket")?),
            "--trace" => args.trace = Some(value(&mut it, "--trace")?),
            "--summary" => args.summary = true,
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    args.config.breaker = breaker;
    args.config.record_trace = args.trace.is_some();
    Ok(args)
}

/// Forwards responses to `write` as JSON lines until the channel closes.
fn pump_responses(rx: &Receiver<Response>, mut write: impl Write) {
    // A short timeout keeps the pump responsive to shutdown while
    // batching flushes under load.
    loop {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(resp) => {
                let mut line = encode_response(&resp);
                line.push('\n');
                while let Ok(resp) = rx.try_recv() {
                    line.push_str(&encode_response(&resp));
                    line.push('\n');
                }
                if write.write_all(line.as_bytes()).is_err() || write.flush().is_err() {
                    return; // client went away; drain silently
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Feeds stdin lines to the server; returns the response pump handle so
/// the caller can join it after shutdown (the pump exits when the
/// response channel disconnects, i.e. once the drained server drops).
fn serve_stdin(server: &Server, rx: Receiver<Response>) -> std::thread::JoinHandle<()> {
    let pump = std::thread::spawn(move || pump_responses(&rx, std::io::stdout().lock()));
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        server.submit(&line);
    }
    pump
}

fn serve_socket(server: &Server, rx: Receiver<Response>, path: &str) -> Result<(), String> {
    let _ = std::fs::remove_file(path);
    let listener = std::os::unix::net::UnixListener::bind(path)
        .map_err(|e| format!("cannot bind socket {path}: {e}"))?;
    eprintln!("rtpool-serve: listening on {path} (one client at a time)");
    let done = AtomicBool::new(false);
    // Connections are served sequentially, so every in-flight response
    // belongs to the currently connected client.
    for stream in listener.incoming() {
        let stream = stream.map_err(|e| format!("accept failed: {e}"))?;
        let out = stream
            .try_clone()
            .map_err(|e| format!("cannot clone socket stream: {e}"))?;
        let reader_ended = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let (stream, done, reader_ended) = (&stream, &done, &reader_ended);
            scope.spawn(move || {
                for line in BufReader::new(stream).lines() {
                    let Ok(line) = line else { break };
                    let trimmed = line.trim();
                    if trimmed.is_empty() {
                        continue;
                    }
                    if trimmed == "\"shutdown\"" {
                        done.store(true, Ordering::Relaxed);
                        break;
                    }
                    server.submit(&line);
                }
                reader_ended.store(true, Ordering::SeqCst);
            });
            pump_responses_until_idle(&rx, out, server, reader_ended);
        });
        if done.load(Ordering::Relaxed) {
            break;
        }
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

/// Socket variant of the pump: returns once the client's reader has
/// ended and no work remains in flight, so the next client can be
/// accepted. Until then it keeps forwarding, however long the client
/// stays silent.
fn pump_responses_until_idle(
    rx: &Receiver<Response>,
    mut write: impl Write,
    server: &Server,
    reader_ended: &AtomicBool,
) {
    loop {
        // Read before receiving: once true, nothing more is submitted and
        // every response is on the channel, so an empty channel is final.
        let last = reader_ended.load(Ordering::SeqCst) && server.idle();
        let wait = Duration::from_millis(if last { 0 } else { 50 });
        match rx.recv_timeout(wait) {
            Ok(resp) => {
                let mut line = encode_response(&resp);
                line.push('\n');
                let _ = write.write_all(line.as_bytes());
                let _ = write.flush();
            }
            Err(RecvTimeoutError::Timeout) if !last => {}
            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => return,
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let workers = if args.workers == 0 {
        std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
    } else {
        args.workers
    };
    eprintln!(
        "rtpool-serve: {workers} analysis workers, queue {}, SLO p99 {} µs",
        args.config.queue_cap, args.config.breaker.slo_p99_us
    );
    let trace_path = args.trace.clone();
    let summary = args.summary;
    let (server, rx) = Server::start(args.config, workers);
    let mut pump = None;
    let result = match &args.socket {
        None => {
            pump = Some(serve_stdin(&server, rx));
            Ok(())
        }
        Some(path) => serve_socket(&server, rx, path),
    };
    let report = server.shutdown();
    if let Some(pump) = pump {
        // The channel is closed now; the pump flushes the final
        // responses and exits.
        pump.join().expect("response pump healthy");
    }
    if let Err(e) = result {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    if summary {
        eprintln!("{}", report.to_json());
    } else {
        eprintln!(
            "rtpool-serve: {} accepted, {} admitted, {} rejected, {} busy, {} shed, \
             {} errors ({} degraded); p99 {} µs",
            report.accepted,
            report.admitted,
            report.rejected,
            report.busy,
            report.shed,
            report.errors,
            report.degraded,
            report
                .latency
                .quantile_upper(0.99)
                .map_or_else(|| "-".to_string(), |v| v.to_string()),
        );
    }
    if let (Some(path), Some(trace)) = (trace_path, report.trace.as_ref()) {
        if let Err(e) = std::fs::write(&path, rtpool_trace::to_chrome_json(trace)) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workers(n: &str) -> Result<usize, String> {
        parse_args(["--workers", n].into_iter().map(str::to_owned)).map(|a| a.workers)
    }

    #[test]
    fn workers_are_bounded_before_any_thread_starts() {
        assert_eq!(workers("0"), Ok(0));
        assert_eq!(workers("4096"), Ok(4096));
        assert_eq!(
            workers("4097"),
            Err("--workers = 4097 is past MAX_PARTITIONED_THREADS = 4096".to_owned())
        );
        assert!(workers("-1")
            .unwrap_err()
            .starts_with("invalid --workers: "));
    }
}
