//! The `rtpool-serve` binary from the outside: its `--socket` front end
//! answers each client on that client's connection however long the
//! client thinks first, and its command line refuses what it no longer
//! has.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rtpool_bench::serve::protocol::parse_response;

const SERVE: &str = env!("CARGO_BIN_EXE_rtpool-serve");

/// Kills the server if the test fails before it has exited by itself.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Sends one request under `id` and returns the id of the first line
/// that comes back, waiting at most 5 s for it.
fn ask(stream: &mut UnixStream, id: u64) -> u64 {
    let source = "task period=100\\n  node a 10\\nend\\n";
    writeln!(stream, "{{\"id\":{id},\"m\":2,\"source\":\"{source}\"}}").expect("request written");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout set");
    let mut line = String::new();
    BufReader::new(&*stream)
        .read_line(&mut line)
        .expect("a verdict within 5 s");
    parse_response(&line).expect("a response line").id
}

#[test]
fn a_slow_client_is_answered_on_its_own_connection() {
    let path = std::env::temp_dir().join(format!("rtpool-serve-{}.sock", std::process::id()));
    let serve = Command::new(SERVE)
        .args(["--workers", "2", "--socket"])
        .arg(&path)
        .stderr(Stdio::null())
        .spawn()
        .expect("rtpool-serve starts");
    let mut serve = Reaped(serve);
    let give_up = Instant::now() + Duration::from_secs(10);
    let connect = || loop {
        match UnixStream::connect(&path) {
            Ok(stream) => return stream,
            Err(e) if Instant::now() > give_up => panic!("cannot connect to {path:?}: {e}"),
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    };

    // Longer than the pump ever waited for a client to speak up.
    let mut first = connect();
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(ask(&mut first, 1), 1);
    drop(first);

    let mut second = connect();
    assert_eq!(ask(&mut second, 2), 2, "another client's verdict");
    writeln!(second, "\"shutdown\"").expect("shutdown written");
    let status = loop {
        match serve.0.try_wait().expect("child polled") {
            Some(status) => break status,
            None if Instant::now() > give_up => panic!("rtpool-serve ignored \"shutdown\""),
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    assert!(status.success(), "{status}");
}

#[test]
fn the_pool_flag_is_gone() {
    let out = Command::new(SERVE)
        .args(["--pool", "injector"])
        .stdin(Stdio::null())
        .output()
        .expect("rtpool-serve starts");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--pool`"), "{stderr}");
}
