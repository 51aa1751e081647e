//! The `rtpool-serve` binary from the outside: its `--socket` front end
//! answers each client on that client's connection however long the
//! client thinks first, and only that client, even after one before it
//! hung up with answers pending; its command line refuses what it no
//! longer has.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
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

/// One request line under `id`.
fn request(id: u64) -> String {
    let source = "task period=100\\n  node a 10\\nend\\n";
    format!("{{\"id\":{id},\"m\":2,\"source\":\"{source}\"}}\n")
}

/// The id of the next line `lines` reads, waiting at most 5 s.
fn next_id(lines: &mut BufReader<&UnixStream>) -> u64 {
    lines
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout set");
    let mut line = String::new();
    lines.read_line(&mut line).expect("a verdict within 5 s");
    parse_response(&line).expect("a response line").id
}

/// Sends one request under `id` and returns the id of the first line
/// that comes back.
fn ask(stream: &mut UnixStream, id: u64) -> u64 {
    stream
        .write_all(request(id).as_bytes())
        .expect("request written");
    next_id(&mut BufReader::new(stream))
}

/// `rtpool-serve --workers 2 --socket <tmp>/rtpool-serve-<pid>-<name>.sock`.
struct Serve {
    child: Reaped,
    path: PathBuf,
    give_up: Instant,
}

impl Serve {
    fn start(name: &str) -> Self {
        let pid = std::process::id();
        let path = std::env::temp_dir().join(format!("rtpool-serve-{pid}-{name}.sock"));
        let child = Command::new(SERVE)
            .args(["--workers", "2", "--socket"])
            .arg(&path)
            .stderr(Stdio::null())
            .spawn()
            .expect("rtpool-serve starts");
        let give_up = Instant::now() + Duration::from_secs(10);
        Serve {
            child: Reaped(child),
            path,
            give_up,
        }
    }

    /// A new client, retried while the server starts.
    fn connect(&self) -> UnixStream {
        loop {
            match UnixStream::connect(&self.path) {
                Ok(stream) => return stream,
                Err(e) if Instant::now() > self.give_up => {
                    panic!("cannot connect to {:?}: {e}", self.path)
                }
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    /// Sends `"shutdown"` on `client` and asserts a clean exit.
    fn shut_down(mut self, mut client: UnixStream) {
        writeln!(client, "\"shutdown\"").expect("shutdown written");
        let status = loop {
            match self.child.0.try_wait().expect("child polled") {
                Some(status) => break status,
                None if Instant::now() > self.give_up => {
                    panic!("rtpool-serve ignored \"shutdown\"")
                }
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        };
        assert!(status.success(), "{status}");
    }
}

#[test]
fn a_slow_client_is_answered_on_its_own_connection() {
    let serve = Serve::start("slow");
    // Longer than the pump ever waited for a client to speak up.
    let mut first = serve.connect();
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(ask(&mut first, 1), 1);
    drop(first);

    let mut second = serve.connect();
    assert_eq!(ask(&mut second, 2), 2, "another client's verdict");
    serve.shut_down(second);
}

#[test]
fn a_client_that_hangs_up_takes_its_answers_with_it() {
    let serve = Serve::start("hangup");
    // 2 000 requests, then half a line, then gone without reading an
    // answer: the server's writes to it fail while answers are pending.
    let mut first = serve.connect();
    let burst: String = (1..=2000).map(request).collect();
    first.write_all(burst.as_bytes()).expect("burst written");
    first
        .write_all(b"{\"id\":2001,\"m\":2,\"sou")
        .expect("half a line written");
    drop(first);

    let mut second = serve.connect();
    let mine = [5001, 5002, 5003];
    for id in mine {
        second
            .write_all(request(id).as_bytes())
            .expect("request written");
    }
    let mut lines = BufReader::new(&second);
    let mut got: Vec<u64> = mine.iter().map(|_| next_id(&mut lines)).collect();
    got.sort_unstable();
    assert_eq!(got, mine, "the second client got another client's answers");
    serve.shut_down(second);
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
