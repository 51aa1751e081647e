//! Micro-benchmarks for the text layers a `source` request crosses on
//! its way in and out: the JSON-line decode (`parse_request`), its
//! encode (`encode_request`), the `.rtp` write (`write_task_set`) and
//! parse (`parse_task_set`). All are linear in their input, and this
//! makes it visible: ns/byte must not grow with the line size, and µs
//! per set must grow with the set's text, not its square.
//!
//! Each decode row is printed beside the ns/byte of copying the same line
//! (`String::from`), the rate of moving its bytes at all, and beside an
//! encode row for the same request and a `write_task_set` row for a set
//! of about the same size, each with its own copy ratio. The bench fails
//! when the 8 KiB line, one `\n` escape per `.rtp` directive, decodes at
//! more than [`MAX_DECODE_OVER_COPY`] times that copy (the unescape then
//! costs per escape again, not per byte), or encodes at more than
//! [`MAX_ENCODE_OVER_COPY`] times it (the escaper is copying each run
//! and escape with a call of its own again).
//!
//! Each parse is printed beside the same set with its names off the
//! `v0 v1 …` numbering (`v0x v1x …`), which the parser resolves through
//! its keyed map instead of by number; that row is reported, not gated.
//!
//! Next to each parse it times what a request that repeats an earlier
//! one pays instead: `Interner::intern` on a source sent twice before
//! recognises the bytes and parses nothing, and a repeated `wcet:` edit
//! through `Supervisor::execute` applies nothing. The bench fails when
//! a re-sent source costs [`MAX_RESENT_OVER_PARSE`] of its parse or
//! more.

use std::hint::black_box;
use std::time::Instant;

use rand::SeedableRng;
use rtpool_bench::serve::protocol::{encode_request, parse_request, Request, RequestBody};
use rtpool_bench::serve::{Interner, ServiceFaultPlan, Supervisor};
use rtpool_core::textfmt::{parse_task_set, write_task_set};
use rtpool_core::{CancelToken, TaskSet};
use rtpool_exec::RecoveryPolicy;
use rtpool_gen::{DagGenConfig, TaskSetConfig};

/// The escape-dense 8 KiB line must decode within this multiple of
/// copying it. On a 2-core VM the decoder that scanned from each escape
/// to the next on its own read 67-89x, the mask walk 32-59x (quiet to
/// loaded host).
const MAX_DECODE_OVER_COPY: f64 = 64.0;
/// The escape-dense 8 KiB line must encode within this multiple of
/// copying it. On a 2-core VM, three runs each, the block walk reads
/// 68-78x and the escaper it replaced (two `push_str` calls per escape,
/// into a line that started at 64 bytes and doubled) 151-161x.
const MAX_ENCODE_OVER_COPY: f64 = 110.0;
/// A re-sent source must cost less than this share of parsing it
/// (about 1/100 measured: a fingerprint pass and a byte comparison).
const MAX_RESENT_OVER_PARSE: f64 = 0.25;
/// Timed repetitions of a re-sent source or edit.
const RESENT: u32 = 2000;

/// The `.rtp` text of a generated `n`-task set (the shape the registered
/// benchmark's `admit-cold` requests carry).
fn source_of(n: usize) -> String {
    let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
    let set = TaskSetConfig::new(n, 4.0, DagGenConfig::default())
        .generate(&mut rng)
        .expect("generation succeeds");
    write_task_set(&set)
}

/// Generated one-task sets joined until their text reaches `kib` KiB.
fn set_of_kib(kib: usize) -> TaskSet {
    let mut rng = rand::rngs::StdRng::seed_from_u64(kib as u64);
    let mut set = TaskSet::new(Vec::new());
    while write_task_set(&set).len() < kib * 1024 {
        set.extend(
            TaskSetConfig::new(1, 0.5, DagGenConfig::default())
                .generate(&mut rng)
                .expect("generation succeeds"),
        );
    }
    set
}

/// `text` with every `v<digits>` name renamed `v<digits>x`: the same
/// set, its names off the numbering.
fn unnumbered(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + text.len() / 4);
    for line in text.lines() {
        let words: Vec<String> = line
            .split(' ')
            .map(|word| match word.strip_prefix('v') {
                Some(digits)
                    if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) =>
                {
                    format!("{word}x")
                }
                _ => word.to_owned(),
            })
            .collect();
        out.push_str(&words.join(" "));
        out.push('\n');
    }
    out
}

/// Mean wall time of `f` in nanoseconds.
fn mean_ns(reps: u32, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_nanos() as f64 / f64::from(reps)
}

/// The least of 25 [`mean_ns`] batches: a gate on a ratio of two short
/// timings reads each at its least disturbed.
fn best_ns(reps: u32, mut f: impl FnMut()) -> f64 {
    (0..25)
        .map(|_| mean_ns(reps, &mut f))
        .fold(f64::INFINITY, f64::min)
}

fn line_rows() {
    let text = source_of(8);
    for kib in [1usize, 8, 64] {
        // `.rtp` text cycled to the target size keeps the real escape
        // density (one `\n` per directive); the decoder never parses it.
        let source: String = text.chars().cycle().take(kib * 1024).collect();
        let request = Request {
            id: 1,
            m: 8,
            priority: 4,
            deadline_us: 0,
            body: RequestBody::Source(source),
        };
        let line = encode_request(&request);
        let ns = best_ns(20, || {
            black_box(parse_request(black_box(&line)).expect("line decodes"));
        });
        let copy_ns = best_ns(500, || {
            black_box(String::from(black_box(line.as_str())));
        });
        let over_copy = ns / copy_ns;
        println!(
            "serve_ingest/parse_request_kib/{kib}: {:.2} ns/byte ({} bytes; copy {:.3} ns/byte, {over_copy:.1}x)",
            ns / line.len() as f64,
            line.len(),
            copy_ns / line.len() as f64,
        );
        let encode_ns = best_ns(20, || {
            black_box(encode_request(black_box(&request)));
        });
        let encode_over_copy = encode_ns / copy_ns;
        println!(
            "serve_ingest/encode_request_kib/{kib}: {:.2} ns/byte ({encode_over_copy:.1}x the copy)",
            encode_ns / line.len() as f64,
        );
        let set = set_of_kib(kib);
        let written = write_task_set(&set);
        let write_ns = best_ns(20, || {
            black_box(write_task_set(black_box(&set)));
        });
        let written_copy_ns = best_ns(500, || {
            black_box(String::from(black_box(written.as_str())));
        });
        println!(
            "serve_ingest/write_task_set_kib/{kib}: {:.2} ns/byte ({} bytes, {} tasks; {:.1}x its copy)",
            write_ns / written.len() as f64,
            written.len(),
            set.len(),
            write_ns / written_copy_ns,
        );
        if kib == 8 {
            assert!(
                over_copy <= MAX_DECODE_OVER_COPY,
                "the {kib} KiB line decodes at {over_copy:.1}x its copy (bound {MAX_DECODE_OVER_COPY}x): the unescape is paying per escape again"
            );
            assert!(
                encode_over_copy <= MAX_ENCODE_OVER_COPY,
                "the {kib} KiB line encodes at {encode_over_copy:.1}x its copy (bound {MAX_ENCODE_OVER_COPY}x): the escaper is paying per escape again"
            );
        }
    }
}

fn parse_rows() {
    let interner = Interner::new(8);
    let mut base = 0;
    for n in [2usize, 4, 8] {
        let text = source_of(n);
        let ns = mean_ns(200, || {
            black_box(parse_task_set(black_box(&text)).expect("set parses"));
        });
        println!(
            "serve_ingest/parse_task_set_tasks/{n}: {:.1} us ({} bytes, {:.1} ns/byte)",
            ns / 1e3,
            text.len(),
            ns / text.len() as f64
        );
        let renamed = unnumbered(&text);
        assert_eq!(
            write_task_set(&parse_task_set(&renamed).expect("renamed set parses")),
            text,
            "renaming changed the set"
        );
        let renamed_ns = mean_ns(200, || {
            black_box(parse_task_set(black_box(&renamed)).expect("set parses"));
        });
        println!(
            "serve_ingest/parse_task_set_unnumbered/{n}: {:.1} us ({:.2}x the numbered parse)",
            renamed_ns / 1e3,
            renamed_ns / ns
        );

        // The first sending builds the set and the second keeps the
        // text; the timed ones are recalled.
        for _ in 0..2 {
            base = interner.intern(&text).expect("source interns").0;
        }
        let recalled = interner.stats().recalled;
        let resent_ns = mean_ns(RESENT, || {
            black_box(interner.intern(black_box(&text)).expect("source interns"));
        });
        assert_eq!(interner.stats().recalled - recalled, u64::from(RESENT));
        println!(
            "serve_ingest/intern_resent_tasks/{n}: {:.2} us ({:.3} of its parse)",
            resent_ns / 1e3,
            resent_ns / ns
        );
        assert!(
            resent_ns < MAX_RESENT_OVER_PARSE * ns,
            "a re-sent {n}-task source costs {resent_ns:.0} ns, its parse {ns:.0} ns: it is being parsed again"
        );
    }

    let supervisor = Supervisor::new(RecoveryPolicy::Abort, ServiceFaultPlan::seeded(0));
    let never = CancelToken::never();
    let request = Request {
        id: 1,
        m: 8,
        priority: 4,
        deadline_us: 0,
        body: RequestBody::Edit {
            base,
            script: "wcet:0.1=7".to_string(),
        },
    };
    for _ in 0..2 {
        black_box(supervisor.execute(1, &request, &interner, &never));
    }
    let recalled = interner.stats().recalled;
    let edit_ns = mean_ns(RESENT, || {
        black_box(supervisor.execute(1, black_box(&request), &interner, &never));
    });
    assert_eq!(interner.stats().recalled - recalled, u64::from(RESENT));
    println!(
        "serve_ingest/execute_repeated_edit: {:.2} us",
        edit_ns / 1e3
    );
}

fn main() {
    line_rows();
    parse_rows();
}
