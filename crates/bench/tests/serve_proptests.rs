//! Property tests for the admission service.
//!
//! 1. **Protocol round-trip**: the hand-rolled JSON-lines encoder and
//!    parser are exact inverses for arbitrary requests and responses,
//!    including sources containing quotes, backslashes, newlines, and
//!    control characters.
//! 2. **Degraded admits are sound**: a degraded *admit* from the
//!    Limited rung of the degradation ladder implies the definitive
//!    exact-antichain rung admits the same set on replay (the model
//!    dominance the ladder documentation promises). Degraded rejects
//!    carry no such guarantee — only admits are checked.
//! 3. **Delta hits are exact**: an `edit` request answered from a
//!    delta-patched cache entry produces the same verdict, rung, and
//!    content hash as submitting the equivalent mutated source cold to
//!    a fresh server — the patched `DerivedCache` never changes an
//!    answer, only its cost.
//! 4. **The wire language is what it was**: lines written by some other
//!    encoder — alternative escape spellings, permuted / duplicated /
//!    unknown keys, free whitespace — decode to the request or response
//!    they spell, and a pinned corpus of malformed lines is rejected
//!    with the exact error strings clients already see.
//! 5. **Decode is linear**: a 1 MiB line decodes (or is rejected) in
//!    milliseconds; a decoder quadratic in the line would take minutes.
//! 6. **Near-miss texts never hit**: a source or edit script that
//!    differs from a remembered one in a digit, a space or its base is
//!    answered as a fresh interner answers it, however the sends are
//!    repeated, interleaved, poisoned and evicted in between.
//! 7. **A backend is part of a set**: a `backend spin` source is
//!    answered as the ladder answers the spin set, whether or not its
//!    suspend twin was sent first.

use proptest::prelude::*;
use rand::SeedableRng;
use rtpool_bench::serve::protocol::{
    encode_request, encode_response, parse_request, parse_response, probe_id, LadderLevel, Request,
    RequestBody, Response, VerdictKind,
};
use rtpool_bench::serve::{
    run_ladder, run_ladder_capped, Interner, ServiceEvent, ServiceFaultPlan, ServiceOutcome,
    Supervisor,
};
use rtpool_core::textfmt::{parse_task_set, write_task_set};
use rtpool_core::{CancelToken, SyncBackend, Task, TaskSet};
use rtpool_exec::RecoveryPolicy;
use rtpool_gen::{DagGenConfig, TaskSetConfig};
use rtpool_graph::{DagBuilder, DagEdit, NodeId, NodeKind};

/// A source string mixing benign text with every JSON escape class.
fn source_from(picks: &[u8]) -> String {
    const ALPHABET: &[&str] = &[
        "task",
        " ",
        "period=100",
        "\n",
        "\"",
        "\\",
        "\t",
        "\r",
        "\u{1}",
        "{",
        "}",
        "é",
        "∞",
        "node a wcet=3",
        "//",
        ":",
    ];
    picks
        .iter()
        .map(|p| ALPHABET[*p as usize % ALPHABET.len()])
        .collect()
}

fn random_set(seed: u64, n: usize, util: f64) -> TaskSet {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    TaskSetConfig::new(n, util, DagGenConfig::default())
        .generate(&mut rng)
        .expect("unconstrained generation succeeds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn request_lines_round_trip(
        id in 0u64..u64::MAX,
        m in 1usize..512,
        priority in 0u8..8,
        deadline_us in 0u64..10_000_000,
        hash_body in 0u64..3,
        hash in 0u64..u64::MAX,
        picks in prop::collection::vec(0u8..255, 0..40),
    ) {
        let body = match hash_body {
            1 => RequestBody::Hash(hash),
            2 => RequestBody::Edit { base: hash, script: source_from(&picks) },
            _ => RequestBody::Source(source_from(&picks)),
        };
        let request = Request { id, m, priority, deadline_us, body };
        let line = encode_request(&request);
        prop_assert!(!line.contains('\n'), "encoded request spans lines: {line:?}");
        let back = parse_request(&line).map_err(|e| format!("parse failed: {e}"))?;
        prop_assert_eq!(back, request);
    }

    #[test]
    fn response_lines_round_trip(
        id in 0u64..u64::MAX,
        verdict_pick in 0usize..5,
        level_pick in 0usize..5,
        degraded_bit in 0u8..2,
        latency_us in 0u64..100_000_000,
        hash_bit in 0u8..2,
        hash in 0u64..u64::MAX,
        picks in prop::collection::vec(0u8..255, 0..40),
    ) {
        let degraded = degraded_bit == 1;
        let has_hash = hash_bit == 1;
        let verdict = [
            VerdictKind::Admit,
            VerdictKind::Reject,
            VerdictKind::Busy,
            VerdictKind::Shed,
            VerdictKind::Error,
        ][verdict_pick];
        let level = [
            None,
            Some(LadderLevel::Prefilter),
            Some(LadderLevel::Deadlock),
            Some(LadderLevel::Limited),
            Some(LadderLevel::Exact),
        ][level_pick];
        let response = Response {
            id,
            verdict,
            level,
            degraded,
            latency_us,
            hash: has_hash.then_some(hash),
            detail: source_from(&picks),
        };
        let line = encode_response(&response);
        prop_assert!(!line.contains('\n'), "encoded response spans lines: {line:?}");
        let back = parse_response(&line).map_err(|e| format!("parse failed: {e}"))?;
        prop_assert_eq!(back, response);
    }
}

/// Characters the foreign-encoder proptest draws from: every escape
/// class, raw control bytes, and 2-, 3- and 4-byte scalars.
const SCALARS: &[char] = &[
    'a', 'Z', '7', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{1}', '\u{1f}',
    '\u{7f}', 'é', 'ß', '∞', '€', '𝄞', '😀', '{', '}', ':', ',', 'u',
];

/// Spells `text` as a JSON string body the way *some* encoder might:
/// `style` picks, per character, between the raw scalar, the short
/// escape and the `\uXXXX` form wherever JSON allows a choice.
fn spell(text: &str, style: &[u8]) -> String {
    let mut out = String::new();
    for (i, c) in text.chars().enumerate() {
        let pick = style[i % style.len()] % 3;
        let short = match c {
            '"' => Some("\\\""),
            '\\' => Some("\\\\"),
            '/' => Some("\\/"),
            '\n' => Some("\\n"),
            '\r' => Some("\\r"),
            '\t' => Some("\\t"),
            '\u{8}' => Some("\\b"),
            '\u{c}' => Some("\\f"),
            _ => None,
        };
        let must_escape = c == '"' || c == '\\';
        match (pick, short) {
            (0, Some(esc)) => out.push_str(esc),
            (1, _) if (c as u32) < 0x10000 => out.push_str(&format!("\\u{:04x}", c as u32)),
            (_, Some(esc)) if must_escape => out.push_str(esc),
            _ => out.push(c),
        }
    }
    out
}

/// Joins `"key":value` members into one object line, in the order
/// `order` deals them, padded with the whitespace JSON permits.
fn object_line(mut members: Vec<String>, order: &[u8]) -> String {
    for (i, pick) in order.iter().enumerate() {
        let len = members.len();
        members.swap(i % len, *pick as usize % len);
    }
    let pad = |i: usize| ["", " ", "\t", " \r\n "][order.get(i).map_or(0, |p| *p as usize % 4)];
    let mut line = format!("{}{{{}", pad(0), pad(1));
    for (i, member) in members.iter().enumerate() {
        let (key, value) = member.split_once(':').expect("member has a colon");
        let sep = if i == 0 { "" } else { "," };
        line.push_str(&format!(
            "{sep}{}{key}{}:{}{value}{}",
            pad(i),
            pad(i + 1),
            pad(i + 2),
            pad(i + 3)
        ));
    }
    line.push_str(&format!("}}{}", pad(2)));
    line
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A request spelled by a foreign encoder decodes to what it says:
    /// first occurrence of a duplicated key wins, unknown keys (whose
    /// strings are only scanned) are ignored, key order is free.
    #[test]
    fn foreign_request_lines_decode(
        id in 0u64..u64::MAX,
        m in 1usize..512,
        priority in 0u8..8,
        deadline_us in 0u64..10_000_000,
        body_pick in 0u64..3,
        hash in 0u64..u64::MAX,
        picks in prop::collection::vec(0u8..255, 0..48),
        style in prop::collection::vec(0u8..255, 1..16),
        order in prop::collection::vec(0u8..255, 1..24),
    ) {
        let text: String = picks.iter().map(|p| SCALARS[*p as usize % SCALARS.len()]).collect();
        let body = match body_pick {
            1 => RequestBody::Hash(hash),
            2 => RequestBody::Edit { base: hash, script: text.clone() },
            _ => RequestBody::Source(text.clone()),
        };
        let want = Request { id, m, priority, deadline_us, body };
        let mut members = vec![
            format!("\"id\":{id}"),
            // A key may itself be spelled with escapes.
            format!("\"\\u006d\":{m}"),
            format!("\"priority\":{priority}"),
            format!("\"deadline_us\":{deadline_us}"),
            // Ignored members of every value kind, one with a string that
            // needs unescaping and one shadowing nothing the protocol reads.
            format!("\"note\":\"{}\"", spell(&text, &order)),
            "\"trace\":null".to_string(),
            "\"retry\":true".to_string(),
            "\"attempt\":3".to_string(),
        ];
        match &want.body {
            RequestBody::Source(src) => members.push(format!("\"source\":\"{}\"", spell(src, &style))),
            RequestBody::Hash(h) => members.push(format!("\"hash\":\"{h:x}\"")),
            RequestBody::Edit { base, script } => {
                members.push(format!("\"base\":\"{base:016X}\""));
                members.push(format!("\"edits\":\"{}\"", spell(script, &style)));
            }
        }
        let mut line = object_line(members, &order);
        // Later duplicates lose, whatever their type.
        line.truncate(line.rfind('}').expect("object closes"));
        line.push_str(",\"id\":\"dup\",\"m\":0");
        line.push_str(match want.body {
            RequestBody::Source(_) => ",\"source\":7}",
            RequestBody::Hash(_) => ",\"hash\":null}",
            RequestBody::Edit { .. } => ",\"base\":1,\"edits\":false}",
        });
        let got = parse_request(&line).map_err(|e| format!("{e} in {line:?}"))?;
        prop_assert_eq!(encode_request(&got), encode_request(&want), "line {:?}", line);
        prop_assert_eq!(got, want);
        prop_assert_eq!(probe_id(&line), id);
    }

    /// The same for responses (`null` stands for an absent level/hash).
    #[test]
    fn foreign_response_lines_decode(
        id in 0u64..u64::MAX,
        verdict_pick in 0usize..5,
        level_pick in 0usize..5,
        degraded_bit in 0u8..2,
        latency_us in 0u64..100_000_000,
        hash_bit in 0u8..2,
        hash in 0u64..u64::MAX,
        picks in prop::collection::vec(0u8..255, 0..48),
        style in prop::collection::vec(0u8..255, 1..16),
        order in prop::collection::vec(0u8..255, 1..24),
    ) {
        let verdict = [
            VerdictKind::Admit,
            VerdictKind::Reject,
            VerdictKind::Busy,
            VerdictKind::Shed,
            VerdictKind::Error,
        ][verdict_pick];
        let level = [
            None,
            Some(LadderLevel::Prefilter),
            Some(LadderLevel::Deadlock),
            Some(LadderLevel::Limited),
            Some(LadderLevel::Exact),
        ][level_pick];
        let want = Response {
            id,
            verdict,
            level,
            degraded: degraded_bit == 1,
            latency_us,
            hash: (hash_bit == 1).then_some(hash),
            detail: picks.iter().map(|p| SCALARS[*p as usize % SCALARS.len()]).collect(),
        };
        let members = vec![
            format!("\"id\":{id}"),
            format!("\"verdict\":\"{}\"", verdict.name()),
            level.map_or("\"level\":null".to_string(), |l| format!("\"level\":\"{}\"", l.name())),
            format!("\"degraded\":{}", want.degraded),
            format!("\"latency_us\":{latency_us}"),
            want.hash.map_or("\"hash\":null".to_string(), |h| format!("\"hash\":\"{h:x}\"")),
            format!("\"detail\":\"{}\"", spell(&want.detail, &style)),
            format!("\"x-{}\":\"{}\"", spell("é\"", &style), spell(&want.detail, &order)),
        ];
        let mut line = object_line(members, &order);
        line.truncate(line.rfind('}').expect("object closes"));
        line.push_str(",\"detail\":\"dup\",\"verdict\":\"nonsense\"}");
        let got = parse_response(&line).map_err(|e| format!("{e} in {line:?}"))?;
        prop_assert_eq!(encode_response(&got), encode_response(&want), "line {:?}", line);
        prop_assert_eq!(got, want);
    }
}

/// Malformed lines and the exact text each is rejected with. Clients
/// match on these strings; a decoder change must not reword one.
#[test]
fn malformed_lines_keep_their_error_strings() {
    let requests: &[(&str, &str)] = &[
        ("", "expected '{' at byte 0"),
        ("not json", "expected '{' at byte 0"),
        ("{\"id\":1", "expected ',' or '}' at byte 7"),
        ("{\"id\" 1}", "expected ':' at byte 6"),
        ("{id:1}", "expected '\"' at byte 1"),
        ("{\"id\":1,}", "expected '\"' at byte 8"),
        ("{\"id\":-1}", "unexpected value at byte 6"),
        ("{\"id\":[1]}", "unexpected value at byte 6"),
        ("{\"id\":tru}", "unexpected value at byte 6"),
        ("{\"id\":1,\"m\":2,\"source\":\"abc", "unterminated string"),
        (
            "{\"id\":1,\"m\":2,\"source\":\"a\\",
            "bad escape at byte 26",
        ),
        (
            "{\"id\":1,\"m\":2,\"source\":\"a\\qb\"}",
            "bad escape at byte 26",
        ),
        (
            "{\"id\":1,\"m\":2,\"note\":\"é\\x\"}",
            "bad escape at byte 25",
        ),
        (
            "{\"id\":1,\"m\":2,\"source\":\"\\u12",
            "truncated \\u escape",
        ),
        (
            "{\"id\":1,\"m\":2,\"source\":\"\\u12g4\"}",
            "invalid \\u escape",
        ),
        (
            "{\"id\":1,\"m\":2,\"source\":\"\\u00é\"}",
            "invalid \\u escape",
        ),
        (
            "{\"id\":1,\"m\":2,\"source\":\"\\ud83d\\ude00\"}",
            "surrogate \\u escape",
        ),
        (
            "{\"id\":1,\"m\":2,\"ignored\":\"\\udfff\"}",
            "surrogate \\u escape",
        ),
        (
            "{\"id\":1,\"m\":2,\"source\":\"x\"} extra",
            "trailing input at byte 28",
        ),
        (
            "{\"id\":1,\"m\":2,\"source\":\"x\"}{}",
            "trailing input at byte 27",
        ),
        (
            "{\"id\":18446744073709551616}",
            "number out of range at byte 6",
        ),
        (
            "{\"id\":1,\"m\":99999999999999999999,\"source\":\"x\"}",
            "number out of range at byte 12",
        ),
        ("{}", "missing id"),
        ("{\"m\":4,\"source\":\"x\"}", "missing id"),
        (
            "{\"id\":\"7\",\"m\":4,\"source\":\"x\"}",
            "id must be a number",
        ),
        ("{\"id\":1,\"source\":\"x\"}", "missing m"),
        (
            "{\"id\":1,\"m\":null,\"source\":\"x\"}",
            "m must be a number",
        ),
        ("{\"id\":1,\"m\":0,\"source\":\"x\"}", "m must be positive"),
        (
            "{\"id\":1,\"m\":4,\"priority\":8,\"source\":\"x\"}",
            "priority must be 0..=7",
        ),
        (
            "{\"id\":1,\"m\":4,\"priority\":\"hi\",\"source\":\"x\"}",
            "priority must be a number",
        ),
        (
            "{\"id\":1,\"m\":4,\"deadline_us\":true,\"source\":\"x\"}",
            "deadline_us must be a number",
        ),
        (
            "{\"id\":1,\"m\":4}",
            "request needs source, hash, or base+edits",
        ),
        (
            "{\"id\":1,\"m\":4,\"base\":\"ff\"}",
            "edit request needs edits",
        ),
        (
            "{\"id\":1,\"m\":4,\"edits\":\"wcet:0.0=1\"}",
            "edit request needs base",
        ),
        (
            "{\"id\":1,\"m\":4,\"source\":\"x\",\"hash\":\"ff\"}",
            "request must carry exactly one of source, hash, or base+edits",
        ),
        (
            "{\"id\":1,\"m\":4,\"source\":\"x\",\"base\":\"ff\",\"edits\":\"e\"}",
            "request must carry exactly one of source, hash, or base+edits",
        ),
        (
            "{\"id\":1,\"m\":4,\"hash\":\"ff\",\"edits\":\"e\"}",
            "request must carry exactly one of source, hash, or base+edits",
        ),
        (
            "{\"id\":1,\"m\":4,\"source\":7}",
            "request must carry exactly one of source, hash, or base+edits",
        ),
        (
            "{\"id\":1,\"m\":4,\"hash\":\"zz\"}",
            "invalid content hash \"zz\"",
        ),
        (
            "{\"id\":1,\"m\":4,\"base\":\"\",\"edits\":\"e\"}",
            "invalid content hash \"\"",
        ),
    ];
    for (line, want) in requests {
        assert_eq!(
            parse_request(line).as_ref().map_err(String::as_str),
            Err(*want),
            "{line:?}"
        );
    }
    let responses: &[(&str, &str)] = &[
        ("{\"verdict\":\"admit\"}", "missing id"),
        ("{\"id\":1}", "missing verdict"),
        ("{\"id\":1,\"verdict\":3}", "missing verdict"),
        (
            "{\"id\":1,\"verdict\":\"maybe\"}",
            "unknown verdict \"maybe\"",
        ),
        (
            "{\"id\":1,\"verdict\":\"admit\",\"level\":\"top\"}",
            "unknown level \"top\"",
        ),
        (
            "{\"id\":1,\"verdict\":\"admit\",\"level\":2}",
            "level must be a string",
        ),
        (
            "{\"id\":1,\"verdict\":\"admit\",\"degraded\":0}",
            "degraded must be a boolean",
        ),
        (
            "{\"id\":1,\"verdict\":\"admit\",\"latency_us\":\"1\"}",
            "latency_us must be a number",
        ),
        (
            "{\"id\":1,\"verdict\":\"admit\",\"hash\":12}",
            "hash must be a hex string",
        ),
        (
            "{\"id\":1,\"verdict\":\"admit\",\"detail\":null}",
            "detail must be a string",
        ),
        (
            "{\"id\":1,\"verdict\":\"admit\",\"detail\":\"a\\",
            "bad escape at byte 38",
        ),
    ];
    for (line, want) in responses {
        assert_eq!(
            parse_response(line).as_ref().map_err(String::as_str),
            Err(*want),
            "{line:?}"
        );
    }
}

/// Linear code decodes 1 MiB in milliseconds even unoptimised; a decoder
/// that re-validates the rest of the line per character needs ~10¹²
/// byte visits here and would not finish in minutes.
#[test]
fn megabyte_lines_decode_in_linear_time() {
    let source = "  node v1 10 # é\n".repeat((1 << 20) / 17);
    let line = encode_request(&Request {
        id: 7,
        m: 8,
        priority: 4,
        deadline_us: 0,
        body: RequestBody::Source(source.clone()),
    });
    assert!(line.len() > 1 << 20);
    let started = std::time::Instant::now();
    let back = parse_request(&line).expect("line decodes");
    // The same line cut short inside the source: rejected, id recovered.
    let cut = &line[..line.len() - 9];
    assert_eq!(parse_request(cut), Err("unterminated string".to_string()));
    assert_eq!(probe_id(cut), 7);
    let elapsed = started.elapsed();
    assert_eq!(back.body, RequestBody::Source(source));
    assert!(elapsed.as_secs() < 2, "1 MiB decode took {elapsed:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A degraded admit from the Limited rung is sound: replaying the
    /// same set through the full ladder (no budget cap) also admits.
    #[test]
    fn degraded_admit_implies_exact_admit(
        seed in 0u64..100_000,
        n in 2usize..5,
        util_tenths in 10u64..60,
    ) {
        let set = random_set(seed, n, util_tenths as f64 / 10.0);
        let m = 8;
        let token = CancelToken::never();
        let capped = run_ladder_capped(&set, m, &token, LadderLevel::Limited);
        if capped.admit && capped.degraded {
            let exact = run_ladder(&set, m, &token);
            prop_assert!(
                exact.admit,
                "degraded Limited admit but exact reject (seed {seed}, n {n}): {}",
                exact.detail
            );
        }
        // Non-degraded answers from the capped climb are definitive by
        // construction; they must agree with the full ladder exactly.
        if !capped.degraded {
            let exact = run_ladder(&set, m, &token);
            prop_assert_eq!(capped.admit, exact.admit);
        }
    }

    /// An `edit` request answered from the delta-patched cache entry
    /// agrees exactly — verdict, rung, and content hash — with the
    /// cold path: rendering the mutated set to source and submitting it
    /// to a fresh interner.
    #[test]
    fn delta_patched_edit_equals_cold_path(
        seed in 0u64..50_000,
        n in 1usize..4,
        util_tenths in 10u64..50,
        tpick in 0usize..64,
        npick in 0usize..256,
        wcet in 1u64..500,
    ) {
        let set = random_set(seed, n, util_tenths as f64 / 10.0);
        let task = tpick % set.len();
        let dag = set.as_slice()[task].dag();
        let node = NodeId::from_index(npick % dag.node_count());
        let mut ops = dag.edit();
        ops.set_wcet(node, wcet);
        edit_equals_cold_path(&set, task, &format!("wcet:{task}.{}={wcet}", node.index()), ops)?;
    }

    /// The same agreement for scripts that are *not* WCET edits — an
    /// edge between two concurrent nodes outside every region, a node
    /// between a reachable pair of them, an existing pair dissolved (and
    /// declared again) — and the other half: a script whose final graph
    /// is no task graph answers `error` once, in the builder's words.
    #[test]
    fn structural_edit_equals_cold_path(
        seed in 0u64..50_000,
        n in 1usize..4,
        util_tenths in 10u64..50,
        tpick in 0usize..64,
        upick in 0usize..256,
        vpick in 0usize..256,
        kind in 0usize..4,
    ) {
        let set = random_set(seed, n, util_tenths as f64 / 10.0);
        let task = tpick % set.len();
        let dag = set.as_slice()[task].dag();
        let reach = dag.reachability();
        let free: Vec<NodeId> = dag
            .node_ids()
            .filter(|&v| dag.kind(v) == NodeKind::NonBlocking)
            .collect();
        let (u, v) = (free[upick % free.len()], free[vpick % free.len()]);
        let (u, v) = if reach.reaches(v, u) { (v, u) } else { (u, v) };
        let regions = dag.blocking_regions();
        let region = regions.get(upick % regions.len().max(1));
        let mut ops = dag.edit();
        let script = match (kind, region) {
            (0 | 1, Some(r)) => {
                let (f, j) = (r.fork(), r.join());
                ops.set_blocking(f, j, false);
                let off = format!("block:{task}.{}-{}=off", f.index(), j.index());
                if kind == 0 {
                    off
                } else {
                    ops.set_blocking(f, j, true);
                    format!("{off}; block:{task}.{}-{}=on", f.index(), j.index())
                }
            }
            _ if reach.reaches(u, v) => {
                ops.insert_node(7, &[u], &[v]);
                format!("node:{task}=7@{}>{}", u.index(), v.index())
            }
            _ if u != v => {
                ops.insert_edge(u, v);
                format!("edge:{task}.{}>{}", u.index(), v.index())
            }
            _ => {
                ops.set_wcet(u, 7);
                format!("wcet:{task}.{}=7", u.index())
            }
        };
        let (sup, interner, base) = edit_equals_cold_path(&set, task, &script, ops)?;

        // The other half: `v -> u` closes a cycle when `u` reaches `v`,
        // and an edge from a blocking fork to the sink leaves its region.
        let bad = match region {
            Some(r) if kind % 2 == 0 => (r.fork(), dag.sink()),
            _ if reach.reaches(u, v) => (v, u),
            _ => (dag.sink(), dag.source()),
        };
        let mut b = DagBuilder::new();
        for x in dag.node_ids() {
            b.add_node(dag.wcet(x));
        }
        for x in dag.node_ids() {
            for &y in dag.successors(x) {
                b.add_edge(x, y).expect("the base's own edge");
            }
        }
        for r in regions {
            b.blocking_pair(r.fork(), r.join()).expect("the base's own pair");
        }
        b.add_edge(bad.0, bad.1).expect("a new edge between known nodes");
        let said = b.build().expect_err("the edge breaks the model");
        let script = format!("edge:{task}.{}>{}", bad.0.index(), bad.1.index());
        let refused = sup.execute(
            3,
            &request(8, RequestBody::Edit { base, script }),
            &interner,
            &CancelToken::never(),
        );
        prop_assert_eq!(refused.verdict, VerdictKind::Error);
        prop_assert_eq!(refused.attempts, 1);
        prop_assert_eq!(refused.detail, format!("edit rejected on task {task}: {said}"));
    }
}

/// Sends `set` as source and then `script` as an edit of it, and checks
/// the edit's answer — verdict, rung and content hash — against the cold
/// path: `ops` (the same script as graph edits of task `task`) applied
/// out of band, the mutated set rendered to source and sent to a fresh
/// interner. Returns what served the edit, and the base's hash.
fn edit_equals_cold_path(
    set: &TaskSet,
    task: usize,
    script: &str,
    ops: DagEdit<'_>,
) -> Result<(Supervisor, Interner, u64), String> {
    let sup = Supervisor::new(RecoveryPolicy::Abort, ServiceFaultPlan::seeded(0));
    let never = CancelToken::never();
    let interner = Interner::new(8);
    let source = RequestBody::Source(write_task_set(set));
    let based = sup.execute(0, &request(8, source), &interner, &never);
    let base = based.hash.expect("base request resolves a hash");
    let edit = RequestBody::Edit {
        base,
        script: script.to_string(),
    };
    let warm = sup.execute(1, &request(8, edit), &interner, &never);
    prop_assert!(
        warm.events.contains(&ServiceEvent::CacheDeltaHit),
        "`{}` on a resident base must produce a delta hit: {}",
        script,
        warm.detail
    );

    let (edited, _) = ops.apply().expect("the script is valid by construction");
    let mut tasks: Vec<Task> = set.iter().map(|(_, t)| t.clone()).collect();
    tasks[task] =
        Task::new(edited, tasks[task].period(), tasks[task].deadline()).expect("periods unchanged");
    let source = RequestBody::Source(write_task_set(&TaskSet::new(tasks)));
    let cold = sup.execute(2, &request(8, source), &Interner::new(8), &never);
    prop_assert_eq!(
        answer(&cold),
        answer(&warm),
        "`{}`: warm detail: {}",
        script,
        warm.detail
    );
    Ok((sup, interner, base))
}

/// `source` with the last digit of task 0's node `v{node}` WCET
/// changed: same length, same shape, one byte apart.
fn one_digit_off(source: &str, node: usize) -> String {
    let line = format!("  node v{node} ");
    let digit = source.find(&line).expect("task 0 has the node") + line.len();
    let digit = digit + source[digit..].find('\n').expect("line ends") - 1;
    let old = source.as_bytes()[digit] - b'0';
    let mut bytes = source.as_bytes().to_vec();
    bytes[digit] = b'1' + old % 9;
    String::from_utf8(bytes).expect("ASCII digits")
}

/// What a client can tell two answers apart by.
fn answer(out: &ServiceOutcome) -> (Option<u64>, VerdictKind, Option<LadderLevel>) {
    (out.hash, out.verdict, out.level)
}

fn request(m: usize, body: RequestBody) -> Request {
    Request {
        id: 0,
        m,
        priority: 4,
        deadline_us: 0,
        body,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sources that are near misses of each other — one WCET digit
    /// apart at the same length, or the same set behind a comment or a
    /// trailing space — sent one to four times each in any order to a
    /// two-entry interner, with entries poisoned in between: every send
    /// is answered with the hash, verdict and rung a fresh interner
    /// gives that text alone.
    #[test]
    fn near_miss_sources_never_hit(
        seed in 0u64..50_000,
        n in 1usize..4,
        util_tenths in 10u64..50,
        node in 0usize..2,
        sends in prop::collection::vec((0usize..8, 1usize..5, 0usize..3), 4..24),
    ) {
        let m = 8;
        let never = CancelToken::never();
        let sup = Supervisor::new(RecoveryPolicy::Abort, ServiceFaultPlan::seeded(0));
        let mut texts = Vec::new();
        for k in 0..2 {
            let text = write_task_set(&random_set(seed + k, n, util_tenths as f64 / 10.0));
            texts.push(one_digit_off(&text, node));
            texts.push(format!("# resent\n{text}"));
            texts.push(text.replacen('\n', " \n", 2));
            texts.push(text);
        }
        let alone: Vec<_> = texts
            .iter()
            .map(|text| {
                let body = RequestBody::Source(text.clone());
                answer(&sup.execute(0, &request(m, body), &Interner::new(8), &never))
            })
            .collect();
        prop_assert_eq!(alone[1].0, alone[3].0, "a comment keeps the structure");
        prop_assert_eq!(alone[2].0, alone[3].0, "so does a trailing space");
        prop_assert!(alone[0].0 != alone[3].0, "a WCET digit does not");

        let interner = Interner::new(2);
        for (seq, &(pick, times, poison)) in sends.iter().enumerate() {
            if let (0, Some(hash)) = (poison, alone[(pick + 3) % 8].0) {
                interner.poison(hash);
            }
            let request = request(m, RequestBody::Source(texts[pick].clone()));
            for t in 0..times {
                let out = sup.execute(seq as u64, &request, &interner, &never);
                prop_assert_eq!(answer(&out), alone[pick], "text {} sending {}: {}", pick, t, out.detail);
            }
        }
    }

    /// The same for edit scripts: one digit apart, one trailing space
    /// apart, and the same script against another base.
    #[test]
    fn near_miss_edits_never_hit(
        seed in 0u64..50_000,
        n in 1usize..4,
        util_tenths in 10u64..50,
        sends in prop::collection::vec((0usize..2, 0usize..4, 1usize..5, 0usize..3), 4..24),
    ) {
        const SCRIPTS: [&str; 4] = ["wcet:0.1=5", "wcet:0.1=6", "wcet:0.1=5 ", "wcet:0.1=5;"];
        let m = 8;
        let never = CancelToken::never();
        let sup = Supervisor::new(RecoveryPolicy::Abort, ServiceFaultPlan::seeded(0));
        let execute = |interner: &Interner, body: RequestBody| {
            sup.execute(0, &request(m, body), interner, &never)
        };
        let sources: Vec<String> = (0..2)
            .map(|k| write_task_set(&random_set(seed + k, n, util_tenths as f64 / 10.0)))
            .collect();
        let mut bases = Vec::new();
        let mut alone = Vec::new();
        for source in &sources {
            for script in SCRIPTS {
                let fresh = Interner::new(8);
                let base = execute(&fresh, RequestBody::Source(source.clone())).hash.expect("base resolves");
                let edit = RequestBody::Edit { base, script: script.to_string() };
                alone.push(answer(&execute(&fresh, edit)));
                bases.push(base);
            }
        }
        prop_assert!(alone[0].0.is_some() && alone[0].0 != alone[1].0, "=5 and =6 differ");
        prop_assert_eq!(alone[0], alone[2], "a trailing space or semicolon does not");
        prop_assert_eq!(alone[0], alone[3]);

        // Two entries: a base and the latest of its patched sets.
        let interner = Interner::new(2);
        for &(b, s, times, poison) in &sends {
            let pick = b * SCRIPTS.len() + s;
            if poison == 0 {
                interner.poison(alone[pick].0.expect("edit resolves"));
            } else if poison == 1 {
                interner.poison(bases[pick]);
            }
            // An evicted (or poisoned, and now evicted) base is sent
            // again; a resident one is not, so that the edit below is
            // the first recipe the interner sees after the last one.
            if interner.lookup(bases[pick]).is_err() {
                let based = execute(&interner, RequestBody::Source(sources[b].clone()));
                prop_assert_eq!(based.hash, Some(bases[pick]));
            }
            let edit = RequestBody::Edit { base: bases[pick], script: SCRIPTS[s].to_string() };
            for t in 0..times {
                let out = execute(&interner, edit.clone());
                prop_assert_eq!(answer(&out), alone[pick], "edit {} sending {}: {}", pick, t, out.detail);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A generated set and its spin twin, sent to one interner in
    /// either order: the spin source gets its own hash and the verdict,
    /// rung and detail of the ladder on the spin set, never the suspend
    /// twin's memoized answer.
    #[test]
    fn a_spin_source_is_answered_as_the_spin_set(
        seed in 0u64..50_000,
        n in 1usize..4,
        util_tenths in 5u64..30,
        m in 2usize..6,
        spin_first in any::<bool>(),
    ) {
        let set = random_set(seed, n, util_tenths as f64 / 10.0);
        let suspend = write_task_set(&set);
        let spin = write_task_set(&set.with_backend(SyncBackend::Spin));
        let never = CancelToken::never();
        let sup = Supervisor::new(RecoveryPolicy::Abort, ServiceFaultPlan::seeded(0));
        let interner = Interner::new(8);
        let send = |text: &str| {
            let body = RequestBody::Source(text.to_string());
            sup.execute(0, &request(m, body), &interner, &never)
        };
        let (spun, twin) = if spin_first {
            let spun = send(&spin);
            (spun, send(&suspend))
        } else {
            let twin = send(&suspend);
            (send(&spin), twin)
        };
        prop_assert!(spun.hash != twin.hash, "the backend is part of the hash");
        let spin_set = parse_task_set(&spin).expect("a written set parses");
        prop_assert_eq!(spin_set.backend(), SyncBackend::Spin);
        let ladder = run_ladder(&spin_set, m, &never);
        let verdict = if ladder.admit { VerdictKind::Admit } else { VerdictKind::Reject };
        prop_assert_eq!(
            (spun.verdict, spun.level, &spun.detail),
            (verdict, Some(ladder.level), &ladder.detail)
        );
    }
}
