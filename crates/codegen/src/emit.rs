//! Typed-module emission for certified workloads.
//!
//! The emitted text is deterministic in the workload (no timestamps, no
//! environment), so golden tests can bless it and incremental builds
//! stay quiet. It references items of `rtpool-exec` and `rtpool-core` by
//! absolute path: the *including* crate must depend on both.

use std::fmt::Write as _;

use rtpool_core::TaskId;

use crate::Certified;

/// Renders the typed Rust module for a certified workload.
///
/// The module contains, for each task `i`, a `pub mod task<i>` with
/// `PERIOD`/`DEADLINE` consts, one typed node-handle const per declared
/// node, and the `NODES`/`EDGES`/`BLOCKING` tables; at the top level,
/// the `TASKS` table, the `DeadlockFree` proof token (`PROOF`), and the
/// `CONFIG` accepted by `ThreadPool::new_static`. Include it as
///
/// ```ignore
/// #[allow(dead_code)]
/// mod certified_pipeline {
///     include!(concat!(env!("OUT_DIR"), "/certified_pipeline.rs"));
/// }
/// ```
///
/// (`allow(dead_code)` because a given program rarely uses every node
/// handle.)
#[must_use]
pub fn certified_module_source(certified: &Certified) -> String {
    let m = certified.m;
    let b_bar = certified.b_bar;
    let b_bar_delay = certified.b_bar_delay;
    let spin = certified.backend.is_spin();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "// @generated by rtpool-codegen from {}: certified for m = {m} \
         (b\u{304} = {b_bar}, floor l\u{304} = {}, {} backend).",
        certified.source_path,
        m - b_bar,
        certified.backend.as_str()
    );
    out.push_str("// Do not edit: regenerate by rebuilding the including crate.\n\n");
    out.push_str("use ::rtpool_exec::certified::{CertifiedConfig, DeadlockFree, StaticTask};\n\n");
    let _ = writeln!(
        out,
        "/// The certified pool size `m`.\npub const M: usize = {m};"
    );
    let _ = writeln!(
        out,
        "/// The workload's maximum simultaneously-suspended blocking forks `b\u{304}`.\n\
         pub const B_BAR: usize = {b_bar};"
    );
    out.push_str(
        "/// The guaranteed concurrency floor `l\u{304} = m \u{2212} b\u{304}`.\n\
         pub const L_BAR: usize = M - B_BAR;\n",
    );
    let _ = writeln!(
        out,
        "/// The spin-mode blocking bound: the maximum per-node delay-set\n\
         /// size `b\u{304}_delay` (`>= B_BAR`; busy-waiting forks never free\n\
         /// their core, so mutually-exclusive regions still stack up).\n\
         pub const B_BAR_DELAY: usize = {b_bar_delay};"
    );
    let _ = writeln!(
        out,
        "/// The certified barrier-wait backend.\n\
         pub const BACKEND: ::rtpool_core::SyncBackend = ::rtpool_core::SyncBackend::{};",
        if spin { "Spin" } else { "Suspend" }
    );
    let _ = writeln!(
        out,
        "/// The workload this module was generated from.\n\
         pub const SOURCE: &str = \"{}\";\n",
        certified.source_path.escape_default()
    );

    for (id, task) in certified.task_set.iter() {
        emit_task(&mut out, certified, id, task);
    }

    out.push_str("/// The certified tasks, in `.rtp` declaration order.\n");
    out.push_str("pub const TASKS: &[StaticTask] = &[");
    for i in 0..certified.task_set.len() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "task{i}::TASK");
    }
    out.push_str("];\n\n");

    out.push_str(
        "/// The Lemma 1 proof token: naming it forces the compile-time check\n\
         /// `m \u{2265} b\u{304} + 1`.\n",
    );
    let _ = writeln!(
        out,
        "pub const PROOF: DeadlockFree<{m}, {b_bar}> = DeadlockFree::CERTIFIED;\n"
    );
    out.push_str("/// The certified configuration `ThreadPool::new_static` accepts.\n");
    let _ = writeln!(
        out,
        "pub const CONFIG: CertifiedConfig<{m}, {b_bar}> = CertifiedConfig {{\n    \
         proof: PROOF,\n    tasks: TASKS,\n    source: SOURCE,\n}};\n"
    );
    out.push_str(
        "// Defense in depth: the same floor, checked through the const sizing\n\
         // helpers (fails `cargo build` if the tables above were tampered with).\n",
    );
    out.push_str(
        "const _: () = assert!(\n    \
         ::rtpool_core::sizing::deadlock_free_floor(M, B_BAR),\n    \
         \"certified module violates Lemma 1: m < b\\u{304} + 1\"\n);\n",
    );
    if spin {
        out.push_str(
            "// Spin workloads answer to the harsher delay-count floor: a\n\
             // busy-waiting fork never frees its core, so the antichain bound\n\
             // certifies suspend mode only.\n",
        );
        out.push_str(
            "const _: () = assert!(\n    \
             ::rtpool_core::sizing::deadlock_free_floor(M, B_BAR_DELAY),\n    \
             \"certified module violates the spin floor: m < b\\u{304}_delay + 1\"\n);\n",
        );
    }
    out
}

fn emit_task(out: &mut String, certified: &Certified, id: TaskId, task: &rtpool_core::Task) {
    let dag = task.dag();
    let spans = certified.spans.task(id);
    let names: Vec<String> = dag
        .node_ids()
        .map(|v| {
            spans
                .name(v)
                .map(str::to_owned)
                .unwrap_or_else(|| format!("v{}", v.index()))
        })
        .collect();
    let handles = handle_idents(&names);

    let _ = writeln!(
        out,
        "/// Task \u{3c4}{} of `{}`.\npub mod task{} {{",
        id.index(),
        certified.source_path.escape_default(),
        id.index()
    );
    out.push_str("    use ::rtpool_exec::certified::{StaticNode, StaticTask};\n\n");
    let _ = writeln!(
        out,
        "    /// Period `T`.\n    pub const PERIOD: u64 = {};",
        task.period()
    );
    let _ = writeln!(
        out,
        "    /// Relative deadline `D`.\n    pub const DEADLINE: u64 = {};\n",
        task.deadline()
    );
    for (i, (name, handle)) in names.iter().zip(&handles).enumerate() {
        let _ = writeln!(
            out,
            "    /// Handle of node `{}`.\n    pub const {handle}: u32 = {i};",
            name.escape_default()
        );
    }
    out.push_str("\n    /// Node table, in declaration order.\n");
    out.push_str("    pub const NODES: &[StaticNode] = &[\n");
    for (name, v) in names.iter().zip(dag.node_ids()) {
        let _ = writeln!(
            out,
            "        StaticNode {{ name: \"{}\", wcet: {} }},",
            name.escape_default(),
            dag.wcet(v)
        );
    }
    out.push_str("    ];\n\n");

    out.push_str("    /// `(from, to)` precedence edges over node handles.\n");
    out.push_str("    pub const EDGES: &[(u32, u32)] = &[");
    let mut first = true;
    for v in dag.node_ids() {
        for &s in dag.successors(v) {
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(out, "({}, {})", handles[v.index()], handles[s.index()]);
        }
    }
    out.push_str("];\n\n");

    out.push_str("    /// `(fork, join)` blocking pairs over node handles.\n");
    out.push_str("    pub const BLOCKING: &[(u32, u32)] = &[");
    for (i, region) in dag.blocking_regions().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "({}, {})",
            handles[region.fork().index()],
            handles[region.join().index()]
        );
    }
    out.push_str("];\n\n");

    out.push_str("    /// The task's const table.\n");
    out.push_str(
        "    pub const TASK: StaticTask = StaticTask {\n        period: PERIOD,\n        \
         deadline: DEADLINE,\n        nodes: NODES,\n        edges: EDGES,\n        \
         blocking: BLOCKING,\n    };\n}\n\n",
    );
}

/// Reserved const names inside a generated task module.
const RESERVED: &[&str] = &["PERIOD", "DEADLINE", "NODES", "EDGES", "BLOCKING", "TASK"];

/// Maps declared node names to unique SCREAMING_CASE Rust identifiers:
/// `fork_a` → `FORK_A`; anything unrepresentable or colliding falls back
/// to the positional handle `N<i>`.
fn handle_idents(names: &[String]) -> Vec<String> {
    let mut out: Vec<String> = Vec::with_capacity(names.len());
    for (i, name) in names.iter().enumerate() {
        let mut ident: String = name
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_uppercase()
                } else {
                    '_'
                }
            })
            .collect();
        let degenerate = ident.chars().all(|c| c == '_')
            || ident.starts_with(|c: char| c.is_ascii_digit())
            || RESERVED.contains(&ident.as_str())
            || out.contains(&ident);
        if degenerate {
            ident = format!("N{i}");
        }
        out.push(ident);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Codegen;

    #[test]
    fn handles_sanitize_dedupe_and_dodge_reserved() {
        let names: Vec<String> = [
            "f",
            "a-1",
            "a_1",
            "task",
            "9lives",
            "nodes",
            "\u{e9}t\u{e9}",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let idents = handle_idents(&names);
        assert_eq!(idents[0], "F");
        assert_eq!(idents[1], "A_1");
        assert_eq!(idents[2], "N2", "collides with A_1 after sanitizing");
        assert_eq!(idents[3], "N3", "TASK is reserved");
        assert_eq!(idents[4], "N4", "cannot start with a digit");
        assert_eq!(idents[5], "N5", "NODES is reserved");
        assert_eq!(idents[6], "_T_", "non-ASCII chars map to underscores");
    }

    #[test]
    fn emitted_module_carries_tables_and_literal_proof() {
        let src = "\
task period=400 deadline=300
  node f 1
  node a 2
  node b 2
  node j 1
  edge f a
  edge f b
  edge a j
  edge b j
  blocking f j
end
";
        let certified = Codegen::new("demo.rtp", 2)
            .certify_source("demo.rtp", src)
            .unwrap();
        let module = certified_module_source(&certified);
        assert!(module.contains("pub const M: usize = 2;"), "{module}");
        assert!(module.contains("pub const B_BAR: usize = 1;"), "{module}");
        assert!(module.contains("DeadlockFree<2, 1> = DeadlockFree::CERTIFIED"));
        assert!(module.contains("pub const PERIOD: u64 = 400;"));
        assert!(module.contains("pub const DEADLINE: u64 = 300;"));
        assert!(module.contains("pub const F: u32 = 0;"));
        assert!(module.contains("StaticNode { name: \"f\", wcet: 1 }"));
        assert!(
            module.contains("(F, A), (F, B), (A, J), (B, J)"),
            "{module}"
        );
        assert!(
            module.contains("BLOCKING: &[(u32, u32)] = &[(F, J)]"),
            "{module}"
        );
        assert!(module.contains("deadlock_free_floor(M, B_BAR)"));
        assert!(
            module.contains("pub const B_BAR_DELAY: usize = 1;"),
            "{module}"
        );
        assert!(
            module.contains("pub const BACKEND: ::rtpool_core::SyncBackend = ::rtpool_core::SyncBackend::Suspend;"),
            "{module}"
        );
        assert!(
            !module.contains("deadlock_free_floor(M, B_BAR_DELAY)"),
            "suspend modules must not carry the spin assert:\n{module}"
        );
        // Deterministic: same input, same text.
        assert_eq!(module, certified_module_source(&certified));
    }

    #[test]
    fn spin_module_carries_backend_const_and_spin_assert() {
        let src = "\
backend spin
task period=400 deadline=300
  node f 1
  node a 2
  node b 2
  node j 1
  edge f a
  edge f b
  edge a j
  edge b j
  blocking f j
end
";
        let certified = Codegen::new("demo.rtp", 2)
            .certify_source("demo.rtp", src)
            .expect("m = 2 meets the spin floor b\u{304}_delay + 1 = 2");
        let module = certified_module_source(&certified);
        assert!(module.contains("spin backend)."), "{module}");
        assert!(
            module.contains(
                "pub const BACKEND: ::rtpool_core::SyncBackend = ::rtpool_core::SyncBackend::Spin;"
            ),
            "{module}"
        );
        assert!(
            module.contains("pub const B_BAR_DELAY: usize = 1;"),
            "{module}"
        );
        assert!(
            module.contains("::rtpool_core::sizing::deadlock_free_floor(M, B_BAR_DELAY)"),
            "{module}"
        );
        assert_eq!(module, certified_module_source(&certified));
    }
}
