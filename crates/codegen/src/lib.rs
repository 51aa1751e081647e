//! # rtpool-codegen
//!
//! Build-time certification of `.rtp` workloads: a `build.rs`-facing
//! library that turns the `rtlint` static-analysis pass into a **compile
//! gate** and, for passing workloads, emits a typed Rust module.
//!
//! The pipeline is
//!
//! ```text
//! workload.rtp ──parse──▶ TaskSet ──rtlint (deny policy)──▶ rejected?
//!                                         │                     │
//!                                         ▼                     ▼
//!                           typed module (OUT_DIR)    cargo build FAILS with
//!                           const tables + proof      rustc-style diagnostics
//!                           token DeadlockFree<M,B̄>   + machine-applicable
//!                                                      fix notes
//! ```
//!
//! The generated module contains `const` task/node/edge tables
//! (`StaticTask`/`StaticNode` from `rtpool-exec`), typed node handles,
//! and a `CertifiedConfig<M, B_BAR>` whose zero-sized
//! `DeadlockFree::CERTIFIED` proof token asserts the paper's Lemma 1
//! floor `m ≥ b̄ + 1` *during `const` evaluation* — an undersized pool
//! size therefore fails `cargo build` twice over: once in this library's
//! lint gate with a full RT101 diagnostic, and (defense in depth, had
//! the gate been bypassed) once in the const assertion of the emitted
//! token. `ThreadPool::new_static` accepts only such configs.
//!
//! ## `build.rs` usage
//!
//! ```no_run
//! use rtpool_codegen::Codegen;
//!
//! // build.rs
//! Codegen::new("workloads/pipeline.rtp", 6)
//!     .deny_warnings()
//!     .compile("certified_pipeline");
//! ```
//!
//! and in the crate:
//!
//! ```ignore
//! mod certified_pipeline {
//!     include!(concat!(env!("OUT_DIR"), "/certified_pipeline.rs"));
//! }
//! let mut pool = rtpool_exec::ThreadPool::new_static(&certified_pipeline::CONFIG);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod emit;
mod error;

pub use emit::certified_module_source;
pub use error::CodegenError;

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use rtpool_core::textfmt::SourceSpans;
use rtpool_core::{SyncBackend, TaskSet};
use rtpool_lint::{check_source, LintOptions, RuleCode, Severity};

/// Everything the lint gate certified about a workload; input to module
/// emission and available to `build.rs` scripts for logging.
#[derive(Clone, Debug)]
pub struct Certified {
    /// The workload path, as given to [`Codegen::new`].
    pub source_path: String,
    /// The raw `.rtp` text.
    pub source_text: String,
    /// The certified pool size.
    pub m: usize,
    /// The workload's maximum simultaneously-suspended blocking-fork
    /// antichain, maximized over tasks.
    pub b_bar: usize,
    /// The workload's maximum per-node delay-set size, maximized over
    /// tasks: the spin-mode blocking bound. Always `>= b_bar` — a
    /// busy-waiting fork never frees its core, so mutually-exclusive
    /// blocking regions (which an antichain excludes) still stack up.
    pub b_bar_delay: usize,
    /// The barrier-wait backend declared by the workload's `backend`
    /// directive ([`SyncBackend::Suspend`] when absent). The gate's
    /// RT101 floor is `m >= b_bar + 1` under suspend but
    /// `m >= b_bar_delay + 1` under spin.
    pub backend: SyncBackend,
    /// The parsed tasks.
    pub task_set: TaskSet,
    /// Declaration-site spans (node names live here).
    pub spans: SourceSpans,
    /// Warnings that passed the deny policy (rendered, for
    /// `cargo:warning=` forwarding).
    pub warnings: Vec<String>,
}

/// The build-time certification gate: configure a workload and a lint
/// policy, then [`compile`](Codegen::compile) a typed module into
/// `OUT_DIR` — or fail the build with the lint findings.
#[derive(Clone, Debug)]
pub struct Codegen {
    path: PathBuf,
    options: LintOptions,
}

impl Codegen {
    /// A gate for the workload at `path`, certifying a pool of `m`
    /// workers.
    pub fn new(path: impl Into<PathBuf>, m: usize) -> Self {
        Codegen {
            path: path.into(),
            options: LintOptions::with_m(m),
        }
    }

    /// Suppresses a rule (`"RT102"`-style code).
    ///
    /// # Panics
    ///
    /// Panics on an unknown code — a typo in a build script should fail
    /// loudly, not silently keep the rule enabled.
    #[must_use]
    pub fn allow(mut self, code: &str) -> Self {
        self.options.allow.insert(parse_code(code));
        self
    }

    /// Promotes a rule to a build-failing error.
    ///
    /// # Panics
    ///
    /// Panics on an unknown code.
    #[must_use]
    pub fn deny(mut self, code: &str) -> Self {
        self.options.deny.insert(parse_code(code));
        self
    }

    /// Promotes every warning to a build-failing error (the gate's
    /// `--deny warnings`).
    #[must_use]
    pub fn deny_warnings(mut self) -> Self {
        self.options.deny_warnings = true;
        self
    }

    /// Runs the full lint pass over the workload under this gate's deny
    /// policy.
    ///
    /// # Errors
    ///
    /// [`CodegenError::Io`] when the file is unreadable,
    /// [`CodegenError::Rejected`] when any finding reaches
    /// [`Severity::Error`] — the error's `Display` is the complete
    /// rustc-style report plus machine-applicable fix notes.
    pub fn certify(&self) -> Result<Certified, CodegenError> {
        let source_path = self.path.display().to_string();
        let source_text = fs::read_to_string(&self.path).map_err(|source| CodegenError::Io {
            path: source_path.clone(),
            source,
        })?;
        self.certify_source(source_path, source_text)
    }

    /// [`Codegen::certify`] over in-memory text (the file at the
    /// configured path is never read). Pure; unit tests and the
    /// compile-fail harness use it to avoid filesystem coupling.
    ///
    /// # Errors
    ///
    /// [`CodegenError::Rejected`] as for [`Codegen::certify`].
    pub fn certify_source(
        &self,
        source_path: impl Into<String>,
        source_text: impl Into<String>,
    ) -> Result<Certified, CodegenError> {
        let source_path = source_path.into();
        let source_text = source_text.into();
        let (report, parsed) = check_source(source_path.clone(), &source_text, &self.options);
        let rejected = report.has_failures() || parsed.is_none();
        if rejected {
            return Err(CodegenError::rejected(
                &source_path,
                self.options.m,
                &report,
                &source_text,
            ));
        }
        let (task_set, spans) = parsed.expect("parse succeeded");
        let b_bar = task_set
            .iter()
            .map(|(_, t)| t.dag().max_blocking_antichain().len())
            .max()
            .unwrap_or(0);
        let b_bar_delay = task_set
            .iter()
            .map(|(_, t)| t.dag().delay_profile().max_delay_count())
            .max()
            .unwrap_or(0);
        let backend = task_set.backend();
        let warnings = report
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .map(|d| format!("{}: {} [{}]", source_path, d.message, d.code))
            .collect();
        Ok(Certified {
            source_path,
            source_text,
            m: self.options.m,
            b_bar,
            b_bar_delay,
            backend,
            task_set,
            spans,
            warnings,
        })
    }

    /// Certifies the workload and returns the generated module source.
    ///
    /// # Errors
    ///
    /// As for [`Codegen::certify`].
    pub fn generate_string(&self) -> Result<String, CodegenError> {
        Ok(certified_module_source(&self.certify()?))
    }

    /// Certifies the workload and writes `<module>.rs` into `OUT_DIR`,
    /// emitting the `cargo:rerun-if-changed` directive for the workload
    /// and forwarding surviving warnings as `cargo:warning=` lines.
    ///
    /// **Aborts the build** (prints the full diagnostic report to stderr
    /// and exits nonzero) when the gate rejects the workload — this is
    /// the intended `build.rs` entry point; use
    /// [`Codegen::try_compile`] to handle rejection yourself.
    pub fn compile(&self, module: &str) -> PathBuf {
        match self.try_compile(module) {
            Ok(path) => path,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
    }

    /// Like [`Codegen::compile`], returning the rejection instead of
    /// aborting.
    ///
    /// # Errors
    ///
    /// As for [`Codegen::certify`], plus [`CodegenError::Io`] when
    /// `OUT_DIR` is unset or unwritable.
    pub fn try_compile(&self, module: &str) -> Result<PathBuf, CodegenError> {
        println!("cargo:rerun-if-changed={}", self.path.display());
        let certified = self.certify()?;
        for w in &certified.warnings {
            println!("cargo:warning={w}");
        }
        let out_dir = std::env::var_os("OUT_DIR").ok_or_else(|| CodegenError::Io {
            path: "$OUT_DIR".into(),
            source: std::io::Error::new(
                std::io::ErrorKind::NotFound,
                "OUT_DIR is not set: Codegen::compile must run from build.rs",
            ),
        })?;
        let out = Path::new(&out_dir).join(format!("{module}.rs"));
        fs::write(&out, certified_module_source(&certified)).map_err(|source| {
            CodegenError::Io {
                path: out.display().to_string(),
                source,
            }
        })?;
        Ok(out)
    }
}

fn parse_code(code: &str) -> RuleCode {
    RuleCode::parse(code)
        .filter(|c| c.info().is_some())
        .unwrap_or_else(|| panic!("unknown rtlint rule code `{code}` in codegen policy"))
}

/// Renders the machine-applicable fix payloads of a report as
/// build-failure notes (one line per fix), or an empty string when no
/// diagnostic carries one.
#[must_use]
pub fn fix_notes(report: &rtpool_lint::LintReport) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        let Some(fix) = &d.fix else { continue };
        let mut line = format!("note[{}]: {}", d.code, fix.message);
        for (key, value) in &fix.data {
            let _ = write!(line, " ({key} = {value})");
        }
        if !fix.edits.is_empty() {
            let _ = write!(
                line,
                " [{} source edit{} available via `rtlint --fix-dry-run`]",
                fix.edits.len(),
                if fix.edits.len() == 1 { "" } else { "s" }
            );
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIGURE1_LIKE: &str = "\
task period=400 deadline=400
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

    #[test]
    fn gate_passes_a_safe_pool() {
        let certified = Codegen::new("demo.rtp", 2)
            .certify_source("demo.rtp", FIGURE1_LIKE)
            .expect("m = 2 > b\u{304} = 1 certifies");
        assert_eq!(certified.m, 2);
        assert_eq!(certified.b_bar, 1);
        assert_eq!(certified.task_set.len(), 1);
    }

    #[test]
    fn gate_rejects_an_undersized_pool_with_rt101_and_fix_note() {
        let err = Codegen::new("demo.rtp", 1)
            .certify_source("demo.rtp", FIGURE1_LIKE)
            .expect_err("m = 1 deadlocks");
        let rendered = err.to_string();
        assert!(rendered.contains("RT101"), "RT101 missing:\n{rendered}");
        assert!(
            rendered.contains("suggested_m = 2"),
            "fix payload note missing:\n{rendered}"
        );
        assert!(rendered.contains("error"), "not an error:\n{rendered}");
    }

    #[test]
    fn gate_rejects_parse_failures() {
        let err = Codegen::new("demo.rtp", 4)
            .certify_source("demo.rtp", "task period=oops\nend\n")
            .expect_err("malformed header");
        assert!(err.to_string().contains("RT001"), "{err}");
    }

    #[test]
    fn deny_warnings_promotes_rt2xx() {
        // A zero-WCET node is RT202 (warning): passes by default, fails
        // under deny_warnings.
        let src = "task period=10\n  node a 0\nend\n";
        assert!(Codegen::new("w.rtp", 2)
            .certify_source("w.rtp", src)
            .is_ok());
        let err = Codegen::new("w.rtp", 2)
            .deny_warnings()
            .certify_source("w.rtp", src)
            .expect_err("promoted to error");
        assert!(err.to_string().contains("RT202"), "{err}");
    }

    #[test]
    fn allow_suppresses_a_denied_rule() {
        let src = "task period=10\n  node a 0\nend\n";
        assert!(Codegen::new("w.rtp", 2)
            .deny_warnings()
            .allow("RT202")
            .certify_source("w.rtp", src)
            .is_ok());
    }

    #[test]
    #[should_panic(expected = "unknown rtlint rule code")]
    fn unknown_policy_code_panics() {
        let _ = Codegen::new("w.rtp", 2).deny("RT999");
    }

    /// Two branches, each a chain of two blocking regions: the blocking
    /// antichain is 2 but the delay count is 3, so the suspend and spin
    /// floors disagree at m = 3.
    const CHAINED_REGIONS: &str = "\
task period=1000 deadline=1000
  node src 1
  node f1 2
  node a1 5
  node a2 5
  node j1 2
  node f2 2
  node b1 5
  node b2 5
  node j2 2
  node f3 2
  node c1 5
  node c2 5
  node j3 2
  node f4 2
  node d1 5
  node d2 5
  node j4 2
  node snk 1
  edge src f1
  edge src f3
  edge f1 a1
  edge f1 a2
  edge a1 j1
  edge a2 j1
  edge j1 f2
  edge f2 b1
  edge f2 b2
  edge b1 j2
  edge b2 j2
  edge f3 c1
  edge f3 c2
  edge c1 j3
  edge c2 j3
  edge j3 f4
  edge f4 d1
  edge f4 d2
  edge d1 j4
  edge d2 j4
  edge j2 snk
  edge j4 snk
  blocking f1 j1
  blocking f2 j2
  blocking f3 j3
  blocking f4 j4
end
";

    #[test]
    fn spin_gate_rejects_an_m_the_suspend_gate_accepts() {
        // Suspend at m = 3: the exact antichain check (2 < 3) proves
        // deadlock-freedom, so the gate passes (RT102 floor exhaustion
        // stays a warning).
        let certified = Codegen::new("flip.rtp", 3)
            .certify_source("flip.rtp", CHAINED_REGIONS)
            .expect("the suspend gate accepts m = 3");
        assert_eq!(certified.backend, SyncBackend::Suspend);
        assert_eq!(certified.b_bar, 2);
        assert_eq!(certified.b_bar_delay, 3);
        assert!(
            certified.warnings.iter().any(|w| w.contains("RT102")),
            "{:?}",
            certified.warnings
        );

        // Spin: same workload, same m — the busy-wait floor is
        // b\u{304}_delay + 1 = 4, so the very same build is rejected.
        let spin_src = format!("backend spin\n{CHAINED_REGIONS}");
        let err = Codegen::new("flip.rtp", 3)
            .certify_source("flip.rtp", spin_src.clone())
            .expect_err("the spin gate rejects m = 3");
        let rendered = err.to_string();
        assert!(rendered.contains("RT101"), "{rendered}");
        assert!(rendered.contains("spin backend"), "{rendered}");
        assert!(rendered.contains("suggested_m = 4"), "{rendered}");

        // One more worker meets the spin floor.
        let certified = Codegen::new("flip.rtp", 4)
            .certify_source("flip.rtp", spin_src)
            .expect("the spin gate accepts m = 4");
        assert!(certified.backend.is_spin());
        assert_eq!(certified.b_bar_delay, 3);
    }
}
