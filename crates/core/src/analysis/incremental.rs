// Compat, one caller: `benchmark/src/serve_wl.rs:659,672` (frozen while this landed) times
// `analyze_many_warm` as `core.warm_rta`. The warm-started pass is gone; this forwards to the
// cold one. Delete when a `benchmark` PR times `analyze_many_cancellable` there (ROADMAP 1a).

use crate::analysis::global::{analyze_many_cancellable, ConcurrencyModel};
use crate::analysis::SchedResult;
use crate::cancel::{CancelToken, Cancelled};
use crate::task::TaskSet;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WarmStart;

/// # Errors
///
/// Returns [`Cancelled`] when `token` fires at a checkpoint.
///
/// # Panics
///
/// Panics if `m == 0`.
pub fn analyze_many_warm(
    set: &TaskSet,
    m: usize,
    models: &[ConcurrencyModel],
    token: &CancelToken,
    _prev: Option<&WarmStart>,
) -> Result<(Vec<SchedResult>, WarmStart), Cancelled> {
    Ok((analyze_many_cancellable(set, m, models, token)?, WarmStart))
}
