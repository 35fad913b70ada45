//! The execution configuration of one request.
//!
//! An [`ExecOptions`] value is chosen once per request and travels on that
//! request's [`crate::Meter`]; every statement the request runs — including
//! statements that native table functions issue back into the FDBS, and
//! work on forked branch meters — reads it from there. Nothing stores it
//! engine-wide, so concurrent requests never see each other's settings.

/// Which executor runs a bound plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// Streaming over typed column batches: the production executor.
    #[default]
    Columnar,
    /// Streaming over row batches: the parity reference for
    /// [`ExecMode::Columnar`] and the E17 baseline.
    Rows,
    /// Cross products with per-row predicate re-evaluation, linear group
    /// lookup and no UDTF memo: the oracle the streaming executors are
    /// tested against, and the E13/E14 baseline.
    Naive,
}

/// Which planner turns a logical plan into a physical one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlannerMode {
    /// DB2-style syntactic planning: steps execute in FROM-clause order and
    /// the executor's own heuristics pick access paths. Pins the golden
    /// plans and the executor benches.
    Syntactic,
    /// Reorder joins by estimated cardinality and choose access paths by
    /// estimated cost.
    #[default]
    CostBased,
}

impl std::fmt::Display for PlannerMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlannerMode::Syntactic => write!(f, "syntactic"),
            PlannerMode::CostBased => write!(f, "cost-based"),
        }
    }
}

/// The complete execution configuration of one request: 3 executors ×
/// UDTF memo × 2 planners = 12 configurations. Built with chainable
/// setters from [`ExecOptions::default`]:
///
/// ```
/// use fedwf_sim::{ExecMode, ExecOptions, Meter, PlannerMode};
/// let opts = ExecOptions::default()
///     .mode(ExecMode::Rows)
///     .planner(PlannerMode::Syntactic);
/// assert!(opts.udtf_memo);
/// let meter = Meter::with_exec_options(opts);
/// assert_eq!(meter.exec_options(), opts);
/// ```
///
/// The FDBS plan cache keys on the whole value, so a plan bound for one
/// configuration is never served to a request running another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExecOptions {
    /// Which executor runs the plan.
    pub mode: ExecMode,
    /// Memoize dependent UDTF invocations within one step by argument
    /// tuple (streaming executors only). Off for experiments that need the
    /// paper's per-prefix-row cost (E5, E6).
    pub udtf_memo: bool,
    /// Which planner compiles statements.
    pub planner: PlannerMode,
}

impl Default for ExecOptions {
    fn default() -> ExecOptions {
        ExecOptions {
            mode: ExecMode::Columnar,
            udtf_memo: true,
            planner: PlannerMode::CostBased,
        }
    }
}

impl ExecOptions {
    /// Use `mode` as the executor.
    pub fn mode(mut self, mode: ExecMode) -> ExecOptions {
        self.mode = mode;
        self
    }

    /// Toggle the dependent-UDTF memo.
    pub fn udtf_memo(mut self, enabled: bool) -> ExecOptions {
        self.udtf_memo = enabled;
        self
    }

    /// Use `planner` to turn bound statements into physical plans.
    pub fn planner(mut self, planner: PlannerMode) -> ExecOptions {
        self.planner = planner;
        self
    }
}
