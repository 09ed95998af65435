//! Serving configuration: how the engine is built and how the server
//! admits work.

use std::collections::HashMap;
use std::path::PathBuf;

/// How the classification engine is assembled: which predictor answers
/// queries, how the LLM client stack is configured, and which budgets
/// bind.
///
/// Two budget layers coexist by design:
///
/// * [`ServeConfig::budget`] is the paper's hard Eq. 2 budget over
///   *global* metered prompt tokens — the executor enforces it per
///   prompt, downgrading to neighbor-free prompts and finally starving
///   queries rather than overshooting.
/// * [`ServeConfig::tenant_budgets`] /
///   [`ServeConfig::default_tenant_budget`] are *admission* budgets: a
///   tenant whose recorded spend has reached its budget gets `429` at the
///   door, before any queue slot, LLM call, or metered token.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Prediction method (`zero-shot`, `1hop`, `2hop`, `sns`, `llmrank`).
    pub method: String,
    /// Seed for the labeled split and per-node neighbor sampling.
    pub seed: u64,
    /// Query count used to shape the labeled split. Serving accepts any
    /// node, but the *labeled set* must match the batch run being
    /// compared against, and the split generator draws both from one RNG
    /// stream — so use the same value as the batch arm's `--queries`.
    pub split_queries: usize,
    /// Maximum neighbors per prompt; `0` picks the paper's `M` for the
    /// dataset ([`mqo_data::paper_max_neighbors`], same as the CLI).
    pub max_neighbors: usize,
    /// Hard global input-token budget (Eq. 2), if any.
    pub budget: Option<u64>,
    /// Retry attempts for malformed completions (min 1).
    pub retries: u32,
    /// Response-cache capacity (`0` = pass-through, no caching).
    pub cache_cap: usize,
    /// Query boosting: successful responses write pseudo-labels, so later
    /// requests on neighboring nodes get label-enriched prompts. Makes
    /// responses arrival-order dependent — leave off when bit-identical
    /// replies across serving orders are required.
    pub boost: bool,
    /// Fault-injection spec (see `mqo_fault::FaultConfig::parse`), if any.
    pub faults: Option<String>,
    /// Crash-safe journal path; completed queries append here.
    pub journal: Option<PathBuf>,
    /// Resume from an existing journal instead of truncating it.
    pub resume: bool,
    /// Write a Chrome trace of run/query/llm_call spans here at drain.
    pub trace_chrome: Option<PathBuf>,
    /// Per-tenant admission budgets in prompt tokens.
    pub tenant_budgets: HashMap<String, u64>,
    /// Admission budget for tenants not in [`ServeConfig::tenant_budgets`]
    /// (`None` = unmetered).
    pub default_tenant_budget: Option<u64>,
    /// Per-tenant SLO latency objective for `/v1/classify` in
    /// milliseconds (`None` = latency does not burn error budget; only
    /// 5xx responses do).
    pub slo_p99_ms: Option<u64>,
    /// SLO availability objective (e.g. `0.999`): the good-request ratio
    /// below which burn rate exceeds 1.
    pub slo_availability: f64,
    /// Flight-recorder capacity for the slowest successful requests.
    pub flight_slow: usize,
    /// Flight-recorder capacity for error responses (4xx/5xx).
    pub flight_errors: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            method: "1hop".into(),
            seed: 42,
            split_queries: 200,
            max_neighbors: 0,
            budget: None,
            retries: 3,
            cache_cap: 4096,
            boost: false,
            faults: None,
            journal: None,
            resume: false,
            trace_chrome: None,
            tenant_budgets: HashMap::new(),
            default_tenant_budget: None,
            slo_p99_ms: None,
            slo_availability: 0.999,
            flight_slow: 32,
            flight_errors: 64,
        }
    }
}

/// How the HTTP server schedules admitted work.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Execution slots: at most this many admitted batches run at once,
    /// each on its connection handler's thread.
    pub workers: usize,
    /// Wait-room capacity: at most this many admitted requests wait for
    /// a slot; a full wait room answers `429` with a computed
    /// `Retry-After`.
    pub queue_capacity: usize,
    /// Admission-gate tunables: sojourn target, shed interval, tenant
    /// fair share, and the brown-out thresholds.
    pub overload: crate::shed::OverloadConfig,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_capacity: 64,
            overload: crate::shed::OverloadConfig::default(),
        }
    }
}
