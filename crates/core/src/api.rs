//! Versioned request/response envelope for the solve service.
//!
//! The paper's workflow (§5) is interactive: a designer nudges required
//! gains and re-solves. Serving that loop to many concurrent tenants needs
//! a *stable wire contract* that outlives any one daemon build, so this
//! module defines it in core — next to the types it transports — rather
//! than in the service crate that happens to host the listener today:
//!
//! * [`Request`] / [`Response`] — one JSON object per line (NDJSON). Every
//!   envelope carries `api_version`, a tenant id and a caller-chosen
//!   request id that is echoed back verbatim, so replies can be matched
//!   to requests even when a concurrent daemon completes them out of
//!   order.
//! * [`ApiError`] — the single public error surface. Every failure a
//!   caller can observe — malformed input, infeasible instances, budget
//!   exhaustion, audit rejections, workload-generator errors, admission
//!   control — maps to one variant with a **stable numeric code**
//!   (see [`ApiError::code`]). Library `Result`s and daemon replies share
//!   this type; nothing is stringly-typed twice.
//! * [`SolveSpec`] — the caller-facing subset of [`SolveOptions`]:
//!   everything that changes *what* is solved or how hard the solver may
//!   try, nothing that is an internal tuning handle (warm-start hints and
//!   retained bases are the daemon's business, not the protocol's).
//!
//! # Versioning policy
//!
//! `api_version` is a single integer ([`API_VERSION`]). Additive changes —
//! new optional request fields, new response fields, new error codes — do
//! not bump it; parsers must ignore unknown fields. Anything that changes
//! the meaning of an existing field bumps it, and a daemon answers a
//! version it does not speak with [`ApiError::UnsupportedVersion`]
//! (code 101) rather than guessing.
//!
//! # Example
//!
//! ```
//! use partita_core::api::{Request, RequestBody, SolveSpec, API_VERSION};
//!
//! let line = r#"{"api_version":1,"id":"r1","tenant":"alice",
//!     "method":"solve","instance":"viterbi-0003","rg":1200}"#
//!     .replace('\n', "");
//! let req = Request::parse(&line).expect("well-formed request");
//! assert_eq!(req.api_version, API_VERSION);
//! assert_eq!(req.tenant, "alice");
//! match &req.body {
//!     RequestBody::Solve { instance, spec } => {
//!         assert_eq!(instance, "viterbi-0003");
//!         assert_eq!(spec.rg, 1200);
//!     }
//!     _ => unreachable!(),
//! }
//! // Envelopes round-trip, which is how scripted request logs are built.
//! assert_eq!(Request::parse(&req.to_json()).unwrap().to_json(), req.to_json());
//! # let _ = SolveSpec::default();
//! ```

use std::fmt;

use crate::engine::{Backend, OptimalityStatus, SolveBudget};
use crate::error::CoreError;
use crate::solver::{ProblemKind, RequiredGains, Selection, SolveOptions};
use crate::telemetry::json::JsonValue;
use crate::telemetry::{json_escape, Redaction};
use partita_mop::Cycles;

/// The wire-protocol version this build speaks. See the module docs for
/// the bump policy.
pub const API_VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// Error surface
// ---------------------------------------------------------------------------

/// The unified public error surface: every failure a service caller (or a
/// facade user) can observe, each with a stable numeric code.
///
/// Codes are part of the wire contract and never renumbered: 1xx are
/// protocol errors, 2xx wrap [`CoreError`] solver failures, 3xx wrap
/// workload/generator failures, 429 is admission control, 5xx is the
/// daemon itself.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ApiError {
    /// The request line was not a well-formed envelope (bad JSON, missing
    /// required field, wrong type). Code 100.
    Malformed(String),
    /// The envelope named an `api_version` this build does not speak.
    /// Code 101.
    UnsupportedVersion {
        /// The version the caller asked for.
        got: u64,
    },
    /// The envelope named an unknown `method`. Code 102.
    UnknownMethod(String),
    /// The request referenced an instance id the daemon cannot resolve
    /// (not in the corpus manifest, or its pinned digest mismatched).
    /// Code 103.
    UnknownInstance(String),
    /// The envelope parsed but its parameters are unusable (empty sweep,
    /// zero-length batch, out-of-range knob). Code 104.
    InvalidParams(String),
    /// A solver-layer failure ([`CoreError`]), including audit rejections.
    /// Codes 200–208; see [`ApiError::code`].
    Core(CoreError),
    /// A workload-generation failure (e.g. a degenerate synth parameter
    /// set). Code 300.
    Workload(String),
    /// Admission control refused the request (tenant over its in-flight or
    /// queue limits). Code 429.
    Overloaded {
        /// The tenant that was refused.
        tenant: String,
        /// What limit was hit.
        detail: String,
    },
    /// The daemon itself failed in a way no other variant describes.
    /// Code 500.
    Internal(String),
}

impl ApiError {
    /// The stable numeric code of this error. Part of the wire contract:
    /// codes are never renumbered, only appended.
    #[must_use]
    pub fn code(&self) -> u32 {
        match self {
            ApiError::Malformed(_) => 100,
            ApiError::UnsupportedVersion { .. } => 101,
            ApiError::UnknownMethod(_) => 102,
            ApiError::UnknownInstance(_) => 103,
            ApiError::InvalidParams(_) => 104,
            ApiError::Core(e) => match e {
                CoreError::Infeasible { .. } => 200,
                CoreError::BudgetExhausted => 201,
                CoreError::AuditFailed { .. } => 202,
                CoreError::NoImps => 203,
                CoreError::UnknownSCall(_) => 204,
                CoreError::BadPath { .. } => 205,
                CoreError::InvalidSelection(_) => 206,
                CoreError::MalformedHierarchy { .. } => 207,
                CoreError::Ilp(_) => 208,
            },
            ApiError::Workload(_) => 300,
            ApiError::Overloaded { .. } => 429,
            ApiError::Internal(_) => 500,
        }
    }

    /// The snake_case kind tag rendered next to the code.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            ApiError::Malformed(_) => "malformed_request",
            ApiError::UnsupportedVersion { .. } => "unsupported_version",
            ApiError::UnknownMethod(_) => "unknown_method",
            ApiError::UnknownInstance(_) => "unknown_instance",
            ApiError::InvalidParams(_) => "invalid_params",
            ApiError::Core(e) => match e {
                CoreError::Infeasible { .. } => "infeasible",
                CoreError::BudgetExhausted => "budget_exhausted",
                CoreError::AuditFailed { .. } => "audit_failed",
                CoreError::NoImps => "no_imps",
                CoreError::UnknownSCall(_) => "unknown_scall",
                CoreError::BadPath { .. } => "bad_path",
                CoreError::InvalidSelection(_) => "invalid_selection",
                CoreError::MalformedHierarchy { .. } => "malformed_hierarchy",
                CoreError::Ilp(_) => "ilp",
            },
            ApiError::Workload(_) => "workload",
            ApiError::Overloaded { .. } => "overloaded",
            ApiError::Internal(_) => "internal",
        }
    }

    /// Renders the error as the JSON fragment used inside a
    /// [`Response`]: `{"code":…,"kind":"…","detail":"…"}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"code\":{},\"kind\":\"{}\",\"detail\":\"{}\"}}",
            self.code(),
            self.kind(),
            json_escape(&self.to_string())
        )
    }
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiError::Malformed(detail) => write!(f, "malformed request: {detail}"),
            ApiError::UnsupportedVersion { got } => {
                write!(
                    f,
                    "unsupported api_version {got} (this build speaks {API_VERSION})"
                )
            }
            ApiError::UnknownMethod(m) => write!(f, "unknown method: {m}"),
            ApiError::UnknownInstance(id) => write!(f, "unknown instance: {id}"),
            ApiError::InvalidParams(detail) => write!(f, "invalid params: {detail}"),
            ApiError::Core(e) => write!(f, "{e}"),
            ApiError::Workload(detail) => write!(f, "workload generation failed: {detail}"),
            ApiError::Overloaded { tenant, detail } => {
                write!(f, "tenant {tenant} over budget: {detail}")
            }
            ApiError::Internal(detail) => write!(f, "internal error: {detail}"),
        }
    }
}

impl std::error::Error for ApiError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ApiError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ApiError {
    fn from(e: CoreError) -> ApiError {
        ApiError::Core(e)
    }
}

// ---------------------------------------------------------------------------
// Solve spec
// ---------------------------------------------------------------------------

/// The caller-facing solve parameters: the subset of [`SolveOptions`] a
/// service request may set.
///
/// Deliberately absent: warm-start hints and retained bases (internal
/// acceleration handles the daemon manages per chain) and the audit flag's
/// companions — none of them change *which* selection is returned, which
/// is also why they are excluded from canonical cache keys (see
/// [`crate::sweep::canonical_solve_key`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolveSpec {
    /// Which formulation to solve (wire values `problem1` / `problem2`;
    /// default `problem2`).
    pub problem: ProblemKind,
    /// Uniform required gain in cycles (the `rg` field). For sweep and
    /// delta requests this is the base value; the `rgs` array supplies the
    /// visited points.
    pub rg: u64,
    /// Solver backend. The wire values are the canonical backend names
    /// ([`Backend::name`]): `branch_bound` / `exhaustive` / `greedy`;
    /// default `branch_bound`. See `docs/BACKENDS.md` for when to use
    /// which.
    pub backend: Backend,
    /// Branch-and-bound node cap (default: the [`SolveBudget`] default).
    pub max_nodes: Option<usize>,
    /// Wall-clock deadline in milliseconds (default: none).
    pub deadline_ms: Option<u64>,
    /// Run the independent post-solve auditor and fail the request on a
    /// dirty report.
    pub audit: bool,
}

impl Default for SolveSpec {
    fn default() -> SolveSpec {
        SolveSpec {
            problem: ProblemKind::Problem2,
            rg: 0,
            backend: Backend::BranchBound,
            max_nodes: None,
            deadline_ms: None,
            audit: false,
        }
    }
}

impl SolveSpec {
    /// Builds the [`SolveOptions`] for this spec at its own `rg`.
    #[must_use]
    pub fn to_options(&self) -> SolveOptions {
        self.to_options_at(self.rg)
    }

    /// Builds the [`SolveOptions`] for this spec at an explicit sweep
    /// point, overriding [`SolveSpec::rg`].
    #[must_use]
    pub fn to_options_at(&self, rg: u64) -> SolveOptions {
        let mut budget = SolveBudget::default();
        if let Some(n) = self.max_nodes {
            budget = budget.with_max_nodes(n);
        }
        if let Some(ms) = self.deadline_ms {
            budget = budget.with_deadline(std::time::Duration::from_millis(ms));
        }
        SolveOptions::for_problem(self.problem, RequiredGains::uniform(Cycles(rg)))
            .backend(self.backend)
            .budget(budget)
            .audit(self.audit)
    }

    fn to_json(&self) -> String {
        let mut out = format!(
            "\"problem\":\"{}\",\"rg\":{},\"backend\":\"{}\",\"audit\":{}",
            self.problem.name(),
            self.rg,
            self.backend,
            self.audit
        );
        if let Some(n) = self.max_nodes {
            out.push_str(&format!(",\"max_nodes\":{n}"));
        }
        if let Some(ms) = self.deadline_ms {
            out.push_str(&format!(",\"deadline_ms\":{ms}"));
        }
        out
    }

    fn parse(doc: &JsonValue) -> Result<SolveSpec, ApiError> {
        let mut spec = SolveSpec::default();
        if let Some(p) = doc.get("problem") {
            spec.problem = match p.as_str() {
                Some("problem1") => ProblemKind::Problem1,
                Some("problem2") => ProblemKind::Problem2,
                other => {
                    return Err(ApiError::InvalidParams(format!(
                        "problem must be \"problem1\" or \"problem2\", got {other:?}"
                    )))
                }
            };
        }
        if let Some(rg) = doc.get("rg") {
            spec.rg = rg.as_u64().ok_or_else(|| {
                ApiError::InvalidParams("rg must be a non-negative integer".into())
            })?;
        }
        if let Some(b) = doc.get("backend") {
            // Accept exactly the backends the engine enumerates, by their
            // canonical snake_case names — a backend added to
            // `Backend::ALL` is a wire value with no extra plumbing.
            let name = b.as_str();
            spec.backend = name
                .and_then(|n| Backend::ALL.into_iter().find(|k| k.name() == n))
                .ok_or_else(|| {
                    let allowed: Vec<&str> = Backend::ALL.iter().map(|k| k.name()).collect();
                    ApiError::InvalidParams(format!(
                        "backend must be one of {}, got {name:?}",
                        allowed.join("/")
                    ))
                })?;
        }
        if let Some(n) = doc.get("max_nodes") {
            let n = n
                .as_u64()
                .ok_or_else(|| ApiError::InvalidParams("max_nodes must be an integer".into()))?;
            spec.max_nodes = Some(n as usize);
        }
        if let Some(ms) = doc.get("deadline_ms") {
            let ms = ms
                .as_u64()
                .ok_or_else(|| ApiError::InvalidParams("deadline_ms must be an integer".into()))?;
            spec.deadline_ms = Some(ms);
        }
        if let Some(a) = doc.get("audit") {
            spec.audit = a
                .as_bool()
                .ok_or_else(|| ApiError::InvalidParams("audit must be a boolean".into()))?;
        }
        Ok(spec)
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One job inside a [`RequestBody::Batch`].
#[derive(Debug, Clone, PartialEq)]
pub struct BatchItem {
    /// Corpus-manifest instance id (e.g. `viterbi-0003`).
    pub instance: String,
    /// Solve parameters for this job.
    pub spec: SolveSpec,
}

/// The method-specific half of a [`Request`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RequestBody {
    /// Liveness probe; answers [`Payload::Pong`].
    Ping,
    /// Service counter snapshot; answers [`Payload::Stats`].
    Stats,
    /// Solve one instance at one required gain.
    Solve {
        /// Corpus-manifest instance id.
        instance: String,
        /// Solve parameters.
        spec: SolveSpec,
    },
    /// Solve one instance at each point of an RG sweep. Served like
    /// [`crate::sweep::SweepSession::sweep`]: distinct points in
    /// descending-RG order, each answered from the cache or re-solved by
    /// one [`crate::delta::DeltaSession`]; results in request order.
    Sweep {
        /// Corpus-manifest instance id.
        instance: String,
        /// Solve parameters shared by every point.
        spec: SolveSpec,
        /// The required-gain points to visit.
        rgs: Vec<u64>,
    },
    /// Independent solve jobs answered together.
    Batch {
        /// The jobs; each succeeds or fails on its own.
        jobs: Vec<BatchItem>,
    },
    /// Walk an RG edit sequence through an incremental
    /// [`crate::delta::DeltaSession`] (RHS patch + basis repair per step).
    /// Served by the same cache-first walk as [`RequestBody::Sweep`].
    Delta {
        /// Corpus-manifest instance id.
        instance: String,
        /// Solve parameters for the base solve.
        spec: SolveSpec,
        /// The required-gain values applied as successive `SetRg` edits.
        rgs: Vec<u64>,
    },
}

impl RequestBody {
    /// The wire name of this method.
    #[must_use]
    pub fn method(&self) -> &'static str {
        match self {
            RequestBody::Ping => "ping",
            RequestBody::Stats => "stats",
            RequestBody::Solve { .. } => "solve",
            RequestBody::Sweep { .. } => "sweep",
            RequestBody::Batch { .. } => "batch",
            RequestBody::Delta { .. } => "delta",
        }
    }
}

/// A parsed request envelope. See the module docs for the wire shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Protocol version the caller speaks (must equal [`API_VERSION`]).
    pub api_version: u64,
    /// Caller-chosen request id, echoed back verbatim in the response.
    pub id: String,
    /// Tenant this request is accounted to.
    pub tenant: String,
    /// The method and its parameters.
    pub body: RequestBody,
}

impl Request {
    /// Parses one NDJSON request line.
    ///
    /// Unknown fields are ignored (the versioning policy); missing or
    /// mistyped required fields are [`ApiError::Malformed`], an unknown
    /// `method` is [`ApiError::UnknownMethod`], and a version mismatch is
    /// [`ApiError::UnsupportedVersion`].
    pub fn parse(line: &str) -> Result<Request, ApiError> {
        let doc = JsonValue::parse(line).map_err(|e| ApiError::Malformed(format!("{e:?}")))?;
        let version = doc
            .get("api_version")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| ApiError::Malformed("missing integer api_version".into()))?;
        if version != API_VERSION {
            return Err(ApiError::UnsupportedVersion { got: version });
        }
        let id = doc
            .get("id")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ApiError::Malformed("missing string id".into()))?
            .to_string();
        let tenant = doc
            .get("tenant")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ApiError::Malformed("missing string tenant".into()))?
            .to_string();
        if tenant.is_empty() {
            return Err(ApiError::Malformed("tenant must be non-empty".into()));
        }
        let method = doc
            .get("method")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ApiError::Malformed("missing string method".into()))?;
        let instance = || -> Result<String, ApiError> {
            Ok(doc
                .get("instance")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| ApiError::Malformed("missing string instance".into()))?
                .to_string())
        };
        let rgs = || -> Result<Vec<u64>, ApiError> {
            let arr = doc
                .get("rgs")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| ApiError::Malformed("missing rgs array".into()))?;
            let points = arr
                .iter()
                .map(|v| {
                    v.as_u64().ok_or_else(|| {
                        ApiError::InvalidParams("rgs entries must be integers".into())
                    })
                })
                .collect::<Result<Vec<u64>, ApiError>>()?;
            if points.is_empty() {
                return Err(ApiError::InvalidParams("rgs must be non-empty".into()));
            }
            Ok(points)
        };
        let body = match method {
            "ping" => RequestBody::Ping,
            "stats" => RequestBody::Stats,
            "solve" => RequestBody::Solve {
                instance: instance()?,
                spec: SolveSpec::parse(&doc)?,
            },
            "sweep" => RequestBody::Sweep {
                instance: instance()?,
                spec: SolveSpec::parse(&doc)?,
                rgs: rgs()?,
            },
            "delta" => RequestBody::Delta {
                instance: instance()?,
                spec: SolveSpec::parse(&doc)?,
                rgs: rgs()?,
            },
            "batch" => {
                let arr = doc
                    .get("jobs")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| ApiError::Malformed("missing jobs array".into()))?;
                if arr.is_empty() {
                    return Err(ApiError::InvalidParams("jobs must be non-empty".into()));
                }
                let jobs = arr
                    .iter()
                    .map(|job| {
                        let instance = job
                            .get("instance")
                            .and_then(JsonValue::as_str)
                            .ok_or_else(|| {
                                ApiError::Malformed("batch job missing string instance".into())
                            })?
                            .to_string();
                        Ok(BatchItem {
                            instance,
                            spec: SolveSpec::parse(job)?,
                        })
                    })
                    .collect::<Result<Vec<BatchItem>, ApiError>>()?;
                RequestBody::Batch { jobs }
            }
            other => return Err(ApiError::UnknownMethod(other.to_string())),
        };
        Ok(Request {
            api_version: version,
            id,
            tenant,
            body,
        })
    }

    /// Renders the envelope as one NDJSON line (the inverse of
    /// [`Request::parse`]; used to build scripted request logs).
    #[must_use]
    pub fn to_json(&self) -> String {
        let head = format!(
            "{{\"api_version\":{},\"id\":\"{}\",\"tenant\":\"{}\",\"method\":\"{}\"",
            self.api_version,
            json_escape(&self.id),
            json_escape(&self.tenant),
            self.body.method()
        );
        let tail = match &self.body {
            RequestBody::Ping | RequestBody::Stats => String::new(),
            RequestBody::Solve { instance, spec } => {
                format!(
                    ",\"instance\":\"{}\",{}",
                    json_escape(instance),
                    spec.to_json()
                )
            }
            RequestBody::Sweep {
                instance,
                spec,
                rgs,
            }
            | RequestBody::Delta {
                instance,
                spec,
                rgs,
            } => format!(
                ",\"instance\":\"{}\",{},\"rgs\":[{}]",
                json_escape(instance),
                spec.to_json(),
                rgs.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
            ),
            RequestBody::Batch { jobs } => {
                let rendered = jobs
                    .iter()
                    .map(|j| {
                        format!(
                            "{{\"instance\":\"{}\",{}}}",
                            json_escape(&j.instance),
                            j.spec.to_json()
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(",");
                format!(",\"jobs\":[{rendered}]")
            }
        };
        format!("{head}{tail}}}")
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// The reproducible fingerprint text of a selection: chosen IMPs,
/// objective, totals, per-path gains and status — excluding the trace,
/// whose wall times legitimately vary between runs.
///
/// Byte equality of these strings is the cross-layer determinism contract
/// (the same one the root integration gates assert); [`selection_digest`]
/// hashes it for compact wire transport.
#[must_use]
pub fn selection_fingerprint(sel: &Selection) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "objective={};area={};gain={};status={}\n",
        sel.objective,
        sel.total_area(),
        sel.total_gain().get(),
        sel.status
    ));
    for imp in sel.chosen() {
        out.push_str(&format!("{imp:?}\n"));
    }
    for (path, gain) in &sel.gain_per_path {
        out.push_str(&format!("{path:?}={}\n", gain.get()));
    }
    out
}

/// FNV-1a 64 digest of [`selection_fingerprint`]. Two selections with the
/// same digest are byte-identical under the determinism contract.
#[must_use]
pub fn selection_digest(sel: &Selection) -> u64 {
    crate::cache::fnv1a64(&selection_fingerprint(sel))
}

/// One solved point inside a response payload.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveResult {
    /// The required gain this point was solved at.
    pub rg: u64,
    /// Total gain of the selection, in cycles.
    pub gain: u64,
    /// Total silicon area, in tenths of the paper's area unit.
    pub area_tenths: i64,
    /// Honest trust level of the answer (never upgraded by caching or
    /// degradation: a greedy answer says so).
    pub status: OptimalityStatus,
    /// Ids of the chosen IMPs, in selection order.
    pub chosen: Vec<u32>,
    /// [`selection_digest`] of the full selection.
    pub digest: u64,
    /// Branch-and-bound nodes the producing solve explored (a cache hit
    /// reports the producing solve's count).
    pub nodes: u64,
    /// Whether this point was answered from the shared canonical cache.
    pub cache_hit: bool,
    /// Whether admission control degraded this point to the greedy
    /// backend.
    pub degraded: bool,
    /// Wall time to answer this point, in microseconds (machine-varying;
    /// zeroed under [`Redaction::Timing`]).
    pub wall_us: u64,
}

impl SolveResult {
    /// Builds a result from a finished selection.
    #[must_use]
    pub fn from_selection(rg: u64, sel: &Selection) -> SolveResult {
        SolveResult {
            rg,
            gain: sel.total_gain().get(),
            area_tenths: sel.total_area().0,
            status: sel.status,
            chosen: sel.chosen().iter().map(|imp| imp.id.0).collect(),
            digest: selection_digest(sel),
            nodes: sel.trace.nodes_explored as u64,
            cache_hit: false,
            degraded: false,
            wall_us: 0,
        }
    }

    fn to_json(&self, redaction: Redaction) -> String {
        let wall = match redaction {
            Redaction::None => self.wall_us,
            _ => 0,
        };
        format!(
            "{{\"rg\":{},\"gain\":{},\"area_tenths\":{},\"status\":\"{}\",\"chosen\":[{}],\
             \"digest\":{},\"nodes\":{},\"cache_hit\":{},\"degraded\":{},\"wall_us\":{}}}",
            self.rg,
            self.gain,
            self.area_tenths,
            self.status,
            self.chosen
                .iter()
                .map(u32::to_string)
                .collect::<Vec<_>>()
                .join(","),
            self.digest,
            self.nodes,
            self.cache_hit,
            self.degraded,
            wall
        )
    }
}

/// A service counter snapshot ([`RequestBody::Stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Requests answered (ok or error) since start.
    pub served: u64,
    /// Points answered from the shared canonical cache.
    pub cache_hits: u64,
    /// Points degraded to the greedy backend by admission control.
    pub degraded: u64,
    /// Requests refused outright by admission control.
    pub rejected: u64,
    /// Live entries across every cache shard.
    pub cache_entries: u64,
}

impl StatsSnapshot {
    fn to_json(self) -> String {
        format!(
            "{{\"served\":{},\"cache_hits\":{},\"degraded\":{},\"rejected\":{},\"cache_entries\":{}}}",
            self.served, self.cache_hits, self.degraded, self.rejected, self.cache_entries
        )
    }
}

/// The method-specific half of a [`Response`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Payload {
    /// Answer to [`RequestBody::Ping`].
    Pong,
    /// Answer to [`RequestBody::Stats`].
    Stats(StatsSnapshot),
    /// Answer to [`RequestBody::Solve`].
    Solve(SolveResult),
    /// Answer to [`RequestBody::Sweep`] / [`RequestBody::Delta`], in the
    /// caller's requested point order.
    Points(Vec<SolveResult>),
    /// Answer to [`RequestBody::Batch`], in job order; each job succeeds
    /// or fails on its own.
    Batch(Vec<Result<SolveResult, ApiError>>),
}

/// A response envelope: the echoed ids plus either a payload or an
/// [`ApiError`].
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Echo of the request id (empty when the request was too malformed
    /// to carry one).
    pub id: String,
    /// Echo of the tenant id.
    pub tenant: String,
    /// The outcome.
    pub result: Result<Payload, ApiError>,
}

impl Response {
    /// Wraps an error into a full envelope.
    #[must_use]
    pub fn error(id: &str, tenant: &str, err: ApiError) -> Response {
        Response {
            id: id.to_string(),
            tenant: tenant.to_string(),
            result: Err(err),
        }
    }

    /// Renders the envelope as one NDJSON line. [`Redaction::Timing`] (or
    /// stronger) zeroes the machine-varying `wall_us` fields, which is
    /// what makes scripted-replay goldens byte-stable across hosts.
    #[must_use]
    pub fn to_json(&self, redaction: Redaction) -> String {
        let head = format!(
            "{{\"api_version\":{API_VERSION},\"id\":\"{}\",\"tenant\":\"{}\"",
            json_escape(&self.id),
            json_escape(&self.tenant)
        );
        match &self.result {
            Ok(payload) => {
                let body = match payload {
                    Payload::Pong => "\"pong\":true".to_string(),
                    Payload::Stats(s) => format!("\"stats\":{}", s.to_json()),
                    Payload::Solve(r) => format!("\"result\":{}", r.to_json(redaction)),
                    Payload::Points(points) => format!(
                        "\"results\":[{}]",
                        points
                            .iter()
                            .map(|p| p.to_json(redaction))
                            .collect::<Vec<_>>()
                            .join(",")
                    ),
                    Payload::Batch(jobs) => format!(
                        "\"results\":[{}]",
                        jobs.iter()
                            .map(|j| match j {
                                Ok(r) =>
                                    format!("{{\"ok\":true,\"result\":{}}}", r.to_json(redaction)),
                                Err(e) => format!("{{\"ok\":false,\"error\":{}}}", e.to_json()),
                            })
                            .collect::<Vec<_>>()
                            .join(",")
                    ),
                };
                format!("{head},\"ok\":true,{body}}}")
            }
            Err(e) => format!("{head},\"ok\":false,\"error\":{}}}", e.to_json()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let req = Request {
            api_version: API_VERSION,
            id: "r-1".into(),
            tenant: "alice".into(),
            body: RequestBody::Sweep {
                instance: "viterbi-0003".into(),
                spec: SolveSpec {
                    rg: 900,
                    audit: true,
                    max_nodes: Some(50_000),
                    ..SolveSpec::default()
                },
                rgs: vec![1200, 900, 600],
            },
        };
        let line = req.to_json();
        let parsed = Request::parse(&line).expect("round-trip parses");
        assert_eq!(parsed, req);
        assert_eq!(parsed.to_json(), line);
    }

    #[test]
    fn unknown_fields_are_ignored() {
        let line = r#"{"api_version":1,"id":"x","tenant":"t","method":"ping","future_field":42}"#;
        let req = Request::parse(line).expect("unknown fields tolerated");
        assert_eq!(req.body, RequestBody::Ping);
        // Clients that still send a retired solve parameter (`threads`, or
        // `power_budget_mw` with any value) get the same spec as without it.
        for stale in [
            "",
            r#","threads":4"#,
            r#","power_budget_mw":250"#,
            r#","power_budget_mw":"lots""#,
        ] {
            let line = format!(
                r#"{{"api_version":1,"id":"x","tenant":"t","method":"solve","instance":"i","rg":7{stale}}}"#
            );
            let req = Request::parse(&line).expect("a stale field is tolerated");
            match req.body {
                RequestBody::Solve { spec, .. } => assert_eq!(
                    spec,
                    SolveSpec {
                        rg: 7,
                        ..SolveSpec::default()
                    },
                    "{line}"
                ),
                other => panic!("parsed as {other:?}"),
            }
        }
    }

    #[test]
    fn version_mismatch_is_code_101() {
        let line = r#"{"api_version":99,"id":"x","tenant":"t","method":"ping"}"#;
        let err = Request::parse(line).unwrap_err();
        assert_eq!(err.code(), 101);
        assert!(matches!(err, ApiError::UnsupportedVersion { got: 99 }));
    }

    #[test]
    fn error_codes_are_stable() {
        let cases: Vec<(ApiError, u32, &str)> = vec![
            (ApiError::Malformed("x".into()), 100, "malformed_request"),
            (
                ApiError::UnsupportedVersion { got: 2 },
                101,
                "unsupported_version",
            ),
            (ApiError::UnknownMethod("x".into()), 102, "unknown_method"),
            (
                ApiError::UnknownInstance("x".into()),
                103,
                "unknown_instance",
            ),
            (ApiError::InvalidParams("x".into()), 104, "invalid_params"),
            (
                ApiError::Core(CoreError::Infeasible { path: None }),
                200,
                "infeasible",
            ),
            (
                ApiError::Core(CoreError::BudgetExhausted),
                201,
                "budget_exhausted",
            ),
            (ApiError::Core(CoreError::NoImps), 203, "no_imps"),
            (ApiError::Workload("x".into()), 300, "workload"),
            (
                ApiError::Overloaded {
                    tenant: "t".into(),
                    detail: "x".into(),
                },
                429,
                "overloaded",
            ),
            (ApiError::Internal("x".into()), 500, "internal"),
        ];
        for (err, code, kind) in cases {
            assert_eq!(err.code(), code, "{err}");
            assert_eq!(err.kind(), kind, "{err}");
            let json = err.to_json();
            assert!(json.starts_with(&format!("{{\"code\":{code},")), "{json}");
        }
    }

    #[test]
    fn backend_wire_values_are_exactly_backend_all() {
        let solve = |backend: &str| {
            Request::parse(&format!(
                r#"{{"api_version":1,"id":"x","tenant":"t","method":"solve","instance":"i","rg":1,"backend":"{backend}"}}"#
            ))
        };
        for backend in Backend::ALL {
            match solve(backend.name())
                .expect("every Backend::ALL name parses")
                .body
            {
                RequestBody::Solve { spec, .. } => assert_eq!(spec.backend, backend),
                other => panic!("parsed as {other:?}"),
            }
        }
        for removed in ["lagrangian", "conflict_enum", "portfolio"] {
            let err = solve(removed).unwrap_err();
            assert_eq!(err.code(), 104, "{removed}: {err}");
            let ApiError::InvalidParams(detail) = err else {
                panic!("{removed}: not invalid_params");
            };
            let allowed = detail
                .strip_prefix("backend must be one of ")
                .and_then(|rest| rest.split(", got").next());
            assert_eq!(allowed, Some("branch_bound/exhaustive/greedy"), "{detail}");
        }
    }

    #[test]
    fn solve_spec_maps_onto_options() {
        let spec = SolveSpec {
            problem: ProblemKind::Problem1,
            rg: 700,
            backend: Backend::Greedy,
            max_nodes: Some(123),
            deadline_ms: Some(250),
            audit: true,
        };
        let opts = spec.to_options();
        assert_eq!(opts.problem(), ProblemKind::Problem1);
        assert_eq!(opts.gains().as_uniform(), Some(Cycles(700)));
        assert_eq!(opts.solver_backend(), Backend::Greedy);
        assert_eq!(opts.solve_budget().max_nodes, 123);
        assert_eq!(
            opts.solve_budget().deadline,
            Some(std::time::Duration::from_millis(250))
        );
        assert!(opts.audit_enabled());
        let at = spec.to_options_at(300);
        assert_eq!(at.gains().as_uniform(), Some(Cycles(300)));
    }

    #[test]
    fn response_redaction_zeroes_wall() {
        let result = SolveResult {
            rg: 100,
            gain: 150,
            area_tenths: 42,
            status: OptimalityStatus::Optimal,
            chosen: vec![1, 3],
            digest: 7,
            nodes: 5,
            cache_hit: true,
            degraded: false,
            wall_us: 999,
        };
        let resp = Response {
            id: "r".into(),
            tenant: "t".into(),
            result: Ok(Payload::Solve(result)),
        };
        let full = resp.to_json(Redaction::None);
        let redacted = resp.to_json(Redaction::Timing);
        assert!(full.contains("\"wall_us\":999"), "{full}");
        assert!(redacted.contains("\"wall_us\":0"), "{redacted}");
        assert!(redacted.contains("\"cache_hit\":true"));
    }
}
