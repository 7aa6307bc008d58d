//! Optimal S-instruction generation — the core contribution of the DAC'99
//! paper (§4): selecting the set of IPs and interface types that makes an
//! application meet per-path performance constraints at minimum area,
//! with support for concurrent kernel/IP execution.
//!
//! Pipeline:
//!
//! 1. [`Instance`] describes the problem: s-calls with software timings and
//!    profiled frequencies, the IP library, execution paths, hierarchy.
//! 2. [`ImpDb::generate`] enumerates the *implementation methods* (IMPs) of
//!    every s-call: (IP, interface type, parallel-code choice) with total
//!    gain `g_ij` and interface area `c_ij`. Databases can also be built
//!    directly from published data via [`ImpDb::from_imps`].
//! 3. [`parallel_code`] computes `PC_i` (Definitions 3–5) on the caller's
//!    CDFG, and the s-calls whose *software implementations* may serve as
//!    parallel code (the Problem 2 generalisation).
//! 4. [`hierarchy::flatten`] folds lower-level IMPs into upper-level
//!    composite IMPs (*IMP flatten*, Fig. 11).
//! 5. [`Solver`] builds the 0/1 ILP (Problem 1 with its restrictions, or the
//!    general Problem 2 with SC/SC-PC conflict constraints), minimises
//!    `Σ z_k·a_k + Σ x_ij·c_ij` with the [`engine`] backend the options
//!    name (branch-and-bound, exhaustive or greedy, see `docs/BACKENDS.md`)
//!    under a [`SolveBudget`],
//!    and decodes a [`Selection`] tagged with an [`OptimalityStatus`] and a
//!    full [`SolveTrace`].
//! 6. [`merge::s_instruction_count`] merges same-(IP, interface) selections
//!    into single S-instructions (the **S** column of Tables 1–3), and
//!    [`report`] renders paper-style rows.
//!
//! Baselines for the evaluation live in [`baseline`].
//!
//! # Module map
//!
//! | Module | Role | Paper anchor |
//! |---|---|---|
//! | [`instance`](Instance) / [`impdb`](ImpDb) | Problem description, IMP enumeration | §3, Defs. 1–2 |
//! | [`parallel_code`] | `PC_i` computation on the CDFG | §3, Defs. 3–5 |
//! | [`hierarchy`] | IMP flatten across call levels | §5, Fig. 11 |
//! | [`engine`] | Backend choice, budgets, solve telemetry | §4, Problems 1–2 |
//! | [`sweep`] | RG sweeps: caching under the interval rule | Tables 1–3, Figs. 8–11 |
//! | [`verify`] | Independent selection audit, fault injection | §4 optimality claims |
//! | [`merge`] / [`report`] | S-instruction merge, paper-style rows | Tables 1–3 (**S** column) |
//! | [`baseline`] | All-software / greedy reference points | §6 |
//! | [`telemetry`] | Structured events, sinks, trace schema | — (observability layer) |
//! | [`api`] | Versioned request/response envelope, [`ApiError`] codes | — (service surface) |
//! | [`cache`] | Bounded answer caches, the interval rule, sharded concurrent canonical cache | — (service surface) |
//! | [`delta`] | Incremental re-solve: model patch + interval answers | §5 exploration loop |
//!
//! # Example
//!
//! ```
//! use partita_core::{Instance, SCall, ImpDb, Solver, SolveOptions, RequiredGains};
//! use partita_ip::{IpBlock, IpFunction};
//! use partita_interface::TransferJob;
//! use partita_mop::{AreaTenths, Cycles};
//!
//! # fn main() -> Result<(), partita_core::CoreError> {
//! let mut instance = Instance::new("demo");
//! let fir = instance.library.add(
//!     IpBlock::builder("fir16").function(IpFunction::Fir)
//!         .rates(4, 4).latency(8)
//!         .area(AreaTenths::from_units(3)).build(),
//! );
//! let sc0 = instance.add_scall(
//!     SCall::new("fir", IpFunction::Fir, Cycles(4000), TransferJob::new(160, 160)),
//! );
//! instance.add_path(vec![sc0]);
//! let db = ImpDb::generate(&instance);
//! let sel = Solver::new(&instance)
//!     .with_imps(db)
//!     .solve(&SolveOptions::problem2(RequiredGains::uniform(Cycles(1000))))?;
//! assert!(sel.chosen().iter().any(|imp| imp.ips.contains(&fir)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod baseline;
mod build;
pub mod cache;
mod conflict;
pub mod delta;
pub mod engine;
mod error;
mod formulate;
pub mod hierarchy;
mod imp;
mod impdb;
mod instance;
pub mod merge;
pub mod parallel_code;
pub mod report;
mod solver;
pub mod sweep;
pub mod telemetry;
pub mod verify;

pub use api::{
    ApiError, BatchItem, Payload, Request, RequestBody, Response, SolveResult, SolveSpec,
    StatsSnapshot, API_VERSION,
};
pub use build::{instance_from_compiled, SCallBinding};
pub use cache::ShardedLru;
pub use conflict::{sc_pc_conflicts, ConflictPair};
pub use delta::{DeltaSession, InstanceDelta};
pub use engine::{Backend, OptimalityStatus, SolveBudget, SolveTrace};
pub use error::CoreError;
pub use imp::{Imp, ImpId, ParallelChoice};
pub use impdb::ImpDb;
pub use instance::{Instance, PathSpec, SCall};
pub use solver::{ProblemKind, RequiredGains, Selection, SolveOptions, Solver};
pub use sweep::{SweepPoint, SweepSession, SweepTrace};
pub use telemetry::{
    Event, EventKind, JsonLinesSink, NullSink, RecordingSink, Redaction, TelemetrySink,
};
pub use verify::{
    AuditCheck, AuditReport, AuditViolation, Fault, FaultPlan, FaultVerdict, GainPolicy,
    SelectionAuditor,
};
