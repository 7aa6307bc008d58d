//! **partita** — a reproduction of *"Exploiting Intellectual Properties in
//! ASIP Designs for Embedded DSP Software"* (Choi, Yi, Lee, Park, Kyung —
//! DAC 1999).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`mop`] — µ-operation IR, CDFG, execution paths, call hierarchy.
//! * [`frontend`] — C-like DSL, profiler, lowering to MOP lists.
//! * [`asip`] — cycle-accurate pipelined DSP kernel simulator.
//! * [`ip`] — hardware IP models and bit-true DSP kernels.
//! * [`interface`] — the four kernel↔IP interface types, timing/area models.
//! * [`ilp`] — 0/1 integer linear programming (simplex + branch-and-bound).
//! * [`core`] — optimal S-instruction generation (the paper's contribution).
//! * [`workloads`] — GSM(TDMA), JPEG and synthetic workload models.
//! * [`service`] — the multi-tenant solve daemon behind the versioned
//!   request API of [`core::api`].
//!
//! # Blessed surface
//!
//! The [`prelude`] is the supported way in: the solver entrypoints, the
//! versioned request/response envelope, and the daemon core. Anything
//! else re-exported by the sub-crates is reachable but may move;
//! anything in the prelude follows the compatibility policy of
//! `docs/SERVICE.md` (additive within an `api_version`).
//!
//! # Quickstart — library
//!
//! ```
//! use partita::prelude::*;
//! use partita::workloads::gsm;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let workload = gsm::encoder();
//! let rg = workload.rg_sweep[0];
//! let solution = Solver::new(&workload.instance)
//!     .with_imps(workload.imps.clone())
//!     .solve(&SolveOptions::problem2(RequiredGains::uniform(rg)))?;
//! assert!(solution.total_gain() >= rg);
//! # Ok(())
//! # }
//! ```
//!
//! # Quickstart — service
//!
//! The same solve, phrased as one request envelope against an in-process
//! daemon core (the `serviced` binary speaks exactly this, one JSON
//! object per line):
//!
//! ```
//! use partita::prelude::*;
//!
//! let core = ServiceCore::new(ServiceConfig::default());
//! let reply = core.handle_line(
//!     r#"{"api_version":1,"id":"q1","tenant":"docs",
//!         "method":"solve","instance":"synth-micro-0000"}"#,
//! );
//! assert!(reply.contains("\"status\":\"optimal\""), "{reply}");
//! ```
//!
//! # Telemetry, not ad-hoc JSON
//!
//! Rendering a [`core::SolveTrace`] with its deprecated `to_json` method
//! is superseded by constructing the telemetry event, which emits the
//! same bytes and composes with sinks and redaction:
//!
//! ```
//! use partita::core::telemetry::Event;
//! # let trace = partita::core::SolveTrace::default();
//! let line = Event::SolveFinished { trace }.to_json();
//! assert!(line.starts_with("{\"schema\":6,\"event\":\"solve_finished\""));
//! ```

#![forbid(unsafe_code)]

pub use partita_asip as asip;
pub use partita_core as core;
pub use partita_frontend as frontend;
pub use partita_ilp as ilp;
pub use partita_interface as interface;
pub use partita_ip as ip;
pub use partita_mop as mop;
pub use partita_service as service;
pub use partita_workloads as workloads;

/// The blessed public surface: solver, envelope, daemon.
///
/// Everything here is stable under the versioning policy in
/// `docs/SERVICE.md`: within one [`ApiError`](partita_core::api::ApiError)
/// / `api_version` generation,
/// changes are additive (new optional fields, new methods, new error
/// codes) and existing meanings never shift.
pub mod prelude {
    pub use partita_core::api::{
        ApiError, BatchItem, Payload, Request, RequestBody, Response, SolveResult, SolveSpec,
        StatsSnapshot, API_VERSION,
    };
    pub use partita_core::{
        Backend, OptimalityStatus, Redaction, RequiredGains, Selection, SolveBudget, SolveOptions,
        Solver,
    };
    pub use partita_service::{ServiceConfig, ServiceCore};
}
