//! The partita benchmark: three workloads (`explore`, `scale`, `daemon`),
//! answer checking against pinned selections, and a traced per-layer run.
//! See `README.md` for what each workload measures and why.

pub mod daemon;
pub mod e2e;
pub mod expected;
pub mod explore;
pub mod inputs;
pub mod layers;
pub mod run;
pub mod scale;
pub mod trace;
pub mod util;
