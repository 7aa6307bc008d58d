//! `scale`: cold node-capped exact solves of `synth:table` models. One
//! closed-loop caller, one thread; each pass solves the nine smallest
//! entries (about 480 vars × 1,300–1,700 rows) once at each of their three
//! lowest sweep RGs, in seeded order, so no re-solve mechanism fires and
//! per-node LP cost dominates.

use std::time::Instant;

use partita_core::Solver;

use crate::e2e::E2e;
use crate::inputs::{build, check, options, GreedyAreas, Inst, Pinned, SCALE_NODE_CAP};
use crate::layers::decompose;
use crate::trace::Tracer;
use crate::util::{timed, Report, Rng};

#[derive(Debug)]
pub struct Scale {
    pub insts: Vec<Inst>,
}

/// The `synth:table` entries `scale` solves: the nine whose formulations
/// have the fewest rows (1,304–1,704). Their points cost about the same,
/// so a run's median is not one entry's time.
pub const ENTRIES: [&str; 9] = [
    "synth-table-0000",
    "synth-table-0003",
    "synth-table-0004",
    "synth-table-0005",
    "synth-table-0006",
    "synth-table-0008",
    "synth-table-0010",
    "synth-table-0013",
    "synth-table-0016",
];

/// How many of each entry's lowest sweep RGs are solved.
pub const RGS_PER_ENTRY: usize = 3;

/// The ids `scale` solves.
#[must_use]
pub fn pool_ids() -> Vec<String> {
    ENTRIES.iter().map(|s| (*s).to_string()).collect()
}

impl Scale {
    /// Builds the pool (the timed set-up).
    ///
    /// # Errors
    ///
    /// A build or digest error.
    pub fn setup(pinned: &Pinned) -> Result<Scale, String> {
        Ok(Scale {
            insts: build(&pool_ids(), pinned)?,
        })
    }

    /// The seeded order of one pass: (instance, sweep index) pairs.
    pub fn pass(&self, rng: &mut Rng) -> Vec<(usize, usize)> {
        let mut order: Vec<(usize, usize)> = (0..self.insts.len())
            .flat_map(|i| (0..RGS_PER_ENTRY).map(move |k| (i, k)))
            .collect();
        rng.shuffle(&mut order);
        order
    }

    /// Runs whole passes until `seconds` pass. With a tracer, also records
    /// every point's layers from a second cold solve of it (see
    /// `layers::decompose`).
    pub fn run(
        &self,
        pinned: &Pinned,
        rng: &mut Rng,
        seconds: f64,
        report: &mut Report,
        mut tr: Option<&mut Tracer>,
    ) -> E2e {
        let mut e = E2e::default();
        let mut greedy = GreedyAreas::default();
        let started = Instant::now();
        let mut id = 0u64;
        while started.elapsed().as_secs_f64() < seconds {
            for (i, k) in self.pass(rng) {
                let inst = &self.insts[i];
                let rg = inst.w.rg_sweep[k];
                let opts = options(rg, SCALE_NODE_CAP);
                let (res, d) = timed(|| {
                    Solver::new(&inst.w.instance)
                        .with_imps(inst.w.imps.clone())
                        .solve(&opts)
                });
                e.call(d, 1);
                match res {
                    Ok(sel) => {
                        if check(report, pinned, inst, rg, SCALE_NODE_CAP, &sel) {
                            e.proven += 1;
                        }
                        e.area.add(&mut greedy, inst, rg, sel.total_area().tenths());
                    }
                    Err(err) => {
                        report.attempted += 1;
                        report.fail(format!("{} rg {}: {err}", inst.id, rg.get()));
                    }
                }
                if let Some(tr) = tr.as_deref_mut() {
                    id += 1;
                    decompose(tr, id, inst, rg, SCALE_NODE_CAP);
                }
            }
        }
        e
    }
}
