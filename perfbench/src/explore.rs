//! `explore`: the paper's exploration loop through the library API. One
//! closed-loop caller, one solver thread. Each round visits Tables 1–3 and
//! a seeded stratified draw from the optimally solvable groups; for each instance it runs the descending RG
//! sweep through `SweepSession::sweep`, walks the same RGs down and up with
//! `DeltaSession` (`SetRg` + `resolve`), and revisits a quarter of the
//! points through the same sweep session.

use std::time::{Duration, Instant};

use partita_core::delta::{DeltaSession, InstanceDelta};
use partita_core::sweep::SweepSession;
use partita_core::{CoreError, RequiredGains, Selection};
use partita_mop::Cycles;

use crate::e2e::E2e;
use crate::inputs::{
    build, check, manifest_ids, options, stratified, GreedyAreas, Inst, Pinned,
    SMALL_DRAW_NODE_LIMIT, TABLES,
};
use crate::layers::decompose;
use crate::trace::Tracer;
use crate::util::{timed, Report, Rng};

/// Groups `explore` draws from each round.
pub const DRAWN_GROUPS: [&str; 6] = [
    "viterbi",
    "adpcm",
    "lms",
    "fft_radix4",
    "synth:micro",
    "synth:small",
];

/// Entries drawn per group and round (one per cost stratum).
pub const PER_GROUP: usize = 3;

/// Share of each instance's points revisited through its sweep session.
pub const REVISIT_SHARE: f64 = 0.25;

/// The built instance pool.
#[derive(Debug)]
pub struct Explore {
    pub insts: Vec<Inst>,
    /// Indices visited every round.
    fixed: Vec<usize>,
    /// Per drawn group, the member indices.
    groups: Vec<Vec<usize>>,
    /// Pinned sweep nodes per instance, the draw's cost key.
    cost: Vec<u64>,
}

/// The ids `explore` may visit.
#[must_use]
pub fn pool_ids(pinned: &Pinned) -> Vec<String> {
    let mut ids: Vec<String> = TABLES.iter().map(|s| (*s).to_string()).collect();
    for (id, group) in manifest_ids(&DRAWN_GROUPS) {
        if group != "synth:small" || pinned.sweep_nodes(&id) <= SMALL_DRAW_NODE_LIMIT {
            ids.push(id);
        }
    }
    ids
}

/// One instance visit of a round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Visit {
    pub inst: usize,
    /// Indices into the instance's RG sweep to revisit.
    pub revisit: Vec<usize>,
}

impl Explore {
    /// Builds the pool (the timed set-up).
    ///
    /// # Errors
    ///
    /// A build or digest error.
    pub fn setup(pinned: &Pinned) -> Result<Explore, String> {
        let insts = build(&pool_ids(pinned), pinned)?;
        let mut fixed = Vec::new();
        let mut groups = vec![Vec::new(); DRAWN_GROUPS.len()];
        for (i, inst) in insts.iter().enumerate() {
            match DRAWN_GROUPS.iter().position(|g| *g == inst.group) {
                Some(g) => groups[g].push(i),
                _ => fixed.push(i),
            }
        }
        let cost = insts.iter().map(|i| pinned.sweep_nodes(&i.id)).collect();
        Ok(Explore {
            insts,
            fixed,
            groups,
            cost,
        })
    }

    /// The seeded plan of the next round.
    pub fn round(&self, rng: &mut Rng) -> Vec<Visit> {
        let mut picks = self.fixed.clone();
        for group in &self.groups {
            picks.extend(stratified(rng, group, |&i| self.cost[i], PER_GROUP));
        }
        rng.shuffle(&mut picks);
        picks
            .into_iter()
            .map(|inst| {
                let k = self.insts[inst].w.rg_sweep.len();
                let mut idx: Vec<usize> = (0..k).collect();
                rng.shuffle(&mut idx);
                let n = ((k as f64 * REVISIT_SHARE).round() as usize).max(1);
                idx.truncate(n);
                Visit { inst, revisit: idx }
            })
            .collect()
    }

    /// Runs rounds until `seconds` pass (whole rounds only). With a tracer,
    /// also records every swept point's layers from a cold solve of it (see
    /// `layers::decompose`) and the session counters.
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
        let mut point_id = 0u64;
        while started.elapsed().as_secs_f64() < seconds {
            for visit in self.round(rng) {
                self.visit(
                    pinned,
                    &visit,
                    report,
                    &mut e,
                    &mut greedy,
                    tr.as_deref_mut(),
                    &mut point_id,
                );
            }
        }
        e
    }

    /// Runs one instance visit, adding its calls to `e`.
    #[allow(clippy::too_many_arguments)]
    pub fn visit(
        &self,
        pinned: &Pinned,
        visit: &Visit,
        report: &mut Report,
        e: &mut E2e,
        greedy: &mut GreedyAreas,
        tr: Option<&mut Tracer>,
        point_id: &mut u64,
    ) {
        VisitRun {
            inst: &self.insts[visit.inst],
            pinned,
            report,
            e,
            greedy,
            tr,
            point_id,
        }
        .run(&visit.revisit);
    }
}

/// One instance visit in flight.
struct VisitRun<'a> {
    inst: &'a Inst,
    pinned: &'a Pinned,
    report: &'a mut Report,
    e: &'a mut E2e,
    greedy: &'a mut GreedyAreas,
    tr: Option<&'a mut Tracer>,
    point_id: &'a mut u64,
}

impl VisitRun<'_> {
    fn answer(&mut self, rg: Cycles, result: &Result<Selection, CoreError>) {
        match result {
            Ok(sel) => {
                if check(self.report, self.pinned, self.inst, rg, 0, sel) {
                    self.e.proven += 1;
                }
                self.e
                    .area
                    .add(self.greedy, self.inst, rg, sel.total_area().tenths());
            }
            Err(err) => {
                self.report.attempted += 1;
                self.report
                    .fail(format!("{} rg {}: {err}", self.inst.id, rg.get()));
            }
        }
    }

    fn next_id(&mut self) -> u64 {
        *self.point_id += 1;
        *self.point_id
    }

    fn run(&mut self, revisit: &[usize]) {
        let w = &self.inst.w;
        let rgs = w.rg_sweep.clone();
        let mut desc = rgs.clone();
        desc.sort_unstable_by(|a, b| b.cmp(a));

        // Descending sweep with chaining and the session caches.
        let mut session = SweepSession::new();
        let (swept, d) = timed(|| session.sweep(&w.instance, &w.imps, &options(rgs[0], 0), &rgs));
        self.e.call(d, rgs.len());
        match &swept {
            Ok(sels) => {
                for (rg, sel) in rgs.iter().zip(sels) {
                    self.answer(*rg, &Ok(sel.clone()));
                }
            }
            Err(err) => {
                for rg in &rgs {
                    self.answer(*rg, &Err(err.clone()));
                }
            }
        }
        let sweep_nodes = session.trace().total_nodes();

        // The same RGs walked down and up through one delta session.
        let mut walk = desc.clone();
        walk.extend(desc.iter().rev().skip(1));
        let mut delta: Option<DeltaSession> = None;
        let mut steps: Vec<(Cycles, Duration, Result<Selection, CoreError>)> = Vec::new();
        for &rg in &walk {
            let (res, d) = timed(|| {
                match delta.as_mut() {
                    Some(ds) => ds.apply(InstanceDelta::SetRg(RequiredGains::uniform(rg)))?,
                    None => {
                        delta = Some(DeltaSession::new(
                            w.instance.clone(),
                            w.imps.clone(),
                            options(rg, 0),
                        )?);
                    }
                }
                delta.as_mut().expect("session created above").resolve()
            });
            self.e.call(d, 1);
            self.answer(rg, &res);
            steps.push((rg, d, res));
        }

        // Revisits through the sweep session.
        for &i in revisit {
            let rg = rgs[i];
            let (res, d) = timed(|| session.solve(&w.instance, &w.imps, &options(rg, 0)));
            self.e.call(d, 1);
            self.answer(rg, &res);
        }

        if self.tr.is_some() {
            self.trace(&rgs, d, sweep_nodes, &session, &steps);
        }
    }

    /// The traced part of a visit: the sweep's per-point share and session
    /// counters, a cold sweep for the nodes chaining saved, each delta step
    /// with its cold node count, and every point's layers.
    fn trace(
        &mut self,
        rgs: &[Cycles],
        sweep_wall: Duration,
        sweep_nodes: u64,
        session: &SweepSession,
        steps: &[(Cycles, Duration, Result<Selection, CoreError>)],
    ) {
        let w = &self.inst.w;
        let mut cold = SweepSession::new();
        let (_, cold_wall) =
            timed(|| cold.sweep_cold(&w.instance, &w.imps, &options(rgs[0], 0), rgs));
        let mut cold_nodes = std::collections::HashMap::new();
        for rg in rgs {
            let id = self.next_id();
            let tr = self.tr.as_deref_mut().expect("traced visit");
            if let Some(n) = decompose(tr, id, self.inst, *rg, 0) {
                cold_nodes.insert(rg.get(), n);
            }
            tr.record(
                id,
                "sweep.point",
                None,
                sweep_wall / rgs.len() as u32,
                Vec::new(),
            );
        }
        let id = self.next_id();
        let t = session.trace();
        let tr = self.tr.as_deref_mut().expect("traced visit");
        tr.record(
            id,
            "sweep.session",
            None,
            sweep_wall,
            vec![
                ("hits", t.cache_hits as f64),
                ("lookups", (t.cache_hits + t.cache_misses) as f64),
                ("chain_accepts", t.chained_accepts as f64),
                (
                    "chain_decisions",
                    (t.chained_accepts + t.chained_rejects) as f64,
                ),
                ("nodes", sweep_nodes as f64),
            ],
        );
        tr.record(
            id,
            "sweep.cold",
            None,
            cold_wall,
            vec![("nodes", cold.trace().total_nodes() as f64)],
        );
        for (rg, d, res) in steps {
            if let Ok(sel) = res {
                let cold = cold_nodes.get(&rg.get()).copied().unwrap_or(0);
                tr.record(
                    id,
                    "delta.resolve",
                    None,
                    *d,
                    vec![
                        ("nodes", sel.trace.nodes_explored as f64),
                        ("cold_nodes", cold as f64),
                        ("basis_reused", f64::from(u8::from(sel.trace.basis_reused))),
                    ],
                );
            }
        }
    }
}
