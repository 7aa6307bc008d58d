//! Inputs and answers: the corpus pools each workload draws from, the
//! seeded draws, and the pinned answers every returned selection is
//! checked against.

use std::collections::HashMap;

use partita_core::api::selection_digest;
use partita_core::verify::SelectionAuditor;
use partita_core::{RequiredGains, Selection, SolveBudget, SolveOptions};
use partita_mop::Cycles;
use partita_workloads::{corpus, gsm, jpeg, Workload};

use crate::util::{Report, Rng};

/// The pinned answers, generated at the seed commit by
/// `perfbench --write-expected` (see the README).
pub const EXPECTED_TSV: &str = include_str!("../expected.tsv");

/// The paper's tables, built from their published data rather than the
/// corpus manifest; their content digests are pinned in the expected file.
pub const TABLES: [&str; 3] = ["table1", "table2", "table3"];

/// Node cap of the `scale` workload's exact solves.
pub const SCALE_NODE_CAP: usize = 45;

/// `synth:small` entries whose pinned sweep explores more nodes than this
/// are left out of `explore`'s draws: `synth-small-0032` alone takes
/// seconds per point, and a draw that may or may not include such an entry
/// makes runs with different seeds incomparable.
pub const SMALL_DRAW_NODE_LIMIT: u64 = 600;

/// One pinned answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PinnedPoint {
    pub status: String,
    pub digest: u64,
    pub area_tenths: i64,
    pub nodes: u64,
}

/// Every pinned answer: workload content digests of the tables and the
/// selection of each (instance, RG, node cap) point the workloads visit.
/// Node cap 0 stands for the default budget.
#[derive(Debug, Clone, Default)]
pub struct Pinned {
    pub workloads: HashMap<String, u64>,
    pub points: HashMap<(String, u64, usize), PinnedPoint>,
}

impl Pinned {
    /// Parses the expected file.
    ///
    /// # Errors
    ///
    /// The first malformed line.
    pub fn parse(text: &str) -> Result<Pinned, String> {
        let mut out = Pinned::default();
        for (n, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            let bad = || format!("expected.tsv line {}: {line:?}", n + 1);
            let hex = |s: &str| u64::from_str_radix(s, 16).map_err(|_| bad());
            let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
            match f.as_slice() {
                ["workload", id, digest] => {
                    out.workloads.insert((*id).to_string(), hex(digest)?);
                }
                ["point", id, rg, cap, status, digest, area, nodes] => {
                    out.points.insert(
                        ((*id).to_string(), num(rg)?, num(cap)? as usize),
                        PinnedPoint {
                            status: (*status).to_string(),
                            digest: hex(digest)?,
                            area_tenths: area.parse().map_err(|_| bad())?,
                            nodes: num(nodes)?,
                        },
                    );
                }
                _ => return Err(bad()),
            }
        }
        Ok(out)
    }

    /// The committed expected file.
    ///
    /// # Panics
    ///
    /// If the committed file does not parse (a benchmark bug).
    #[must_use]
    pub fn committed() -> Pinned {
        Pinned::parse(EXPECTED_TSV).expect("committed expected.tsv parses")
    }

    /// Pinned nodes summed over an instance's default-budget points.
    #[must_use]
    pub fn sweep_nodes(&self, id: &str) -> u64 {
        self.points
            .iter()
            .filter(|((pid, _, cap), _)| pid == id && *cap == 0)
            .map(|(_, p)| p.nodes)
            .sum()
    }
}

/// A corpus instance ready to solve.
#[derive(Debug, Clone)]
pub struct Inst {
    pub id: String,
    pub group: String,
    pub w: Workload,
}

/// The manifest group of an entry: `synth:<preset>` or the family name.
fn group_of(e: &corpus::ManifestEntry) -> String {
    if e.preset.is_empty() {
        e.family.clone()
    } else {
        format!("{}:{}", e.family, e.preset)
    }
}

/// The ids of every ungated manifest entry in `groups`, in manifest order.
///
/// # Panics
///
/// If the embedded manifest does not parse.
#[must_use]
pub fn manifest_ids(groups: &[&str]) -> Vec<(String, String)> {
    corpus::manifest()
        .expect("corpus manifest parses")
        .iter()
        .filter(|e| !e.gated && groups.contains(&group_of(e).as_str()))
        .map(|e| (e.id.clone(), group_of(e)))
        .collect()
}

/// Rebuilds instances through their pinned digests: corpus entries against
/// the manifest, the paper's tables against the expected file. This is
/// the set-up every workload times.
///
/// # Errors
///
/// An unknown id, a build error or a digest mismatch.
pub fn build(ids: &[String], pinned: &Pinned) -> Result<Vec<Inst>, String> {
    let manifest: HashMap<String, corpus::ManifestEntry> = corpus::manifest()?
        .into_iter()
        .map(|e| (e.id.clone(), e))
        .collect();
    ids.iter()
        .map(|id| {
            if let Some(e) = manifest.get(id) {
                return Ok(Inst {
                    id: id.clone(),
                    group: group_of(e),
                    w: e.verify()?,
                });
            }
            let w = match id.as_str() {
                "table1" => gsm::encoder(),
                "table2" => gsm::decoder(),
                "table3" => jpeg::encoder(),
                other => return Err(format!("unknown instance {other}")),
            };
            let want = pinned.workloads.get(id).copied();
            let got = corpus::digest(&w);
            if want != Some(got) {
                return Err(format!(
                    "{id}: digest mismatch (pinned {want:?}, rebuilt {got:016x})"
                ));
            }
            Ok(Inst {
                id: id.clone(),
                group: id.clone(),
                w,
            })
        })
        .collect()
}

/// The solve options every workload uses: Problem 2 at a uniform RG, one
/// thread, the in-solver audit on, and an optional node cap (0 = default).
#[must_use]
pub fn options(rg: Cycles, cap: usize) -> SolveOptions {
    let mut budget = SolveBudget::default().with_threads(1);
    if cap > 0 {
        budget = budget.with_max_nodes(cap);
    }
    SolveOptions::problem2(RequiredGains::uniform(rg))
        .budget(budget)
        .audit(true)
}

/// Seeded stratified draw: sorts `members` by `cost`, cuts them into
/// `strata` equal runs and picks one member of each uniformly. Keeps the
/// drawn work close to the group's average whatever the seed.
pub fn stratified<T: Clone>(
    rng: &mut Rng,
    members: &[T],
    cost: impl Fn(&T) -> u64,
    strata: usize,
) -> Vec<T> {
    let mut sorted: Vec<&T> = members.iter().collect();
    sorted.sort_by_key(|m| cost(m));
    let strata = strata.min(sorted.len()).max(1);
    (0..strata)
        .map(|s| {
            let lo = s * sorted.len() / strata;
            let hi = (s + 1) * sorted.len() / strata;
            sorted[lo + rng.below(hi - lo)].clone()
        })
        .collect()
}

/// Checks one returned selection: an independent audit, then the pinned
/// digest wherever the optimum is known. Counts the point as attempted and
/// any mismatch as failed; returns whether the point is proven optimal.
pub fn check(
    report: &mut Report,
    pinned: &Pinned,
    inst: &Inst,
    rg: Cycles,
    cap: usize,
    sel: &Selection,
) -> bool {
    report.attempted += 1;
    let audit = SelectionAuditor::new(&inst.w.instance, &inst.w.imps).audit(sel, &options(rg, cap));
    if !audit.is_clean() {
        report.fail(format!(
            "{} rg {}: audit {}",
            inst.id,
            rg.get(),
            audit.to_json()
        ));
        return false;
    }
    match pinned.points.get(&(inst.id.clone(), rg.get(), cap)) {
        Some(p) if p.status == "optimal" => {
            let got = selection_digest(sel);
            if got != p.digest {
                report.fail(format!(
                    "{} rg {}: selection digest {got:016x}, pinned {:016x}",
                    inst.id,
                    rg.get(),
                    p.digest
                ));
                return false;
            }
        }
        Some(_) => {}
        None => {
            report.fail(format!("{} rg {}: no pinned answer", inst.id, rg.get()));
            return false;
        }
    }
    sel.status.is_optimal()
}

/// Greedy-baseline areas per (instance, RG), computed once per point
/// outside every timed region. `None` where greedy finds no selection.
#[derive(Debug, Default)]
pub struct GreedyAreas(HashMap<(String, u64), Option<i64>>);

impl GreedyAreas {
    pub fn area(&mut self, inst: &Inst, rg: Cycles) -> Option<i64> {
        *self
            .0
            .entry((inst.id.clone(), rg.get()))
            .or_insert_with(|| {
                partita_core::baseline::solve_greedy(
                    &inst.w.instance,
                    &inst.w.imps,
                    &RequiredGains::uniform(rg),
                )
                .ok()
                .map(|s| s.total_area().tenths())
            })
    }
}

/// Accumulates `area_vs_greedy_pct` over the points where greedy finds a
/// selection.
#[derive(Debug, Default, Clone, Copy)]
pub struct AreaRatio {
    pub ilp: i64,
    pub greedy: i64,
}

impl AreaRatio {
    /// Adds one returned selection's area and greedy's area on its point.
    pub fn add(&mut self, greedy: &mut GreedyAreas, inst: &Inst, rg: Cycles, area_tenths: i64) {
        if let Some(g) = greedy.area(inst, rg) {
            self.ilp += area_tenths;
            self.greedy += g;
        }
    }

    #[must_use]
    pub fn pct(&self) -> f64 {
        crate::util::ratio(100.0 * self.ilp as f64, self.greedy as f64)
    }
}
