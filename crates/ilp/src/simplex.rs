//! Sparse-row two-phase bounded-variable primal simplex, with
//! warm-started dual-simplex repair.
//!
//! Solves the LP relaxation of a [`Model`] with per-variable bound overrides
//! (used by branch-and-bound to fix binaries). The implementation is a
//! tableau simplex (the private `Tableau` in [`SimplexScratch`]):
//!
//! 1. shift every variable by its lower bound so all variables are ≥ 0,
//! 2. give every structural column its width `u = upper − lower` as an
//!    implicit bound `0 ≤ y ≤ u` (no tableau row),
//! 3. convert to equalities with slack/surplus columns, normalise `b ≥ 0`,
//! 4. phase 1 minimises the sum of one artificial per row,
//! 5. phase 2 minimises the (sense-normalised) objective.
//!
//! A column nonbasic at its upper bound is *complemented*: the tableau
//! holds `u − y` in its place, so every nonbasic column sits at zero and
//! the pivot arithmetic is the unbounded tableau's. The primal ratio test
//! also stops where a basic variable reaches its upper bound (its row is
//! complemented, then pivoted) and where the entering column reaches its
//! own (a *flip*: the column is complemented and no pivot runs). The dual
//! simplex leaves on `y < 0` or `y > u`. A flip counts as a pivot of its
//! phase.
//!
//! Every choice keys on the numbering the tableau had when each finite
//! width was an explicit `y + s = u` row: structural and slack columns
//! first, then one bound-row slack per finite-width column, then the
//! artificials. A complemented column stands for its bound-row slack, so
//! it prices after every uncomplemented column, and a ratio-test tie on a
//! variable reaching its upper bound keys on that slack. In exact
//! arithmetic the bounded simplex therefore walks the explicit-row
//! tableau's pivot sequence, with fewer rows to eliminate.
//!
//! Pivot columns are chosen by Dantzig's rule (most negative reduced cost)
//! with a deterministic fallback to Bland's rule after a configurable
//! streak of degenerate pivots ([`SimplexOptions::bland_stall`]), so the
//! solver keeps Dantzig's pivot counts without giving up the anti-cycling
//! termination guarantee: any non-terminating run must end in an infinite
//! all-degenerate stretch, and inside such a stretch the fallback engages
//! and stays engaged (only an objective improvement re-arms Dantzig), at
//! which point Bland's rule terminates it.
//!
//! The tolerances are constants, not options: every feasibility decision
//! (phase-1 exit, box and constant-row checks, the dual simplex's
//! infeasibility proof) uses the crate-wide [`crate::FEAS_TOL`] that
//! branch-and-bound and the brute-force oracle also check integer points
//! with, and every solve stops at [`MAX_ITERATIONS`] pivots.
//!
//! [`solve_with_basis`] additionally accepts a [`Basis`] retained from a
//! previous optimal solve of a same-shaped model. After a pure RHS or bound
//! patch the old basis stays *dual* feasible, so instead of a phase-1
//! restart the solver re-installs the basis and repairs primal feasibility
//! with dual-simplex pivots. Any incompatibility — shape mismatch, singular
//! basis matrix, lost dual feasibility, iteration trouble — silently falls
//! back to the cold two-phase path, so a poisoned or stale basis can cost
//! time but never correctness.
//!
//! # Storage
//!
//! The selector's models reach about 53 rows by 500 columns at
//! `synth:table` scale, and their tableaus stay mostly zeros: a node
//! build stores about 1,700 cells of its 28,000, and a pivot row about
//! 90. Constraint rows are therefore stored as column-sorted `(column,
//! value)` lists, while the objective row and the right-hand side stay
//! dense. Artificial columns are never read (they never enter), so they
//! are not stored: an artificial is only a basis marker.
//!
//! Rows are updated lazily (see `LazyRows`). They stay as built (or as of
//! the last flush), one flat buffer with a by-column copy beside it, and
//! every pivot, flip and row complement is appended to a log; a pivot's
//! entry holds its normalised pivot row and the `(row, factor)` list of
//! the rows it eliminates. A row is replayed through the entries it has
//! not seen only when something reads it: the pivot row, the cost-row
//! install, the phase-1 drive-out, lex canonicalisation and the dual
//! simplex's leaving-row scan and entering-column scan. A column is
//! replayed on its own, from the by-column base and the log, when the
//! ratio test, the right-hand-side update of a pivot or flip, or a box
//! move reads it. Most eliminated rows of a node LP are never read again
//! before its tableau is discarded, so their elimination never runs.
//!
//! Every replayed cell gets exactly the arithmetic eager elimination
//! gives it, in the same order (`v − factor·pv`, a fill-in cell `0.0 −
//! factor·pv`, a cancelled cell stays stored as zero), and every scan
//! visits cells in the dense order, so pivots, vertices and tie-breaks
//! match a dense tableau bit for bit; only the zeros and the unread rows
//! stop costing. Outside a root probe, a log with more entries than the
//! base has cells is flushed into a new base, which bounds what a read
//! replays by what one eager pivot costs.
//!
//! Fixed variables (`lower == upper`) are folded into the right-hand side
//! while the tableau is built (see [`solve_with_bounds_scratch`]), which
//! keeps node LPs deep in a branch-and-bound tree small without building a
//! reduced [`Model`].
//!
//! A build reads the model through a flat copy (`FlatModel`): the rows'
//! terms back to back in one buffer, each row's relation and `rhs −
//! constant` beside them, and the objective as one coefficient per
//! variable in minimisation sense. Branch-and-bound makes the copy once
//! per search and hands it to its root and node LPs, so a node build and
//! its cost row stride through arrays instead of walking the model; the
//! public entry points, which take a [`Model`], flatten it per call. The
//! same pass over the bounds validates them, counts the fixed variables,
//! numbers the columns and records their boxes.
//!
//! # Root probes
//!
//! [`RootProbe`] re-solves bound pins of a root LP on the optimal
//! full-shape tableau [`solve_with_basis`] leaves in its scratch. A pin is
//! a bound change of one column: a nonbasic column moves to the pinned
//! value (its column, times the move, comes off the right-hand side), a
//! basic one has its box narrowed. Either keeps the root basis dual
//! feasible, so the dual simplex repairs it in a few pivots, and stops
//! early once its objective passes the caller's cutoff (the dual objective
//! only rises, so the probe's optimum lies beyond it too). The first probe
//! flushes the root LP's log; each probe then only appends to it and
//! truncates it when it ends, restoring the dense right-hand side,
//! objective row, basis and column boxes from a snapshot. Only a basic
//! artificial or a dual-simplex failure sends a probe to a cold
//! [`solve_with_bounds_scratch`] instead. Probes skip `lex_canonicalize`:
//! only their objective is used.

use crate::model::FlatModel;
use crate::{IlpError, LpSolution, Model, Relation, Sense, VarId, FEAS_TOL};

const EPS: f64 = 1e-10;

/// Column marker of a variable folded out of the tableau.
const FOLDED: usize = usize::MAX;

/// Basis marker of a row that starts on an artificial, numbered once the
/// row count (and so the first artificial column) is known.
const ARTIFICIAL: usize = usize::MAX;

/// Smallest tableau element treated as a usable pivot when driving
/// artificials out of the basis or re-installing a warm basis.
const PIVOT_TOL: f64 = 1e-7;

/// Objective values within this of zero are snapped to exactly zero, and
/// reduced costs within it count as zero on the optimal face.
const OBJECTIVE_TOL: f64 = 1e-9;

/// Hard cap on pivots across both phases of one solve.
pub const MAX_ITERATIONS: usize = 50_000;

/// Options for the simplex solver.
///
/// The tolerances are the constants [`crate::FEAS_TOL`], `PIVOT_TOL` and
/// `OBJECTIVE_TOL`, and the pivot cap is [`MAX_ITERATIONS`], so every
/// feasibility decision of every solve uses one set of values. Only the
/// anti-cycling threshold is settable: the anti-cycling tests set it to 0
/// to put Bland's rule in play from the first degenerate pivot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimplexOptions {
    /// Consecutive degenerate pivots tolerated under the Dantzig entering
    /// rule before the solver falls back to Bland's rule for the remainder
    /// of the degenerate stretch (an objective improvement re-arms
    /// Dantzig). `0` switches on the very first degenerate pivot.
    pub bland_stall: usize,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions { bland_stall: 12 }
    }
}

impl SimplexOptions {
    /// Overrides the Dantzig→Bland degenerate-stall threshold.
    #[must_use]
    pub fn with_bland_stall(mut self, stall: usize) -> SimplexOptions {
        self.bland_stall = stall;
        self
    }
}

/// Deterministic per-operation counters of the simplex layer, accumulated
/// in a [`SimplexScratch`] across every solve that reuses it.
///
/// All counts are exact operation tallies — no timers — so they reproduce
/// bit-for-bit on any machine for a fixed model sequence, which is what
/// lets the benchsuite gate on them portably.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimplexOps {
    /// Phase-1 (feasibility) pivots, including the pivots that drive
    /// residual artificials out of a degenerate phase-1 basis.
    pub phase1_pivots: usize,
    /// Phase-2 (optimality) pivots.
    pub phase2_pivots: usize,
    /// Dual-simplex repair pivots, including the direct pivots that
    /// re-install a warm basis.
    pub dual_pivots: usize,
    /// Pivots spent lex-canonicalising optimal root vertices.
    pub lex_pivots: usize,
    /// Tableaus built (one per LP solved at tableau level).
    pub tableau_builds: usize,
    /// Tableau builds that grew none of the scratch's pooled buffers (rows,
    /// their log, dense vectors) — the scratch-reuse hits that skipped
    /// every heap allocation.
    pub scratch_reuses: usize,
    /// Times the entering rule fell back from Dantzig to Bland inside a
    /// degenerate stall.
    pub bland_activations: usize,
}

impl SimplexOps {
    /// Sum of all pivot counters.
    #[must_use]
    pub fn total_pivots(&self) -> usize {
        self.phase1_pivots + self.phase2_pivots + self.dual_pivots + self.lex_pivots
    }

    /// Adds `other`'s counters into `self`.
    pub fn merge(&mut self, other: SimplexOps) {
        self.phase1_pivots += other.phase1_pivots;
        self.phase2_pivots += other.phase2_pivots;
        self.dual_pivots += other.dual_pivots;
        self.lex_pivots += other.lex_pivots;
        self.tableau_builds += other.tableau_builds;
        self.scratch_reuses += other.scratch_reuses;
        self.bland_activations += other.bland_activations;
    }
}

/// Reusable buffers for repeated LP solves.
///
/// Branch-and-bound solves one LP per node. One scratch held for the
/// whole search lets [`solve_with_bounds_scratch`] reuse the tableau's
/// rows and their log, the dense vectors and the basis across nodes
/// instead of re-allocating them. Capacities only grow, so a scratch
/// warmed up on the root LP serves most descendants without further
/// allocation.
#[derive(Debug, Default)]
pub struct SimplexScratch {
    /// The tableau of the current solve, its buffers pooled across solves.
    t: Tableau,
    /// Phase-2 cost per structural/slack column, before pricing.
    cost: Vec<f64>,
    /// Tableau column of each model variable ([`FOLDED`] when folded).
    var_col: Vec<usize>,
    /// Per-op counters accumulated across every solve through this scratch.
    ops: SimplexOps,
    /// Whether `t` holds the optimal full-shape tableau the last successful
    /// [`solve_with_basis`] call ended on; every build clears it.
    root_resident: bool,
}

impl SimplexScratch {
    /// Creates an empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> SimplexScratch {
        SimplexScratch::default()
    }

    /// The per-op counters accumulated so far.
    #[must_use]
    pub fn ops(&self) -> SimplexOps {
        self.ops
    }

    /// Returns the accumulated counters and resets them to zero, so a
    /// caller can attribute deltas to search phases.
    pub fn take_ops(&mut self) -> SimplexOps {
        std::mem::take(&mut self.ops)
    }

    /// Total capacity of every pooled buffer. Capacities never shrink, so
    /// an unchanged total across a build means the build allocated nothing.
    fn pooled_capacity(&self) -> usize {
        let t = &self.t;
        t.rows.capacity()
            + t.rhs.capacity()
            + t.obj.capacity()
            + t.basis.capacity()
            + t.width.capacity()
            + t.lo.capacity()
            + t.flipped.capacity()
            + self.cost.capacity()
            + self.var_col.capacity()
    }
}

/// A sparse-row simplex tableau.
///
/// Columns are the `n` structural columns, then one slack/surplus column
/// per row (`n..art0`), then the artificials (`art0..art0 + n_art`), which
/// appear only in `basis`. The constraint rows live in `rows`, which
/// brings a row up to date only when it is read (see [`LazyRows`]); the
/// right-hand side, objective row, basis and boxes are dense and always
/// current.
///
/// Structural column `j` holds `y_j − lo_j` while uncomplemented and
/// `lo_j + width_j − y_j` while complemented (`flipped`), where `y` is the
/// variable shifted by the lower bound of the build. Either way a nonbasic
/// column sits at zero and a basic one at its row's right-hand side, which
/// must lie in `[0, width]`.
#[derive(Debug, Default)]
struct Tableau {
    /// Structural columns.
    n: usize,
    /// Rows (the model's constraints).
    m: usize,
    /// First artificial column: `n + m`.
    art0: usize,
    /// Artificial columns.
    n_art: usize,
    /// The constraint rows.
    rows: LazyRows,
    /// Right-hand side per row.
    rhs: Vec<f64>,
    /// Objective (reduced-cost) row over the columns below `art0`.
    obj: Vec<f64>,
    /// Objective row's right-hand side: minus the current objective.
    obj_rhs: f64,
    /// Basic column per row.
    basis: Vec<usize>,
    /// Box width of every column below `art0`: `upper − lower` of a
    /// structural column (∞ when unbounded), ∞ for a slack.
    width: Vec<f64>,
    /// Lower end of each structural column's box in the shifted space:
    /// zero except where a root probe pinned the column.
    lo: Vec<f64>,
    /// Whether each column below `art0` is complemented.
    flipped: Vec<bool>,
    /// The dense state the running root probe restores when it ends.
    saved: ProbeSave,
}

impl Tableau {
    /// Pivots on `(row, col)`: logs the pivot (see [`LazyRows::pivot`]),
    /// then updates the right-hand side of every row it eliminates and the
    /// objective row, as eliminating `col` from them does.
    fn pivot(&mut self, row: usize, col: usize) {
        let (inv, prow, factors) = self.rows.pivot(row, col);
        self.rhs[row] *= inv;
        let prhs = self.rhs[row];
        for &(r, factor) in factors {
            self.rhs[r] -= factor * prhs;
        }
        let factor = self.obj[col];
        if factor != 0.0 {
            for &(c, pv) in prow {
                self.obj[c] -= factor * pv;
            }
            self.obj_rhs -= factor * prhs;
        }
        self.basis[row] = col;
        self.rows.settle();
    }

    /// Complements column `c` (`z = width − z'`): negates its cells and its
    /// reduced cost, and moves every right-hand side by the column times
    /// the width, as substituting the complement into each row does.
    fn flip(&mut self, c: usize) {
        let w = self.width[c];
        for (r, &v) in self.rows.column(c).iter().enumerate() {
            if v != 0.0 {
                self.rhs[r] -= v * w;
            }
        }
        self.rows.push(Entry::Flip(c));
        self.obj_rhs -= self.obj[c] * w;
        self.obj[c] = -self.obj[c];
        self.flipped[c] = !self.flipped[c];
        self.rows.settle();
    }

    /// Complements row `r`'s basic variable, which keeps it basic in `r`:
    /// the column is flipped, then the row negated so that its basic cell
    /// is positive again and its right-hand side reads `width − value`.
    fn complement_row(&mut self, r: usize) {
        self.flip(self.basis[r]);
        self.rows.push(Entry::Complement(r));
        self.rhs[r] = -self.rhs[r];
        self.rows.settle();
    }

    /// Tie key of column `c` reaching its lower bound (`upper == false`)
    /// or its upper bound, in the explicit-row numbering (see the module
    /// doc): the column itself, or its bound-row slack after every slack,
    /// with artificials after all of them.
    #[inline]
    fn bound_key(&self, c: usize, upper: bool) -> usize {
        if c >= self.art0 {
            c + self.n
        } else if upper {
            self.art0 + c
        } else {
            c
        }
    }

    /// Tie key of column `c`'s current form reaching zero (`to_width ==
    /// false`) or its width: whichever of the variable's own bounds that
    /// is once complementing is undone, keyed as [`Tableau::bound_key`]
    /// keys it. An entering column keys as reaching zero: in the
    /// explicit-row numbering it is the variable itself, or its bound-row
    /// slack while complemented.
    #[inline]
    fn move_key(&self, c: usize, to_width: bool) -> usize {
        self.bound_key(c, to_width != self.flipped.get(c).copied().unwrap_or(false))
    }

    /// Moves structural column `j`'s box to `[a, b]` (shifted space). The
    /// column keeps its form: its current zero point moves with the box
    /// end it stands for, and every right-hand side follows it. A basic
    /// column's value is left where it was, and may now lie outside.
    fn set_box(&mut self, j: usize, a: f64, b: f64) {
        let delta = if self.flipped[j] {
            (self.lo[j] + self.width[j]) - b
        } else {
            a - self.lo[j]
        };
        if delta != 0.0 {
            for (r, &v) in self.rows.column(j).iter().enumerate() {
                if v != 0.0 {
                    self.rhs[r] -= v * delta;
                }
            }
            self.obj_rhs -= self.obj[j] * delta;
        }
        self.lo[j] = a;
        self.width[j] = b - a;
    }

    /// Shifted values `y` of the structural columns at the current vertex.
    fn shifted_values(&self) -> Vec<f64> {
        let mut z = vec![0.0; self.n];
        for (r, &b) in self.basis[..self.m].iter().enumerate() {
            if b < self.n {
                z[b] = self.rhs[r];
            }
        }
        z.iter()
            .enumerate()
            .map(|(j, &z)| {
                if self.flipped[j] {
                    self.lo[j] + (self.width[j] - z)
                } else {
                    self.lo[j] + z
                }
            })
            .collect()
    }

    /// Box width of column `c`; an artificial's is unbounded.
    #[inline]
    fn box_width(&self, c: usize) -> f64 {
        self.width.get(c).copied().unwrap_or(f64::INFINITY)
    }

    /// Whether every basic variable lies in its box, within [`FEAS_TOL`].
    fn primal_feasible(&self) -> bool {
        self.rhs
            .iter()
            .zip(&self.basis)
            .all(|(&v, &b)| v >= -FEAS_TOL && v <= self.box_width(b) + FEAS_TOL)
    }

    /// How far row `r`'s basic variable can move towards its box — up from
    /// below zero, or with `above` down from above its width — when every
    /// other column `movable` accepts crosses its whole box: `Σ |a|·width`
    /// over the cells whose sign moves it that way. Cells of other basic
    /// columns are zero up to rounding and only add to the sum, so a gap
    /// wider than the reach proves the row cannot be repaired.
    fn reach(&mut self, r: usize, above: bool, movable: impl Fn(usize) -> bool) -> f64 {
        let b = self.basis[r];
        self.rows.replay(r);
        self.rows
            .row(r)
            .iter()
            .filter(|&&(j, a)| j != b && (if above { a > 0.0 } else { a < 0.0 }) && movable(j))
            .map(|&(j, a)| a.abs() * self.width[j])
            .sum()
    }

    /// Starts a root probe: flushes the rows' log, which the probe's
    /// operations then append to, and snapshots the dense state, which
    /// they change in place.
    fn begin_probe(&mut self) {
        self.rows.begin_probe();
        let s = &mut self.saved;
        s.rhs.clear();
        s.rhs.extend_from_slice(&self.rhs);
        s.obj.clear();
        s.obj.extend_from_slice(&self.obj);
        s.basis.clear();
        s.basis.extend_from_slice(&self.basis);
        s.width.clear();
        s.width.extend_from_slice(&self.width);
        s.lo.clear();
        s.lo.extend_from_slice(&self.lo);
        s.flipped.clear();
        s.flipped.extend_from_slice(&self.flipped);
        s.obj_rhs = self.obj_rhs;
    }

    /// Restores the tableau exactly as [`Tableau::begin_probe`] found it.
    fn undo_probe(&mut self) {
        self.rows.end_probe();
        let s = &self.saved;
        self.rhs.copy_from_slice(&s.rhs);
        self.obj.copy_from_slice(&s.obj);
        self.basis.copy_from_slice(&s.basis);
        self.width.copy_from_slice(&s.width);
        self.lo.copy_from_slice(&s.lo);
        self.flipped.copy_from_slice(&s.flipped);
        self.obj_rhs = s.obj_rhs;
    }
}

/// The dense part of a tableau, as a root probe found it.
#[derive(Debug, Default)]
struct ProbeSave {
    rhs: Vec<f64>,
    obj: Vec<f64>,
    obj_rhs: f64,
    basis: Vec<usize>,
    width: Vec<f64>,
    lo: Vec<f64>,
    flipped: Vec<bool>,
}

/// Sparse `(index, value)` pairs: a row's cells by column, or a pivot's
/// factors by row.
type Cells = [(usize, f64)];

/// One logged operation on the rows.
#[derive(Debug, Clone, Copy)]
enum Entry {
    /// A pivot on row `row`. Its normalised cells are
    /// `log_cells[cells.0..cells.1]`, and `log_factors[factors.0..
    /// factors.1]` holds `(row, factor)` for every other row with a
    /// nonzero cell in the pivot column, in row order.
    Pivot {
        row: usize,
        cells: (usize, usize),
        factors: (usize, usize),
    },
    /// Column `c` complemented: its cells are negated.
    Flip(usize),
    /// Row `r` negated.
    Complement(usize),
}

/// The constraint rows of a [`Tableau`], updated only where they are read.
///
/// The rows stay as of their *base* (the build, or the last flush), and
/// every pivot, flip and row complement since is appended to a log. A row
/// is replayed through the log entries it has not seen when it is read;
/// a column is replayed on its own, from the base by column and the
/// log, when the ratio test, a right-hand-side update or a box move reads
/// it. Every cell gets exactly the operations eager elimination would
/// have given it, in the same order, so a replayed row is bit-identical to
/// the eagerly eliminated one, and a replayed column equals it up to the
/// sign of zero (a column negates the zeros of the rows that store no
/// cell there).
///
/// Outside a root probe, a log with more entries than the base has cells
/// is flushed: every row is replayed, becomes the new base, and the log
/// starts empty. That bounds the walk over the log a read costs by the
/// work one eager pivot does.
#[derive(Debug, Default)]
struct LazyRows {
    /// Rows in use.
    m: usize,
    /// Columns below the artificials (`art0`).
    cols: usize,
    /// The rows as of the base, back to back: row `r` is
    /// `base[base_start[r]..base_start[r + 1]]`, sorted by column. A cell
    /// that cancels to zero stays stored. One buffer for all rows, so a
    /// build grows it only when it has more cells than every build before.
    base: Vec<(usize, f64)>,
    base_start: Vec<usize>,
    /// The base by column: column `c`'s `(row, value)` cells, in row
    /// order, are `by_col[col_start[c]..col_start[c + 1]]`.
    col_start: Vec<usize>,
    by_col: Vec<(usize, f64)>,
    /// The operations since the base.
    log: Vec<Entry>,
    /// The logged pivots' normalised rows, back to back.
    log_cells: Vec<(usize, f64)>,
    /// The logged pivots' `(row, factor)` lists, back to back.
    log_factors: Vec<(usize, f64)>,
    /// Per row, the log entries its replayed copy has applied; zero when
    /// it has none and reads its base.
    seen: Vec<usize>,
    /// Replayed rows, valid where `seen` is nonzero.
    replayed: Vec<Vec<(usize, f64)>>,
    /// The rows with a nonzero `seen`.
    replayed_rows: Vec<usize>,
    /// Output buffer of one elimination, swapped with the row it updates.
    spare: Vec<(usize, f64)>,
    /// Column `column_of` at the log's end, one value per row (zero where
    /// a row stores no cell).
    column: Vec<f64>,
    column_of: Option<usize>,
    /// Whether a root probe is running: its log must survive to be
    /// truncated, so it never flushes.
    probing: bool,
}

/// The value row `row` stores at column `c`, zero when it stores none.
#[inline]
fn cell(row: &[(usize, f64)], c: usize) -> f64 {
    match row.binary_search_by_key(&c, |&(j, _)| j) {
        Ok(i) => row[i].1,
        Err(_) => 0.0,
    }
}

/// `row -= factor · prow` over sorted sparse rows: a walk of both that
/// writes the merged row into `spare` and swaps it in. A shared cell gets
/// `v − factor·pv`, a pivot-row cell the row lacks `0.0 − factor·pv`.
fn eliminate(
    row: &mut Vec<(usize, f64)>,
    prow: &[(usize, f64)],
    factor: f64,
    spare: &mut Vec<(usize, f64)>,
) {
    spare.clear();
    let (mut i, mut k) = (0, 0);
    while i < row.len() && k < prow.len() {
        let (c, v) = row[i];
        let (pc, pv) = prow[k];
        if c < pc {
            spare.push((c, v));
            i += 1;
        } else if pc < c {
            spare.push((pc, 0.0 - factor * pv));
            k += 1;
        } else {
            spare.push((c, v - factor * pv));
            i += 1;
            k += 1;
        }
    }
    spare.extend_from_slice(&row[i..]);
    spare.extend(prow[k..].iter().map(|&(pc, pv)| (pc, 0.0 - factor * pv)));
    std::mem::swap(row, spare);
}

impl LazyRows {
    /// Empties the base for a build, which appends its rows in order.
    fn clear_base(&mut self) {
        self.base.clear();
        self.base_start.clear();
        self.base_start.push(0);
    }

    /// Ends the base row the build appended last.
    fn close_base_row(&mut self) {
        self.base_start.push(self.base.len());
    }

    /// Base row `r`.
    fn base_row(&self, r: usize) -> &[(usize, f64)] {
        &self.base[self.base_start[r]..self.base_start[r + 1]]
    }

    /// Makes the `m` appended rows, over `cols` columns, the base of an
    /// empty log.
    fn reset(&mut self, m: usize, cols: usize) {
        self.m = m;
        self.cols = cols;
        self.seen.clear();
        self.seen.resize(m, 0);
        if self.replayed.len() < m {
            self.replayed.resize_with(m, Vec::new);
        }
        if self.column.len() < m {
            self.column.resize(m, 0.0);
        }
        self.replayed_rows.clear();
        self.clear_log();
        self.probing = false;
        self.index();
    }

    /// Rebuilds the base by column.
    fn index(&mut self) {
        let start = &mut self.col_start;
        start.clear();
        start.resize(self.cols + 1, 0);
        for &(c, _) in &self.base {
            start[c] += 1;
        }
        let mut end = 0;
        for s in start.iter_mut() {
            end += *s;
            *s = end;
        }
        self.by_col.clear();
        self.by_col.resize(end, (0, 0.0));
        // Filled from the back, so each column lists its rows in order and
        // `start[c]` ends where column `c` begins.
        for r in (0..self.m).rev() {
            for &(c, v) in &self.base[self.base_start[r]..self.base_start[r + 1]] {
                start[c] -= 1;
                self.by_col[start[c]] = (r, v);
            }
        }
    }

    fn clear_log(&mut self) {
        self.log.clear();
        self.log_cells.clear();
        self.log_factors.clear();
        self.column_of = None;
    }

    /// Row `r` as of its last replay: current once [`LazyRows::replay`]
    /// ran since the last change.
    fn row(&self, r: usize) -> &[(usize, f64)] {
        debug_assert_eq!(self.seen[r], self.log.len(), "row {r} read unreplayed");
        if self.seen[r] == 0 {
            self.base_row(r)
        } else {
            &self.replayed[r]
        }
    }

    /// Brings row `r` up to date: applies every log entry it has not seen.
    fn replay(&mut self, r: usize) {
        let end = self.log.len();
        let from = self.seen[r];
        if from == end {
            return;
        }
        let row = &mut self.replayed[r];
        if from == 0 {
            row.clear();
            row.extend_from_slice(&self.base[self.base_start[r]..self.base_start[r + 1]]);
            self.replayed_rows.push(r);
        }
        for entry in &self.log[from..end] {
            match *entry {
                Entry::Pivot {
                    row: p,
                    cells,
                    factors,
                } => {
                    let prow = &self.log_cells[cells.0..cells.1];
                    if p == r {
                        row.clear();
                        row.extend_from_slice(prow);
                    } else {
                        let factors = &self.log_factors[factors.0..factors.1];
                        if let Ok(i) = factors.binary_search_by_key(&r, |&(q, _)| q) {
                            eliminate(row, prow, factors[i].1, &mut self.spare);
                        }
                    }
                }
                Entry::Flip(c) => {
                    if let Ok(i) = row.binary_search_by_key(&c, |&(j, _)| j) {
                        row[i].1 = -row[i].1;
                    }
                }
                Entry::Complement(q) => {
                    if q == r {
                        for (_, v) in row.iter_mut() {
                            *v = -*v;
                        }
                    }
                }
            }
        }
        self.seen[r] = end;
    }

    /// Column `c` at the log's end, one value per row: each row's value as
    /// of its replay (or its base), carried through the log entries the
    /// row has not seen.
    fn column(&mut self, c: usize) -> &[f64] {
        if self.column_of != Some(c) {
            let col = &mut self.column[..self.m];
            col.fill(0.0);
            let seen = &self.seen;
            for &(r, v) in &self.by_col[self.col_start[c]..self.col_start[c + 1]] {
                if seen[r] == 0 {
                    col[r] = v;
                }
            }
            for &r in &self.replayed_rows {
                col[r] = cell(&self.replayed[r], c);
            }
            for (k, entry) in self.log.iter().enumerate() {
                match *entry {
                    Entry::Pivot {
                        row,
                        cells,
                        factors,
                    } => {
                        let prow = &self.log_cells[cells.0..cells.1];
                        let Ok(i) = prow.binary_search_by_key(&c, |&(j, _)| j) else {
                            // The pivot row stores no cell here, and no
                            // other row's cell moves.
                            if seen[row] <= k {
                                col[row] = 0.0;
                            }
                            continue;
                        };
                        let pv = prow[i].1;
                        if seen[row] <= k {
                            col[row] = pv;
                        }
                        for &(r, f) in &self.log_factors[factors.0..factors.1] {
                            if seen[r] <= k {
                                col[r] -= f * pv;
                            }
                        }
                    }
                    Entry::Flip(j) => {
                        if j == c {
                            for (v, &s) in col.iter_mut().zip(seen) {
                                if s <= k {
                                    *v = -*v;
                                }
                            }
                        }
                    }
                    Entry::Complement(r) => {
                        if seen[r] <= k {
                            col[r] = -col[r];
                        }
                    }
                }
            }
            self.column_of = Some(c);
        }
        &self.column[..self.m]
    }

    /// Column `c` as [`LazyRows::column`] last replayed it.
    fn column_read(&self, c: usize) -> &[f64] {
        debug_assert_eq!(self.column_of, Some(c), "column {c} read unreplayed");
        &self.column[..self.m]
    }

    /// Logs a pivot on `(row, col)`: normalises the pivot row, and lists
    /// every other row with a nonzero cell in `col` with that cell as its
    /// factor. Returns the reciprocal of the pivot element, the normalised
    /// row and the `(row, factor)` list.
    fn pivot(&mut self, row: usize, col: usize) -> (f64, &Cells, &Cells) {
        self.column(col);
        self.replay(row);
        let cells = if self.seen[row] == 0 {
            &self.base[self.base_start[row]..self.base_start[row + 1]]
        } else {
            &self.replayed[row]
        };
        let p = cell(cells, col);
        debug_assert!(p.abs() > 1e-12, "pivot on ~zero element");
        let inv = 1.0 / p;
        let c0 = self.log_cells.len();
        self.log_cells
            .extend(cells.iter().map(|&(c, v)| (c, v * inv)));
        let f0 = self.log_factors.len();
        for (r, &f) in self.column[..self.m].iter().enumerate() {
            if r != row && f != 0.0 {
                self.log_factors.push((r, f));
            }
        }
        self.push(Entry::Pivot {
            row,
            cells: (c0, self.log_cells.len()),
            factors: (f0, self.log_factors.len()),
        });
        (inv, &self.log_cells[c0..], &self.log_factors[f0..])
    }

    /// Appends an entry to the log.
    fn push(&mut self, entry: Entry) {
        self.log.push(entry);
        self.column_of = None;
    }

    /// Flushes once the log holds more entries than the base has cells,
    /// outside a probe. A probe's log holds only its own pivots, which the
    /// dual simplex and its cutoff keep short.
    fn settle(&mut self) {
        if !self.probing && self.log.len() > self.by_col.len() {
            self.flush();
        }
    }

    /// Replays every row and makes the result the new base of an empty
    /// log.
    fn flush(&mut self) {
        if self.log.is_empty() {
            return;
        }
        for r in 0..self.m {
            self.replay(r);
        }
        // A nonempty log moved every row to a replayed copy.
        self.clear_base();
        for r in 0..self.m {
            self.base.extend_from_slice(&self.replayed[r]);
            self.close_base_row();
            self.seen[r] = 0;
        }
        self.replayed_rows.clear();
        self.clear_log();
        self.index();
    }

    /// Starts a root probe on a flushed log.
    fn begin_probe(&mut self) {
        debug_assert!(!self.probing, "probes do not nest");
        self.flush();
        self.probing = true;
    }

    /// Ends the root probe: truncates the log back to the probe's start,
    /// so every row reads the base the probe found.
    fn end_probe(&mut self) {
        for &r in &self.replayed_rows {
            self.seen[r] = 0;
        }
        self.replayed_rows.clear();
        self.clear_log();
        self.probing = false;
    }

    /// Total capacity of the pooled buffers.
    fn capacity(&self) -> usize {
        self.base.capacity()
            + self.base_start.capacity()
            + self.col_start.capacity()
            + self.by_col.capacity()
            + self.log.capacity()
            + self.log_cells.capacity()
            + self.log_factors.capacity()
            + self.seen.capacity()
            + self.replayed.capacity()
            + self.replayed.iter().map(Vec::capacity).sum::<usize>()
            + self.replayed_rows.capacity()
            + self.spare.capacity()
            + self.column.capacity()
    }
}

/// The first of `cols` (ascending) that `pick` accepts, in the
/// explicit-row numbering: uncomplemented columns first, then complemented
/// ones, which stand for bound-row slacks numbered after every other
/// column.
#[inline]
fn first_in_key_order(
    flipped: &[bool],
    cols: impl IntoIterator<Item = usize>,
    mut pick: impl FnMut(usize) -> bool,
) -> Option<usize> {
    let mut first_flipped = None;
    for j in cols {
        if pick(j) {
            if !flipped[j] {
                return Some(j);
            }
            first_flipped.get_or_insert(j);
        }
    }
    first_flipped
}

/// Solves the LP relaxation of `model` with the model's own bounds.
///
/// # Errors
///
/// [`IlpError::Infeasible`], [`IlpError::Unbounded`],
/// [`IlpError::IterationLimit`] or [`IlpError::NumericalInstability`].
pub fn solve_relaxation(model: &Model, options: SimplexOptions) -> Result<LpSolution, IlpError> {
    let n = model.num_vars();
    let mut lower = Vec::with_capacity(n);
    let mut upper = Vec::with_capacity(n);
    for i in 0..n {
        let (l, u) = model
            .var_bounds(crate::VarId(i))
            .expect("index within num_vars");
        lower.push(l);
        upper.push(u);
    }
    solve_with_bounds(model, &lower, &upper, options)
}

/// Solves the LP relaxation with overridden variable bounds.
///
/// # Errors
///
/// [`IlpError::Infeasible`], [`IlpError::Unbounded`] or
/// [`IlpError::IterationLimit`]. Also infeasible when `lower > upper` for
/// any variable, and [`IlpError::NonFiniteCoefficient`] for NaN bounds.
pub fn solve_with_bounds(
    model: &Model,
    lower: &[f64],
    upper: &[f64],
    options: SimplexOptions,
) -> Result<LpSolution, IlpError> {
    solve_with_bounds_scratch(model, lower, upper, options, &mut SimplexScratch::new())
}

/// Whether a bound pair pins its variable (`upper - lower <= EPS`).
fn is_fixed(lower: f64, upper: f64) -> bool {
    upper - lower <= EPS
}

/// Like [`solve_with_bounds`], reusing the buffers in `scratch` for the
/// tableau and row bookkeeping. Repeated callers (one LP per
/// branch-and-bound node) should hold one scratch for the whole search.
///
/// Fixed variables (`lower == upper`, as branch-and-bound pins binaries)
/// are folded out while the tableau is built: their columns are dropped,
/// their contribution moves into each row's right-hand side,
/// and a row left without a free variable is checked outright instead of
/// entering the tableau. The result is bit-identical to solving the model
/// with the fixed variables substituted out.
///
/// # Errors
///
/// Same as [`solve_with_bounds`].
pub fn solve_with_bounds_scratch(
    model: &Model,
    lower: &[f64],
    upper: &[f64],
    options: SimplexOptions,
    scratch: &mut SimplexScratch,
) -> Result<LpSolution, IlpError> {
    solve_folded(&FlatModel::new(model), lower, upper, options, scratch)
}

/// [`solve_with_bounds_scratch`] on a model flattened once by the caller:
/// branch-and-bound's node LP.
pub(crate) fn solve_folded(
    flat: &FlatModel<'_>,
    lower: &[f64],
    upper: &[f64],
    options: SimplexOptions,
    scratch: &mut SimplexScratch,
) -> Result<LpSolution, IlpError> {
    let n = flat.model.num_vars();
    assert_eq!(lower.len(), n, "lower bounds arity");
    assert_eq!(upper.len(), n, "upper bounds arity");
    let (solution, _) = solve_full(flat, lower, upper, options, scratch, true, false)?;
    Ok(solution)
}

/// A retained simplex basis: the basic column of every tableau row of a
/// full-shape solve, in row order, plus the structural columns nonbasic
/// at their upper bound.
///
/// Columns index the canonical tableau layout (`build_tableau`):
/// structural variables first (`0..num_vars`), then one slack/surplus per
/// model row. A basis extracted from an optimal solve never contains
/// artificial columns ([`solve_with_basis`] returns `None` instead when one
/// is stuck basic in a degenerate row). The basis stays installable across
/// any pure RHS or bound-value patch of the model that keeps every at-upper
/// column's width finite, because neither changes the row/column shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    /// Basic column per row.
    cols: Vec<usize>,
    /// Structural columns nonbasic at their upper bound, ascending.
    at_upper: Vec<usize>,
    /// Structural-variable count the columns were indexed against.
    num_vars: usize,
}

impl Basis {
    /// The all-slack basis of a tableau with `num_vars` structural columns
    /// and `num_rows` model rows (bounds take no row), every column at its
    /// lower bound. Always installable on a matching shape but primal- and
    /// dual-infeasible for most models — the fault-injection suite uses it
    /// as a deliberately poisoned warm start.
    #[must_use]
    pub fn slack(num_vars: usize, num_rows: usize) -> Basis {
        Basis {
            cols: (0..num_rows).map(|r| num_vars + r).collect(),
            at_upper: Vec::new(),
            num_vars,
        }
    }

    /// Rows this basis spans.
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.cols.len()
    }

    /// Structural-variable count the basis was extracted against.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Whether the basis fits the tableau's shape: row and
    /// structural-variable counts match, every basic column is structural
    /// or slack (never artificial), no column repeats, and every at-upper
    /// column is a nonbasic structural one with a finite width.
    fn compatible(&self, t: &Tableau) -> bool {
        if self.num_vars != t.n || self.cols.len() != t.m {
            return false;
        }
        let mut seen = vec![false; t.art0];
        self.cols
            .iter()
            .chain(&self.at_upper)
            .all(|&c| c < t.art0 && !std::mem::replace(&mut seen[c], true))
            && self
                .at_upper
                .iter()
                .all(|&c| c < t.n && t.width[c].is_finite())
    }
}

/// Result of a [`solve_with_basis`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct BasisSolve {
    /// The optimal LP solution.
    pub solution: LpSolution,
    /// The optimal basis, reusable for the next same-shaped solve (`None`
    /// when a degenerate artificial stayed basic).
    pub basis: Option<Basis>,
    /// Whether the warm basis was installed and repaired (`false` means the
    /// cold two-phase path ran — no warm basis given, or it fell back).
    pub reused: bool,
}

/// Solves the LP relaxation at full tableau shape, optionally warm-started
/// from a retained [`Basis`].
///
/// Unlike [`solve_with_bounds_scratch`] this never folds fixed variables,
/// so the tableau shape depends only on the model's row/column
/// structure — the invariant that makes a basis from one solve installable
/// in the next after RHS/bound patches. With a compatible warm basis the
/// solve skips phase 1 entirely: the basis is re-installed by direct
/// pivoting and primal feasibility is repaired with dual-simplex steps.
/// Every warm-path failure mode degrades to the cold two-phase solve. On
/// success the optimal tableau stays in `scratch`, where a [`RootProbe`]
/// can re-solve flips of it.
///
/// # Errors
///
/// [`IlpError::Infeasible`], [`IlpError::Unbounded`] or
/// [`IlpError::IterationLimit`] — all diagnosed by the cold path (the warm
/// path never reports infeasibility on its own authority). Also
/// [`IlpError::NonFiniteCoefficient`] for NaN bounds.
pub fn solve_with_basis(
    model: &Model,
    lower: &[f64],
    upper: &[f64],
    options: SimplexOptions,
    scratch: &mut SimplexScratch,
    warm: Option<&Basis>,
) -> Result<BasisSolve, IlpError> {
    solve_root(&FlatModel::new(model), lower, upper, options, scratch, warm)
}

/// [`solve_with_basis`] on a model flattened once by the caller:
/// branch-and-bound's root LP.
pub(crate) fn solve_root(
    flat: &FlatModel<'_>,
    lower: &[f64],
    upper: &[f64],
    options: SimplexOptions,
    scratch: &mut SimplexScratch,
    warm: Option<&Basis>,
) -> Result<BasisSolve, IlpError> {
    let n = flat.model.num_vars();
    assert_eq!(lower.len(), n, "lower bounds arity");
    assert_eq!(upper.len(), n, "upper bounds arity");
    let warm_solve =
        warm.and_then(|basis| try_warm_solve(flat, lower, upper, options, scratch, basis));
    let solve = match warm_solve {
        Some(solve) => solve,
        None => {
            let (solution, basis) = solve_full(flat, lower, upper, options, scratch, false, true)?;
            BasisSolve {
                solution,
                basis,
                reused: false,
            }
        }
    };
    scratch.root_resident = true;
    Ok(solve)
}

/// Whether a row needs an artificial variable to start basic: a `<=` row
/// whose slack keeps coefficient +1 starts basic on its slack; `>=`/`=`/
/// negated rows get an artificial.
fn needs_artificial(relation: Relation, rhs: f64) -> bool {
    let negated = rhs < 0.0;
    match relation {
        Relation::Le => negated,
        Relation::Ge => !negated,
        Relation::Eq => true,
    }
}

/// Whether a constant row `0 (relation) rhs` holds within [`FEAS_TOL`].
fn constant_row_holds(relation: Relation, rhs: f64) -> bool {
    match relation {
        Relation::Le => 0.0 <= rhs + FEAS_TOL,
        Relation::Ge => 0.0 >= rhs - FEAS_TOL,
        Relation::Eq => rhs.abs() <= FEAS_TOL,
    }
}

/// Finishes row `r` of the tableau under construction: normalises it to
/// rhs ≥ 0, appends its slack/surplus cell and records its starting basic
/// column (the slack, or [`ARTIFICIAL`]).
fn close_row(t: &mut Tableau, r: usize, relation: Relation, raw_rhs: f64) {
    let rows = &mut t.rows;
    let negated = raw_rhs < 0.0;
    if negated {
        for (_, v) in &mut rows.base[rows.base_start[r]..] {
            *v = -*v;
        }
    }
    let sign = if negated { -1.0 } else { 1.0 };
    let slack = t.n + r;
    match relation {
        Relation::Le => rows.base.push((slack, sign)),
        Relation::Ge => rows.base.push((slack, -sign)),
        Relation::Eq => {}
    }
    rows.close_base_row();
    t.rhs.push(if negated { -raw_rhs } else { raw_rhs });
    t.basis.push(if needs_artificial(relation, raw_rhs) {
        ARTIFICIAL
    } else {
        slack
    });
}

/// Builds the phase-0 tableau into `scratch`.
///
/// Rows live in shifted space `y = x - lower`, one per constraint; each
/// column's width `u - l` bounds it implicitly (∞ when unbounded), and
/// every column starts uncomplemented at its lower bound. With `fold`,
/// every fixed variable is folded out: it gets no column, its `k·lower`
/// moves into the rows' right-hand sides, and a constraint left without a
/// free variable is checked against [`FEAS_TOL`] and dropped. Without
/// `fold` every variable keeps its column (zero widths included), so the
/// shape never depends on bound values; with `fold` but no fixed variable
/// the build is the unfolded one, constant rows included.
///
/// One pass over the bounds validates them (a NaN bound is a typed error,
/// since it would poison every shifted coefficient; crossed bounds are
/// plain infeasibility), counts the fixed variables, numbers the columns
/// and records their boxes; then the rows are copied from the flat model.
///
/// A row's right-hand side is `(rhs − constant − Σ_fixed k·l) − Σ_free
/// k·l`, each sum taken in term order: the operations, in order, of
/// substituting the fixed variables into a reduced model and then shifting
/// that model's variables (its zero constant drops out exactly), so a
/// folded solve is bit-identical to the reduced one. Without fixed
/// variables `Σ_fixed` is `0.0` and the row matches an unfolded build.
///
/// Returns how many variables were folded out, or `None` when `fold`
/// folds every one of them: then nothing is built (the caller evaluates
/// the pinned point), though the columns' boxes were overwritten, so the
/// scratch no longer holds a resident root tableau either way.
///
/// # Errors
///
/// [`IlpError::NonFiniteCoefficient`] for a NaN bound, and
/// [`IlpError::Infeasible`] for crossed bounds or when a folded constant
/// row is violated; no build is counted then.
fn build_tableau(
    flat: &FlatModel<'_>,
    lower: &[f64],
    upper: &[f64],
    fold: bool,
    scratch: &mut SimplexScratch,
) -> Result<Option<usize>, IlpError> {
    let capacity_before = scratch.pooled_capacity();
    scratch.root_resident = false;
    let SimplexScratch {
        t, cost, var_col, ..
    } = scratch;
    var_col.clear();
    t.width.clear();
    t.lo.clear();
    let mut folded = 0;
    for (&l, &u) in lower.iter().zip(upper) {
        if l.is_nan() || u.is_nan() {
            return Err(IlpError::NonFiniteCoefficient {
                context: "bound override",
                value: if l.is_nan() { l } else { u },
            });
        }
        if l > u + EPS {
            return Err(IlpError::Infeasible);
        }
        if fold && is_fixed(l, u) {
            var_col.push(FOLDED);
            folded += 1;
            continue;
        }
        var_col.push(t.width.len());
        let width = u - l;
        t.width.push(if width.is_finite() {
            width.max(0.0)
        } else {
            f64::INFINITY
        });
        t.lo.push(0.0);
    }
    let n = t.width.len();
    if n == 0 && folded > 0 {
        return Ok(None);
    }
    t.n = n;
    t.rhs.clear();
    t.basis.clear();

    let mut m = 0;
    t.rows.clear_base();
    for (r, (&relation, &rhs)) in flat.relation.iter().zip(&flat.rhs).enumerate() {
        let start = t.rows.base.len();
        let mut shift_fixed = 0.0;
        let mut shift_free = 0.0;
        for &(i, k) in flat.row(r) {
            let col = var_col[i];
            if col == FOLDED {
                shift_fixed += k * lower[i];
            } else {
                shift_free += k * lower[i];
                t.rows.base.push((col, k));
            }
        }
        let folded_rhs = rhs - shift_fixed;
        if folded > 0 && t.rows.base.len() == start {
            if !constant_row_holds(relation, folded_rhs) {
                return Err(IlpError::Infeasible);
            }
            continue;
        }
        close_row(t, m, relation, folded_rhs - shift_free);
        m += 1;
    }

    t.m = m;
    t.art0 = n + m;
    t.n_art = 0;
    for b in &mut t.basis {
        if *b == ARTIFICIAL {
            *b = t.art0 + t.n_art;
            t.n_art += 1;
        }
    }
    t.width.resize(t.art0, f64::INFINITY);
    t.flipped.clear();
    t.flipped.resize(t.art0, false);
    t.rows.reset(m, t.art0);
    t.obj.clear();
    t.obj.resize(t.art0, 0.0);
    t.obj_rhs = 0.0;
    cost.clear();
    cost.resize(t.art0, 0.0);

    scratch.ops.tableau_builds += 1;
    if scratch.pooled_capacity() == capacity_before {
        scratch.ops.scratch_reuses += 1;
    }
    Ok(Some(folded))
}

/// Installs the sense-normalised phase-2 cost row and prices out the
/// current basis. A complemented column's cost is negated, and the cost of
/// its width moves into the objective's constant.
fn install_cost_row(flat: &FlatModel<'_>, t: &mut Tableau, cost: &mut [f64], var_col: &[usize]) {
    for (&col, &c) in var_col.iter().zip(&flat.cost) {
        if col != FOLDED {
            cost[col] = c;
        }
    }
    cost[t.n..].fill(0.0);
    t.obj_rhs = 0.0;
    for (j, c) in cost[..t.n].iter_mut().enumerate() {
        if t.flipped[j] {
            t.obj_rhs -= *c * t.width[j];
            *c = -*c;
        }
    }
    t.obj.copy_from_slice(cost);
    for r in 0..t.m {
        let cb = cost.get(t.basis[r]).copied().unwrap_or(0.0);
        if cb != 0.0 {
            t.rows.replay(r);
            for &(c, v) in t.rows.row(r) {
                t.obj[c] -= cb * v;
            }
            t.obj_rhs -= cb * t.rhs[r];
        }
    }
}

/// Extracts the solution (and, with `want_basis`, the reusable basis) from
/// an optimal tableau. A folded variable reads its fixed value, and a
/// folded solve's objective is the model's objective evaluated at the
/// values, unsnapped — exactly what a reduced-model solve reported.
fn extract(
    flat: &FlatModel<'_>,
    lower: &[f64],
    scratch: &SimplexScratch,
    fold: bool,
    want_basis: bool,
    iterations: usize,
) -> (LpSolution, Option<Basis>) {
    let t = &scratch.t;
    let y = t.shifted_values();
    let values: Vec<f64> = scratch
        .var_col
        .iter()
        .zip(lower)
        .map(|(&col, &l)| if col == FOLDED { l } else { y[col] + l })
        .collect();
    let mut objective = flat.model.objective().eval(&values);
    // Clean tiny noise.
    if !fold && objective.abs() < OBJECTIVE_TOL {
        objective = 0.0;
    }
    // A degenerate artificial stuck basic (redundant row) makes the basis
    // unusable as a warm start; hand back `None` rather than a basis that
    // could never be re-installed.
    let basis = &t.basis[..t.m];
    let out = (want_basis && basis.iter().all(|&b| b < t.art0)).then(|| Basis {
        cols: basis.to_vec(),
        at_upper: (0..t.n)
            .filter(|&j| t.flipped[j] && !basis.contains(&j))
            .collect(),
        num_vars: t.n,
    });
    (
        LpSolution {
            objective,
            values,
            iterations,
        },
        out,
    )
}

/// How a [`run_dual_simplex`] run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DualEnd {
    /// Primal feasible: the vertex is optimal.
    Feasible,
    /// The objective passed the caller's stop first.
    Cutoff,
}

/// Which primal phase a [`run_simplex`] call is running — selects the
/// pivot counter it charges.
#[derive(Clone, Copy, PartialEq, Eq)]
enum PrimalPhase {
    One,
    Two,
}

/// Cold two-phase simplex over [`build_tableau`]. With `lex` (the basis
/// path) the optimum is lex-canonicalised and its basis returned. With
/// `fold` and every variable fixed, the pinned point is only checked.
fn solve_full(
    flat: &FlatModel<'_>,
    lower: &[f64],
    upper: &[f64],
    options: SimplexOptions,
    scratch: &mut SimplexScratch,
    fold: bool,
    lex: bool,
) -> Result<(LpSolution, Option<Basis>), IlpError> {
    let Some(folded) = build_tableau(flat, lower, upper, fold, scratch)? else {
        let values = lower.to_vec();
        if flat.model.violated_row(&values).is_some() {
            return Err(IlpError::Infeasible);
        }
        let solution = LpSolution {
            objective: flat.model.objective().eval(&values),
            values,
            iterations: 0,
        };
        return Ok((solution, None));
    };
    let SimplexScratch {
        t,
        cost,
        var_col,
        ops,
        ..
    } = &mut *scratch;

    let mut iters = 0usize;
    if t.n_art > 0 {
        // Phase 1: minimise the sum of artificials. The objective row holds
        // reduced costs; price out the artificial basis rows.
        t.obj.fill(0.0);
        t.obj_rhs = 0.0;
        for r in 0..t.m {
            if t.basis[r] >= t.art0 {
                for &(c, v) in t.rows.row(r) {
                    t.obj[c] -= v;
                }
                t.obj_rhs -= t.rhs[r];
            }
        }
        run_simplex(t, &mut iters, options, ops, PrimalPhase::One)?;
        let phase1 = -t.obj_rhs;
        if phase1 > FEAS_TOL {
            return Err(IlpError::Infeasible);
        }
    }

    // Phase 1 accepted what the artificials still hold (at most FEAS_TOL in
    // all), so each basic one is shifted to zero: left at a positive value,
    // it would let phase 2 move its row arbitrarily far from feasible. Then
    // it is driven out of the basis where a usable pivot exists (a
    // degenerate pivot); a redundant row keeps it basic at zero, and
    // artificials never re-enter in phase 2.
    for r in 0..t.m {
        if t.basis[r] >= t.art0 {
            t.rhs[r] = 0.0;
            t.rows.replay(r);
            let usable = t
                .rows
                .row(r)
                .iter()
                .filter(|&&(_, v)| v.abs() > PIVOT_TOL)
                .map(|&(j, _)| j);
            let entering = first_in_key_order(&t.flipped, usable, |_| true);
            if let Some(j) = entering {
                t.pivot(r, j);
                ops.phase1_pivots += 1;
            }
        }
    }

    install_cost_row(flat, t, cost, var_col);
    run_simplex(t, &mut iters, options, ops, PrimalPhase::Two)?;
    if lex {
        lex_canonicalize(t, &mut iters, ops);
    }
    Ok(extract(flat, lower, scratch, folded > 0, lex, iters))
}

/// Attempts the warm path: re-install `warm` on a freshly built tableau,
/// repair primal feasibility with dual-simplex pivots, finish with primal
/// cleanup. Returns `None` on any incompatibility — the caller then runs
/// the cold path on a rebuilt tableau, so a bad basis costs time, never
/// correctness.
fn try_warm_solve(
    flat: &FlatModel<'_>,
    lower: &[f64],
    upper: &[f64],
    options: SimplexOptions,
    scratch: &mut SimplexScratch,
    warm: &Basis,
) -> Option<BasisSolve> {
    build_tableau(flat, lower, upper, false, scratch).ok()?;
    if !warm.compatible(&scratch.t) {
        return None;
    }
    let SimplexScratch {
        t,
        cost,
        var_col,
        ops,
        ..
    } = &mut *scratch;
    let m = t.m;

    // Put the at-upper columns at their upper bounds (a flip each), then
    // re-install the basis by direct Gaussian pivoting: each stored column
    // claims the not-yet-assigned row where it has the largest magnitude
    // (ties to the lowest row). A near-zero best pivot means the basis
    // matrix went singular under the patched coefficients — bail out to
    // the cold path.
    for &j in &warm.at_upper {
        t.flip(j);
        ops.dual_pivots += 1;
    }
    let mut assigned = vec![false; m];
    for &col in &warm.cols {
        let mut best: Option<(usize, f64)> = None;
        for (r, &a) in t.rows.column(col).iter().enumerate() {
            if !assigned[r] && best.is_none_or(|(_, b)| a.abs() > b) {
                best = Some((r, a.abs()));
            }
        }
        let (r, magnitude) = best?;
        if magnitude <= PIVOT_TOL {
            return None;
        }
        t.pivot(r, col);
        ops.dual_pivots += 1;
        assigned[r] = true;
    }

    install_cost_row(flat, t, cost, var_col);

    // Classify the re-installed vertex. A pure RHS/bound patch keeps the
    // old optimal basis dual-feasible, so the usual case is a short run of
    // dual pivots; a basis that lost dual feasibility but kept primal
    // feasibility is finished by the primal phase below; one that lost both
    // is not worth repairing.
    let dual_feasible = t.obj.iter().all(|&c| c >= -EPS);
    if !t.primal_feasible() {
        if !dual_feasible {
            return None;
        }
        let mut iters = 0usize;
        run_dual_simplex(t, &mut iters, ops, &[], f64::INFINITY).ok()?;
    }

    // Primal cleanup: a no-op when the dual repair already reached
    // optimality, otherwise drives out any remaining negative reduced
    // costs. Errors (unbounded, iteration limit) defer to the cold path.
    let mut iters = 0usize;
    run_simplex(t, &mut iters, options, ops, PrimalPhase::Two).ok()?;
    if !t.primal_feasible() {
        // Numerically drifted repair: let the cold path decide.
        return None;
    }
    // Land on the same canonical vertex the cold path reports, so basis
    // reuse can never leak into the returned assignment.
    lex_canonicalize(t, &mut iters, ops);
    let (solution, basis) = extract(flat, lower, scratch, false, true, iters);
    Some(BasisSolve {
        solution,
        basis,
        reused: true,
    })
}

/// Probe tallies of a [`RootProbe`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeCounts {
    /// Probes re-solved by the dual simplex on the root tableau.
    pub warm: usize,
    /// Probes solved cold by [`solve_with_bounds_scratch`].
    pub cold: usize,
}

/// How a [`RootProbe::probe`] ended.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeOutcome {
    /// The pinned LP's optimum.
    Solved(LpSolution),
    /// The dual simplex's objective passed the cutoff after `iterations`
    /// iterations. It only rises, so the pinned LP's optimum lies above
    /// the cutoff too, or the pin is infeasible.
    Cutoff {
        /// Dual-simplex iterations run before the stop.
        iterations: usize,
    },
}

/// Bound probes of a root LP, re-solved in place on its optimal tableau.
///
/// Branch-and-bound's root probing asks, for each binary at a bound of
/// the root LP, what the LP bound becomes with the binary pinned to its
/// other bound. A pin is a bound change of the binary's column: a
/// nonbasic column moves to the pinned value, and every right-hand side
/// follows it; a basic one keeps its value and has its box narrowed to the
/// point. Neither touches a reduced cost, so the root's optimal basis stays
/// dual feasible and the dual simplex repairs primal feasibility — a few
/// pivots where a cold solve runs both phases on a fresh build. The
/// columns of pinned variables may not enter (they are fixed, and a cold
/// build folds them out), and a leaving row with no negative entry in the
/// other columns proves the pin infeasible. The probe's pivots only append
/// to the root tableau's log, which the probe truncates when it ends (see
/// `LazyRows`), so every probe starts from the root tableau;
/// [`RootProbe::fix`] leaves a pin behind as a permanent bound change
/// instead.
///
/// A probe runs cold, through [`solve_with_bounds_scratch`], only where
/// the tableau cannot take it: when the root basis holds an artificial,
/// or when the dual simplex fails numerically or hits the iteration cap.
/// The warm and cold probes solve the same LP, so their optimal objectives
/// agree up to rounding.
pub struct RootProbe<'a> {
    model: &'a Model,
    options: SimplexOptions,
    /// Holds the root tableau while `frozen` is `Some`.
    scratch: &'a mut SimplexScratch,
    /// The root bounds with every fix applied.
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// The lower bounds the root tableau was built at: its structural
    /// columns hold `x − shift` (before complementing).
    shift: Vec<f64>,
    /// Structural columns the dual simplex may not enter: every pinned
    /// variable's. `None` sends every probe cold.
    frozen: Option<Vec<bool>>,
    /// The model's objective, in minimisation sense, less the tableau's
    /// (`−obj_rhs`): the constant the shift moved out of the tableau.
    offset: f64,
    /// Scratch of the cold probes taken while the root tableau is resident.
    cold: SimplexScratch,
    counts: ProbeCounts,
}

/// Relative margin by which a probe's dual objective must pass the cutoff
/// before the probe stops: far above the rounding that separates the
/// tableau's objective from the model's objective at the same point.
const CUTOFF_MARGIN: f64 = FEAS_TOL;

impl<'a> RootProbe<'a> {
    /// Opens probing of `model` at the bounds `lower`/`upper` on the
    /// tableau `scratch` holds, which must be the one the last successful
    /// [`solve_with_basis`] of the same model and bounds left there. When
    /// it holds none (the solve failed, or another solve rebuilt the
    /// tableau since) or the root basis holds an artificial, every probe
    /// runs cold.
    ///
    /// # Panics
    ///
    /// When the bound slices do not match the model's variable count.
    pub fn new(
        model: &'a Model,
        lower: &[f64],
        upper: &[f64],
        options: SimplexOptions,
        scratch: &'a mut SimplexScratch,
    ) -> RootProbe<'a> {
        let n = model.num_vars();
        assert_eq!(lower.len(), n, "lower bounds arity");
        assert_eq!(upper.len(), n, "upper bounds arity");
        let t = &scratch.t;
        let resident = scratch.root_resident
            && t.n == n
            && t.m == model.num_constraints()
            && t.basis[..t.m].iter().all(|&b| b < t.art0);
        let frozen = resident.then(|| (0..n).map(|j| is_fixed(lower[j], upper[j])).collect());
        let offset = if resident {
            let values: Vec<f64> = t
                .shifted_values()
                .iter()
                .zip(lower)
                .map(|(&y, &l)| y + l)
                .collect();
            let objective = model.objective().eval(&values);
            let objective = if model.sense() == Sense::Minimize {
                objective
            } else {
                -objective
            };
            objective + t.obj_rhs
        } else {
            0.0
        };
        RootProbe {
            model,
            options,
            scratch,
            lower: lower.to_vec(),
            upper: upper.to_vec(),
            shift: lower.to_vec(),
            frozen,
            offset,
            cold: SimplexScratch::new(),
            counts: ProbeCounts::default(),
        }
    }

    /// The probes run so far, by path.
    #[must_use]
    pub fn counts(&self) -> ProbeCounts {
        self.counts
    }

    /// A lower bound on how much pinning `var` to `value` raises the root
    /// LP's objective (in minimisation sense), read off the optimal
    /// tableau with no pivot: the reduced cost of `var` when it is
    /// nonbasic at its lower bound and `value` lies above, or nonbasic at
    /// its upper bound (complemented) and `value` lies below, times the
    /// distance moved. Every other case — a basic `var`, or no resident
    /// tableau — reads `0.0`.
    ///
    /// The bound holds because every column of the tableau is nonnegative
    /// and every reduced cost at the optimum is too: the objective of any
    /// feasible point is the root's plus `Σ dₖ·zₖ` over the nonbasic
    /// columns.
    #[must_use]
    pub fn reduced_cost(&self, var: VarId, value: f64) -> f64 {
        if self.frozen.is_none() {
            return 0.0;
        }
        let t = &self.scratch.t;
        let j = var.index();
        if t.basis[..t.m].contains(&j) {
            return 0.0;
        }
        let (l, u) = (self.lower[j], self.upper[j]);
        if !t.flipped[j] && value > l {
            t.obj[j] * (value - l)
        } else if t.flipped[j] && value < u {
            t.obj[j] * (u - value)
        } else {
            0.0
        }
    }

    /// Solves the LP relaxation with `var` pinned to `value` on top of the
    /// current bounds: warm on the root tableau, which is then restored, or
    /// cold where the tableau cannot take the pin (see [`RootProbe`]).
    ///
    /// A warm probe stops early, answering [`ProbeOutcome::Cutoff`], once
    /// its objective in minimisation sense passes `cutoff` by a rounding
    /// margin; `f64::INFINITY` solves every probe to its optimum. A cold
    /// probe always solves to its optimum.
    ///
    /// # Errors
    ///
    /// [`IlpError::Infeasible`] when the pin leaves the LP infeasible, and
    /// the errors of [`solve_with_bounds_scratch`] from a cold probe.
    pub fn probe(&mut self, var: VarId, value: f64, cutoff: f64) -> Result<ProbeOutcome, IlpError> {
        let j = var.index();
        if let Some(result) = self.probe_warm(j, value, cutoff) {
            self.counts.warm += 1;
            return result;
        }
        self.counts.cold += 1;
        let saved = (self.lower[j], self.upper[j]);
        (self.lower[j], self.upper[j]) = (value, value);
        // The cold solve rebuilds its scratch, so it must not run in the
        // one holding a live root tableau.
        let scratch = if self.frozen.is_some() {
            &mut self.cold
        } else {
            &mut *self.scratch
        };
        let result =
            solve_with_bounds_scratch(self.model, &self.lower, &self.upper, self.options, scratch);
        (self.lower[j], self.upper[j]) = saved;
        result.map(ProbeOutcome::Solved)
    }

    /// The warm probe: pin, dual simplex, undo. `None` when the probe must
    /// run cold instead.
    fn probe_warm(
        &mut self,
        j: usize,
        value: f64,
        cutoff: f64,
    ) -> Option<Result<ProbeOutcome, IlpError>> {
        let frozen = self.frozen.as_mut()?;
        if !value.is_finite() {
            return None;
        }
        let SimplexScratch { t, ops, .. } = &mut *self.scratch;
        t.begin_probe();
        let pinned = value - self.shift[j];
        t.set_box(j, pinned, pinned);
        let was_frozen = std::mem::replace(&mut frozen[j], true);
        let stop = cutoff - self.offset + CUTOFF_MARGIN * (1.0 + cutoff.abs());
        let mut iters = 0usize;
        // The dual simplex keeps every movable column's reduced cost
        // nonnegative, and the frozen ones are fixed, so the vertex it
        // stops at is optimal.
        let result = match run_dual_simplex(t, &mut iters, ops, frozen, stop) {
            Ok(DualEnd::Feasible) => {
                let mut values: Vec<f64> = t
                    .shifted_values()
                    .iter()
                    .zip(&self.shift)
                    .map(|(&y, &l)| y + l)
                    .collect();
                values[j] = value;
                Some(Ok(ProbeOutcome::Solved(LpSolution {
                    objective: self.model.objective().eval(&values),
                    values,
                    iterations: iters,
                })))
            }
            Ok(DualEnd::Cutoff) => Some(Ok(ProbeOutcome::Cutoff { iterations: iters })),
            Err(IlpError::Infeasible) => Some(Err(IlpError::Infeasible)),
            Err(_) => None,
        };
        frozen[j] = was_frozen;
        t.undo_probe();
        result
    }

    /// Pins `var` to `value` for the rest of the probing (and in the bounds
    /// [`RootProbe::finish`] returns), as a permanent bound change of the
    /// root tableau. Branch-and-bound pins a binary at its root LP value,
    /// which keeps the root vertex feasible and optimal.
    pub fn fix(&mut self, var: VarId, value: f64) {
        let j = var.index();
        if !value.is_finite() {
            self.frozen = None;
        }
        if let Some(frozen) = &mut self.frozen {
            let pinned = value - self.shift[j];
            self.scratch.t.set_box(j, pinned, pinned);
            frozen[j] = true;
        }
        (self.lower[j], self.upper[j]) = (value, value);
    }

    /// Ends probing: returns the bounds with every fix applied, and charges
    /// the cold probes' simplex counters to the root scratch.
    #[must_use]
    pub fn finish(self) -> (Vec<f64>, Vec<f64>) {
        // Node LPs reuse the scratch and never probe: hand the probe's
        // snapshot back rather than carry it through the tree search.
        self.scratch.t.saved = ProbeSave::default();
        self.scratch.ops.merge(self.cold.ops);
        (self.lower, self.upper)
    }
}

/// How a primal step over an entering column ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Row `row`'s basic variable leaves: at zero, or with `to_width` at
    /// its width (the row is complemented before the pivot).
    Leave { row: usize, to_width: bool },
    /// The entering column reaches its own width first: it is
    /// complemented, and no pivot runs.
    Flip,
}

impl Tableau {
    /// Ends a primal step over column `e` as the ratio test chose:
    /// complements the column, or complements the leaving row where its
    /// variable leaves at its width and pivots.
    fn step(&mut self, e: usize, step: Step) {
        match step {
            Step::Flip => self.flip(e),
            Step::Leave { row, to_width } => {
                if to_width {
                    self.complement_row(row);
                }
                self.pivot(row, e);
            }
        }
    }
}

/// Ratio test over column `e`: the smallest step at which a basic variable
/// reaches zero (`rhs / a` over `a > EPS`) or its width (`(width − rhs) /
/// −a` over `a < −EPS`), or `e` reaches its own width. Ties (within
/// `EPS`) go to the lowest key of the explicit-row numbering (see the
/// module doc). Rows are visited in row order, as a dense scan down the
/// column would, and the entering column's own bound last.
///
/// # Errors
///
/// [`IlpError::NumericalInstability`] on a NaN cell or ratio when
/// `nan_checks` is on.
fn ratio_test(
    t: &mut Tableau,
    e: usize,
    nan_checks: bool,
) -> Result<Option<(Step, f64)>, IlpError> {
    // (step, ratio, key) of the best candidate so far.
    let mut leave: Option<(Step, f64, usize)> = None;
    let mut offer = |step: Step, ratio: f64, key: usize| match leave {
        Some((_, best, best_key))
            if !(ratio < best - EPS || ((ratio - best).abs() <= EPS && key < best_key)) => {}
        _ => leave = Some((step, ratio, key)),
    };
    t.rows.column(e);
    let t = &*t;
    for (r, &a) in t.rows.column_read(e).iter().enumerate() {
        if nan_checks && a.is_nan() {
            return Err(IlpError::NumericalInstability {
                context: "pivot-column scan",
            });
        }
        let b = t.basis[r];
        let (ratio, to_width) = if a > EPS {
            (t.rhs[r] / a, false)
        } else if a < -EPS && t.box_width(b) < f64::INFINITY {
            ((t.box_width(b) - t.rhs[r]) / -a, true)
        } else {
            continue;
        };
        if nan_checks && ratio.is_nan() {
            return Err(IlpError::NumericalInstability {
                context: "ratio test",
            });
        }
        offer(
            Step::Leave { row: r, to_width },
            ratio,
            t.move_key(b, to_width),
        );
    }
    if t.width[e] < f64::INFINITY {
        offer(Step::Flip, t.width[e], t.move_key(e, true));
    }
    Ok(leave.map(|(step, ratio, _)| (step, ratio)))
}

/// Drives an optimal tableau to the lexicographically smallest optimal
/// vertex: among the columns whose reduced cost is (near) zero — the only
/// moves that keep the objective optimal — minimise `x_0`, then `x_1`, and
/// so on, locking each variable's value before the next phase.
///
/// Root LPs go through here so the reported vertex is a pure function of
/// the model, never of the starting basis: a cold two-phase solve and a
/// basis-repaired re-solve land on the same vertex even when the optimal
/// face is degenerate. Branch-and-bound's assignment-lexicographic
/// tie-break relies on that — an alternative optimum surfacing only under
/// a warm basis would otherwise leak the basis into the final selection.
/// Node LPs skip it (they never start from a foreign basis, so the
/// deterministic entering/leaving rules already make them reproducible),
/// and so do [`RootProbe`] re-solves: a probe reports only its optimal
/// objective (or infeasibility) to the pruning test, and the optimal
/// objective is the same at every optimal vertex, so no vertex of a probe
/// reaches a selection.
///
/// A variable nonbasic at its lower bound is already at its minimum; one
/// nonbasic at its upper bound (complemented) is free to move down.
fn lex_canonicalize(t: &mut Tableau, iters: &mut usize, ops: &mut SimplexOps) {
    let (n, m, art0) = (t.n, t.m, t.art0);
    // Columns allowed to enter: zero reduced cost under the (already
    // optimal) phase-2 objective. Basic columns price to exactly zero, so
    // the filter naturally keeps them eligible to re-enter after leaving.
    let mut allowed: Vec<bool> = t.obj.iter().map(|c| c.abs() <= OBJECTIVE_TOL).collect();
    let mut in_basis = vec![false; art0];
    for &b in &t.basis[..m] {
        if b < art0 {
            in_basis[b] = true;
        }
    }
    // No nonbasic degrees of freedom on the optimal face ⇒ unique vertex.
    if (0..art0).all(|j| in_basis[j] || !allowed[j]) {
        return;
    }
    let mut s = vec![0.0; art0];
    for j in 0..n {
        // Secondary objective: x_j priced out against the basis (up to
        // its constant). Minimising it minimises x_j without touching the
        // phase-2 objective (pivots are restricted to its zero-reduced-cost
        // columns).
        s.fill(0.0);
        match (0..m).find(|&r| t.basis[r] == j) {
            Some(rj) => {
                // x_j = rhs − row (uncomplemented) or width − rhs + row.
                let sign = if t.flipped[j] { 1.0 } else { -1.0 };
                t.rows.replay(rj);
                for &(c, v) in t.rows.row(rj) {
                    s[c] = sign * v;
                }
                s[j] = 0.0;
            }
            // At its upper bound: x_j = width − z_j.
            None if t.flipped[j] => s[j] = -1.0,
            None => {
                // At its lower bound, the lex minimum. Forbid it from
                // entering so later phases keep it there.
                allowed[j] = false;
                continue;
            }
        }
        loop {
            if *iters >= MAX_ITERATIONS {
                return; // give up canonicalising, the vertex is still optimal
            }
            let entering = first_in_key_order(&t.flipped, 0..art0, |e| allowed[e] && s[e] < -EPS);
            let Some(e) = entering else { break };
            let Ok(Some((step, _))) = ratio_test(t, e, false) else {
                break;
            };
            *iters += 1;
            t.step(e, step);
            ops.lex_pivots += 1;
            // Keep the secondary row priced out against the new basis.
            match step {
                Step::Flip => s[e] = -s[e],
                Step::Leave { row, .. } => {
                    let factor = s[e];
                    if factor != 0.0 {
                        t.rows.replay(row);
                        for &(c, v) in t.rows.row(row) {
                            s[c] -= factor * v;
                        }
                    }
                }
            }
        }
        // Lock x_j: any column that would move it again is banned from
        // entering in later phases.
        for (e, ok) in allowed.iter_mut().enumerate() {
            if *ok && s[e].abs() > OBJECTIVE_TOL {
                *ok = false;
            }
        }
    }
}

/// Runs dual-simplex iterations until primal feasibility is restored.
///
/// Requires a dual-feasible cost row. The leaving row holds the basic
/// variable furthest outside its box: most negative `rhs`, or `width − rhs`
/// for one above its width (its row is complemented first). Ties within
/// `EPS` go to variables below zero before those above their width, then
/// to the lowest row or column — the explicit-row order, where a variable
/// above its width showed as a negative bound-row slack after every model
/// row. The entering column minimises the dual ratio `|reduced cost /
/// pivot|` over the row's negative entries (ties to the lowest key of the
/// explicit-row numbering — Bland-style, for determinism), skipping the
/// columns marked in `frozen` (shorter than the row: none), which the
/// caller knows to be fixed.
///
/// With a finite `stop`, the run also ends, answering [`DualEnd::Cutoff`],
/// once the objective (`−obj_rhs`) exceeds it: the dual objective only
/// rises, so the repaired optimum lies above `stop` too.
///
/// Returns [`IlpError::Infeasible`] when a violated row cannot be repaired:
/// its movable columns, each moved across its whole box, fall short of the
/// gap by more than [`FEAS_TOL`] (see `Tableau::reach`), or it has no
/// negative entry to pivot on. [`try_warm_solve`] treats that as a
/// fallback trigger, a [`RootProbe`] as a verdict.
fn run_dual_simplex(
    t: &mut Tableau,
    iters: &mut usize,
    ops: &mut SimplexOps,
    frozen: &[bool],
    stop: f64,
) -> Result<DualEnd, IlpError> {
    let movable = |j: usize| frozen.get(j) != Some(&true);
    loop {
        *iters += 1;
        if *iters > MAX_ITERATIONS {
            return Err(IlpError::IterationLimit {
                limit: MAX_ITERATIONS,
            });
        }
        if -t.obj_rhs > stop {
            return Ok(DualEnd::Cutoff);
        }
        // (row, gap, above its width, tie key)
        let mut leave: Option<(usize, f64, bool, usize)> = None;
        for r in 0..t.rhs.len() {
            let (v, b) = (t.rhs[r], t.basis[r]);
            if v.is_nan() {
                return Err(IlpError::NumericalInstability {
                    context: "dual leaving-row selection",
                });
            }
            let (gap, above) = if v < 0.0 {
                (v, false)
            } else {
                (t.box_width(b) - v, true)
            };
            if gap >= -FEAS_TOL {
                continue;
            }
            if gap + t.reach(r, above, movable) < -FEAS_TOL {
                return Err(IlpError::Infeasible);
            }
            let key = if above { t.m + b } else { r };
            if leave.is_none_or(|(_, best, _, best_key)| {
                gap < best - EPS || ((gap - best).abs() <= EPS && key < best_key)
            }) {
                leave = Some((r, gap, above, key));
            }
        }
        let Some((lr, _, above, _)) = leave else {
            return Ok(DualEnd::Feasible);
        };
        if above {
            t.complement_row(lr);
        }
        t.rows.replay(lr);
        let mut enter: Option<(usize, f64, usize)> = None;
        for &(j, a) in t.rows.row(lr) {
            if a < -EPS && movable(j) {
                let ratio = t.obj[j] / -a;
                if ratio.is_nan() {
                    return Err(IlpError::NumericalInstability {
                        context: "dual ratio test",
                    });
                }
                let key = t.move_key(j, false);
                if enter.is_none_or(|(_, best, best_key)| {
                    ratio < best - EPS || ((ratio - best).abs() <= EPS && key < best_key)
                }) {
                    enter = Some((j, ratio, key));
                }
            }
        }
        let Some((e, _, _)) = enter else {
            return Err(IlpError::Infeasible);
        };
        t.pivot(lr, e);
        ops.dual_pivots += 1;
    }
}

/// The entering column of a primal pivot over the reduced costs `obj`:
/// the most negative cost below `-EPS`, ties to the lowest key, or with
/// `bland` the lowest key below `-EPS`, where keys order the
/// uncomplemented columns by index before the complemented ones (see
/// `first_in_key_order`). `None` when no cost is below `-EPS`.
///
/// One branch-free pass takes eight lane-wise minima and NaN flags; a
/// second finds the first column at the minimum (or, under Bland, below
/// `-EPS`). The minimum of a set does not depend on the order it is
/// taken in, so this is the column one ordered scan with a strict `<`
/// would pick.
///
/// # Errors
///
/// [`IlpError::NumericalInstability`] when any cost is NaN.
fn price(obj: &[f64], flipped: &[bool], bland: bool) -> Result<Option<usize>, IlpError> {
    let mut lanes = [f64::INFINITY; 8];
    let mut nan = [false; 8];
    let mut scan = |chunk: &[f64]| {
        for ((lane, nan), &c) in lanes.iter_mut().zip(&mut nan).zip(chunk) {
            *lane = if c < *lane { c } else { *lane };
            *nan |= c.is_nan();
        }
    };
    let (chunks, tail) = obj.as_chunks::<8>();
    for chunk in chunks {
        scan(chunk);
    }
    scan(tail);
    if nan.contains(&true) {
        return Err(IlpError::NumericalInstability {
            context: "entering-column selection",
        });
    }
    let min = lanes.into_iter().fold(f64::INFINITY, f64::min);
    if min >= -EPS {
        return Ok(None);
    }
    Ok(if bland {
        first_in_key_order(flipped, 0..obj.len(), |j| obj[j] < -EPS)
    } else {
        first_in_key_order(flipped, 0..obj.len(), |j| obj[j] == min)
    })
}

/// Runs primal simplex iterations on the tableau until optimality.
///
/// The entering column follows Dantzig's rule — most negative reduced
/// cost, ties to the lowest key — until [`SimplexOptions::bland_stall`]
/// consecutive degenerate steps, after which Bland's rule (lowest negative
/// key) takes over until the objective improves again. The ratio test
/// breaks ties on the lowest key throughout (see `ratio_test`). Artificial
/// columns never enter (they are not stored). A NaN in the cost row, the
/// pivot column or a ratio is reported as
/// [`IlpError::NumericalInstability`] instead of being silently skipped by
/// the comparisons.
fn run_simplex(
    t: &mut Tableau,
    iters: &mut usize,
    options: SimplexOptions,
    ops: &mut SimplexOps,
    phase: PrimalPhase,
) -> Result<(), IlpError> {
    let mut bland = false;
    let mut stall = 0usize;
    loop {
        *iters += 1;
        if *iters > MAX_ITERATIONS {
            return Err(IlpError::IterationLimit {
                limit: MAX_ITERATIONS,
            });
        }
        let Some(e) = price(&t.obj, &t.flipped, bland)? else {
            return Ok(()); // optimal
        };
        let Some((step, ratio)) = ratio_test(t, e, true)? else {
            return Err(IlpError::Unbounded);
        };
        // Degenerate-stall accounting: a zero-ratio step leaves the
        // objective unchanged. A long enough streak arms Bland's rule; any
        // objective movement re-arms Dantzig.
        if ratio <= EPS {
            stall += 1;
            if !bland && stall > options.bland_stall {
                bland = true;
                ops.bland_activations += 1;
            }
        } else {
            stall = 0;
            bland = false;
        }
        t.step(e, step);
        match phase {
            PrimalPhase::One => ops.phase1_pivots += 1,
            PrimalPhase::Two => ops.phase2_pivots += 1,
        }
    }
}

/// One tableau driven an operation at a time, for the identity test of
/// the lazy rows against an eager reference
/// (`crates/ilp/tests/proptest_lazy.rs`). Not a supported API: it runs
/// the kernel's operations without the simplex's rules for when each is
/// valid.
#[doc(hidden)]
#[derive(Debug)]
pub struct TableauHandle {
    t: Tableau,
}

/// The dense part of a [`TableauHandle`]'s tableau.
#[doc(hidden)]
#[derive(Debug, Clone, PartialEq)]
pub struct DenseState {
    pub rhs: Vec<f64>,
    pub obj: Vec<f64>,
    pub obj_rhs: f64,
    pub basis: Vec<usize>,
    pub width: Vec<f64>,
    pub lo: Vec<f64>,
    pub flipped: Vec<bool>,
}

#[doc(hidden)]
#[allow(missing_docs)]
impl TableauHandle {
    /// The unfolded build of `model` at the given bounds, with the
    /// phase-2 cost row installed.
    pub fn build(model: &Model, lower: &[f64], upper: &[f64]) -> Result<TableauHandle, IlpError> {
        let built = TableauHandle::built(&FlatModel::new(model), lower, upper, false)?;
        Ok(built.expect("an unfolded build always builds"))
    }

    /// Branch-and-bound's node path up to its simplex, for the identity
    /// test against the model-walk reference
    /// (`crates/ilp/tests/proptest_node.rs`): the base bounds with the
    /// `(variable, lower, upper)` fixes of `path` applied in order, every
    /// row without slack pinned, then the folded build with the phase-2
    /// cost row installed. Returns the pinned bounds and the tableau,
    /// `None` when every variable is pinned.
    #[allow(clippy::type_complexity)]
    pub fn node(
        model: &Model,
        base_lower: &[f64],
        base_upper: &[f64],
        path: &[(usize, f64, f64)],
    ) -> (Vec<f64>, Vec<f64>, Result<Option<TableauHandle>, IlpError>) {
        let flat = FlatModel::new(model);
        let (lower, upper) = crate::branch_bound::node_bounds(&flat, base_lower, base_upper, path);
        let built = TableauHandle::built(&flat, &lower, &upper, true);
        (lower, upper, built)
    }

    fn built(
        flat: &FlatModel<'_>,
        lower: &[f64],
        upper: &[f64],
        fold: bool,
    ) -> Result<Option<TableauHandle>, IlpError> {
        let mut scratch = SimplexScratch::new();
        if build_tableau(flat, lower, upper, fold, &mut scratch)?.is_none() {
            return Ok(None);
        }
        let SimplexScratch {
            t, cost, var_col, ..
        } = &mut scratch;
        install_cost_row(flat, t, cost, var_col);
        Ok(Some(TableauHandle {
            t: std::mem::take(t),
        }))
    }

    /// `(structural columns, rows, columns below the artificials)`.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.t.n, self.t.m, self.t.art0)
    }

    pub fn row(&mut self, r: usize) -> Vec<(usize, f64)> {
        self.t.rows.replay(r);
        self.t.rows.row(r).to_vec()
    }

    pub fn column(&mut self, c: usize) -> Vec<f64> {
        self.t.rows.column(c).to_vec()
    }

    pub fn dense(&self) -> DenseState {
        let t = &self.t;
        DenseState {
            rhs: t.rhs.clone(),
            obj: t.obj.clone(),
            obj_rhs: t.obj_rhs,
            basis: t.basis.clone(),
            width: t.width.clone(),
            lo: t.lo.clone(),
            flipped: t.flipped.clone(),
        }
    }

    pub fn pivot(&mut self, row: usize, col: usize) {
        self.t.pivot(row, col);
    }

    pub fn flip(&mut self, c: usize) {
        self.t.flip(c);
    }

    pub fn complement_row(&mut self, r: usize) {
        self.t.complement_row(r);
    }

    pub fn set_box(&mut self, j: usize, a: f64, b: f64) {
        self.t.set_box(j, a, b);
    }

    pub fn begin_probe(&mut self) {
        self.t.begin_probe();
    }

    pub fn undo_probe(&mut self) {
        self.t.undo_probe();
    }
}

#[cfg(test)]
mod kernel;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Model, Relation, Sense, VarId};

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn simple_minimization() {
        // min x + y s.t. x + y >= 2, x <= 1.5 => obj 2.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 0.0, 1.5);
        let y = m.add_continuous("y", 0.0, 10.0);
        m.set_objective([(x, 1.0), (y, 1.0)]);
        m.add_constraint([(x, 1.0), (y, 1.0)], Relation::Ge, 2.0)
            .unwrap();
        let s = solve_relaxation(&m, SimplexOptions::default()).unwrap();
        approx(s.objective, 2.0);
    }

    #[test]
    fn maximization_with_le() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (classic): 36.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.set_objective([(x, 3.0), (y, 5.0)]);
        m.add_constraint([(x, 1.0)], Relation::Le, 4.0).unwrap();
        m.add_constraint([(y, 2.0)], Relation::Le, 12.0).unwrap();
        m.add_constraint([(x, 3.0), (y, 2.0)], Relation::Le, 18.0)
            .unwrap();
        let s = solve_relaxation(&m, SimplexOptions::default()).unwrap();
        approx(s.objective, 36.0);
        approx(s.value(x), 2.0);
        approx(s.value(y), 6.0);
    }

    #[test]
    fn equality_constraint() {
        // min x + 2y s.t. x + y = 3, y >= 1 => x=2, y=1, obj 4.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 1.0, f64::INFINITY);
        m.set_objective([(x, 1.0), (y, 2.0)]);
        m.add_constraint([(x, 1.0), (y, 1.0)], Relation::Eq, 3.0)
            .unwrap();
        let s = solve_relaxation(&m, SimplexOptions::default()).unwrap();
        approx(s.objective, 4.0);
        approx(s.value(y), 1.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 0.0, 1.0);
        m.set_objective([(x, 1.0)]);
        m.add_constraint([(x, 1.0)], Relation::Ge, 2.0).unwrap();
        assert_eq!(
            solve_relaxation(&m, SimplexOptions::default()),
            Err(IlpError::Infeasible)
        );
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        m.set_objective([(x, 1.0)]);
        m.add_constraint([(x, 1.0)], Relation::Ge, 0.0).unwrap();
        assert_eq!(
            solve_relaxation(&m, SimplexOptions::default()),
            Err(IlpError::Unbounded)
        );
    }

    #[test]
    fn bound_overrides_fix_variables() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.set_objective([(x, 1.0), (y, 1.0)]);
        m.add_constraint([(x, 1.0), (y, 1.0)], Relation::Ge, 1.0)
            .unwrap();
        // Fix x = 1.
        let s = solve_with_bounds(&m, &[1.0, 0.0], &[1.0, 1.0], SimplexOptions::default()).unwrap();
        approx(s.value(x), 1.0);
        approx(s.objective, 1.0);
        // Contradictory bounds are infeasible.
        assert_eq!(
            solve_with_bounds(&m, &[1.0, 0.0], &[0.0, 1.0], SimplexOptions::default()),
            Err(IlpError::Infeasible)
        );
    }

    #[test]
    fn negative_lower_bounds_shift_correctly() {
        // min x s.t. x >= -5, x <= -2 => -5.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", -5.0, -2.0);
        m.set_objective([(x, 1.0)]);
        let s = solve_relaxation(&m, SimplexOptions::default()).unwrap();
        approx(s.objective, -5.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Redundant constraints produce degenerate pivots; the Dantzig rule
        // with the Bland stall fallback must halt.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        m.set_objective([(x, 1.0), (y, 1.0)]);
        for _ in 0..4 {
            m.add_constraint([(x, 1.0), (y, 1.0)], Relation::Ge, 1.0)
                .unwrap();
        }
        m.add_constraint([(x, 2.0), (y, 2.0)], Relation::Ge, 2.0)
            .unwrap();
        let s = solve_relaxation(&m, SimplexOptions::default()).unwrap();
        approx(s.objective, 1.0);
    }

    /// A row violated at the box corner by half of [`FEAS_TOL`] passes as
    /// feasible and one violated by twice it does not, both through the
    /// LP (as a phase-1 residual) and on the fully pinned path. The LP's
    /// point stays at the corner: the accepted residual is zeroed before
    /// phase 2, so minimising `x` cannot grow the row's artificial.
    #[test]
    fn feasibility_tolerance_decides_boundary_phase1_exit() {
        let model = |violation: f64| {
            let mut m = Model::new(Sense::Minimize);
            let x = m.add_continuous("x", 0.0, 1.0);
            m.set_objective([(x, 1.0)]);
            // Requires x >= 1 + violation while x <= 1.
            m.add_constraint([(x, 1.0)], Relation::Ge, 1.0 + violation)
                .unwrap();
            (m, x)
        };
        let opts = SimplexOptions::default();
        let (inside, x) = model(FEAS_TOL / 2.0);
        approx(solve_relaxation(&inside, opts).unwrap().value(x), 1.0);
        assert!(solve_with_bounds(&inside, &[1.0], &[1.0], opts).is_ok());
        let (outside, _) = model(FEAS_TOL * 2.0);
        assert_eq!(solve_relaxation(&outside, opts), Err(IlpError::Infeasible));
        assert_eq!(
            solve_with_bounds(&outside, &[1.0], &[1.0], opts),
            Err(IlpError::Infeasible)
        );
    }

    #[test]
    fn fractional_relaxation_of_binary_model() {
        // min x+y with x+y >= 1 relaxes to any point on the line; objective 1.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.set_objective([(x, 1.0), (y, 1.0)]);
        m.add_constraint([(x, 2.0), (y, 2.0)], Relation::Ge, 1.0)
            .unwrap();
        let s = solve_relaxation(&m, SimplexOptions::default()).unwrap();
        approx(s.objective, 0.5);
    }

    /// A small Ge-heavy model exercised by the warm-start tests: the gain
    /// rows mirror the selector's Eq.2 shape, so an RHS patch is exactly a
    /// "retarget the required gain" delta.
    fn gain_model() -> (Model, VarId, VarId) {
        // min 3x + 2y s.t. 4x + 3y >= rhs0, x + 2y >= 1.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 0.0, 5.0);
        let y = m.add_continuous("y", 0.0, 5.0);
        m.set_objective([(x, 3.0), (y, 2.0)]);
        m.add_constraint([(x, 4.0), (y, 3.0)], Relation::Ge, 6.0)
            .unwrap();
        m.add_constraint([(x, 1.0), (y, 2.0)], Relation::Ge, 1.0)
            .unwrap();
        (m, x, y)
    }

    #[test]
    fn cold_solve_with_basis_matches_two_phase() {
        let (m, _, _) = gain_model();
        let lower = vec![0.0; 2];
        let upper = vec![5.0; 2];
        let opts = SimplexOptions::default();
        let cold = solve_with_bounds(&m, &lower, &upper, opts).unwrap();
        let mut scratch = SimplexScratch::default();
        let warm = solve_with_basis(&m, &lower, &upper, opts, &mut scratch, None).unwrap();
        assert!(!warm.reused);
        assert!(warm.basis.is_some(), "optimal basis must be retained");
        approx(warm.solution.objective, cold.objective);
        for (a, b) in warm.solution.values.iter().zip(&cold.values) {
            approx(*a, *b);
        }
    }

    #[test]
    fn rhs_patch_resolve_with_basis_matches_cold() {
        let (mut m, _, _) = gain_model();
        let lower = vec![0.0; 2];
        let upper = vec![5.0; 2];
        let opts = SimplexOptions::default();
        let mut scratch = SimplexScratch::default();
        let first = solve_with_basis(&m, &lower, &upper, opts, &mut scratch, None).unwrap();
        let basis = first.basis.expect("retained basis");
        // Patch both gain rows (tighten one, relax the other) and re-solve.
        m.set_constraint_rhs(0, 9.5).unwrap();
        m.set_constraint_rhs(1, 0.25).unwrap();
        let warm = solve_with_basis(&m, &lower, &upper, opts, &mut scratch, Some(&basis)).unwrap();
        let cold = solve_with_bounds(&m, &lower, &upper, opts).unwrap();
        assert!(warm.reused, "dual repair must accept a same-shape basis");
        approx(warm.solution.objective, cold.objective);
        for (a, b) in warm.solution.values.iter().zip(&cold.values) {
            approx(*a, *b);
        }
    }

    #[test]
    fn bound_pin_resolve_with_basis_matches_cold() {
        let (m, _, _) = gain_model();
        let opts = SimplexOptions::default();
        let mut scratch = SimplexScratch::default();
        let lower = vec![0.0; 2];
        let upper = vec![5.0; 2];
        let first = solve_with_basis(&m, &lower, &upper, opts, &mut scratch, None).unwrap();
        let basis = first.basis.expect("retained basis");
        // Pin x to zero (a bound patch) — same tableau shape, so
        // the stale basis installs and repairs.
        let pinned_upper = vec![0.0, 5.0];
        let warm =
            solve_with_basis(&m, &lower, &pinned_upper, opts, &mut scratch, Some(&basis)).unwrap();
        let cold = solve_with_bounds(&m, &lower, &pinned_upper, opts).unwrap();
        approx(warm.solution.objective, cold.objective);
        approx(warm.solution.values[0], 0.0);
        for (a, b) in warm.solution.values.iter().zip(&cold.values) {
            approx(*a, *b);
        }
    }

    #[test]
    fn poisoned_basis_falls_back_to_cold() {
        let (m, _, _) = gain_model();
        let opts = SimplexOptions::default();
        let lower = vec![0.0; 2];
        let upper = vec![5.0; 2];
        let cold = solve_with_bounds(&m, &lower, &upper, opts).unwrap();
        let mut scratch = SimplexScratch::default();
        // 2 structural vars, 2 constraint rows + 2 bound rows: the
        // all-slack basis installs (and, being dual-feasible for a
        // min-cost model, may legitimately be repaired); a wrong-shape
        // basis is rejected outright. Either way the answer must equal the
        // cold one, never a spurious infeasible.
        for poison in [Basis::slack(2, 4), Basis::slack(3, 7)] {
            let got =
                solve_with_basis(&m, &lower, &upper, opts, &mut scratch, Some(&poison)).unwrap();
            approx(got.solution.objective, cold.objective);
            for (a, b) in got.solution.values.iter().zip(&cold.values) {
                approx(*a, *b);
            }
        }
        let wrong_shape = Basis::slack(3, 7);
        let got =
            solve_with_basis(&m, &lower, &upper, opts, &mut scratch, Some(&wrong_shape)).unwrap();
        assert!(!got.reused, "wrong-shape basis must fall back cold");
    }

    #[test]
    fn warm_infeasible_patch_reports_infeasible_via_cold_path() {
        let (mut m, _, _) = gain_model();
        let opts = SimplexOptions::default();
        let lower = vec![0.0; 2];
        let upper = vec![5.0; 2];
        let mut scratch = SimplexScratch::default();
        let first = solve_with_basis(&m, &lower, &upper, opts, &mut scratch, None).unwrap();
        let basis = first.basis.expect("retained basis");
        // Push the first gain row beyond any reachable value: 4x+3y <= 35.
        m.set_constraint_rhs(0, 100.0).unwrap();
        assert_eq!(
            solve_with_basis(&m, &lower, &upper, opts, &mut scratch, Some(&basis)),
            Err(IlpError::Infeasible),
            "infeasibility must be diagnosed by the cold path"
        );
    }

    #[test]
    fn nan_bound_override_is_a_typed_error() {
        let (m, _, _) = gain_model();
        let got = solve_with_bounds(&m, &[f64::NAN, 0.0], &[5.0, 5.0], SimplexOptions::default());
        assert!(
            matches!(
                got,
                Err(IlpError::NonFiniteCoefficient {
                    context: "bound override",
                    ..
                })
            ),
            "{got:?}"
        );
        let mut scratch = SimplexScratch::default();
        let got = solve_with_basis(
            &m,
            &[0.0, 0.0],
            &[5.0, f64::NAN],
            SimplexOptions::default(),
            &mut scratch,
            None,
        );
        assert!(
            matches!(got, Err(IlpError::NonFiniteCoefficient { .. })),
            "{got:?}"
        );
    }

    /// Overflow poisoning: huge coefficients against a tiny pivot element
    /// overflow to ±inf during elimination, and the next combination step
    /// produces `inf - inf = NaN` in the tableau. The old comparison-based
    /// selection silently skipped NaN entries (`NaN > EPS` is false),
    /// which could misreport unboundedness or loop; the scan now reports a
    /// typed error instead of panicking or lying.
    #[test]
    fn poisoned_tableau_is_a_typed_error_not_a_panic() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.set_objective([(x, 1.0), (y, 1.0)]);
        // A near-zero pivot (1e-9, just above EPS) scaled by 1/1e-9 blows
        // the 1e308 coefficients past f64::MAX.
        m.add_constraint([(x, 1e-9), (y, 1e308)], Relation::Ge, 1.0)
            .unwrap();
        m.add_constraint([(x, 1e308), (y, 1e308)], Relation::Ge, 1e308)
            .unwrap();
        let got = solve_relaxation(&m, SimplexOptions::default());
        match got {
            Err(
                IlpError::NumericalInstability { .. }
                | IlpError::Infeasible
                | IlpError::Unbounded
                | IlpError::IterationLimit { .. },
            ) => {}
            other => panic!("poisoned tableau must fail typed, got {other:?}"),
        }
    }

    /// Rows, right-hand sides and reduced costs, as bits.
    type TableauBits = (Vec<Vec<(usize, u64)>>, Vec<u64>, Vec<u64>);

    /// Everything a probe may touch, bit for bit, with every row replayed.
    fn tableau_bits(t: &mut Tableau) -> TableauBits {
        (
            (0..t.m)
                .map(|r| {
                    t.rows.replay(r);
                    t.rows
                        .row(r)
                        .iter()
                        .map(|&(c, v)| (c, v.to_bits()))
                        .collect()
                })
                .collect(),
            t.rhs
                .iter()
                .chain([&t.obj_rhs])
                .map(|v| v.to_bits())
                .collect(),
            t.obj.iter().map(|v| v.to_bits()).collect(),
        )
    }

    /// Warm probes pivot on the root tableau and truncate its log when
    /// they end: afterwards every row, right-hand side, reduced cost and
    /// basic column is exactly as the root solve left it.
    #[test]
    fn probes_leave_the_root_tableau_bit_identical() {
        // min 4a + 3b + 5c + 2d + 6e  s.t. a knapsack-style cover row, a
        // conflict row and a second cover: flips force dual pivots.
        let mut m = Model::new(Sense::Minimize);
        let v: Vec<VarId> = (0..5).map(|i| m.add_binary(format!("x{i}"))).collect();
        m.set_objective(
            v.iter()
                .zip([4.0, 3.0, 5.0, 2.0, 6.0])
                .map(|(&x, k)| (x, k)),
        );
        m.add_constraint(
            v.iter()
                .zip([3.0, 2.0, 4.0, 1.0, 5.0])
                .map(|(&x, k)| (x, k)),
            Relation::Ge,
            6.5,
        )
        .unwrap();
        m.add_constraint([(v[0], 1.0), (v[2], 1.0)], Relation::Le, 1.0)
            .unwrap();
        m.add_constraint([(v[1], 2.0), (v[3], 1.0), (v[4], 1.0)], Relation::Ge, 1.5)
            .unwrap();
        let opts = SimplexOptions::default();
        let (lower, upper) = (vec![0.0; 5], vec![1.0; 5]);
        let mut scratch = SimplexScratch::new();
        let root = solve_with_basis(&m, &lower, &upper, opts, &mut scratch, None).unwrap();
        let before = tableau_bits(&mut scratch.t);
        let basis_before = scratch.t.basis.clone();
        let dual_before = scratch.ops().dual_pivots;
        let mut prober = RootProbe::new(&m, &lower, &upper, opts, &mut scratch);
        for (j, &x) in root.solution.values.iter().enumerate() {
            for value in [0.0, 1.0] {
                if (value - x).abs() > 1e-9 {
                    let _ = prober.probe(VarId(j), value, f64::INFINITY);
                }
            }
        }
        assert_eq!(prober.counts().cold, 0);
        assert!(prober.counts().warm >= 5, "{:?}", prober.counts());
        let _ = prober.finish();
        assert!(scratch.ops().dual_pivots > dual_before, "probes must pivot");
        assert_eq!(tableau_bits(&mut scratch.t), before);
        assert_eq!(scratch.t.basis, basis_before);
    }

    /// Phase 1 flips `x` to its upper bound (the flip's tie key beats the
    /// artificial's), and with a zero objective nothing in phase 2 moves it
    /// back. The optimal face is all of `x + y ≥ 1`, whose lex minimum is
    /// `x = 0, y = 1`: canonicalising must move the complemented `x` down.
    #[test]
    fn lex_canonicalize_moves_an_at_upper_column_down() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_constraint([(x, 1.0), (y, 1.0)], Relation::Ge, 1.0)
            .unwrap();
        let mut scratch = SimplexScratch::new();
        let opts = SimplexOptions::default();
        let s = solve_with_basis(&m, &[0.0; 2], &[1.0; 2], opts, &mut scratch, None).unwrap();
        assert_eq!(s.solution.values, vec![0.0, 1.0]);
        assert!(scratch.ops().lex_pivots > 0, "{:?}", scratch.ops());
        // The node path skips canonicalising and keeps phase 1's vertex.
        let node = solve_with_bounds_scratch(&m, &[0.0; 2], &[1.0; 2], opts, &mut scratch);
        assert_eq!(node.unwrap().values, vec![1.0, 0.0]);
    }

    #[test]
    fn ops_counters_track_builds_and_reuse() {
        let (m, _, _) = gain_model();
        let opts = SimplexOptions::default();
        let mut scratch = SimplexScratch::new();
        let lower = vec![0.0; 2];
        let upper = vec![5.0; 2];
        solve_with_bounds_scratch(&m, &lower, &upper, opts, &mut scratch).unwrap();
        let first = scratch.ops();
        assert_eq!(first.tableau_builds, 1);
        assert_eq!(first.scratch_reuses, 0, "first build must allocate");
        assert!(first.total_pivots() > 0);
        solve_with_bounds_scratch(&m, &lower, &upper, opts, &mut scratch).unwrap();
        let second = scratch.ops();
        assert_eq!(second.tableau_builds, 2);
        assert_eq!(second.scratch_reuses, 1, "same shape must reuse the buffer");
        // take_ops drains and resets.
        let taken = scratch.take_ops();
        assert_eq!(taken, second);
        assert_eq!(scratch.ops(), SimplexOps::default());
    }

    /// The Dantzig→Bland fallback provably engages on a degenerate stall:
    /// with `bland_stall = 0` every degenerate pivot beyond the first in a
    /// streak runs under Bland's rule, and the activation is counted. The
    /// redundant-constraint model pivots through a degenerate vertex, so
    /// at least one activation must be recorded — and the optimum must be
    /// identical to the default-rule solve.
    #[test]
    fn bland_fallback_activates_on_degenerate_stall() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        m.set_objective([(x, 1.0), (y, 1.0)]);
        for _ in 0..4 {
            m.add_constraint([(x, 1.0), (y, 1.0)], Relation::Ge, 1.0)
                .unwrap();
        }
        m.add_constraint([(x, 2.0), (y, 2.0)], Relation::Ge, 2.0)
            .unwrap();
        let mut scratch = SimplexScratch::new();
        let eager = SimplexOptions::default().with_bland_stall(0);
        let s =
            solve_with_bounds_scratch(&m, &[0.0, 0.0], &[10.0, 10.0], eager, &mut scratch).unwrap();
        approx(s.objective, 1.0);
        assert!(
            scratch.ops().bland_activations >= 1,
            "degenerate streak must arm Bland: {:?}",
            scratch.ops()
        );
    }
}
