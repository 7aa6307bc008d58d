//! Sparse-row two-phase primal simplex, with warm-started dual-simplex
//! repair.
//!
//! Solves the LP relaxation of a [`Model`] with per-variable bound overrides
//! (used by branch-and-bound to fix binaries). The implementation is a
//! textbook tableau simplex (the private `Tableau` in [`SimplexScratch`]):
//!
//! 1. shift every variable by its lower bound so all variables are ≥ 0,
//! 2. add explicit rows for finite upper bounds,
//! 3. convert to equalities with slack/surplus columns, normalise `b ≥ 0`,
//! 4. phase 1 minimises the sum of one artificial per row,
//! 5. phase 2 minimises the (sense-normalised) objective.
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
//! The selector's models reach about 2,200 rows by 2,700 columns at
//! `synth:table` scale, and their tableaus stay about 97% zeros through
//! the solve: a pivot row is a few percent nonzero and a pivot touches
//! about one row in a hundred. Constraint rows are therefore stored as
//! column-sorted `(column, value)` lists with a column → rows index, while
//! the objective row and the right-hand side stay dense. Every stored cell
//! gets exactly the arithmetic a dense tableau would give it (`v -
//! factor·pv`, a fill-in cell `0.0 - factor·pv`, a cancelled cell stays
//! stored as zero), and every scan visits cells in the dense order, so
//! pivots, vertices and tie-breaks match a dense tableau bit for bit; only
//! the zeros stop costing. Artificial columns are never read (they never
//! enter), so they are not stored: an artificial is only a basis marker.
//!
//! A pivot writes the pivot row's positions into a dense column →
//! position + 1 map held in the tableau (all zero between pivots), so
//! eliminating a row is one pass over that row: each cell whose column
//! the map knows is updated in place and its pivot-row position stamped
//! with the row's stamp. Only the unstamped pivot-row cells are then merged
//! in from the back as fill-in, so rows stay column-sorted and the cell
//! order and column-list appends are the ones a walk of both sorted rows
//! gives. The entering column is priced in two passes over the dense
//! objective row, the first of them branch-free (see `price`).
//!
//! Fixed variables (`lower == upper`) are folded into the right-hand side
//! while the tableau is built (see [`solve_with_bounds_scratch`]), which
//! keeps node LPs deep in a branch-and-bound tree small without building a
//! reduced [`Model`].
//!
//! # Root probes
//!
//! [`RootProbe`] re-solves bound pins of a root LP on the optimal
//! full-shape tableau [`solve_with_basis`] leaves in its scratch. A pin is
//! a right-hand-side patch read through the slack columns (`B⁻¹eᵢ` is the
//! current column of row `i`'s slack), which keeps the root basis dual
//! feasible, so the dual simplex repairs it in a few pivots; the probe is
//! then undone from a journal of the rows its pivots touched (the column
//! lists follow from the rows) plus the dense right-hand side, objective
//! row and basis. Only a
//! pin through an equality row (no slack column), a basic artificial or a
//! dual-simplex failure sends a probe to a cold [`solve_with_bounds_scratch`]
//! instead. Probes skip `lex_canonicalize`: only their objective is used.

use crate::{IlpError, LpSolution, Model, Relation, Sense, VarId};

const EPS: f64 = 1e-10;

/// Column marker of a variable folded out of the tableau.
const FOLDED: usize = usize::MAX;

/// Basis marker of a row that starts on an artificial, numbered once the
/// row count (and so the first artificial column) is known.
const ARTIFICIAL: usize = usize::MAX;

/// Options for the simplex solver.
///
/// The three tolerances used to be scattered magic literals
/// (`1e-6`/`1e-7`/`1e-9`) inside the solve path; they are hoisted here so
/// every feasibility decision in one solve uses one consistent set, and so
/// callers can tighten or relax them deliberately.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimplexOptions {
    /// Hard cap on pivots across both phases.
    pub max_iterations: usize,
    /// Constraint-satisfaction slack: phase-1 residuals below this count as
    /// feasible, and pinned-point / constant-constraint checks allow this
    /// much violation.
    pub feasibility_tol: f64,
    /// Smallest tableau element treated as a usable pivot when driving
    /// artificials out of the basis.
    pub pivot_tol: f64,
    /// Objective values within this of zero are snapped to exactly zero.
    pub objective_tol: f64,
    /// Consecutive degenerate pivots tolerated under the Dantzig entering
    /// rule before the solver falls back to Bland's rule for the remainder
    /// of the degenerate stretch (an objective improvement re-arms
    /// Dantzig). `0` switches on the very first degenerate pivot.
    pub bland_stall: usize,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            max_iterations: 50_000,
            feasibility_tol: 1e-6,
            pivot_tol: 1e-7,
            objective_tol: 1e-9,
            bland_stall: 12,
        }
    }
}

/// Rejects a NaN or negative tolerance at construction time.
fn checked_tol(name: &'static str, tol: f64) -> f64 {
    assert!(
        tol.is_finite() && tol >= 0.0,
        "simplex option {name} must be finite and >= 0, got {tol}"
    );
    tol
}

impl SimplexOptions {
    /// Overrides the feasibility tolerance.
    ///
    /// # Panics
    ///
    /// On a NaN, infinite or negative tolerance.
    #[must_use]
    pub fn with_feasibility_tol(mut self, tol: f64) -> SimplexOptions {
        self.feasibility_tol = checked_tol("feasibility_tol", tol);
        self
    }

    /// Overrides the pivot tolerance.
    ///
    /// # Panics
    ///
    /// On a NaN, infinite or negative tolerance.
    #[must_use]
    pub fn with_pivot_tol(mut self, tol: f64) -> SimplexOptions {
        self.pivot_tol = checked_tol("pivot_tol", tol);
        self
    }

    /// Overrides the objective zero-snap tolerance.
    ///
    /// # Panics
    ///
    /// On a NaN, infinite or negative tolerance.
    #[must_use]
    pub fn with_objective_tol(mut self, tol: f64) -> SimplexOptions {
        self.objective_tol = checked_tol("objective_tol", tol);
        self
    }

    /// Overrides the Dantzig→Bland degenerate-stall threshold.
    #[must_use]
    pub fn with_bland_stall(mut self, stall: usize) -> SimplexOptions {
        self.bland_stall = stall;
        self
    }

    /// Validates the tolerances: every solve entry point calls this, so a
    /// struct-literal-built options value (the fields are public) cannot
    /// smuggle a NaN or negative tolerance into the pivot comparisons.
    ///
    /// # Errors
    ///
    /// [`IlpError::InvalidTolerance`] naming the offending field.
    pub fn validate(&self) -> Result<(), IlpError> {
        for (name, value) in [
            ("feasibility_tol", self.feasibility_tol),
            ("pivot_tol", self.pivot_tol),
            ("objective_tol", self.objective_tol),
        ] {
            if !value.is_finite() || value < 0.0 {
                return Err(IlpError::InvalidTolerance { name, value });
            }
        }
        Ok(())
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
    /// Tableau builds that grew none of the scratch's pooled buffers (row
    /// and column lists, dense vectors) — the scratch-reuse hits that
    /// skipped every heap allocation.
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
/// Branch-and-bound solves one LP per node. A scratch kept per worker lets
/// [`solve_with_bounds_scratch`] reuse the tableau's row and column lists,
/// the dense vectors and the basis across nodes instead of re-allocating
/// them. Capacities only grow, so a scratch warmed up on the root LP
/// serves most descendants without further allocation.
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
            + t.rows.iter().map(Vec::capacity).sum::<usize>()
            + t.cols.capacity()
            + t.cols.iter().map(Vec::capacity).sum::<usize>()
            + t.rhs.capacity()
            + t.obj.capacity()
            + t.basis.capacity()
            + t.scatter.pos.capacity()
            + t.scatter.hit.capacity()
            + self.cost.capacity()
            + self.var_col.capacity()
    }
}

/// A sparse-row simplex tableau.
///
/// Columns are the `n` structural columns, then one slack/surplus column
/// per row (`n..art0`), then the artificials (`art0..art0 + n_art`), which
/// appear only in `basis`. Only the first `m` rows and `art0` column lists
/// are live; the rest are pooled capacity from earlier, larger solves.
#[derive(Debug, Default)]
struct Tableau {
    /// Structural columns.
    n: usize,
    /// Rows (constraints + finite-width bound rows).
    m: usize,
    /// First artificial column: `n + m`.
    art0: usize,
    /// Artificial columns.
    n_art: usize,
    /// Stored cells of each row, sorted by column. A cell that cancels to
    /// zero stays stored.
    rows: Vec<Vec<(usize, f64)>>,
    /// Rows with a stored cell, per column below `art0`. Appended to on
    /// fill-in, so unordered: [`Tableau::sort_col`] restores row order.
    cols: Vec<Vec<usize>>,
    /// Right-hand side per row.
    rhs: Vec<f64>,
    /// Objective (reduced-cost) row over the columns below `art0`.
    obj: Vec<f64>,
    /// Objective row's right-hand side: minus the current objective.
    obj_rhs: f64,
    /// Basic column per row.
    basis: Vec<usize>,
    /// The pivot row's column map, live during a pivot.
    scatter: Scatter,
    /// Undo log of a root probe; records nothing while inactive.
    journal: Journal,
}

impl Tableau {
    /// The cell at `(r, c)`, zero when not stored.
    #[inline]
    fn at(&self, r: usize, c: usize) -> f64 {
        let row = &self.rows[r];
        match row.binary_search_by_key(&c, |&(j, _)| j) {
            Ok(i) => row[i].1,
            Err(_) => 0.0,
        }
    }

    /// Row `r`'s pooled cell list, emptied for the build (rows are opened
    /// in order, so `r` is at most one past the pool).
    fn open_row(&mut self, r: usize) -> &mut Vec<(usize, f64)> {
        if self.rows.len() == r {
            self.rows.push(Vec::new());
        }
        let row = &mut self.rows[r];
        row.clear();
        row
    }

    /// Puts column `c`'s row list in row order — the order a dense scan
    /// down the column visits them, which the tie-breaks depend on.
    fn sort_col(&mut self, c: usize) {
        debug_assert!(!self.journal.active, "a probe never sorts a column");
        self.cols[c].sort_unstable();
    }

    /// Pivots on `(row, col)`: normalises the pivot row, then eliminates
    /// `col` from every row with a stored cell there and from the objective
    /// row. Each updated cell gets the dense tableau's `v - factor·pv`.
    fn pivot(&mut self, row: usize, col: usize) {
        let p = self.at(row, col);
        debug_assert!(p.abs() > 1e-12, "pivot on ~zero element");
        let inv = 1.0 / p;
        self.journal.save_row(row, &self.rows[row]);
        let mut prow = std::mem::take(&mut self.rows[row]);
        for (_, v) in &mut prow {
            *v *= inv;
        }
        self.rhs[row] *= inv;
        let prhs = self.rhs[row];
        self.scatter.load(&prow);
        // No row in column `col`'s list gains a fill-in cell at `col`, so
        // the list can be detached while other columns' lists grow.
        let touched = std::mem::take(&mut self.cols[col]);
        for &r in &touched {
            if r == row {
                continue;
            }
            let factor = self.at(r, col);
            if factor != 0.0 {
                self.journal.save_row(r, &self.rows[r]);
                self.scatter
                    .eliminate(&mut self.rows[r], r, &prow, factor, &mut self.cols);
                self.rhs[r] -= factor * prhs;
            }
        }
        self.scatter.clear(&prow);
        let factor = self.obj[col];
        if factor != 0.0 {
            for &(c, pv) in &prow {
                self.obj[c] -= factor * pv;
            }
            self.obj_rhs -= factor * prhs;
        }
        self.cols[col] = touched;
        self.rows[row] = prow;
        self.basis[row] = col;
    }
}

/// The pivot row's dense column map and the hit stamps of one row
/// elimination. Sized to the column count at build.
#[derive(Debug, Default)]
struct Scatter {
    /// Position + 1 of each column in the pivot row, zero for every column
    /// outside it; all zero between pivots.
    pos: Vec<usize>,
    /// Per pivot-row position, the stamp of the last eliminated row that
    /// stored a cell there.
    hit: Vec<usize>,
    /// Stamp of the current row elimination; grows by one per row.
    stamp: usize,
}

impl Scatter {
    /// Maps the pivot row's columns to their positions.
    fn load(&mut self, prow: &[(usize, f64)]) {
        for (i, &(c, _)) in prow.iter().enumerate() {
            self.pos[c] = i + 1;
        }
    }

    /// Zeroes the map again after the pivot.
    fn clear(&mut self, prow: &[(usize, f64)]) {
        for &(c, _) in prow {
            self.pos[c] = 0;
        }
    }

    /// `row -= factor · prow` over sorted sparse rows, in place, with
    /// `prow` loaded. One pass over `row` updates the cells stored in both
    /// where they sit and stamps their `prow` positions. The unstamped
    /// `prow` cells are then merged in from the back as fill-in, and row
    /// `r` is appended to their columns' lists, in descending column order.
    fn eliminate(
        &mut self,
        row: &mut Vec<(usize, f64)>,
        r: usize,
        prow: &[(usize, f64)],
        factor: f64,
        cols: &mut [Vec<usize>],
    ) {
        self.stamp += 1;
        let stamp = self.stamp;
        let mut shared = 0;
        for cell in row.iter_mut() {
            let p = self.pos[cell.0];
            if p != 0 {
                cell.1 -= factor * prow[p - 1].1;
                self.hit[p - 1] = stamp;
                shared += 1;
            }
        }
        let mut fill = prow.len() - shared;
        if fill == 0 {
            return;
        }
        // `i` old cells are still unplaced; `k` is the next free slot from
        // the back. Once the last fill-in cell is placed, `k == i` and the
        // rest of the old cells are already where they belong.
        let mut i = row.len();
        row.resize(i + fill, (0, 0.0));
        let mut k = row.len();
        for (p, &(c, pv)) in prow.iter().enumerate().rev() {
            if self.hit[p] == stamp {
                continue;
            }
            while i > 0 && row[i - 1].0 > c {
                i -= 1;
                k -= 1;
                row[k] = row[i];
            }
            k -= 1;
            row[k] = (c, 0.0 - factor * pv);
            cols[c].push(r);
            fill -= 1;
            if fill == 0 {
                break;
            }
        }
        debug_assert_eq!(k, i);
    }
}

/// Undo log of one root probe (see [`RootProbe`]).
///
/// [`Tableau::begin_probe`] snapshots the dense vectors and activates the
/// log; from then on the first change to a row appends a copy of it to one
/// flat buffer. [`Tableau::undo_probe`] copies the rows back. A probe
/// re-solve changes a few dozen of the tableau's thousands of rows, so the
/// log never copies the tableau. Inactive, it records nothing.
///
/// Column lists need no log: a pivot changes them only by appending a
/// row to the list of each fill-in cell's column (the pivot column's list
/// is put back as it was, and a probe never sorts one). So every list is
/// its pre-probe self plus a tail of the probe's appends, one per cell a
/// saved row holds now but did not hold before, and popping one entry per
/// such cell restores it.
#[derive(Debug, Default)]
struct Journal {
    active: bool,
    /// Whether row `r` is already saved.
    row_saved: Vec<bool>,
    /// Saved rows, as `(row, end of its cells in cells)`.
    rows: Vec<(usize, usize)>,
    cells: Vec<(usize, f64)>,
    rhs: Vec<f64>,
    obj: Vec<f64>,
    obj_rhs: f64,
    basis: Vec<usize>,
}

impl Journal {
    /// Saves row `r` before its first change of the active probe.
    #[inline]
    fn save_row(&mut self, r: usize, row: &[(usize, f64)]) {
        if self.active && !self.row_saved[r] {
            self.row_saved[r] = true;
            self.cells.extend_from_slice(row);
            self.rows.push((r, self.cells.len()));
        }
    }
}

impl Tableau {
    /// Starts a probe: snapshots the right-hand side, objective row and
    /// basis, and makes pivots save what they change.
    fn begin_probe(&mut self) {
        let j = &mut self.journal;
        debug_assert!(!j.active, "probes do not nest");
        if j.row_saved.len() < self.m {
            j.row_saved.resize(self.m, false);
        }
        j.rhs.clear();
        j.rhs.extend_from_slice(&self.rhs);
        j.obj.clear();
        j.obj.extend_from_slice(&self.obj);
        j.basis.clear();
        j.basis.extend_from_slice(&self.basis);
        j.obj_rhs = self.obj_rhs;
        j.active = true;
    }

    /// Restores the tableau exactly as [`Tableau::begin_probe`] found it.
    fn undo_probe(&mut self) {
        let j = &mut self.journal;
        j.active = false;
        let mut start = 0;
        for &(r, end) in &j.rows {
            let saved = &j.cells[start..end];
            let row = &mut self.rows[r];
            // Both are sorted by column, and the row only gained cells.
            let mut k = 0;
            for &(c, _) in row.iter() {
                if k < saved.len() && saved[k].0 == c {
                    k += 1;
                } else {
                    let popped = self.cols[c].pop();
                    debug_assert!(popped.is_some(), "fill-in listed");
                }
            }
            row.clear();
            row.extend_from_slice(saved);
            j.row_saved[r] = false;
            start = end;
        }
        j.rows.clear();
        j.cells.clear();
        self.rhs.copy_from_slice(&j.rhs);
        self.obj.copy_from_slice(&j.obj);
        self.basis.copy_from_slice(&j.basis);
        self.obj_rhs = j.obj_rhs;
    }

    /// Adds `delta` to the right-hand side row `i` was built with.
    ///
    /// Row `i`'s slack column was `κ·eᵢ` at build (`κ = ±1`), so its current
    /// column is `κ·B⁻¹eᵢ`, and moving the built right-hand side by `delta`
    /// moves the current one by `delta·B⁻¹eᵢ` — the objective row's too, as
    /// for any row. `sign` is `+1` for a `≤` row and `−1` for a `≥` row: a
    /// row negated at build flips both `κ` and the delta, so only the
    /// relation matters.
    fn shift_rhs(&mut self, i: usize, sign: f64, delta: f64) {
        let s = self.n + i;
        let step = sign * delta;
        for k in 0..self.cols[s].len() {
            let r = self.cols[s][k];
            self.rhs[r] += step * self.at(r, s);
        }
        self.obj_rhs += step * self.obj[s];
    }
}

/// Solves the LP relaxation of `model` with the model's own bounds.
///
/// # Errors
///
/// [`IlpError::Infeasible`], [`IlpError::Unbounded`],
/// [`IlpError::IterationLimit`], [`IlpError::InvalidTolerance`] or
/// [`IlpError::NumericalInstability`].
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
/// any variable, [`IlpError::NonFiniteCoefficient`] for NaN bounds, and
/// [`IlpError::InvalidTolerance`] for poisoned options.
pub fn solve_with_bounds(
    model: &Model,
    lower: &[f64],
    upper: &[f64],
    options: SimplexOptions,
) -> Result<LpSolution, IlpError> {
    solve_with_bounds_scratch(model, lower, upper, options, &mut SimplexScratch::new())
}

/// Checks a bound-override pair: NaN bounds are a typed error (they would
/// otherwise poison every shifted coefficient), crossed bounds are plain
/// infeasibility.
fn check_bounds(lower: &[f64], upper: &[f64]) -> Result<(), IlpError> {
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
    }
    Ok(())
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
/// are folded out while the tableau is built: their columns and bound rows
/// are dropped, their contribution moves into each row's right-hand side,
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
    options.validate()?;
    let n = model.num_vars();
    assert_eq!(lower.len(), n, "lower bounds arity");
    assert_eq!(upper.len(), n, "upper bounds arity");
    check_bounds(lower, upper)?;

    let fixed = (0..n).filter(|&i| is_fixed(lower[i], upper[i])).count();
    if fixed == n && n > 0 {
        // Everything pinned: just evaluate feasibility.
        let values: Vec<f64> = lower.to_vec();
        if !feasible_point(model, &values, options.feasibility_tol) {
            return Err(IlpError::Infeasible);
        }
        return Ok(LpSolution {
            objective: model.objective().eval(&values),
            values,
            iterations: 0,
        });
    }
    let (solution, _) = solve_full(model, lower, upper, options, scratch, fixed > 0, false)?;
    Ok(solution)
}

/// A retained simplex basis: the basic column of every tableau row of a
/// full-shape solve, in row order.
///
/// Columns index the canonical tableau layout (`build_tableau`):
/// structural variables first (`0..num_vars`), then one slack/surplus per
/// row. A basis extracted from an optimal solve never contains artificial
/// columns ([`solve_with_basis`] returns `None` instead when one is stuck
/// basic in a degenerate row). The basis stays installable across any pure
/// RHS or bound-value patch of the model, because neither changes the
/// row/column shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    /// Basic column per row.
    cols: Vec<usize>,
    /// Structural-variable count the columns were indexed against.
    num_vars: usize,
}

impl Basis {
    /// The all-slack basis of an `num_vars × num_rows` tableau. Always
    /// installable on a matching shape but primal- and dual-infeasible for
    /// most models — the fault-injection suite uses it as a deliberately
    /// poisoned warm start.
    #[must_use]
    pub fn slack(num_vars: usize, num_rows: usize) -> Basis {
        Basis {
            cols: (0..num_rows).map(|r| num_vars + r).collect(),
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
    /// structural-variable counts match, every column is structural or
    /// slack (never artificial), and no column repeats.
    fn compatible(&self, t: &Tableau) -> bool {
        if self.num_vars != t.n || self.cols.len() != t.m {
            return false;
        }
        let mut seen = vec![false; t.art0];
        self.cols
            .iter()
            .all(|&c| c < t.art0 && !std::mem::replace(&mut seen[c], true))
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
/// [`IlpError::NonFiniteCoefficient`] for NaN bounds and
/// [`IlpError::InvalidTolerance`] for poisoned options.
pub fn solve_with_basis(
    model: &Model,
    lower: &[f64],
    upper: &[f64],
    options: SimplexOptions,
    scratch: &mut SimplexScratch,
    warm: Option<&Basis>,
) -> Result<BasisSolve, IlpError> {
    options.validate()?;
    let n = model.num_vars();
    assert_eq!(lower.len(), n, "lower bounds arity");
    assert_eq!(upper.len(), n, "upper bounds arity");
    check_bounds(lower, upper)?;
    let warm_solve =
        warm.and_then(|basis| try_warm_solve(model, lower, upper, options, scratch, basis));
    let solve = match warm_solve {
        Some(solve) => solve,
        None => {
            let (solution, basis) = solve_full(model, lower, upper, options, scratch, false, true)?;
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

/// Whether a constant row `0 (relation) rhs` holds within `tol`.
fn constant_row_holds(relation: Relation, rhs: f64, tol: f64) -> bool {
    match relation {
        Relation::Le => 0.0 <= rhs + tol,
        Relation::Ge => 0.0 >= rhs - tol,
        Relation::Eq => rhs.abs() <= tol,
    }
}

/// Finishes row `r` of the tableau under construction: normalises it to
/// rhs ≥ 0, appends its slack/surplus cell and records its starting basic
/// column (the slack, or [`ARTIFICIAL`]).
fn close_row(t: &mut Tableau, r: usize, relation: Relation, raw_rhs: f64) {
    let row = &mut t.rows[r];
    let negated = raw_rhs < 0.0;
    if negated {
        for (_, v) in row.iter_mut() {
            *v = -*v;
        }
    }
    let sign = if negated { -1.0 } else { 1.0 };
    let slack = t.n + r;
    match relation {
        Relation::Le => row.push((slack, sign)),
        Relation::Ge => row.push((slack, -sign)),
        Relation::Eq => {}
    }
    t.rhs.push(if negated { -raw_rhs } else { raw_rhs });
    t.basis.push(if needs_artificial(relation, raw_rhs) {
        ARTIFICIAL
    } else {
        slack
    });
}

/// Builds the phase-0 tableau into `scratch`.
///
/// Rows live in shifted space `y = x - lower`: first the constraint rows,
/// then one upper-bound row `y_i <= u_i - l_i` per finite-width column.
/// With `fold`, every fixed variable is folded out: it gets no column and
/// no bound row, its `k·lower` moves into the rows' right-hand sides, and
/// a constraint left without a free variable is checked against
/// `feasibility_tol` and dropped. Without `fold` every variable keeps its
/// column and bound row (zero-width rows included), so the shape never
/// depends on bound values.
///
/// A row's right-hand side is `(rhs − constant − Σ_fixed k·l) − Σ_free
/// k·l`, each sum taken in term order: the operations, in order, of
/// substituting the fixed variables into a reduced model and then shifting
/// that model's variables (its zero constant drops out exactly), so a
/// folded solve is bit-identical to the reduced one. Without fixed
/// variables `Σ_fixed` is `0.0` and the row matches an unfolded build.
///
/// # Errors
///
/// [`IlpError::Infeasible`] when a folded constant row is violated; no
/// build is counted then.
fn build_tableau(
    model: &Model,
    lower: &[f64],
    upper: &[f64],
    fold: bool,
    feasibility_tol: f64,
    scratch: &mut SimplexScratch,
) -> Result<(), IlpError> {
    let capacity_before = scratch.pooled_capacity();
    scratch.root_resident = false;
    let SimplexScratch {
        t, cost, var_col, ..
    } = scratch;
    var_col.clear();
    let mut n = 0;
    for (&l, &u) in lower.iter().zip(upper) {
        if fold && is_fixed(l, u) {
            var_col.push(FOLDED);
        } else {
            var_col.push(n);
            n += 1;
        }
    }
    t.n = n;
    t.rhs.clear();
    t.basis.clear();

    let mut m = 0;
    for c in model.constraints() {
        let row = t.open_row(m);
        let mut shift_fixed = 0.0;
        let mut shift_free = 0.0;
        for (v, k) in c.expr.iter_terms() {
            let i = v.index();
            if var_col[i] == FOLDED {
                shift_fixed += k * lower[i];
            } else {
                shift_free += k * lower[i];
                row.push((var_col[i], k));
            }
        }
        let folded_rhs = c.rhs - c.expr.constant() - shift_fixed;
        if fold && row.is_empty() {
            if !constant_row_holds(c.relation, folded_rhs, feasibility_tol) {
                return Err(IlpError::Infeasible);
            }
            continue;
        }
        close_row(t, m, c.relation, folded_rhs - shift_free);
        m += 1;
    }
    for (i, &col) in var_col.iter().enumerate() {
        let width = upper[i] - lower[i];
        if col == FOLDED || !width.is_finite() {
            continue;
        }
        t.open_row(m).push((col, 1.0));
        close_row(t, m, Relation::Le, width);
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
    if t.cols.len() < t.art0 {
        t.cols.resize_with(t.art0, Vec::new);
        t.scatter.pos.resize(t.art0, 0);
        t.scatter.hit.resize(t.art0, 0);
    }
    for list in &mut t.cols[..t.art0] {
        list.clear();
    }
    for (r, row) in t.rows[..m].iter().enumerate() {
        for &(c, _) in row {
            t.cols[c].push(r);
        }
    }
    t.obj.clear();
    t.obj.resize(t.art0, 0.0);
    t.obj_rhs = 0.0;
    cost.clear();
    cost.resize(t.art0, 0.0);

    scratch.ops.tableau_builds += 1;
    if scratch.pooled_capacity() == capacity_before {
        scratch.ops.scratch_reuses += 1;
    }
    Ok(())
}

/// Installs the sense-normalised phase-2 cost row and prices out the
/// current basis.
fn install_cost_row(model: &Model, t: &mut Tableau, cost: &mut [f64], var_col: &[usize]) {
    let minimize = model.sense() == Sense::Minimize;
    cost.fill(0.0);
    for (v, c) in model.objective().iter_terms() {
        let col = var_col[v.index()];
        if col != FOLDED {
            cost[col] = if minimize { c } else { -c };
        }
    }
    t.obj.copy_from_slice(cost);
    t.obj_rhs = 0.0;
    for r in 0..t.m {
        let cb = cost.get(t.basis[r]).copied().unwrap_or(0.0);
        if cb != 0.0 {
            for &(c, v) in &t.rows[r] {
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
    model: &Model,
    lower: &[f64],
    scratch: &SimplexScratch,
    fold: bool,
    want_basis: bool,
    iterations: usize,
    options: SimplexOptions,
) -> (LpSolution, Option<Basis>) {
    let t = &scratch.t;
    let mut y = vec![0.0; t.n];
    for r in 0..t.m {
        if t.basis[r] < t.n {
            y[t.basis[r]] = t.rhs[r];
        }
    }
    let values: Vec<f64> = scratch
        .var_col
        .iter()
        .zip(lower)
        .map(|(&col, &l)| if col == FOLDED { l } else { y[col] + l })
        .collect();
    let mut objective = model.objective().eval(&values);
    // Clean tiny noise.
    if !fold && objective.abs() < options.objective_tol {
        objective = 0.0;
    }
    // A degenerate artificial stuck basic (redundant row) makes the basis
    // unusable as a warm start; hand back `None` rather than a basis that
    // could never be re-installed.
    let basis = &t.basis[..t.m];
    let out = (want_basis && basis.iter().all(|&b| b < t.art0)).then(|| Basis {
        cols: basis.to_vec(),
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

/// Which primal phase a [`run_simplex`] call is running — selects the
/// pivot counter it charges.
#[derive(Clone, Copy, PartialEq, Eq)]
enum PrimalPhase {
    One,
    Two,
}

/// Cold two-phase simplex over [`build_tableau`]. With `lex` (the basis
/// path) the optimum is lex-canonicalised and its basis returned.
fn solve_full(
    model: &Model,
    lower: &[f64],
    upper: &[f64],
    options: SimplexOptions,
    scratch: &mut SimplexScratch,
    fold: bool,
    lex: bool,
) -> Result<(LpSolution, Option<Basis>), IlpError> {
    build_tableau(model, lower, upper, fold, options.feasibility_tol, scratch)?;
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
                for &(c, v) in &t.rows[r] {
                    t.obj[c] -= v;
                }
                t.obj_rhs -= t.rhs[r];
            }
        }
        run_simplex(t, &mut iters, options, ops, PrimalPhase::One)?;
        let phase1 = -t.obj_rhs;
        if phase1 > options.feasibility_tol {
            return Err(IlpError::Infeasible);
        }
    }

    // Drive artificials out of the basis where possible; drop redundant rows
    // by leaving them (their rhs is 0 and artificial stays basic at 0 — we
    // forbid artificials from re-entering in phase 2 instead of removing).
    for r in 0..t.m {
        if t.basis[r] >= t.art0 && t.rhs[r].abs() <= options.pivot_tol {
            let entering = t.rows[r]
                .iter()
                .find(|&&(_, v)| v.abs() > options.pivot_tol)
                .map(|&(j, _)| j);
            if let Some(j) = entering {
                t.pivot(r, j);
                ops.phase1_pivots += 1;
            }
        }
    }

    install_cost_row(model, t, cost, var_col);
    run_simplex(t, &mut iters, options, ops, PrimalPhase::Two)?;
    if lex {
        lex_canonicalize(t, &mut iters, options, ops);
    }
    Ok(extract(model, lower, scratch, fold, lex, iters, options))
}

/// Attempts the warm path: re-install `warm` on a freshly built tableau,
/// repair primal feasibility with dual-simplex pivots, finish with primal
/// cleanup. Returns `None` on any incompatibility — the caller then runs
/// the cold path on a rebuilt tableau, so a bad basis costs time, never
/// correctness.
fn try_warm_solve(
    model: &Model,
    lower: &[f64],
    upper: &[f64],
    options: SimplexOptions,
    scratch: &mut SimplexScratch,
    warm: &Basis,
) -> Option<BasisSolve> {
    build_tableau(model, lower, upper, false, options.feasibility_tol, scratch).ok()?;
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

    // Re-install the basis by direct Gaussian pivoting: each stored column
    // claims the not-yet-assigned row where it has the largest magnitude
    // (ties to the lowest row). A near-zero best pivot means the basis
    // matrix went singular under the patched coefficients — bail out to
    // the cold path.
    let mut assigned = vec![false; m];
    for &col in &warm.cols {
        let mut best: Option<(usize, f64)> = None;
        t.sort_col(col);
        for &r in &t.cols[col] {
            if !assigned[r] {
                let a = t.at(r, col).abs();
                if best.is_none_or(|(_, b)| a > b) {
                    best = Some((r, a));
                }
            }
        }
        let (r, magnitude) = best?;
        if magnitude <= options.pivot_tol {
            return None;
        }
        t.pivot(r, col);
        ops.dual_pivots += 1;
        assigned[r] = true;
    }

    install_cost_row(model, t, cost, var_col);

    // Classify the re-installed vertex. A pure RHS/bound patch keeps the
    // old optimal basis dual-feasible, so the usual case is a short run of
    // dual pivots; a basis that lost dual feasibility but kept primal
    // feasibility is finished by the primal phase below; one that lost both
    // is not worth repairing.
    let primal_feasible = |t: &Tableau| t.rhs.iter().all(|&b| b >= -options.feasibility_tol);
    let dual_feasible = t.obj.iter().all(|&c| c >= -EPS);
    if !primal_feasible(t) {
        if !dual_feasible {
            return None;
        }
        let mut iters = 0usize;
        run_dual_simplex(t, &mut iters, options, ops, &[]).ok()?;
    }

    // Primal cleanup: a no-op when the dual repair already reached
    // optimality, otherwise drives out any remaining negative reduced
    // costs. Errors (unbounded, iteration limit) defer to the cold path.
    let mut iters = 0usize;
    run_simplex(t, &mut iters, options, ops, PrimalPhase::Two).ok()?;
    if !primal_feasible(t) {
        // Numerically drifted repair: let the cold path decide.
        return None;
    }
    // Land on the same canonical vertex the cold path reports, so basis
    // reuse can never leak into the returned assignment.
    lex_canonicalize(t, &mut iters, options, ops);
    let (solution, basis) = extract(model, lower, scratch, false, true, iters, options);
    Some(BasisSolve {
        solution,
        basis,
        reused: true,
    })
}

/// Row marker of a variable without a bound row (infinite width).
const NO_ROW: usize = usize::MAX;

/// Probe tallies of a [`RootProbe`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeCounts {
    /// Probes re-solved by the dual simplex on the root tableau.
    pub warm: usize,
    /// Probes solved cold by [`solve_with_bounds_scratch`].
    pub cold: usize,
}

/// Bound probes of a root LP, re-solved in place on its optimal tableau.
///
/// Branch-and-bound's root probing asks, for each binary at a bound of
/// the root LP, what the LP bound becomes with the binary pinned to its
/// other bound. Pinning a variable changes only right-hand sides: its
/// bound row's (the width `u − l`) and, when its lower bound moves, every
/// constraint row holding it (the shift `y = x − l`). A right-hand-side
/// change keeps the root's optimal basis dual feasible, so a probe patches
/// the right-hand sides through the slack columns (see
/// `Tableau::shift_rhs`) and repairs primal feasibility with the dual
/// simplex — a few pivots where a cold solve runs both phases on a fresh
/// build. The columns of pinned variables may not enter (they are zero in
/// every feasible point, and a cold build folds them out), and a leaving
/// row with no negative entry in the other columns proves the pin
/// infeasible. The probe's pivots are journaled and undone (see
/// `Journal`), so every probe starts from the root tableau;
/// [`RootProbe::fix`] leaves a pin behind as a permanent patch instead.
///
/// A probe runs cold, through [`solve_with_bounds_scratch`], only where
/// the tableau cannot take it: when the pin moves a lower bound through an
/// equality row (which has no slack column to read `B⁻¹eᵢ` from), when the
/// root basis holds an artificial, or when the dual simplex fails
/// numerically or hits the iteration cap. The warm and cold probes solve
/// the same LP, so their optimal objectives agree up to rounding.
pub struct RootProbe<'a> {
    model: &'a Model,
    options: SimplexOptions,
    /// Holds the root tableau while `warm` is `Some`.
    scratch: &'a mut SimplexScratch,
    /// The root bounds with every fix applied.
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Row layout of the resident root tableau; `None` sends every probe
    /// cold.
    warm: Option<RootRows>,
    /// Scratch of the cold probes taken while the root tableau is resident.
    cold: SimplexScratch,
    counts: ProbeCounts,
}

/// Where a bound change of each variable lands in the root tableau.
struct RootRows {
    /// Bound row of each variable ([`NO_ROW`] for an infinite width).
    bound_row: Vec<usize>,
    /// The constraint rows holding each variable, as `(row, relation,
    /// coefficient)` in row order.
    held: Vec<Vec<(usize, Relation, f64)>>,
    /// Columns the dual simplex may not enter: the structural and
    /// bound-row slack columns of every pinned variable, which are zero in
    /// every feasible point. Entering one is a wasted pivot, and a cold
    /// build folds them out.
    frozen: Vec<bool>,
}

impl RootRows {
    /// The layout of `scratch`'s tableau when it is the resident root of
    /// `model` at `lower`/`upper` with no artificial basic.
    fn new(
        model: &Model,
        lower: &[f64],
        upper: &[f64],
        scratch: &SimplexScratch,
    ) -> Option<RootRows> {
        let t = &scratch.t;
        let n = model.num_vars();
        let mut m = model.num_constraints();
        let mut bound_row = vec![NO_ROW; n];
        for (j, row) in bound_row.iter_mut().enumerate() {
            if (upper[j] - lower[j]).is_finite() {
                *row = m;
                m += 1;
            }
        }
        if !scratch.root_resident
            || t.n != n
            || t.m != m
            || t.basis[..m].iter().any(|&b| b >= t.art0)
        {
            return None;
        }
        let mut held = vec![Vec::new(); n];
        for (i, c) in model.constraints().iter().enumerate() {
            for (v, k) in c.expr.iter_terms() {
                if k != 0.0 {
                    held[v.index()].push((i, c.relation, k));
                }
            }
        }
        let mut rows = RootRows {
            bound_row,
            held,
            frozen: vec![false; t.art0],
        };
        for j in 0..n {
            rows.freeze(j, is_fixed(lower[j], upper[j]));
        }
        Some(rows)
    }

    /// Marks variable `j`'s columns (structural and bound-row slack) as
    /// frozen or movable.
    fn freeze(&mut self, j: usize, frozen: bool) {
        let n = self.bound_row.len();
        self.frozen[j] = frozen;
        if self.bound_row[j] != NO_ROW {
            self.frozen[n + self.bound_row[j]] = frozen;
        }
    }

    /// Moves variable `j`'s bounds from `from` to `to` by patching `t`'s
    /// right-hand sides: its bound row takes the change of width, and when
    /// the lower bound moves, every constraint row holding `j` takes the
    /// shift. Returns `false`, leaving `t` untouched, when a row the move
    /// must patch has no slack column (an equality row, or no bound row).
    fn patch(&self, t: &mut Tableau, j: usize, from: (f64, f64), to: (f64, f64)) -> bool {
        let shift = to.0 - from.0;
        let widen = (to.1 - to.0) - (from.1 - from.0);
        let held = &self.held[j];
        let shift_ok = shift == 0.0
            || (shift.is_finite()
                && held
                    .iter()
                    .all(|&(_, relation, _)| relation != Relation::Eq));
        let widen_ok = widen == 0.0 || (widen.is_finite() && self.bound_row[j] != NO_ROW);
        if !(shift_ok && widen_ok) {
            return false;
        }
        if shift != 0.0 {
            for &(i, relation, k) in held {
                let sign = if relation == Relation::Le { 1.0 } else { -1.0 };
                t.shift_rhs(i, sign, -k * shift);
            }
        }
        if widen != 0.0 {
            t.shift_rhs(self.bound_row[j], 1.0, widen);
        }
        true
    }
}

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
        let warm = RootRows::new(model, lower, upper, scratch);
        RootProbe {
            model,
            options,
            scratch,
            lower: lower.to_vec(),
            upper: upper.to_vec(),
            warm,
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
    /// nonbasic at its lower bound and `value` lies above, or of its
    /// bound-row slack when `var` is nonbasic at its upper bound and
    /// `value` lies below, times the distance moved. Every other case — a
    /// basic `var`, or no resident tableau — reads `0.0`.
    ///
    /// The bound holds because every column of the tableau is nonnegative
    /// and every reduced cost at the optimum is too: the objective of any
    /// feasible point is the root's plus `Σ dₖ·xₖ` over the nonbasic
    /// columns.
    #[must_use]
    pub fn reduced_cost(&self, var: VarId, value: f64) -> f64 {
        let Some(rows) = &self.warm else {
            return 0.0;
        };
        let t = &self.scratch.t;
        let j = var.index();
        let (l, u) = (self.lower[j], self.upper[j]);
        let basic = |c: usize| t.basis[..t.m].contains(&c);
        if value > l && !basic(j) {
            return t.obj[j] * (value - l);
        }
        let b = rows.bound_row[j];
        if value < u && b != NO_ROW && !basic(t.n + b) {
            return t.obj[t.n + b] * (u - value);
        }
        0.0
    }

    /// Solves the LP relaxation with `var` pinned to `value` on top of the
    /// current bounds: warm on the root tableau, which is then restored, or
    /// cold where the tableau cannot take the pin (see [`RootProbe`]).
    ///
    /// # Errors
    ///
    /// [`IlpError::Infeasible`] when the pin leaves the LP infeasible, and
    /// the errors of [`solve_with_bounds_scratch`] from a cold probe.
    pub fn probe(&mut self, var: VarId, value: f64) -> Result<LpSolution, IlpError> {
        let j = var.index();
        if let Some(result) = self.probe_warm(j, value) {
            self.counts.warm += 1;
            return result;
        }
        self.counts.cold += 1;
        let saved = (self.lower[j], self.upper[j]);
        (self.lower[j], self.upper[j]) = (value, value);
        // The cold solve rebuilds its scratch, so it must not run in the
        // one holding a live root tableau.
        let scratch = if self.warm.is_some() {
            &mut self.cold
        } else {
            &mut *self.scratch
        };
        let result =
            solve_with_bounds_scratch(self.model, &self.lower, &self.upper, self.options, scratch);
        (self.lower[j], self.upper[j]) = saved;
        result
    }

    /// The warm probe: patch, dual simplex, undo. `None` when the probe
    /// must run cold instead.
    fn probe_warm(&mut self, j: usize, value: f64) -> Option<Result<LpSolution, IlpError>> {
        let rows = self.warm.as_mut()?;
        let options = self.options;
        let SimplexScratch { t, ops, .. } = &mut *self.scratch;
        t.begin_probe();
        let from = (self.lower[j], self.upper[j]);
        if !rows.patch(t, j, from, (value, value)) {
            t.undo_probe();
            return None;
        }
        rows.freeze(j, true);
        let mut iters = 0usize;
        // The dual simplex keeps every movable column's reduced cost
        // nonnegative, and the frozen ones are pinned at zero, so the
        // vertex it stops at is optimal.
        let result = match run_dual_simplex(t, &mut iters, options, ops, &rows.frozen) {
            Ok(()) => {
                let mut values = self.lower.clone();
                values[j] = value;
                for (r, &c) in t.basis[..t.m].iter().enumerate() {
                    if c < t.n {
                        values[c] += t.rhs[r];
                    }
                }
                Some(Ok(LpSolution {
                    objective: self.model.objective().eval(&values),
                    values,
                    iterations: iters,
                }))
            }
            Err(IlpError::Infeasible) => Some(Err(IlpError::Infeasible)),
            Err(_) => None,
        };
        rows.freeze(j, is_fixed(from.0, from.1));
        t.undo_probe();
        result
    }

    /// Pins `var` to `value` for the rest of the probing (and in the bounds
    /// [`RootProbe::finish`] returns), as a permanent right-hand-side patch
    /// of the root tableau. Branch-and-bound pins a binary at its root LP
    /// value, which keeps the root vertex feasible and optimal. A pin the
    /// tableau cannot take sends every later probe cold.
    pub fn fix(&mut self, var: VarId, value: f64) {
        let j = var.index();
        let from = (self.lower[j], self.upper[j]);
        if let Some(rows) = &mut self.warm {
            if rows.patch(&mut self.scratch.t, j, from, (value, value)) {
                rows.freeze(j, true);
            } else {
                self.warm = None;
            }
        }
        (self.lower[j], self.upper[j]) = (value, value);
    }

    /// Ends probing: returns the bounds with every fix applied, and charges
    /// the cold probes' simplex counters to the root scratch.
    #[must_use]
    pub fn finish(self) -> (Vec<f64>, Vec<f64>) {
        // Node LPs reuse the scratch and never journal: hand the log's
        // buffers back rather than carry them through the tree search.
        self.scratch.t.journal = Journal::default();
        self.scratch.ops.merge(self.cold.ops);
        (self.lower, self.upper)
    }
}

/// Ratio test over column `e`: the row with the smallest `rhs / a` over
/// `a > EPS`, ties (within `EPS`) to the lowest basic column. Rows are
/// visited in row order, as a dense scan down the column would.
///
/// # Errors
///
/// [`IlpError::NumericalInstability`] on a NaN cell or ratio when
/// `nan_checks` is on.
fn ratio_test(
    t: &mut Tableau,
    e: usize,
    nan_checks: bool,
) -> Result<Option<(usize, f64)>, IlpError> {
    t.sort_col(e);
    let t = &*t;
    let mut leave: Option<(usize, f64)> = None;
    for &r in &t.cols[e] {
        let a = t.at(r, e);
        if nan_checks && a.is_nan() {
            return Err(IlpError::NumericalInstability {
                context: "pivot-column scan",
            });
        }
        if a > EPS {
            let ratio = t.rhs[r] / a;
            if nan_checks && ratio.is_nan() {
                return Err(IlpError::NumericalInstability {
                    context: "ratio test",
                });
            }
            match leave {
                None => leave = Some((r, ratio)),
                Some((lr, lratio)) => {
                    if ratio < lratio - EPS
                        || ((ratio - lratio).abs() <= EPS && t.basis[r] < t.basis[lr])
                    {
                        leave = Some((r, ratio));
                    }
                }
            }
        }
    }
    Ok(leave)
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
fn lex_canonicalize(
    t: &mut Tableau,
    iters: &mut usize,
    options: SimplexOptions,
    ops: &mut SimplexOps,
) {
    let (n, m, art0) = (t.n, t.m, t.art0);
    // Columns allowed to enter: zero reduced cost under the (already
    // optimal) phase-2 objective. Basic columns price to exactly zero, so
    // the filter naturally keeps them eligible to re-enter after leaving.
    let mut allowed: Vec<bool> = t
        .obj
        .iter()
        .map(|c| c.abs() <= options.objective_tol)
        .collect();
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
        let Some(rj) = (0..m).find(|&r| t.basis[r] == j) else {
            // Nonbasic ⇒ already at its (shifted) lower bound, the lex
            // minimum. Forbid it from entering so later phases keep it there.
            allowed[j] = false;
            continue;
        };
        // Secondary objective e_j priced out against the basis: minimising
        // it minimises the basic value x_j without touching the phase-2
        // objective (pivots are restricted to its zero-reduced-cost columns).
        s.fill(0.0);
        for &(c, v) in &t.rows[rj] {
            s[c] = -v;
        }
        s[j] = 0.0;
        loop {
            if *iters >= options.max_iterations {
                return; // give up canonicalising, the vertex is still optimal
            }
            let entering = (0..art0).find(|&e| allowed[e] && s[e] < -EPS);
            let Some(e) = entering else { break };
            let Ok(Some((lr, _))) = ratio_test(t, e, false) else {
                break;
            };
            *iters += 1;
            t.pivot(lr, e);
            ops.lex_pivots += 1;
            // Keep the secondary row priced out against the new basis.
            let factor = s[e];
            if factor != 0.0 {
                for &(c, v) in &t.rows[lr] {
                    s[c] -= factor * v;
                }
            }
        }
        // Lock x_j: any column that would move it again is banned from
        // entering in later phases.
        for (e, ok) in allowed.iter_mut().enumerate() {
            if *ok && s[e].abs() > options.objective_tol {
                *ok = false;
            }
        }
    }
}

/// Runs dual-simplex iterations until primal feasibility is restored.
///
/// Requires a dual-feasible cost row. The leaving row is the most negative
/// rhs (ties to the lowest row index); the entering column minimises the
/// dual ratio `|reduced cost / pivot|` over the row's negative entries
/// (ties to the lowest column index — Bland-style, for determinism),
/// skipping the columns marked in `frozen` (shorter than the row: none),
/// which the caller knows to be zero in every feasible point. Returns
/// [`IlpError::Infeasible`] when a negative row has no negative entry in
/// a movable column; [`try_warm_solve`] treats that as a fallback trigger,
/// a [`RootProbe`] as a verdict.
fn run_dual_simplex(
    t: &mut Tableau,
    iters: &mut usize,
    options: SimplexOptions,
    ops: &mut SimplexOps,
    frozen: &[bool],
) -> Result<(), IlpError> {
    let movable = |j: usize| frozen.get(j) != Some(&true);
    loop {
        *iters += 1;
        if *iters > options.max_iterations {
            return Err(IlpError::IterationLimit {
                limit: options.max_iterations,
            });
        }
        let mut leave: Option<(usize, f64)> = None;
        for (r, &v) in t.rhs.iter().enumerate() {
            if v.is_nan() {
                return Err(IlpError::NumericalInstability {
                    context: "dual leaving-row selection",
                });
            }
            if v < -options.feasibility_tol && leave.is_none_or(|(_, best)| v < best) {
                leave = Some((r, v));
            }
        }
        let Some((lr, _)) = leave else {
            return Ok(()); // primal feasible
        };
        let mut enter: Option<(usize, f64)> = None;
        for &(j, a) in &t.rows[lr] {
            if a < -EPS && movable(j) {
                let ratio = t.obj[j] / -a;
                if ratio.is_nan() {
                    return Err(IlpError::NumericalInstability {
                        context: "dual ratio test",
                    });
                }
                if enter.is_none_or(|(ej, best)| {
                    ratio < best - EPS || ((ratio - best).abs() <= EPS && j < ej)
                }) {
                    enter = Some((j, ratio));
                }
            }
        }
        let Some((e, _)) = enter else {
            return Err(IlpError::Infeasible);
        };
        t.pivot(lr, e);
        ops.dual_pivots += 1;
    }
}

/// The entering column of a primal pivot over the reduced costs `obj`:
/// the most negative cost below `-EPS`, ties to the lowest index
/// (Dantzig), or with `bland` the lowest index below `-EPS`. `None` when
/// no cost is below `-EPS`.
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
fn price(obj: &[f64], bland: bool) -> Result<Option<usize>, IlpError> {
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
        obj.iter().position(|&c| c < -EPS)
    } else {
        obj.iter().position(|&c| c == min)
    })
}

/// Runs primal simplex iterations on the tableau until optimality.
///
/// The entering column follows Dantzig's rule — most negative reduced
/// cost, ties to the lowest index — until
/// [`SimplexOptions::bland_stall`] consecutive degenerate pivots, after
/// which Bland's rule (lowest negative index) takes over until the
/// objective improves again. The ratio test breaks ties on the lowest
/// basis index throughout. Artificial columns never enter (they are not
/// stored). A NaN in the cost row, the pivot column or a ratio is reported
/// as [`IlpError::NumericalInstability`] instead of being silently skipped
/// by the comparisons.
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
        if *iters > options.max_iterations {
            return Err(IlpError::IterationLimit {
                limit: options.max_iterations,
            });
        }
        let Some(e) = price(&t.obj, bland)? else {
            return Ok(()); // optimal
        };
        let Some((lr, lratio)) = ratio_test(t, e, true)? else {
            return Err(IlpError::Unbounded);
        };
        // Degenerate-stall accounting: a zero-ratio pivot leaves the
        // objective unchanged. A long enough streak arms Bland's rule; any
        // objective movement re-arms Dantzig.
        if lratio <= EPS {
            stall += 1;
            if !bland && stall > options.bland_stall {
                bland = true;
                ops.bland_activations += 1;
            }
        } else {
            stall = 0;
            bland = false;
        }
        t.pivot(lr, e);
        match phase {
            PrimalPhase::One => ops.phase1_pivots += 1,
            PrimalPhase::Two => ops.phase2_pivots += 1,
        }
    }
}

/// Checks a fully pinned assignment against the model's constraints.
fn feasible_point(model: &Model, values: &[f64], tol: f64) -> bool {
    model.constraints().iter().all(|c| {
        let lhs = c.expr.eval(values);
        match c.relation {
            Relation::Le => lhs <= c.rhs + tol,
            Relation::Ge => lhs >= c.rhs - tol,
            Relation::Eq => (lhs - c.rhs).abs() <= tol,
        }
    })
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

    /// A phase-1 residual of 1e-8 sits between the old ad-hoc thresholds
    /// (infeasibility cut-off 1e-6, objective snap 1e-9). With the default
    /// feasibility tolerance the point passes as feasible; tightening the
    /// tolerance below the residual flips the verdict to infeasible — the
    /// decision now belongs to [`SimplexOptions`], not a buried literal.
    #[test]
    fn feasibility_tolerance_decides_boundary_phase1_exit() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 0.0, 1.0);
        m.set_objective([(x, 1.0)]);
        // Requires x >= 1 + 1e-8 while x <= 1: violated by exactly 1e-8.
        m.add_constraint([(x, 1.0)], Relation::Ge, 1.0 + 1e-8)
            .unwrap();
        let lax = solve_relaxation(&m, SimplexOptions::default()).unwrap();
        approx(lax.value(x), 1.0);
        let tight = SimplexOptions::default().with_feasibility_tol(1e-9);
        assert_eq!(solve_relaxation(&m, tight), Err(IlpError::Infeasible));
        // The same knob governs the fully pinned fast path.
        assert!(solve_with_bounds(&m, &[1.0], &[1.0], SimplexOptions::default()).is_ok());
        assert_eq!(
            solve_with_bounds(&m, &[1.0], &[1.0], tight),
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

    #[test]
    fn poisoned_options_are_a_typed_error() {
        let (m, _, _) = gain_model();
        for (name, opts) in [
            (
                "feasibility_tol",
                SimplexOptions {
                    feasibility_tol: f64::NAN,
                    ..SimplexOptions::default()
                },
            ),
            (
                "pivot_tol",
                SimplexOptions {
                    pivot_tol: -1e-9,
                    ..SimplexOptions::default()
                },
            ),
            (
                "objective_tol",
                SimplexOptions {
                    objective_tol: f64::INFINITY,
                    ..SimplexOptions::default()
                },
            ),
        ] {
            let got = solve_relaxation(&m, opts);
            match got {
                Err(IlpError::InvalidTolerance { name: got_name, .. }) => {
                    assert_eq!(got_name, name);
                }
                other => panic!("{name}: expected InvalidTolerance, got {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "feasibility_tol")]
    fn builder_rejects_nan_tolerance_at_construction() {
        let _ = SimplexOptions::default().with_feasibility_tol(f64::NAN);
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

    /// Rows, column lists, right-hand sides and reduced costs, as bits.
    type TableauBits = (Vec<Vec<(usize, u64)>>, Vec<Vec<usize>>, Vec<u64>, Vec<u64>);

    /// Everything a probe may touch, bit for bit.
    fn tableau_bits(t: &Tableau) -> TableauBits {
        (
            t.rows[..t.m]
                .iter()
                .map(|row| row.iter().map(|&(c, v)| (c, v.to_bits())).collect())
                .collect(),
            t.cols[..t.art0].to_vec(),
            t.rhs
                .iter()
                .chain([&t.obj_rhs])
                .map(|v| v.to_bits())
                .collect(),
            t.obj.iter().map(|v| v.to_bits()).collect(),
        )
    }

    /// Warm probes pivot on the root tableau and undo from the journal:
    /// afterwards every row, column list (order included), right-hand
    /// side, reduced cost and basic column is exactly as the root solve
    /// left it.
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
        let before = tableau_bits(&scratch.t);
        let basis_before = scratch.t.basis.clone();
        let dual_before = scratch.ops().dual_pivots;
        let mut prober = RootProbe::new(&m, &lower, &upper, opts, &mut scratch);
        for (j, &x) in root.solution.values.iter().enumerate() {
            for value in [0.0, 1.0] {
                if (value - x).abs() > 1e-9 {
                    let _ = prober.probe(VarId(j), value);
                }
            }
        }
        assert_eq!(prober.counts().cold, 0);
        assert!(prober.counts().warm >= 5, "{:?}", prober.counts());
        let _ = prober.finish();
        assert!(scratch.ops().dual_pivots > dual_before, "probes must pivot");
        assert_eq!(tableau_bits(&scratch.t), before);
        assert_eq!(scratch.t.basis, basis_before);
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
