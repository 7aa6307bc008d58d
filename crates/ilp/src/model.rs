//! Optimisation model: variables, constraints, objective.

use std::borrow::Cow;
use std::fmt;

use crate::{IlpError, LinExpr};

/// Identifier of a model variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub usize);

impl VarId {
    /// Raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Variable domain kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarKind {
    /// Continuous in `[lower, upper]`.
    Continuous,
    /// Binary (`{0, 1}`).
    Binary,
}

/// Optimisation direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    /// Minimise the objective.
    Minimize,
    /// Maximise the objective.
    Maximize,
}

/// Constraint relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// `expr ≤ rhs`.
    Le,
    /// `expr ≥ rhs`.
    Ge,
    /// `expr = rhs`.
    Eq,
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Relation::Le => "<=",
            Relation::Ge => ">=",
            Relation::Eq => "=",
        })
    }
}

/// A variable name or a row label: text, or a static prefix followed by
/// a number, which is rendered only when the name is read. A formulation
/// with hundreds of columns names each one by its index without formatting
/// a string per column.
///
/// # Example
///
/// ```
/// use partita_ilp::Name;
/// assert_eq!(Name::Numbered("x_imp", 7).to_string(), "x_imp7");
/// assert_eq!(Name::from("cover"), Name::Text("cover".into()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Name {
    /// Fixed text, borrowed when it is static.
    Text(Cow<'static, str>),
    /// `prefix` followed by `number` in decimal.
    Numbered(&'static str, u64),
}

impl Name {
    /// The name as text: borrowed for [`Name::Text`], rendered for
    /// [`Name::Numbered`].
    #[must_use]
    pub fn render(&self) -> Cow<'_, str> {
        match self {
            Name::Text(text) => Cow::Borrowed(text),
            Name::Numbered(prefix, number) => Cow::Owned(format!("{prefix}{number}")),
        }
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Name::Text(text) => f.write_str(text),
            Name::Numbered(prefix, number) => write!(f, "{prefix}{number}"),
        }
    }
}

impl From<&'static str> for Name {
    fn from(text: &'static str) -> Name {
        Name::Text(Cow::Borrowed(text))
    }
}

impl From<String> for Name {
    fn from(text: String) -> Name {
        Name::Text(Cow::Owned(text))
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct VarDef {
    pub name: Name,
    pub kind: VarKind,
    pub lower: f64,
    pub upper: f64,
}

/// A linear constraint `expr (≤|≥|=) rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstraintDef {
    /// Left-hand side expression (constant folded into `rhs`).
    pub expr: LinExpr,
    /// Relation.
    pub relation: Relation,
    /// Right-hand side.
    pub rhs: f64,
    /// Optional label for diagnostics.
    pub label: Option<Name>,
}

/// A mixed binary/continuous linear model.
///
/// # Example
///
/// ```
/// use partita_ilp::{Model, Sense, Relation};
/// # fn main() -> Result<(), partita_ilp::IlpError> {
/// let mut m = Model::new(Sense::Minimize);
/// let x = m.add_binary("x");
/// m.set_objective([(x, 1.0)]);
/// m.add_constraint([(x, 1.0)], Relation::Ge, 1.0)?;
/// assert_eq!(m.num_vars(), 1);
/// assert_eq!(m.num_constraints(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    sense: Sense,
    vars: Vec<VarDef>,
    constraints: Vec<ConstraintDef>,
    objective: LinExpr,
}

impl Model {
    /// Creates an empty model with the given optimisation sense.
    #[must_use]
    pub fn new(sense: Sense) -> Model {
        Model {
            sense,
            vars: Vec::new(),
            constraints: Vec::new(),
            objective: LinExpr::new(),
        }
    }

    /// Optimisation sense.
    #[must_use]
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Adds a binary variable.
    pub fn add_binary(&mut self, name: impl Into<Name>) -> VarId {
        let id = VarId(self.vars.len());
        self.vars.push(VarDef {
            name: name.into(),
            kind: VarKind::Binary,
            lower: 0.0,
            upper: 1.0,
        });
        id
    }

    /// Adds a continuous variable bounded to `[lower, upper]`.
    ///
    /// # Panics
    ///
    /// Panics if `lower > upper` or either bound is NaN.
    pub fn add_continuous(&mut self, name: impl Into<Name>, lower: f64, upper: f64) -> VarId {
        assert!(
            !lower.is_nan() && !upper.is_nan() && lower <= upper,
            "invalid bounds [{lower}, {upper}]"
        );
        let id = VarId(self.vars.len());
        self.vars.push(VarDef {
            name: name.into(),
            kind: VarKind::Continuous,
            lower,
            upper,
        });
        id
    }

    /// Number of variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    #[must_use]
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Variable kind.
    ///
    /// # Errors
    ///
    /// Returns [`IlpError::UnknownVariable`] for out-of-range ids.
    pub fn var_kind(&self, var: VarId) -> Result<VarKind, IlpError> {
        self.vars
            .get(var.index())
            .map(|v| v.kind)
            .ok_or(IlpError::UnknownVariable(var))
    }

    /// Variable name, rendered if it is a [`Name::Numbered`].
    ///
    /// # Errors
    ///
    /// Returns [`IlpError::UnknownVariable`] for out-of-range ids.
    pub fn var_name(&self, var: VarId) -> Result<Cow<'_, str>, IlpError> {
        self.vars
            .get(var.index())
            .map(|v| v.name.render())
            .ok_or(IlpError::UnknownVariable(var))
    }

    /// Variable bounds `(lower, upper)`.
    ///
    /// # Errors
    ///
    /// Returns [`IlpError::UnknownVariable`] for out-of-range ids.
    pub fn var_bounds(&self, var: VarId) -> Result<(f64, f64), IlpError> {
        self.vars
            .get(var.index())
            .map(|v| (v.lower, v.upper))
            .ok_or(IlpError::UnknownVariable(var))
    }

    /// Ids of all binary variables.
    #[must_use]
    pub fn binary_vars(&self) -> Vec<VarId> {
        self.vars
            .iter()
            .enumerate()
            .filter(|(_, v)| v.kind == VarKind::Binary)
            .map(|(i, _)| VarId(i))
            .collect()
    }

    /// Sets the objective expression.
    pub fn set_objective(&mut self, terms: impl IntoIterator<Item = (VarId, f64)>) {
        self.objective = terms.into_iter().collect();
    }

    /// Sets the objective from a prebuilt expression.
    pub fn set_objective_expr(&mut self, expr: LinExpr) {
        self.objective = expr;
    }

    /// The objective expression.
    #[must_use]
    pub fn objective(&self) -> &LinExpr {
        &self.objective
    }

    /// Adds a constraint `Σ terms (≤|≥|=) rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`IlpError::UnknownVariable`] if a term references a missing
    /// variable, or [`IlpError::NonFiniteCoefficient`] for NaN/∞ data.
    pub fn add_constraint(
        &mut self,
        terms: impl IntoIterator<Item = (VarId, f64)>,
        relation: Relation,
        rhs: f64,
    ) -> Result<(), IlpError> {
        self.add_labeled_constraint(terms, relation, rhs, None::<Name>)
    }

    /// Adds a constraint with a diagnostic label.
    ///
    /// # Errors
    ///
    /// Same as [`Model::add_constraint`].
    pub fn add_labeled_constraint(
        &mut self,
        terms: impl IntoIterator<Item = (VarId, f64)>,
        relation: Relation,
        rhs: f64,
        label: Option<impl Into<Name>>,
    ) -> Result<(), IlpError> {
        let expr: LinExpr = terms.into_iter().collect();
        for (v, c) in expr.iter_terms() {
            if v.index() >= self.vars.len() {
                return Err(IlpError::UnknownVariable(v));
            }
            if !c.is_finite() {
                return Err(IlpError::NonFiniteCoefficient {
                    context: "constraint",
                    value: c,
                });
            }
        }
        if !rhs.is_finite() {
            return Err(IlpError::NonFiniteCoefficient {
                context: "constraint rhs",
                value: rhs,
            });
        }
        self.constraints.push(ConstraintDef {
            expr,
            relation,
            rhs,
            label: label.map(Into::into),
        });
        Ok(())
    }

    /// All constraints.
    #[must_use]
    pub fn constraints(&self) -> &[ConstraintDef] {
        &self.constraints
    }

    /// Overwrites a variable's bounds in place.
    ///
    /// Retiring a column pins it to `[0, 0]`, re-enabling it restores
    /// `[0, 1]`, with the row/column shape of the model untouched.
    ///
    /// # Errors
    ///
    /// [`IlpError::UnknownVariable`] for out-of-range ids, or
    /// [`IlpError::NonFiniteCoefficient`] when `lower` is not finite, either
    /// bound is NaN, or `lower > upper`.
    pub fn set_var_bounds(&mut self, var: VarId, lower: f64, upper: f64) -> Result<(), IlpError> {
        if !lower.is_finite() || upper.is_nan() || lower > upper {
            return Err(IlpError::NonFiniteCoefficient {
                context: "variable bounds",
                value: if lower.is_finite() { upper } else { lower },
            });
        }
        let def = self
            .vars
            .get_mut(var.index())
            .ok_or(IlpError::UnknownVariable(var))?;
        def.lower = lower;
        def.upper = upper;
        Ok(())
    }

    /// Overwrites a constraint's right-hand side in place.
    ///
    /// The patch hook of the incremental layer: a required-gain retarget is
    /// a pure RHS edit on the path's gain row, leaving every coefficient
    /// unchanged.
    ///
    /// # Errors
    ///
    /// [`IlpError::UnknownConstraint`] for out-of-range indices, or
    /// [`IlpError::NonFiniteCoefficient`] for a non-finite `rhs`.
    pub fn set_constraint_rhs(&mut self, index: usize, rhs: f64) -> Result<(), IlpError> {
        if !rhs.is_finite() {
            return Err(IlpError::NonFiniteCoefficient {
                context: "constraint rhs",
                value: rhs,
            });
        }
        let c = self
            .constraints
            .get_mut(index)
            .ok_or(IlpError::UnknownConstraint(index))?;
        c.rhs = rhs;
        Ok(())
    }

    /// Checks a full assignment against every constraint and the variable
    /// domains, within [`crate::FEAS_TOL`].
    #[must_use]
    pub fn is_feasible(&self, values: &[f64]) -> bool {
        self.in_domain(values) && self.violated_row(values).is_none()
    }

    /// Whether a full assignment lies in the variable domains, within
    /// [`crate::FEAS_TOL`].
    pub(crate) fn in_domain(&self, values: &[f64]) -> bool {
        let tol = crate::FEAS_TOL;
        if values.len() != self.vars.len() {
            return false;
        }
        !values.iter().zip(&self.vars).any(|(v, def)| {
            *v < def.lower - tol
                || *v > def.upper + tol
                || (def.kind == VarKind::Binary && (v - v.round()).abs() > tol)
        })
    }

    /// The first constraint `values` violates, as [`Model::is_feasible`]
    /// checks them.
    pub(crate) fn violated_row(&self, values: &[f64]) -> Option<usize> {
        self.constraints.iter().position(|c| !c.holds(values))
    }
}

impl ConstraintDef {
    /// Whether the row holds at `values`, within [`crate::FEAS_TOL`].
    pub(crate) fn holds(&self, values: &[f64]) -> bool {
        let tol = crate::FEAS_TOL;
        let lhs = self.expr.eval(values);
        match self.relation {
            Relation::Le => lhs <= self.rhs + tol,
            Relation::Ge => lhs >= self.rhs - tol,
            Relation::Eq => (lhs - self.rhs).abs() <= tol,
        }
    }
}

/// A model's rows and objective as flat arrays, built once per search.
///
/// Branch-and-bound reads every row at every node: its pin pass, the
/// folded tableau build and the cost-row install. Here the rows' terms
/// sit back to back in one buffer, with each row's relation and its
/// `rhs − constant` (the subtraction the build makes, taken once) beside
/// them, so those passes stride through arrays instead of walking the
/// model's rows, and read the objective by index instead of searching it.
#[derive(Debug)]
pub(crate) struct FlatModel<'a> {
    /// The model flattened, for everything off the node path.
    pub model: &'a Model,
    /// Row `r`'s `(variable, coefficient)` terms are
    /// `terms[start[r]..start[r + 1]]`, in variable order.
    start: Vec<usize>,
    terms: Vec<(usize, f64)>,
    /// Relation per row.
    pub relation: Vec<Relation>,
    /// `rhs − constant` per row.
    pub rhs: Vec<f64>,
    /// Objective coefficient per variable in minimisation sense: negated
    /// when the model maximises, `0.0` where the objective has no term.
    pub cost: Vec<f64>,
}

impl<'a> FlatModel<'a> {
    /// Flattens `model`.
    pub fn new(model: &'a Model) -> FlatModel<'a> {
        let rows = model.constraints.len();
        let mut flat = FlatModel {
            model,
            start: Vec::with_capacity(rows + 1),
            terms: Vec::with_capacity(
                model
                    .constraints
                    .iter()
                    .map(|c| c.expr.iter_terms().len())
                    .sum(),
            ),
            relation: Vec::with_capacity(rows),
            rhs: Vec::with_capacity(rows),
            cost: vec![0.0; model.vars.len()],
        };
        flat.start.push(0);
        for c in &model.constraints {
            flat.terms
                .extend(c.expr.iter_terms().map(|(v, k)| (v.index(), k)));
            flat.start.push(flat.terms.len());
            flat.relation.push(c.relation);
            flat.rhs.push(c.rhs - c.expr.constant());
        }
        let minimize = model.sense == Sense::Minimize;
        for (v, c) in model.objective.iter_terms() {
            flat.cost[v.index()] = if minimize { c } else { -c };
        }
        flat
    }

    /// Row `r`'s terms.
    #[inline]
    pub fn row(&self, r: usize) -> &[(usize, f64)] {
        &self.terms[self.start[r]..self.start[r + 1]]
    }
}

impl fmt::Display for Model {
    /// Renders the model in an LP-like text format for debugging:
    ///
    /// ```text
    /// minimize 3 x0 + 2 x1
    /// s.t.
    ///   c0: 1 x0 + 1 x1 >= 1
    /// binaries: x0 x1
    /// ```
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sense = match self.sense {
            Sense::Minimize => "minimize",
            Sense::Maximize => "maximize",
        };
        writeln!(f, "{sense} {}", self.objective)?;
        writeln!(f, "s.t.")?;
        for (i, c) in self.constraints.iter().enumerate() {
            let label = c.label.as_ref().map(Name::render).unwrap_or_default();
            writeln!(
                f,
                "  c{i}{}{label}: {} {} {}",
                if label.is_empty() { "" } else { ":" },
                c.expr,
                c.relation,
                c.rhs
            )?;
        }
        let binaries: Vec<String> = self.binary_vars().iter().map(ToString::to_string).collect();
        if !binaries.is_empty() {
            writeln!(f, "binaries: {}", binaries.join(" "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_variable_in_constraint_rejected() {
        let mut m = Model::new(Sense::Minimize);
        let err = m
            .add_constraint([(VarId(3), 1.0)], Relation::Le, 1.0)
            .unwrap_err();
        assert_eq!(err, IlpError::UnknownVariable(VarId(3)));
    }

    #[test]
    fn nan_rhs_rejected() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_binary("x");
        assert!(matches!(
            m.add_constraint([(x, 1.0)], Relation::Le, f64::NAN),
            Err(IlpError::NonFiniteCoefficient { .. })
        ));
    }

    #[test]
    fn feasibility_checks_domains() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_binary("x");
        m.add_constraint([(x, 1.0)], Relation::Le, 1.0).unwrap();
        assert!(m.is_feasible(&[1.0]));
        assert!(!m.is_feasible(&[0.5])); // not integral
        assert!(!m.is_feasible(&[2.0])); // out of bounds
        assert!(!m.is_feasible(&[])); // wrong arity
    }

    #[test]
    fn binary_vars_listed() {
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary("a");
        let _c = m.add_continuous("c", 0.0, 5.0);
        let b = m.add_binary("b");
        assert_eq!(m.binary_vars(), vec![a, b]);
        assert_eq!(m.var_kind(a).unwrap(), VarKind::Binary);
        assert_eq!(m.var_name(b).unwrap(), "b");
        assert_eq!(m.var_bounds(_c).unwrap(), (0.0, 5.0));
    }

    #[test]
    fn display_renders_lp_format() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.set_objective([(x, 3.0), (y, 2.0)]);
        m.add_labeled_constraint([(x, 1.0), (y, 1.0)], Relation::Ge, 1.0, Some("cover"))
            .unwrap();
        let text = m.to_string();
        assert!(text.starts_with("minimize"));
        assert!(text.contains(">= 1"));
        assert!(text.contains("cover"));
        assert!(text.contains("binaries: x0 x1"));
    }

    #[test]
    fn numbered_names_render_when_read() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_binary(Name::Numbered("x_imp", 7));
        let y = m.add_binary("y");
        m.add_labeled_constraint(
            [(x, 1.0), (y, 1.0)],
            Relation::Le,
            1.0,
            Some(Name::Numbered("one_imp_sc", 3)),
        )
        .unwrap();
        assert_eq!(m.var_name(x).unwrap(), "x_imp7");
        assert_eq!(m.var_name(y).unwrap(), "y");
        assert_eq!(
            m.constraints()[0].label,
            Some(Name::Numbered("one_imp_sc", 3))
        );
        assert!(m.to_string().contains("c0:one_imp_sc3: "));
    }

    #[test]
    #[should_panic(expected = "invalid bounds")]
    fn bad_bounds_panic() {
        let mut m = Model::new(Sense::Minimize);
        let _ = m.add_continuous("c", 2.0, 1.0);
    }
}
