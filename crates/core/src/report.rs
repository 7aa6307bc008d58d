//! Paper-style table rendering (Tables 1–3) and solve-trace reports.

use partita_ip::IpLibrary;
use partita_mop::Cycles;

use crate::{Selection, SolveTrace};

/// One row of a results table: a required gain and the selection found.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRow {
    /// The required gain (**RG** column).
    pub required_gain: Cycles,
    /// Rendered implementation methods.
    pub methods: String,
    /// Achieved gain (**G**).
    pub gain: Cycles,
    /// Total area (**A**), rendered with the paper's fractional style.
    pub area: String,
    /// S-instruction count (**S**).
    pub s_count: usize,
    /// Selected s-call count (**O**).
    pub o_count: usize,
}

impl TableRow {
    /// Builds a row from a solved selection.
    #[must_use]
    pub fn from_selection(required_gain: Cycles, selection: &Selection) -> TableRow {
        let mut methods: Vec<String> = selection
            .chosen()
            .iter()
            .map(|imp| format!("{imp}").replace("sc", "SC"))
            .collect();
        methods.sort();
        TableRow {
            required_gain,
            methods: methods.join(", "),
            gain: selection.total_gain(),
            area: selection.total_area().to_string(),
            s_count: selection.s_instruction_count(),
            o_count: selection.selected_scall_count(),
        }
    }

    /// Like [`TableRow::from_selection`], but renders each method's area the
    /// way the paper's tables do — interface area plus the areas of the IPs
    /// the method instantiates (`SC13: IP12,IF0,115037,3`).
    #[must_use]
    pub fn from_selection_with_library(
        required_gain: Cycles,
        selection: &Selection,
        library: &IpLibrary,
    ) -> TableRow {
        let mut methods: Vec<String> = selection
            .chosen()
            .iter()
            .map(|imp| {
                let ip_area: partita_mop::AreaTenths = imp
                    .ips
                    .iter()
                    .filter_map(|&ip| library.block(ip))
                    .map(|b| b.area())
                    .sum();
                let ips = imp
                    .ips
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("+");
                format!(
                    "SC{}: {ips},{},{},{}",
                    imp.scall.0,
                    imp.interface,
                    imp.gain.get(),
                    ip_area + imp.interface_area
                )
            })
            .collect();
        methods.sort();
        TableRow {
            required_gain,
            methods: methods.join(", "),
            gain: selection.total_gain(),
            area: selection.total_area().to_string(),
            s_count: selection.s_instruction_count(),
            o_count: selection.selected_scall_count(),
        }
    }
}

/// Renders rows as a fixed-width text table with the paper's column names.
#[must_use]
pub fn render_table(title: &str, rows: &[TableRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    out.push_str(&format!(
        "{:>10} | {:>10} | {:>6} | {:>2} | {:>2} | methods\n",
        "RG", "G", "A", "S", "O"
    ));
    out.push_str(&"-".repeat(100));
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:>10} | {:>10} | {:>6} | {:>2} | {:>2} | {}\n",
            r.required_gain.get(),
            r.gain.get(),
            r.area,
            r.s_count,
            r.o_count,
            r.methods
        ));
    }
    out
}

/// Renders a [`SolveTrace`] as a short human-readable block: backend and
/// status, model dimensions, search effort and per-phase wall times.
#[must_use]
pub fn render_trace(trace: &SolveTrace) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "solve: backend={} status={}\n",
        trace.backend, trace.status
    ));
    out.push_str(&format!(
        "model: {} vars, {} constraints, {} imps\n",
        trace.num_vars, trace.num_constraints, trace.num_imps
    ));
    out.push_str(&format!(
        "search: {} nodes explored, {} pruned, {} incumbent updates, {} simplex iterations{}\n",
        trace.nodes_explored,
        trace.nodes_pruned,
        trace.incumbent_updates,
        trace.simplex_iterations,
        if trace.warm_start_accepted {
            format!(
                ", warm-started ({} vars fixed by probing; probes: {} screened, {} warm, {} cold)",
                trace.vars_fixed, trace.probes_screened, trace.probes_warm, trace.probes_cold
            )
        } else {
            String::new()
        }
    ));
    out.push_str(&format!(
        "time: imp-gen {:?}, formulate {:?}, solve {:?}, decode {:?} (total {:?})\n",
        trace.imp_generation,
        trace.formulation,
        trace.solve,
        trace.decode,
        trace.total()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Imp, Instance, OptimalityStatus, ParallelChoice, Selection};
    use partita_interface::InterfaceKind;
    use partita_ip::IpId;
    use partita_mop::{AreaTenths, CallSiteId};

    #[test]
    fn row_rendering_matches_paper_style() {
        let inst = Instance::new("t");
        let chosen = vec![Imp::new(
            CallSiteId(13),
            vec![IpId(12)],
            InterfaceKind::Type0,
            Cycles(115_037),
            AreaTenths::from_units(3),
            ParallelChoice::None,
        )];
        let sel = Selection::from_chosen(&inst, chosen, 30.0, OptimalityStatus::Optimal);
        let row = TableRow::from_selection(Cycles(47_740), &sel);
        assert!(row.methods.contains("SC13: IP12,IF0,115037,3"));
        assert_eq!(row.gain, Cycles(115_037));
        assert_eq!(row.s_count, 1);
        assert_eq!(row.o_count, 1);
        let table = render_table("GSM encoder", &[row]);
        assert!(table.contains("RG"));
        assert!(table.contains("47740"));
    }

    #[test]
    fn library_aware_rendering_includes_ip_area() {
        use partita_ip::{IpBlock, IpFunction};
        let mut inst = Instance::new("t");
        inst.library.add(
            IpBlock::builder("st_filter")
                .function(IpFunction::Fir)
                .area(AreaTenths::from_units(3))
                .build(),
        );
        let chosen = vec![Imp::new(
            CallSiteId(13),
            vec![IpId(0)],
            InterfaceKind::Type0,
            Cycles(115_037),
            AreaTenths::ZERO,
            ParallelChoice::None,
        )];
        let sel = Selection::from_chosen(&inst, chosen, 30.0, OptimalityStatus::Optimal);
        let row = TableRow::from_selection_with_library(Cycles(47_740), &sel, &inst.library);
        // The paper's style: per-method area = IP area + interface area.
        assert!(
            row.methods.contains("SC13: IP0,IF0,115037,3"),
            "{}",
            row.methods
        );
    }

    #[test]
    fn empty_table() {
        let t = render_table("empty", &[]);
        assert!(t.contains("empty"));
    }

    #[test]
    fn trace_rendering_mentions_every_section() {
        let trace = SolveTrace {
            backend: crate::Backend::BranchBound,
            status: OptimalityStatus::FeasibleBudgetExhausted,
            num_vars: 5,
            nodes_explored: 7,
            warm_start_accepted: true,
            ..SolveTrace::default()
        };
        let t = render_trace(&trace);
        assert!(t.contains("backend=branch_bound"));
        assert!(t.contains("status=feasible_budget_exhausted"));
        assert!(t.contains("7 nodes explored"));
        assert!(t.contains("warm-started"));
        assert!(t.contains("total"));
    }
}
