//! Integration tests pinning the paper's headline claims, table by table
//! and figure by figure (the executable form of EXPERIMENTS.md).

use partita::core::{baseline, CoreError, RequiredGains, SolveOptions, Solver};
use partita::interface::InterfaceKind;
use partita::ip::IpId;
use partita::mop::{AreaTenths, CallSiteId, Cycles};
use partita::workloads::{gsm, jpeg, Workload};

fn solve(w: &Workload, rg: u64) -> partita::core::Selection {
    let options = SolveOptions::problem2(RequiredGains::uniform(Cycles(rg)));
    let sel = Solver::new(&w.instance)
        .with_imps(w.imps.clone())
        .solve(&options)
        .expect("published sweep point feasible");
    sel.verify(&w.instance, &options)
        .expect("solver output passes independent verification");
    sel
}

/// Table 1: areas of every row match the published values (±0.5 of the
/// fractional OCR ambiguity on the last row); gains match exactly from row
/// 3 up (rows 1–2 are area-ties where we report more gain).
#[test]
fn table1_reproduction() {
    let w = gsm::encoder();
    let expected: [(u64, Option<u64>, i64); 8] = [
        (47_740, None, 30),
        (95_480, None, 30),
        (143_221, Some(153_588), 30),
        (190_961, Some(195_258), 170),
        (238_702, Some(316_200), 180),
        (286_442, Some(316_200), 180),
        (334_182, Some(335_976), 240),
        (381_923, Some(382_500), 405), // paper prints 41; see EXPERIMENTS.md
    ];
    for (rg, gain, area_tenths) in expected {
        let sel = solve(&w, rg);
        assert_eq!(
            sel.total_area(),
            AreaTenths::from_tenths(area_tenths),
            "area at RG {rg}"
        );
        if let Some(g) = gain {
            assert_eq!(sel.total_gain(), Cycles(g), "gain at RG {rg}");
        } else {
            assert!(sel.total_gain() >= Cycles(115_037));
        }
    }
}

/// Table 1's qualitative claims: type-0 dominates at low RG; IP13 enters at
/// RG 238702; its interface escalates from IF1 to IF3 in the last row.
#[test]
fn table1_interface_escalation() {
    let w = gsm::encoder();
    let low = solve(&w, 143_221);
    assert!(low
        .chosen()
        .iter()
        .all(|i| i.interface == InterfaceKind::Type0));

    let mid = solve(&w, 238_702);
    assert!(mid
        .chosen()
        .iter()
        .any(|i| i.ips == vec![IpId(13)] && i.interface == InterfaceKind::Type1));

    let top = solve(&w, 381_923);
    assert!(top
        .chosen()
        .iter()
        .any(|i| i.ips == vec![IpId(13)] && i.interface == InterfaceKind::Type3));
    // 6 S-instructions from 11 selected s-calls (the published S/O row).
    assert_eq!(top.selected_scall_count(), 11);
    assert_eq!(top.s_instruction_count(), 6);
}

/// Table 2: the decoder stays on the software interface except SC10's
/// escalation to type 2 in the last row.
#[test]
fn table2_reproduction() {
    let w = gsm::decoder();
    let expected: [(u64, Option<u64>, i64); 8] = [
        (22_240, None, 40),
        (44_481, None, 40),
        (111_203, None, 40),
        (133_444, None, 40),
        (155_684, Some(168_348), 40),
        (177_925, Some(182_892), 70),
        (200_166, Some(200_488), 150),
        (211_286, Some(211_432), 455), // paper prints 45
    ];
    for (rg, gain, area_tenths) in expected {
        let sel = solve(&w, rg);
        assert_eq!(
            sel.total_area(),
            AreaTenths::from_tenths(area_tenths),
            "area at RG {rg}"
        );
        if let Some(g) = gain {
            assert_eq!(sel.total_gain(), Cycles(g), "gain at RG {rg}");
        }
    }
    // SC10: IF0 until the last row, then IF2.
    let row7 = solve(&w, 200_166);
    assert!(row7
        .chosen()
        .iter()
        .any(|i| i.scall == CallSiteId(10) && i.interface == InterfaceKind::Type0));
    let row8 = solve(&w, 211_286);
    assert!(row8
        .chosen()
        .iter()
        .any(|i| i.scall == CallSiteId(10) && i.interface == InterfaceKind::Type2));
}

/// Table 3: all five rows exact — gain and area.
#[test]
fn table3_reproduction_exact() {
    let w = jpeg::encoder();
    let expected: [(u64, u64, i64); 5] = [
        (12_157_384, 15_040_512, 40),
        (20_262_307, 37_081_088, 110),
        (37_195_000, 37_195_072, 165),
        (37_282_645, 37_717_440, 270),
        (37_843_700, 37_843_712, 330),
    ];
    for (rg, gain, area_tenths) in expected {
        let sel = solve(&w, rg);
        assert_eq!(sel.total_gain(), Cycles(gain), "gain at RG {rg}");
        assert_eq!(
            sel.total_area(),
            AreaTenths::from_tenths(area_tenths),
            "area at RG {rg}"
        );
    }
}

/// The paper's comparison claim: the prior approach (no interfaces, no
/// parallel execution) cannot reach the top of either GSM sweep.
#[test]
fn no_interface_baseline_fails_at_the_top() {
    for w in [gsm::encoder(), gsm::decoder()] {
        let top = *w.rg_sweep.last().unwrap();
        let result =
            baseline::solve_no_interface(&w.instance, &w.imps, &RequiredGains::uniform(top));
        assert!(
            matches!(result, Err(CoreError::Infeasible { .. })),
            "{} should be out of the baseline's reach at RG {}",
            w.instance.name,
            top.get()
        );
        // The full approach succeeds.
        let _ = solve(&w, top.get());
    }
}

/// Problem 2 strictly extends Problem 1 on the calibrated encoder: the same
/// sweep solves, and wherever both solve, Problem 2's area is never worse.
#[test]
fn problem2_never_worse_than_problem1() {
    let w = gsm::encoder();
    for &rg in &w.rg_sweep {
        let p2 = Solver::new(&w.instance)
            .with_imps(w.imps.clone())
            .solve(&SolveOptions::problem2(RequiredGains::uniform(rg)))
            .expect("p2 feasible on sweep");
        if let Ok(p1) = Solver::new(&w.instance)
            .with_imps(w.imps.clone())
            .solve(&SolveOptions::problem1(RequiredGains::uniform(rg)))
        {
            assert!(p2.total_area() <= p1.total_area(), "RG {}", rg.get());
        }
    }
}

/// Golden schema of the table binaries' JSON-lines output: every trace line
/// must carry exactly this key set, in this order. The table1-3 binaries
/// and any scraping tooling depend on these names; a missing or renamed key
/// is a breaking change to the bench output format.
#[test]
fn trace_json_lines_match_golden_schema() {
    const GOLDEN_KEYS: [&str; 18] = [
        "rg",
        "trace",
        "backend",
        "status",
        "num_vars",
        "num_constraints",
        "num_imps",
        "nodes_explored",
        "nodes_pruned",
        "incumbent_updates",
        "simplex_iterations",
        "warm_start_accepted",
        "vars_fixed",
        "probes_screened",
        "probes_warm",
        "probes_cold",
        "imp_generation_us",
        "formulation_us",
    ];
    for w in [gsm::encoder(), gsm::decoder(), jpeg::encoder()] {
        for &rg in &w.rg_sweep {
            let options = SolveOptions::problem2(RequiredGains::uniform(rg));
            let sel = Solver::new(&w.instance)
                .with_imps(w.imps.clone())
                .solve(&options)
                .expect("published sweep point feasible");
            let trace_json = partita::core::telemetry::Event::SolveFinished {
                trace: sel.trace.clone(),
            }
            .to_json();
            let line = format!("{{\"rg\":{},\"trace\":{}}}", rg.get(), trace_json);
            let mut cursor = 0usize;
            for key in GOLDEN_KEYS {
                let needle = format!("\"{key}\":");
                let at = line[cursor..].find(&needle).unwrap_or_else(|| {
                    panic!(
                        "{} at RG {}: key {key:?} missing or out of order in {line}",
                        w.instance.name,
                        rg.get()
                    )
                });
                cursor += at + needle.len();
            }
            // Completed published sweeps always solve within budget.
            assert!(
                line.contains("\"status\":\"optimal\""),
                "{} at RG {}",
                w.instance.name,
                rg.get()
            );
            assert!(line.contains("\"solve_us\":"));
            assert!(line.contains("\"total_us\":"));
        }
    }
}

/// Round-trip of the trace JSON: every scalar field parses back out of the
/// rendered line with exactly the value the trace struct holds, and string
/// fields come back quoted and escaped. Together with the key-order test
/// above this pins the full schema, not just the key names.
#[test]
fn trace_json_round_trips_field_values() {
    /// Extracts the raw value of `key` from a flat JSON object.
    fn field(json: &str, key: &str) -> String {
        let needle = format!("\"{key}\":");
        let at = json
            .find(&needle)
            .unwrap_or_else(|| panic!("key {key:?} missing in {json}"))
            + needle.len();
        let rest = &json[at..];
        let end = rest.find([',', '}']).expect("value terminator");
        rest[..end].to_string()
    }

    let w = jpeg::encoder();
    let options = SolveOptions::problem2(RequiredGains::uniform(w.rg_sweep[2]));
    let sel = Solver::new(&w.instance)
        .with_imps(w.imps.clone())
        .solve(&options)
        .expect("published sweep point feasible");
    let trace = &sel.trace;
    let json = partita::core::telemetry::Event::SolveFinished {
        trace: trace.clone(),
    }
    .to_json();

    assert_eq!(field(&json, "backend"), format!("\"{}\"", trace.backend));
    assert_eq!(field(&json, "status"), format!("\"{}\"", trace.status));
    assert_eq!(field(&json, "num_vars"), trace.num_vars.to_string());
    assert_eq!(
        field(&json, "num_constraints"),
        trace.num_constraints.to_string()
    );
    assert_eq!(field(&json, "num_imps"), trace.num_imps.to_string());
    assert_eq!(
        field(&json, "nodes_explored"),
        trace.nodes_explored.to_string()
    );
    assert_eq!(field(&json, "nodes_pruned"), trace.nodes_pruned.to_string());
    assert_eq!(
        field(&json, "incumbent_updates"),
        trace.incumbent_updates.to_string()
    );
    assert_eq!(
        field(&json, "simplex_iterations"),
        trace.simplex_iterations.to_string()
    );
    assert_eq!(
        field(&json, "warm_start_accepted"),
        trace.warm_start_accepted.to_string()
    );
    assert_eq!(field(&json, "vars_fixed"), trace.vars_fixed.to_string());
    assert_eq!(
        field(&json, "probes_screened"),
        trace.probes_screened.to_string()
    );
    assert_eq!(field(&json, "probes_warm"), trace.probes_warm.to_string());
    assert_eq!(field(&json, "probes_cold"), trace.probes_cold.to_string());
    assert_eq!(
        field(&json, "imp_generation_us"),
        trace.imp_generation.as_micros().to_string()
    );
    assert_eq!(
        field(&json, "formulation_us"),
        trace.formulation.as_micros().to_string()
    );
    assert_eq!(
        field(&json, "solve_us"),
        trace.solve.as_micros().to_string()
    );
    assert_eq!(
        field(&json, "decode_us"),
        trace.decode.as_micros().to_string()
    );
    // The status/backend strings contain no characters needing escapes, so
    // the quoted value must be escape-free.
    assert!(!field(&json, "status").contains('\\'));
}

/// The paper-claim invariant behind every table: area is monotone along the
/// RG sweep — relaxing the required gain can only shrink (or keep) the
/// minimum area, never grow it.
#[test]
fn areas_monotone_as_rg_relaxes() {
    for w in [gsm::encoder(), gsm::decoder(), jpeg::encoder()] {
        let mut prev: Option<AreaTenths> = None;
        for &rg in &w.rg_sweep {
            let area = solve(&w, rg.get()).total_area();
            if let Some(prev) = prev {
                assert!(
                    prev <= area,
                    "{}: tightening RG to {} shrank area {prev} -> {area}",
                    w.instance.name,
                    rg.get()
                );
            }
            prev = Some(area);
        }
    }
}

/// Greedy is never better than the exact ILP on any calibrated workload.
#[test]
fn ilp_dominates_greedy_everywhere() {
    for w in [gsm::encoder(), gsm::decoder(), jpeg::encoder()] {
        for &rg in &w.rg_sweep {
            let exact = solve(&w, rg.get());
            if let Ok(greedy) =
                baseline::solve_greedy(&w.instance, &w.imps, &RequiredGains::uniform(rg))
            {
                assert!(
                    exact.total_area() <= greedy.total_area(),
                    "{} at RG {}",
                    w.instance.name,
                    rg.get()
                );
            }
        }
    }
}
