//! Multi-tenant integration gates for the solve daemon.
//!
//! The contract under test is **cross-tenant canonical-cache sharing**:
//! isomorphic corpus instances submitted by different tenants share cache
//! entries, and sweep and delta walks share them with single solves; hits
//! are observable in telemetry, byte-identical to cold library solves of
//! the same points, and audit-clean.
//!
//! Plus the reader's robustness gate: oversized and non-UTF-8 lines are
//! answered as malformed and the connection keeps serving.

use std::sync::Arc;

use partita_core::api::{selection_digest, Payload, Request, RequestBody, SolveResult, SolveSpec};
use partita_core::telemetry::json::JsonValue;
use partita_core::telemetry::{CacheKind, Event, RecordingSink};
use partita_core::{OptimalityStatus, Solver};
use partita_service::{ServiceConfig, ServiceCore};
use partita_workloads::corpus;

/// The corpus points exercised: small enough to solve exactly in
/// milliseconds, varied enough to fill several cache shards.
const INSTANCES: [&str; 3] = ["synth-micro-0000", "synth-micro-0001", "synth-micro-0002"];

fn solve_request(tenant: &str, id: &str, instance: &str, rg: u64) -> Request {
    Request {
        api_version: partita_core::api::API_VERSION,
        id: id.to_string(),
        tenant: tenant.to_string(),
        body: RequestBody::Solve {
            instance: instance.to_string(),
            spec: SolveSpec {
                rg,
                audit: true,
                ..SolveSpec::default()
            },
        },
    }
}

fn expect_solve(core: &ServiceCore, req: &Request) -> SolveResult {
    let resp = core.handle_request(req);
    match resp.result {
        Ok(Payload::Solve(result)) => result,
        other => panic!("request {} failed: {other:?}", req.id),
    }
}

/// The mid-sweep RG of each exercised instance, from the digest-verified
/// corpus build — the same points the daemon will be asked to solve.
fn corpus_points() -> Vec<(String, u64)> {
    let manifest = corpus::manifest().expect("corpus manifest parses");
    INSTANCES
        .iter()
        .map(|id| {
            let entry = manifest
                .iter()
                .find(|e| e.id == *id)
                .unwrap_or_else(|| panic!("{id} missing from corpus manifest"));
            let w = entry.verify().expect("corpus entry verifies");
            let rg = w.rg_sweep[w.rg_sweep.len() / 2].get();
            (id.to_string(), rg)
        })
        .collect()
}

/// Digest of a cold library solve of `instance` at `rg`, under the same
/// options the daemon derives from [`solve_request`]'s spec.
fn cold_digest(instance: &str, rg: u64) -> u64 {
    let manifest = corpus::manifest().expect("corpus manifest parses");
    let entry = manifest.iter().find(|e| e.id == instance).expect("entry");
    let w = entry.verify().expect("verifies");
    let spec = SolveSpec {
        rg,
        audit: true,
        ..SolveSpec::default()
    };
    let sel = Solver::new(&w.instance)
        .with_imps(w.imps.clone())
        .solve(&spec.to_options_at(rg))
        .expect("cold library solve");
    selection_digest(&sel)
}

#[test]
fn cross_tenant_cache_hits_are_byte_identical_and_audited() {
    let sink = Arc::new(RecordingSink::new());
    let core = Arc::new(ServiceCore::new(ServiceConfig::default()).with_sink(sink.clone()));
    let points = corpus_points();

    // Tenant alice warms every point cold.
    let mut cold: Vec<SolveResult> = Vec::new();
    for (i, (instance, rg)) in points.iter().enumerate() {
        let result = expect_solve(
            &core,
            &solve_request("alice", &format!("a{i}"), instance, *rg),
        );
        assert!(!result.cache_hit, "{instance}: first solve must be cold");
        assert_eq!(result.status, OptimalityStatus::Optimal);
        cold.push(result);
    }

    // Tenants bob and carol hit the same points concurrently; every
    // answer must come from the shared cache, byte-identical to alice's.
    let handles: Vec<_> = ["bob", "carol"]
        .into_iter()
        .map(|tenant| {
            let core = core.clone();
            let points = points.clone();
            std::thread::spawn(move || {
                points
                    .iter()
                    .enumerate()
                    .map(|(i, (instance, rg))| {
                        expect_solve(
                            &core,
                            &solve_request(tenant, &format!("{tenant}{i}"), instance, *rg),
                        )
                    })
                    .collect::<Vec<SolveResult>>()
            })
        })
        .collect();
    for handle in handles {
        let results = handle.join().expect("tenant thread");
        for (warm, cold) in results.iter().zip(cold.iter()) {
            assert!(
                warm.cache_hit,
                "rg {}: expected a cross-tenant hit",
                warm.rg
            );
            assert_eq!(warm.digest, cold.digest, "selection drifted across tenants");
            assert_eq!(warm.chosen, cold.chosen);
            assert_eq!(warm.status, OptimalityStatus::Optimal);
        }
    }

    // The cached answers equal cold *library* solves of the same points,
    // digest for digest (the admission path must not change the answer).
    for ((instance, rg), served) in points.iter().zip(cold.iter()) {
        assert_eq!(
            cold_digest(instance, *rg),
            served.digest,
            "{instance}: daemon answer differs from a cold library solve"
        );
    }

    // Telemetry observed the sharing: one service-cache hit per warm
    // request, misses only for alice's cold pass.
    let lookups: Vec<(bool, u64)> = sink
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::CacheLookup {
                cache: CacheKind::Service,
                hit,
                digest,
            } => Some((*hit, *digest)),
            _ => None,
        })
        .collect();
    let hits = lookups.iter().filter(|(hit, _)| *hit).count();
    let misses = lookups.iter().filter(|(hit, _)| !*hit).count();
    assert_eq!(misses, points.len(), "only alice's pass may miss");
    assert_eq!(hits, 2 * points.len(), "every bob/carol point must hit");

    let stats = core.stats();
    assert_eq!(stats.cache_hits, 2 * points.len() as u64);
    assert_eq!(stats.cache_entries, points.len() as u64);
    assert_eq!(stats.degraded, 0);
    assert_eq!(stats.rejected, 0);
}

/// Answers a `sweep` or `delta` request, returning its per-point results.
fn expect_points(core: &ServiceCore, line: &str) -> Vec<SolveResult> {
    let req = Request::parse(line).expect("well-formed walk request");
    match core.handle_request(&req).result {
        Ok(Payload::Points(results)) => results,
        other => panic!("request {} failed: {other:?}", req.id),
    }
}

#[test]
fn delta_walk_answers_from_the_cache_a_sweep_filled() {
    let instance = INSTANCES[1];
    let manifest = corpus::manifest().expect("corpus manifest parses");
    let w = manifest
        .iter()
        .find(|e| e.id == instance)
        .expect("entry")
        .verify()
        .expect("verifies");
    let rgs: Vec<u64> = w.rg_sweep.iter().map(|rg| rg.get()).collect();
    assert!(rgs.len() >= 3, "{instance}: a sweep worth walking");
    let list = |rgs: &[u64]| rgs.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
    let core = ServiceCore::new(ServiceConfig::default());

    // Tenant alice sweeps cold: one chained walk, every answer the cold
    // library solve's.
    let swept = expect_points(
        &core,
        &format!(
            r#"{{"api_version":1,"id":"a","tenant":"alice","method":"sweep","instance":"{instance}","rgs":[{}]}}"#,
            list(&rgs)
        ),
    );
    for (rg, result) in rgs.iter().zip(&swept) {
        assert!(!result.cache_hit, "rg {rg}: a fresh daemon has no entry");
        assert_eq!(result.digest, cold_digest(instance, *rg), "rg {rg}");
    }

    // Tenant bob walks the same points as delta edits, in another order:
    // every point is a shared-cache hit carrying alice's answer.
    let mut walk = rgs.clone();
    walk.reverse();
    let delta = expect_points(
        &core,
        &format!(
            r#"{{"api_version":1,"id":"b","tenant":"bob","method":"delta","instance":"{instance}","rgs":[{}]}}"#,
            list(&walk)
        ),
    );
    assert_eq!(delta.len(), walk.len());
    for (rg, result) in walk.iter().zip(&delta) {
        assert_eq!(result.rg, *rg, "results come back in request order");
        assert!(result.cache_hit, "rg {rg}: delta point missed the cache");
        let alice = &swept[rgs.iter().position(|r| r == rg).expect("swept rg")];
        assert_eq!(result.digest, alice.digest, "rg {rg}");
        assert_eq!(result.chosen, alice.chosen, "rg {rg}");
    }
    assert_eq!(core.stats().cache_hits, rgs.len() as u64);
}

#[test]
fn oversized_and_non_utf8_lines_are_malformed_and_the_connection_survives() {
    use partita_service::server::{serve, MAX_LINE_BYTES};

    let core = Arc::new(ServiceCore::new(ServiceConfig::default()));
    let (instance, rg) = corpus_points().remove(0);
    // One byte over the cap, then its newline.
    let mut input = vec![b'x'; MAX_LINE_BYTES + 1];
    input.push(b'\n');
    // A request whose tenant holds a byte that is never valid UTF-8.
    input.extend_from_slice(
        b"{\"api_version\":1,\"id\":\"u\",\"tenant\":\"\xff\",\"method\":\"ping\"}\n",
    );
    input.extend_from_slice(
        solve_request("alice", "ok", &instance, rg)
            .to_json()
            .as_bytes(),
    );
    input.push(b'\n');

    let mut out: Vec<u8> = Vec::new();
    serve(
        &core,
        input.as_slice(),
        &mut out,
        2,
        partita_core::Redaction::None,
    )
    .expect("bad lines must not end the connection");
    let text = String::from_utf8(out).expect("replies are UTF-8");
    let replies: Vec<JsonValue> = text
        .lines()
        .map(|l| JsonValue::parse(l).unwrap_or_else(|e| panic!("bad reply {l:?}: {e:?}")))
        .collect();
    assert_eq!(replies.len(), 3, "{text}");
    let malformed = replies
        .iter()
        .filter(|r| {
            r.get("error")
                .and_then(|e| e.get("code"))
                .and_then(JsonValue::as_u64)
                == Some(100)
        })
        .count();
    assert_eq!(malformed, 2, "{text}");
    // Digests are full u64s, beyond f64 precision: compare the raw text.
    let answer = text
        .lines()
        .find(|l| l.contains("\"id\":\"ok\""))
        .unwrap_or_else(|| panic!("valid request unanswered: {text}"));
    let digest = format!("\"digest\":{},", cold_digest(&instance, rg));
    assert!(
        answer.contains("\"ok\":true") && answer.contains(&digest),
        "valid request answered wrongly: {answer}"
    );
    assert_eq!(core.current_load(), 0, "load accounting leaked");
}
