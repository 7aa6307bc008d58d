//! The scripted-replay golden gate, as a plain test (the CI smoke leg
//! runs the same contract through the `serviced` binary's
//! `--replay/--check` mode).
//!
//! The committed request log exercises every method plus the error paths;
//! the committed golden log is what a fresh daemon must answer, byte for
//! byte, under [`Redaction::Timing`] on any machine. If a solver or
//! protocol change legitimately moves an answer, regenerate with:
//!
//! ```text
//! cargo run -p partita-service --bin serviced -- \
//!     --replay tests/service/requests.jsonl --write tests/service/golden.jsonl
//! ```
//!
//! and review the diff like any other golden.

use partita_service::{replay, ServiceConfig, ServiceCore};

const REQUESTS: &str = include_str!("../../../tests/service/requests.jsonl");
const GOLDEN: &str = include_str!("../../../tests/service/golden.jsonl");

#[test]
fn scripted_replay_matches_committed_golden() {
    let core = ServiceCore::new(ServiceConfig::default());
    let responses = replay::replay(&core, REQUESTS);
    let mismatches = replay::diff_golden(&responses, GOLDEN);
    assert!(
        mismatches.is_empty(),
        "replay drifted from tests/service/golden.jsonl \
         (regenerate + review if intended):\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn golden_log_covers_the_protocol() {
    // Guard the request log itself: if someone trims it, the golden gate
    // silently weakens. Every method, the protocol error codes and a
    // capped solve that stops with nothing (code 201, never 200) must stay
    // represented.
    for needle in [
        "\"method\":\"ping\"",
        "\"method\":\"solve\"",
        "\"method\":\"sweep\"",
        "\"method\":\"delta\"",
        "\"method\":\"batch\"",
        "\"method\":\"stats\"",
    ] {
        assert!(REQUESTS.contains(needle), "request log lost {needle}");
    }
    for needle in [
        "\"code\":100",
        "\"code\":101,",
        "\"code\":102,",
        "\"code\":103,",
        "\"code\":201,",
        "\"cache_hit\":true",
    ] {
        assert!(GOLDEN.contains(needle), "golden log lost {needle}");
    }
}
