//! Deterministic scripted replay: drive a request log through a
//! [`ServiceCore`] single-threaded and in order, rendering replies under
//! [`Redaction::Timing`] so the output is byte-stable across hosts.
//!
//! This is the golden-diff contract of the CI service smoke leg: the
//! committed request log (`tests/service/requests.jsonl`, built from
//! corpus-manifest ids) must replay to the committed response log
//! (`tests/service/golden.jsonl`) on every machine. Everything in a
//! redacted response is deterministic: gains, areas, statuses, chosen IMP
//! ids, selection digests, node counts (the search is serial) and
//! cache-hit flags (replay order is the log order).

use partita_core::Redaction;

use crate::ServiceCore;

/// Replays `requests` (one envelope per line; blank lines skipped)
/// through `core` in order, returning one redacted response line per
/// request.
#[must_use]
pub fn replay(core: &ServiceCore, requests: &str) -> Vec<String> {
    requests
        .lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| core.handle_line_redacted(line, Redaction::Timing))
        .collect()
}

/// Diffs replayed `responses` against a committed `golden` log. Returns
/// every mismatch as a human-readable block; empty means byte-identical.
#[must_use]
pub fn diff_golden(responses: &[String], golden: &str) -> Vec<String> {
    let expected: Vec<&str> = golden
        .lines()
        .filter(|line| !line.trim().is_empty())
        .collect();
    let mut mismatches = Vec::new();
    if responses.len() != expected.len() {
        mismatches.push(format!(
            "response count mismatch: replay produced {}, golden has {}",
            responses.len(),
            expected.len()
        ));
    }
    for (i, (got, want)) in responses.iter().zip(expected.iter()).enumerate() {
        if got != want {
            mismatches.push(format!(
                "line {}: mismatch\n  replay: {}\n  golden: {}",
                i + 1,
                got,
                want
            ));
        }
    }
    mismatches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceConfig;

    #[test]
    fn replay_is_order_stable_and_redacted() {
        let core = ServiceCore::new(ServiceConfig::default());
        let log = concat!(
            r#"{"api_version":1,"id":"a","tenant":"t","method":"ping"}"#,
            "\n\n",
            r#"{"api_version":1,"id":"b","tenant":"t","method":"ping"}"#,
            "\n",
        );
        let out = replay(&core, log);
        assert_eq!(out.len(), 2);
        assert!(out[0].contains("\"id\":\"a\""));
        assert!(out[1].contains("\"id\":\"b\""));
        assert!(diff_golden(&out, &out.join("\n")).is_empty());
        let tampered = out.join("\n").replace("\"id\":\"b\"", "\"id\":\"c\"");
        assert_eq!(diff_golden(&out, &tampered).len(), 1);
    }
}
