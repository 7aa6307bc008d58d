//! The traced run's span recorder. Spans are recorded from the benchmark's
//! own files around calls into each layer's public functions; they stay in
//! memory and are written out once, when the run ends.
//!
//! Spans of one point or request share its `id`. A span's children are
//! the spans naming it as `parent`: calls nested inside it, phases its own
//! `SolveTrace` reports, or a layer's public function timed separately on
//! the same input where the program's trace does not split that layer out
//! (the program is not instrumented). A span's self time is its duration
//! minus its children's.

use std::io::Write as _;
use std::time::Duration;

use crate::util::{median, ratio, timed};

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub dur: Duration,
    pub counts: Vec<(&'static str, f64)>,
}

#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    /// Records a span measured elsewhere; returns its index.
    pub fn record(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<usize>,
        dur: Duration,
        counts: Vec<(&'static str, f64)>,
    ) -> usize {
        self.spans.push(Span {
            id,
            name,
            parent,
            dur,
            counts,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span; returns its output and the span index.
    pub fn span<T>(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let (out, dur) = timed(f);
        (out, self.record(id, name, parent, dur, Vec::new()))
    }

    /// Number of recorded spans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Duration of the span at `idx`, in µs.
    #[must_use]
    pub fn dur_us(&self, idx: usize) -> f64 {
        self.spans[idx].dur.as_secs_f64() * 1e6
    }

    /// Attaches counts to a recorded span.
    pub fn count(&mut self, idx: usize, key: &'static str, value: f64) {
        self.spans[idx].counts.push((key, value));
    }

    fn child_time(&self) -> Vec<Duration> {
        let mut sum = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                sum[p] += s.dur;
            }
        }
        sum
    }

    /// Durations of every span called `name`, in µs.
    #[must_use]
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur.as_secs_f64() * 1e6)
            .collect()
    }

    /// Median duration of the spans called `name`, in µs.
    #[must_use]
    pub fn median_us(&self, name: &str) -> f64 {
        median(&self.durations_us(name))
    }

    /// Summed duration of the spans called `name`, in µs.
    #[must_use]
    pub fn total_us(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum()
    }

    /// Self times (duration minus children) of the spans called `name`, µs.
    #[must_use]
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        let child = self.child_time();
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.dur.as_secs_f64() - child[i].as_secs_f64()) * 1e6)
            .collect()
    }

    /// Sum of count `key` over the spans called `name`.
    #[must_use]
    pub fn count_sum(&self, name: &str, key: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .flat_map(|s| s.counts.iter())
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| v)
            .sum()
    }

    /// Mean of count `key` over the spans called `name`.
    #[must_use]
    pub fn count_mean(&self, name: &str, key: &str) -> f64 {
        let n = self.spans.iter().filter(|s| s.name == name).count();
        ratio(self.count_sum(name, key), n as f64)
    }

    /// Share of `root`'s summed duration not covered by the self time of
    /// any of its descendants: the part no layer span accounts for.
    #[must_use]
    pub fn unattributed_share(&self, root: &str) -> f64 {
        let child = self.child_time();
        let roots: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.spans[i].name == root)
            .collect();
        let total: f64 = roots.iter().map(|&i| self.spans[i].dur.as_secs_f64()).sum();
        let own: f64 = roots
            .iter()
            .map(|&i| self.spans[i].dur.as_secs_f64() - child[i].as_secs_f64())
            .sum();
        ratio(own, total)
    }

    /// Writes every span as one JSON line to `path` (best effort: a trace
    /// that cannot be written does not fail the run).
    pub fn write(&self, path: &std::path::Path) {
        let render = || -> std::io::Result<()> {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)?;
            }
            let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
            for (i, s) in self.spans.iter().enumerate() {
                let counts: Vec<String> = s
                    .counts
                    .iter()
                    .map(|(k, v)| format!("\"{k}\":{v}"))
                    .collect();
                writeln!(
                    out,
                    "{{\"span\":{i},\"id\":{},\"name\":\"{}\",\"parent\":{},\"us\":{},\"counts\":{{{}}}}}",
                    s.id,
                    s.name,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.dur.as_secs_f64() * 1e6,
                    counts.join(",")
                )?;
            }
            out.flush()
        };
        if let Err(e) = render() {
            eprintln!("perfbench: trace not written to {}: {e}", path.display());
        }
    }
}
