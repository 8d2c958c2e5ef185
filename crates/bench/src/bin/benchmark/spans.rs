//! In-memory spans around the benchmark's own calls into each layer.
//!
//! Spans wrap only calls made from this directory — workload → pass →
//! cell, and layer → probe — so nothing inside the program is
//! instrumented and a traced pass should cost what an untraced one does
//! (`trace.overhead_ratio`). They are kept in memory and written out
//! once, when the run ends.

use std::time::Instant;

use midway_bench::Json;

pub struct Span {
    pub name: String,
    /// The crate the wrapped call enters, or `benchmark` for the
    /// workload/pass spans that only group others.
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// A span recorder; when disabled every call is a plain function call.
pub struct Spans {
    origin: Instant,
    enabled: bool,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            enabled: false,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of whichever span is
    /// open.
    pub fn scope<T>(
        &mut self,
        name: &str,
        layer: &'static str,
        f: impl FnOnce(&mut Spans) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// Share of the spans named `root`'s time that no cell or probe span
    /// accounts for: the harness's own bookkeeping.
    pub fn harness_share(&self, root_layer: &'static str) -> f64 {
        let mut total = 0u64;
        let mut own = 0u64;
        for (id, s) in self.spans.iter().enumerate() {
            if s.layer != root_layer {
                continue;
            }
            own += self.self_ns(id);
            if s.parent.is_none() {
                total += s.end_ns - s.start_ns;
            }
        }
        if total == 0 {
            0.0
        } else {
            own as f64 / total as f64
        }
    }

    pub fn to_json(&self, workload: &str) -> Json {
        Json::arr(self.spans.iter().map(|s| {
            Json::obj([
                ("name", Json::str(&s.name)),
                ("layer", Json::str(s.layer)),
                ("start_ns", Json::U64(s.start_ns)),
                ("end_ns", Json::U64(s.end_ns)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                ),
                ("workload", Json::str(workload)),
            ])
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut s = Spans::new();
        s.set_enabled(true);
        s.scope("w", "benchmark", |s| {
            s.scope("a", "core", |_| ());
            s.scope("b", "core", |_| ());
        });
        assert_eq!(s.spans.len(), 3);
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!(s.spans[2].parent, Some(0));
        // Hand-set times: the arithmetic, not the clock, is under test.
        s.spans[0].start_ns = 0;
        s.spans[0].end_ns = 100;
        s.spans[1].start_ns = 10;
        s.spans[1].end_ns = 40;
        s.spans[2].start_ns = 50;
        s.spans[2].end_ns = 90;
        assert_eq!(s.self_ns(0), 30);
        assert_eq!(s.self_ns(1), 30);
        assert!((s.harness_share("benchmark") - 0.3).abs() < 1e-12);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut s = Spans::new();
        assert_eq!(s.scope("x", "core", |_| 7), 7);
        assert!(s.spans.is_empty());
    }
}
