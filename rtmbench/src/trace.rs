//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start, an end and the span that was open when it
//! began (its parent). Spans stay in memory and are printed when the run
//! ends. A span's self time is its duration minus the time its children
//! cover; children of one parent never overlap (the benchmark calls
//! layers one at a time), so that is the duration minus their sum.

use std::time::Instant;

struct Span {
    name: String,
    parent: Option<usize>,
    start_s: f64,
    end_s: f64,
}

impl Span {
    fn dur_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Span recorder. A disabled tracer runs the closure and records nothing,
/// so the untraced run and the traced run execute the same code.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            parent: self.open.last().copied(),
            start_s: self.t0.elapsed().as_secs_f64(),
            end_s: 0.0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_s = self.t0.elapsed().as_secs_f64();
        out
    }

    /// Summed duration of every span called `name`, seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_s)
            .sum()
    }

    /// Durations of the children of the last span called `name`.
    pub fn child_durs(&self, name: &str) -> Vec<f64> {
        let Some(p) = self.spans.iter().rposition(|s| s.name == name) else {
            return Vec::new();
        };
        self.spans
            .iter()
            .filter(|s| s.parent == Some(p))
            .map(Span::dur_s)
            .collect()
    }

    /// Span `i`'s duration minus the time its children cover.
    fn self_s(&self, i: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(Span::dur_s)
            .sum();
        self.spans[i].dur_s() - children
    }

    /// One line per span: name, depth, duration and self time.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut depth = 0;
            let mut p = s.parent;
            while let Some(q) = p {
                depth += 1;
                p = self.spans[q].parent;
            }
            out += &format!(
                "span {:indent$}{} dur_s={:.6} self_s={:.6}\n",
                "",
                s.name,
                s.dur_s(),
                self.self_s(i),
                indent = 2 * depth
            );
        }
        out
    }
}
