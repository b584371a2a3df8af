//! Spans recorded from the benchmark's own code around each public call
//! into the program, kept in memory and written out when a run ends.

use crate::report::{num, quote};
use javelin::core::{ApplyScratch, Preconditioner};
use javelin::sparse::{Panel, PanelMut};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call: `op` groups the spans of one solve, step or request.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// In-memory span store with one time origin.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Seconds since the tracer started.
    pub fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Opens a span now; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start_s = self.now();
        self.spans.push(Span {
            name,
            op,
            start_s,
            end_s: start_s,
            parent,
        });
        self.spans.len() - 1
    }

    /// Ends span `idx` now and returns its duration.
    pub fn close(&mut self, idx: usize) -> f64 {
        self.spans[idx].end_s = self.now();
        self.spans[idx].secs()
    }

    /// Runs `f` inside a span and returns its result and the span index.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let idx = self.open(name, op, parent);
        let r = f();
        self.close(idx);
        (r, idx)
    }

    /// Files spans measured elsewhere (already on this tracer's clock).
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// The spans as a JSON array.
    pub fn json(&self) -> String {
        let items: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": {}, \"op\": {}, \"start_s\": {}, \"end_s\": {}, \"parent\": {}}}",
                    quote(s.name),
                    s.op,
                    num(s.start_s),
                    num(s.end_s),
                    s.parent.map_or("null".to_string(), |p| p.to_string())
                )
            })
            .collect();
        format!("[{}]", items.join(",\n"))
    }
}

/// A preconditioner that times every apply of the one it wraps. The
/// arithmetic is the wrapped preconditioner's, so a Krylov solve
/// through it takes exactly the same iterations.
pub struct TimedPrecond<P> {
    inner: P,
    t0: Instant,
    applies: Mutex<Vec<(f64, f64)>>,
}

impl<P> TimedPrecond<P> {
    /// Wraps `inner`, stamping applies on `tracer`'s clock.
    pub fn new(inner: P, tracer: &Tracer) -> Self {
        TimedPrecond {
            inner,
            t0: tracer.t0,
            applies: Mutex::new(Vec::new()),
        }
    }

    fn timed(&self, f: impl FnOnce()) {
        let start = self.t0.elapsed().as_secs_f64();
        f();
        let end = self.t0.elapsed().as_secs_f64();
        self.applies
            .lock()
            .expect("apply log poisoned by a panicking apply")
            .push((start, end));
    }

    /// Takes the applies recorded since the last call as `apply` spans
    /// under `parent`.
    pub fn drain(&self, op: u64, parent: usize) -> Vec<Span> {
        self.applies
            .lock()
            .expect("apply log poisoned by a panicking apply")
            .drain(..)
            .map(|(start_s, end_s)| Span {
                name: "apply",
                op,
                start_s,
                end_s,
                parent: Some(parent),
            })
            .collect()
    }
}

impl<P: Preconditioner<f64>> Preconditioner<f64> for TimedPrecond<P> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.timed(|| self.inner.apply(r, z));
    }

    fn apply_with(&self, scratch: &mut ApplyScratch<f64>, r: &[f64], z: &mut [f64]) {
        self.timed(|| self.inner.apply_with(scratch, r, z));
    }

    fn apply_column_with(
        &self,
        scratch: &mut ApplyScratch<f64>,
        col: usize,
        r: &[f64],
        z: &mut [f64],
    ) {
        self.timed(|| self.inner.apply_column_with(scratch, col, r, z));
    }

    fn apply_panel_with(
        &self,
        scratch: &mut ApplyScratch<f64>,
        r: Panel<'_, f64>,
        z: PanelMut<'_, f64>,
    ) {
        self.timed(|| self.inner.apply_panel_with(scratch, r, z));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use javelin::core::precond::IdentityPrecond;

    #[test]
    fn spans_nest_and_applies_are_counted() {
        let mut tr = Tracer::new();
        let ((), outer) = tr.span("krylov", 3, None, || {});
        let p = TimedPrecond::new(IdentityPrecond, &tr);
        let mut z = [0.0; 2];
        p.apply(&[1.0, 2.0], &mut z);
        p.apply_with(&mut ApplyScratch::default(), &[3.0, 4.0], &mut z);
        assert_eq!(z, [3.0, 4.0]);
        let applies = p.drain(3, outer);
        assert_eq!(applies.len(), 2);
        assert!(p.drain(3, outer).is_empty());
        for s in applies {
            assert_eq!(s.parent, Some(outer));
            tr.push(s);
        }
        assert_eq!(tr.durations("apply").len(), 2);
        assert!(tr.json().contains("\"name\": \"krylov\""));
    }
}
