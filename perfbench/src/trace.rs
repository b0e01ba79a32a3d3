//! Spans recorded by the benchmark around its calls into the program.
//!
//! A span is a name, a start, an end and the span that was open when it
//! started. Spans stay in memory and are written out, as Chrome trace-event
//! JSON, when the benchmark ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span, host seconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What the span covers, e.g. `rtem.step`.
    pub name: &'static str,
    /// Start, s.
    pub start_s: f64,
    /// End, s (equal to `start_s` while the span is open).
    pub end_s: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Length of the span, s.
    pub fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Records nested spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Opens a span inside the innermost open one; returns its id.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start_s: now,
            end_s: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id`, which must be the innermost open one; returns its
    /// length, s.
    pub fn exit(&mut self, id: usize) -> f64 {
        let now = self.origin.elapsed().as_secs_f64();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_s = now;
        self.spans[id].secs()
    }

    /// Runs `f` inside a span named `name`; returns its result and length.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let id = self.enter(name);
        let value = f(self);
        (value, self.exit(id))
    }

    /// Every recorded span, in start order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Lengths of the spans named `name`, s.
    pub fn secs_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Self time of every span name, s: the spans' total length minus the
    /// part their child spans cover. Sorted by name.
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let mut by_name: std::collections::BTreeMap<&'static str, f64> = Default::default();
        for span in &self.spans {
            *by_name.entry(span.name).or_default() += span.secs();
            if let Some(parent) = span.parent {
                *by_name.entry(self.spans[parent].name).or_default() -= span.secs();
            }
        }
        by_name.into_iter().collect()
    }

    /// The spans as Chrome trace-event JSON (complete events, µs), loadable
    /// in chrome://tracing or Perfetto.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{}}}}}",
                span.name,
                span.start_s * 1e6,
                span.secs() * 1e6,
                span.parent.map_or("null".to_string(), |p| p.to_string())
            )
            .expect("writing to a String never fails");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut tracer = Tracer::default();
        let ((), outer) = tracer.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner", |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(tracer.secs_of("inner").len(), 2);
        let self_times = tracer.self_times();
        let inner: f64 = tracer.secs_of("inner").iter().sum();
        let outer_self = self_times.iter().find(|(n, _)| *n == "outer").unwrap().1;
        assert!((outer_self - (outer - inner)).abs() < 1e-9);
        assert!(inner >= 0.002);
        let json = tracer.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":[{\"name\":\"outer\""));
        assert!(json.contains("\"parent\":0"));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut tracer = Tracer::default();
        let outer = tracer.enter("outer");
        tracer.enter("inner");
        tracer.exit(outer);
    }
}
