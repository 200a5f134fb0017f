//! In-memory span log for the traced run.
//!
//! Spans are recorded from outside the program, around the public calls
//! of each layer, and written out once the benchmark ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The call, e.g. `Simulation::run`.
    pub name: &'static str,
    /// Free-form class of the call (`placement`/`steady` for hooks).
    pub tag: &'static str,
    /// The simulation or campaign the span belongs to.
    pub group: u32,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the log's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall-clock length of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span log sharing one clock epoch.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log with room for `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn offset_ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its index.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span now; close it with [`SpanLog::end`].
    pub fn begin(&mut self, name: &'static str, group: u32, parent: Option<usize>) -> usize {
        let now = self.offset_ns(Instant::now());
        self.push(Span {
            name,
            tag: "",
            group,
            parent,
            start_ns: now,
            end_ns: now,
        })
    }

    /// Closes span `id` now.
    pub fn end(&mut self, id: usize) {
        let now = self.offset_ns(Instant::now());
        if let Some(s) = self.spans.get_mut(id) {
            s.end_ns = now;
        }
    }

    /// All spans in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The log as JSON lines, one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"tag\":\"{}\",\"group\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.tag, s.group, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover. Children may nest, touch or overlap (parallel
/// workers); overlapping coverage is counted once, and a child reaching
/// outside its parent only counts inside it.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(c) = s.parent.and_then(|p| children.get_mut(p)) {
            c.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Summed duration and summed self time of the spans called `name`.
pub fn total_and_self_ns(spans: &[Span], name: &str) -> (u64, u64) {
    spans
        .iter()
        .zip(self_times_ns(spans))
        .filter(|(s, _)| s.name == name)
        .fold((0, 0), |(total, own), (s, self_ns)| {
            (total + s.duration_ns(), own + self_ns)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            tag: "",
            group: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100] ⊃ a [10,40] ⊃ b [20,30]; c [50,60].
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(1), 20, 30),
            span(Some(0), 50, 60),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 20, 10, 10]);
        // Spans named alike add up: the two children of the root.
        let named: Vec<Span> = spans
            .iter()
            .enumerate()
            .map(|(i, s)| Span {
                name: if i == 1 || i == 3 { "child" } else { "other" },
                ..s.clone()
            })
            .collect();
        assert_eq!(total_and_self_ns(&named, "child"), (40, 30));
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two workers' jobs overlap in [30,50]; union covers [10,70].
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 50),
            span(Some(0), 30, 70),
            // Fully inside another child: adds nothing.
            span(Some(0), 35, 45),
        ];
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![
            span(None, 10, 20),
            span(Some(0), 0, 15),
            span(Some(0), 18, 40),
        ];
        assert_eq!(self_times_ns(&spans)[0], 3);
        // Touching children leave no gap and double nothing.
        let touching = vec![span(None, 0, 10), span(Some(0), 0, 5), span(Some(0), 5, 10)];
        assert_eq!(self_times_ns(&touching)[0], 0);
    }

    #[test]
    fn log_records_open_close_and_serialises() {
        let mut log = SpanLog::with_capacity(2);
        let root = log.begin("run_campaign", 3, None);
        log.end(root);
        let s = &log.spans()[root];
        assert!(s.end_ns >= s.start_ns);
        let line = log.to_jsonl();
        assert!(line.starts_with("{\"id\":0,\"name\":\"run_campaign\""));
        assert!(line.contains("\"group\":3,\"parent\":null"));
    }
}
