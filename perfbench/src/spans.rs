//! In-memory spans around the benchmark's calls into each layer.
//!
//! Every span has a name, the layer (crate) it charges, start and end in
//! host nanoseconds since the process epoch, a parent and the cell it
//! belongs to. A span's *self time* is its duration minus the part of it
//! that its children cover, so the self times of a cell's subtree add up
//! to the cell's own duration.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same list.
    pub parent: Option<usize>,
    /// Index of the cell in the workload's cell list; `None` for spans
    /// outside any cell (the workload span, the standalone layer drivers).
    pub cell: Option<usize>,
}

/// Records spans for one cell (or for the run itself). Each worker owns
/// the tracer of the cell it runs, so recording takes no lock.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    on: bool,
    cell: Option<usize>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recording tracer whose spans belong to `cell`.
    pub fn new(epoch: Instant, cell: Option<usize>) -> Self {
        Tracer {
            epoch,
            on: true,
            cell,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off(epoch: Instant) -> Self {
        Tracer {
            on: false,
            ..Tracer::new(epoch, None)
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, layer: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            cell: self.cell,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.open.pop().expect("close without a matching open");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name, layer);
        let out = f();
        self.close();
        out
    }

    /// Appends another tracer's spans, hanging its roots under this
    /// tracer's innermost open span.
    pub fn adopt(&mut self, child: Vec<Span>) {
        let base = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.extend(child.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "tracer dropped with open spans");
        self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (children of the workload span overlap, since
/// cells run on parallel workers).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// For every span named `cell`, the absolute difference between its
/// duration and the sum of the self times over its subtree; returns the
/// number of cells checked and the largest residual in ns.
pub fn cell_residual(spans: &[Span], self_ns: &[u64]) -> (usize, u64) {
    let mut subtree = self_ns.to_vec();
    // Parents precede children, so a reverse sweep folds each subtree
    // into its root.
    for i in (0..spans.len()).rev() {
        if let Some(p) = spans[i].parent {
            if spans[p].name != "workload" {
                subtree[p] += subtree[i];
            }
        }
    }
    let cells = spans.iter().enumerate().filter(|(_, s)| s.name == "cell");
    cells.fold((0, 0), |(n, worst), (i, s)| {
        (
            n + 1,
            worst.max((s.end_ns - s.start_ns).abs_diff(subtree[i])),
        )
    })
}

/// Spans as JSON lines: a stamp object first, then one object per span.
pub fn jsonl(stamp: &str, spans: &[Span], self_ns: &[u64]) -> String {
    let mut out = format!("{stamp}\n");
    let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
    for (i, (s, self_ns)) in spans.iter().zip(self_ns).enumerate() {
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
             \"self_ns\":{self_ns},\"parent\":{},\"cell\":{}}}",
            s.name,
            s.layer,
            s.start_ns,
            s.end_ns,
            opt(s.parent),
            opt(s.cell),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            layer: "x",
            start_ns,
            end_ns,
            parent,
            cell: Some(0),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("workload", 0, 100, None),
            span("cell", 0, 60, Some(0)),
            span("cell", 40, 100, Some(0)),
            span("call", 10, 30, Some(1)),
            span("call", 30, 50, Some(1)),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![0, 20, 60, 20, 20]);
        assert_eq!(cell_residual(&spans, &st), (2, 0));
    }

    #[test]
    fn tracer_nests_and_adopts() {
        let epoch = Instant::now();
        let mut cell = Tracer::new(epoch, Some(3));
        cell.open("cell", "runner");
        cell.span("call", "servers", || ());
        cell.close();
        let mut root = Tracer::new(epoch, None);
        root.open("workload", "runner");
        root.adopt(cell.into_spans());
        root.close();
        let spans = root.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].cell, Some(3));
        let st = self_times(&spans);
        assert_eq!(cell_residual(&spans, &st), (1, 0));
    }
}
