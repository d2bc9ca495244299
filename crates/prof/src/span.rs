//! Hierarchical host-time span profiler.
//!
//! The profiler is a thread-local frame stack: [`start`] plants an implicit
//! root span, [`span`] pushes an RAII guard whose `Drop` charges the
//! elapsed monotonic time to the node identified by its path of
//! `&'static str` names, and [`stop`] freezes the tree into a
//! [`ProfileReport`] with per-node self/total/call-count attribution.
//!
//! Cost model: when the profiler is not running, `span()` is one
//! thread-local boolean load. The hot path never allocates once a span
//! name has been seen at a given tree position.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use serde::{Deserialize, Serialize};

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static FRAMES: RefCell<Option<FrameStack>> = const { RefCell::new(None) };
}

/// Name given to the implicit root span.
pub const ROOT_SPAN: &str = "run";

struct NodeData {
    name: &'static str,
    children: Vec<usize>,
    calls: u64,
    total_ns: u64,
    child_ns: u64,
}

struct FrameStack {
    nodes: Vec<NodeData>,
    /// Indices into `nodes`; `stack[0]` is the root.
    stack: Vec<usize>,
    started: Instant,
}

impl FrameStack {
    fn new() -> Self {
        FrameStack {
            nodes: vec![NodeData {
                name: ROOT_SPAN,
                children: Vec::new(),
                calls: 1,
                total_ns: 0,
                child_ns: 0,
            }],
            stack: vec![0],
            started: Instant::now(),
        }
    }

    fn push(&mut self, name: &'static str) -> usize {
        let parent = *self.stack.last().expect("stack never empties");
        let found = self.nodes[parent]
            .children
            .iter()
            .copied()
            .find(|&c| std::ptr::eq(self.nodes[c].name, name) || self.nodes[c].name == name);
        let idx = match found {
            Some(i) => i,
            None => {
                let i = self.nodes.len();
                self.nodes.push(NodeData {
                    name,
                    children: Vec::new(),
                    calls: 0,
                    total_ns: 0,
                    child_ns: 0,
                });
                self.nodes[parent].children.push(i);
                i
            }
        };
        self.stack.push(idx);
        idx
    }

    fn pop(&mut self, idx: usize, elapsed_ns: u64) {
        // Unbalanced guards (e.g. a span leaked across `stop`) are ignored
        // rather than corrupting the tree.
        if self.stack.len() > 1 && *self.stack.last().unwrap() == idx {
            self.stack.pop();
            let node = &mut self.nodes[idx];
            node.calls += 1;
            node.total_ns += elapsed_ns;
            let parent = *self.stack.last().unwrap();
            self.nodes[parent].child_ns += elapsed_ns;
        }
    }

    fn finish(self) -> ProfileReport {
        let total_ns = self.started.elapsed().as_nanos() as u64;
        let root = build_node(&self.nodes, 0, total_ns);
        let coverage = if total_ns == 0 {
            1.0
        } else {
            (self.nodes[0].child_ns.min(total_ns)) as f64 / total_ns as f64
        };
        ProfileReport {
            total_ns,
            coverage,
            root,
        }
    }
}

fn build_node(nodes: &[NodeData], idx: usize, total_override: u64) -> ProfileNode {
    let n = &nodes[idx];
    let total_ns = if idx == 0 { total_override } else { n.total_ns };
    let mut children: Vec<ProfileNode> = n
        .children
        .iter()
        .map(|&c| build_node(nodes, c, 0))
        .collect();
    children.sort_by(|a, b| a.name.cmp(&b.name));
    ProfileNode {
        name: n.name.to_string(),
        calls: n.calls,
        total_ns,
        self_ns: total_ns.saturating_sub(n.child_ns),
        children,
    }
}

/// Starts profiling on the current thread, resetting any previous tree.
pub fn start() {
    FRAMES.with(|f| *f.borrow_mut() = Some(FrameStack::new()));
    ACTIVE.with(|a| a.set(true));
}

/// Stops profiling and returns the attribution tree, or `None` when the
/// profiler was not running.
pub fn stop() -> Option<ProfileReport> {
    ACTIVE.with(|a| a.set(false));
    FRAMES
        .with(|f| f.borrow_mut().take())
        .map(FrameStack::finish)
}

/// Whether the profiler is currently recording on this thread.
pub fn is_enabled() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Opens a span; time from now until the guard drops is charged to `name`
/// under the currently open span. A no-op (one boolean load) when the
/// profiler is off.
#[inline]
pub fn span(name: &'static str) -> ProfScope {
    if !ACTIVE.with(|a| a.get()) {
        return ProfScope { live: None };
    }
    let idx = FRAMES.with(|f| f.borrow_mut().as_mut().map(|s| s.push(name)));
    ProfScope {
        live: idx.map(|idx| (idx, Instant::now())),
    }
}

/// RAII span guard returned by [`span`].
pub struct ProfScope {
    live: Option<(usize, Instant)>,
}

impl Drop for ProfScope {
    #[inline]
    fn drop(&mut self) {
        if let Some((idx, started)) = self.live.take() {
            let elapsed = started.elapsed().as_nanos() as u64;
            FRAMES.with(|f| {
                if let Some(stack) = f.borrow_mut().as_mut() {
                    stack.pop(idx, elapsed);
                }
            });
        }
    }
}

/// One node of the attribution tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileNode {
    /// Span name (`&'static str` at record time).
    pub name: String,
    /// Number of times the span was entered.
    pub calls: u64,
    /// Wall time spent inside the span, children included.
    pub total_ns: u64,
    /// Wall time spent inside the span, children excluded.
    pub self_ns: u64,
    /// Child spans, sorted by name for deterministic serialization.
    pub children: Vec<ProfileNode>,
}

/// Host-time attribution tree produced by [`stop`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Wall time between `start()` and `stop()` in nanoseconds.
    pub total_ns: u64,
    /// Fraction of the wall time attributed to named spans (root children
    /// total over root total). The ci.sh gate requires ≥ 0.9 on a profiled
    /// smoke run.
    pub coverage: f64,
    /// Root of the tree; its name is [`ROOT_SPAN`].
    pub root: ProfileNode,
}

impl ProfileReport {
    /// Flattens the tree to `(name, self_ns)` pairs sorted by descending
    /// self time, the root excluded (its self time is unattributed wall
    /// time, not a component).
    pub fn top_self(&self) -> Vec<(String, u64)> {
        fn walk(node: &ProfileNode, acc: &mut Vec<(String, u64)>) {
            acc.push((node.name.clone(), node.self_ns));
            for c in &node.children {
                walk(c, acc);
            }
        }
        let mut acc = Vec::new();
        for c in &self.root.children {
            walk(c, &mut acc);
        }
        // Merge same-named spans appearing at different tree positions.
        acc.sort_by(|a, b| a.0.cmp(&b.0));
        acc.dedup_by(|dup, keep| {
            if dup.0 == keep.0 {
                keep.1 += dup.1;
                true
            } else {
                false
            }
        });
        acc.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        acc
    }

    /// Collapsed-stack export (`path;to;span self_ns` per line), the input
    /// format of `inferno-flamegraph` / Brendan Gregg's `flamegraph.pl`.
    pub fn collapsed(&self) -> String {
        fn walk(node: &ProfileNode, path: &mut Vec<String>, out: &mut String) {
            path.push(node.name.clone());
            if node.self_ns > 0 {
                out.push_str(&path.join(";"));
                out.push(' ');
                out.push_str(&node.self_ns.to_string());
                out.push('\n');
            }
            for c in &node.children {
                walk(c, path, out);
            }
            path.pop();
        }
        let mut out = String::new();
        let mut path = Vec::new();
        walk(&self.root, &mut path, &mut out);
        out
    }

    /// Merges another report into this one, adding calls and times of
    /// same-named nodes position-wise. Associative and commutative up to
    /// the deterministic child ordering, so aggregating per-job profiles
    /// is order-independent.
    pub fn merge(&mut self, other: &ProfileReport) {
        fn merge_node(into: &mut ProfileNode, from: &ProfileNode) {
            into.calls += from.calls;
            into.total_ns += from.total_ns;
            into.self_ns += from.self_ns;
            for fc in &from.children {
                match into.children.iter_mut().find(|c| c.name == fc.name) {
                    Some(ic) => merge_node(ic, fc),
                    None => into.children.push(fc.clone()),
                }
            }
            into.children.sort_by(|a, b| a.name.cmp(&b.name));
        }
        let self_total = self.total_ns + other.total_ns;
        merge_node(&mut self.root, &other.root);
        self.total_ns = self_total;
        self.root.total_ns = self_total;
        let attributed: u64 = self.root.children.iter().map(|c| c.total_ns).sum();
        self.root.self_ns = self_total.saturating_sub(attributed);
        self.coverage = if self_total == 0 {
            1.0
        } else {
            (attributed.min(self_total)) as f64 / self_total as f64
        };
    }

    /// Pretty JSON, with a `top_self` digest ahead of the tree so the
    /// hottest components are named without walking it.
    pub fn to_json(&self) -> String {
        use serde_json::Value;
        let digest: Vec<Value> = self
            .top_self()
            .into_iter()
            .map(|(name, self_ns)| {
                Value::Map(vec![
                    ("name".to_string(), Value::Str(name)),
                    ("self_ns".to_string(), Value::UInt(self_ns)),
                ])
            })
            .collect();
        let mut root = serde_json::to_value(self).expect("profile serializes");
        if let Value::Map(ref mut fields) = root {
            fields.insert(2, ("top_self".to_string(), Value::Seq(digest)));
        }
        serde_json::to_string_pretty(&root).expect("profile serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn busy(d: Duration) {
        let t0 = Instant::now();
        while t0.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn tree_attributes_nested_spans() {
        start();
        {
            let _a = span("tick");
            {
                let _b = span("mem");
                busy(Duration::from_millis(2));
            }
            {
                let _b = span("core");
                busy(Duration::from_millis(1));
            }
        }
        {
            let _a = span("tick");
            busy(Duration::from_millis(1));
        }
        let report = stop().expect("profiler was running");
        assert!(!is_enabled());
        assert_eq!(report.root.name, ROOT_SPAN);
        assert_eq!(report.root.children.len(), 1);
        let tick = &report.root.children[0];
        assert_eq!(tick.name, "tick");
        assert_eq!(tick.calls, 2);
        let names: Vec<&str> = tick.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["core", "mem"], "children sorted by name");
        assert!(tick.total_ns >= tick.children.iter().map(|c| c.total_ns).sum());
        assert!(
            report.coverage > 0.5,
            "almost all wall time sits under `tick`: {}",
            report.coverage
        );
        // Timing *relations* between spans are scheduler-dependent under
        // parallel test load, so assert structure only: both leaves are
        // present with non-zero self time, sorted by descending self time.
        let top = report.top_self();
        let names: Vec<&str> = top.iter().map(|(n, _)| n.as_str()).collect();
        assert!(
            names.contains(&"mem") && names.contains(&"core"),
            "{names:?}"
        );
        assert!(top.iter().all(|&(_, ns)| ns > 0));
        assert!(top.windows(2).all(|w| w[0].1 >= w[1].1), "sorted: {top:?}");
    }

    #[test]
    fn spans_without_start_are_noops() {
        assert!(!is_enabled());
        let g = span("orphan");
        drop(g);
        assert!(stop().is_none());
    }

    #[test]
    fn collapsed_stack_format() {
        start();
        {
            let _a = span("tick");
            let _b = span("mem");
            busy(Duration::from_millis(1));
        }
        let report = stop().unwrap();
        let folded = report.collapsed();
        assert!(
            folded.lines().any(|l| l.starts_with("run;tick;mem ")),
            "collapsed output has the full path: {folded:?}"
        );
        for line in folded.lines() {
            let (path, n) = line.rsplit_once(' ').expect("line has a count");
            assert!(!path.is_empty());
            n.parse::<u64>().expect("count is a number");
        }
    }

    #[test]
    fn merge_is_order_independent() {
        let mk = |ns: u64| {
            start();
            {
                let _a = span("tick");
                let _b = span("mem");
                busy(Duration::from_nanos(ns));
            }
            stop().unwrap()
        };
        let (a, b, c) = (mk(100), mk(300), mk(200));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left.total_ns, right.total_ns);
        assert_eq!(left.root, right.root);
        let mut rev = c;
        rev.merge(&b);
        rev.merge(&a);
        assert_eq!(rev.root.children, left.root.children);
    }

    #[test]
    fn json_names_top_components() {
        start();
        {
            let _a = span("tick");
            busy(Duration::from_millis(1));
        }
        let report = stop().unwrap();
        let json = report.to_json();
        assert!(json.contains("\"top_self\""));
        assert!(json.contains("\"tick\""));
        assert!(json.contains("\"coverage\""));
        let back: ProfileReport =
            serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
        assert_eq!(back, report);
    }
}
