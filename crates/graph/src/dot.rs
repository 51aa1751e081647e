//! Graphviz DOT export for visual inspection of task graphs.

use std::fmt::Write as _;

use crate::dag::Dag;
use crate::node::NodeKind;

fn kind_color(kind: NodeKind) -> &'static str {
    match kind {
        NodeKind::NonBlocking => "#f3f6fc",
        NodeKind::BlockingFork => "#ffd9a8",
        NodeKind::BlockingJoin => "#ffeccc",
        NodeKind::BlockingChild => "#d6e8ff",
    }
}

impl Dag {
    /// Renders the graph in Graphviz DOT syntax as the digraph `name`
    /// (which must be a valid DOT identifier).
    ///
    /// Each node is labeled with its id, the paper's two-letter kind
    /// abbreviation and its WCET, and filled with a per-kind color,
    /// making the blocking regions visually obvious.
    ///
    /// # Examples
    ///
    /// ```
    /// use rtpool_graph::DagBuilder;
    ///
    /// # fn main() -> Result<(), rtpool_graph::GraphError> {
    /// let mut b = DagBuilder::new();
    /// let (_f, _j) = b.fork_join(1, &[2, 3], 1, true)?;
    /// let dag = b.build()?;
    /// let dot = dag.to_dot("fig1a");
    /// assert!(dot.starts_with("digraph fig1a"));
    /// assert!(dot.contains("BF"));
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn to_dot(&self, name: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph {name} {{");
        let _ = writeln!(out, "  rankdir=TB;");
        let _ = writeln!(out, "  node [shape=ellipse, style=filled];");
        for v in self.node_ids() {
            let kind = self.kind(v);
            let _ = writeln!(
                out,
                "  {} [label=\"{v}\\n{} C={}\", fillcolor=\"{}\"];",
                v.index(),
                kind.short_name(),
                self.wcet(v),
                kind_color(kind)
            );
        }
        for v in self.node_ids() {
            for s in self.successors(v) {
                let _ = writeln!(out, "  {} -> {};", v.index(), s.index());
            }
        }
        let _ = writeln!(out, "}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::DagBuilder;

    #[test]
    fn dot_contains_all_nodes_and_edges() {
        let mut b = DagBuilder::new();
        let a = b.add_node(3);
        let c = b.add_node(4);
        b.add_edge(a, c).unwrap();
        let dag = b.build().unwrap();
        let dot = dag.to_dot("dag");
        assert!(dot.contains("0 [label=\"v0\\nNB C=3\""));
        assert!(dot.contains("1 [label=\"v1\\nNB C=4\""));
        assert!(dot.contains("0 -> 1;"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn blocking_kinds_labeled() {
        let mut b = DagBuilder::new();
        b.fork_join(1, &[1], 1, true).unwrap();
        let dag = b.build().unwrap();
        let dot = dag.to_dot("dag");
        assert!(dot.contains("BF"));
        assert!(dot.contains("BJ"));
        assert!(dot.contains("BC"));
    }
}
