//! The node-to-thread mapping type `T(v)`.

use std::fmt;

use rtpool_graph::{Dag, NodeId};

use crate::error::CoreError;

/// Identifier of a thread `φ_{i,j}` within a task's pool; under
/// partitioned scheduling thread `j` is statically pinned to core `j`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ThreadId(u32);

impl ThreadId {
    /// A placeholder for a node not placed yet; no pool reaches it.
    pub(crate) const UNASSIGNED: ThreadId = ThreadId(u32::MAX);

    /// Creates a thread id from a pool-local index.
    #[must_use]
    pub fn new(index: usize) -> Self {
        ThreadId(u32::try_from(index).expect("thread index exceeds u32::MAX"))
    }

    /// The pool-local index (equals the core index under partitioned
    /// scheduling).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "φ{}", self.0)
    }
}

/// A complete node-to-thread mapping `T : Vᵢ → Φᵢ` for one task.
///
/// # Examples
///
/// ```
/// use rtpool_core::partition::{NodeMapping, ThreadId};
/// use rtpool_graph::DagBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = DagBuilder::new();
/// let a = b.add_node(4);
/// let c = b.add_node(6);
/// b.add_edge(a, c)?;
/// let dag = b.build()?;
/// let mapping = NodeMapping::from_threads(&dag, 2, vec![0, 1])?;
/// assert_eq!(mapping.thread_of(a), ThreadId::new(0));
/// assert_eq!(mapping.loads(&dag), vec![4, 6]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeMapping {
    threads: Vec<ThreadId>,
    pool_size: usize,
}

impl NodeMapping {
    /// Builds a mapping from raw per-node thread indices (indexed by node
    /// id) for a pool of `pool_size` threads.
    ///
    /// # Errors
    ///
    /// * [`CoreError::IncompleteMapping`] if `threads.len()` differs from
    ///   the node count of `dag`;
    /// * [`CoreError::ThreadOutOfRange`] if any index is `>= pool_size`.
    pub fn from_threads(
        dag: &Dag,
        pool_size: usize,
        threads: Vec<usize>,
    ) -> Result<Self, CoreError> {
        if threads.len() != dag.node_count() {
            return Err(CoreError::IncompleteMapping);
        }
        for &t in &threads {
            if t >= pool_size {
                return Err(CoreError::ThreadOutOfRange {
                    thread: t,
                    pool_size,
                });
            }
        }
        Ok(NodeMapping {
            threads: threads.into_iter().map(ThreadId::new).collect(),
            pool_size,
        })
    }

    /// Internal constructor from already-typed ids (callers guarantee
    /// completeness and range).
    pub(crate) fn from_ids(threads: Vec<ThreadId>, pool_size: usize) -> Self {
        debug_assert!(threads.iter().all(|t| t.index() < pool_size));
        NodeMapping { threads, pool_size }
    }

    /// `T(v)` of every node, by node id.
    pub(crate) fn threads(&self) -> &[ThreadId] {
        &self.threads
    }

    /// `T(v)`: the thread node `v` is dispatched to.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for the mapped graph.
    #[must_use]
    pub fn thread_of(&self, v: NodeId) -> ThreadId {
        self.threads[v.index()]
    }

    /// Number of threads in the pool (`m`).
    #[must_use]
    pub fn pool_size(&self) -> usize {
        self.pool_size
    }

    /// Number of mapped nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.threads.len()
    }

    /// Total WCET assigned to each thread (indexed by thread id).
    ///
    /// # Panics
    ///
    /// Panics if `dag` has a different node count than the mapping.
    #[must_use]
    pub fn loads(&self, dag: &Dag) -> Vec<u64> {
        assert_eq!(dag.node_count(), self.threads.len(), "mapping/dag mismatch");
        let mut loads = vec![0u64; self.pool_size];
        for v in dag.node_ids() {
            loads[self.thread_of(v).index()] += dag.wcet(v);
        }
        loads
    }

    /// Iterates over `(node, thread)` pairs in node-id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (NodeId, ThreadId)> + '_ {
        self.threads
            .iter()
            .enumerate()
            .map(|(i, &t)| (NodeId::from_index(i), t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpool_graph::DagBuilder;

    fn chain(n: usize) -> Dag {
        let mut b = DagBuilder::new();
        let ids: Vec<NodeId> = (0..n).map(|i| b.add_node(i as u64 + 1)).collect();
        b.add_chain(&ids).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn from_threads_validates() {
        let dag = chain(3);
        assert!(matches!(
            NodeMapping::from_threads(&dag, 2, vec![0, 1]),
            Err(CoreError::IncompleteMapping)
        ));
        assert!(matches!(
            NodeMapping::from_threads(&dag, 2, vec![0, 1, 2]),
            Err(CoreError::ThreadOutOfRange {
                thread: 2,
                pool_size: 2
            })
        ));
        let m = NodeMapping::from_threads(&dag, 2, vec![0, 1, 0]).unwrap();
        assert_eq!(m.pool_size(), 2);
        assert_eq!(m.node_count(), 3);
    }

    #[test]
    fn loads_sum_wcets_per_thread() {
        let dag = chain(4); // wcets 1,2,3,4
        let m = NodeMapping::from_threads(&dag, 2, vec![0, 1, 0, 1]).unwrap();
        assert_eq!(m.loads(&dag), vec![4, 6]);
        assert_eq!(m.iter().count(), 4);
    }

    #[test]
    fn thread_id_display() {
        assert_eq!(ThreadId::new(3).to_string(), "φ3");
        assert_eq!(ThreadId::new(3).index(), 3);
    }
}
