//! Small undirected graphs with bitset adjacency, used for Gaifman graphs,
//! treewidth computations and the hardness constructions (grids, cliques,
//! minors).

use std::fmt;

/// A growable bitset over `usize` indices.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    pub fn new() -> BitSet {
        BitSet::default()
    }

    pub fn with_capacity(bits: usize) -> BitSet {
        BitSet {
            words: vec![0; bits.div_ceil(64)],
        }
    }

    fn ensure(&mut self, bit: usize) {
        let need = bit / 64 + 1;
        if self.words.len() < need {
            self.words.resize(need, 0);
        }
    }

    pub fn insert(&mut self, bit: usize) -> bool {
        self.ensure(bit);
        let w = &mut self.words[bit / 64];
        let mask = 1u64 << (bit % 64);
        let was = *w & mask != 0;
        *w |= mask;
        !was
    }

    pub fn remove(&mut self, bit: usize) {
        if bit / 64 < self.words.len() {
            self.words[bit / 64] &= !(1u64 << (bit % 64));
        }
    }

    pub fn contains(&self, bit: usize) -> bool {
        self.words
            .get(bit / 64)
            .is_some_and(|w| w & (1u64 << (bit % 64)) != 0)
    }

    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> BitSet {
        let mut s = BitSet::new();
        for b in iter {
            s.insert(b);
        }
        s
    }
}

/// An undirected simple graph on vertices `0..n`.
#[derive(Clone, PartialEq, Eq)]
pub struct UGraph {
    n: usize,
    adj: Vec<BitSet>,
}

impl UGraph {
    pub fn new(n: usize) -> UGraph {
        UGraph {
            n,
            adj: vec![BitSet::new(); n],
        }
    }

    pub fn n(&self) -> usize {
        self.n
    }

    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(u < self.n && v < self.n, "vertex out of range");
        if u == v {
            return; // simple graph: ignore self-loops
        }
        self.adj[u].insert(v);
        self.adj[v].insert(u);
    }

    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        u < self.n && self.adj[u].contains(v)
    }

    pub fn neighbors(&self, u: usize) -> &BitSet {
        &self.adj[u]
    }

    pub fn degree(&self, u: usize) -> usize {
        self.adj[u].len()
    }

    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(BitSet::len).sum::<usize>() / 2
    }

    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for u in 0..self.n {
            for v in self.adj[u].iter() {
                if u < v {
                    out.push((u, v));
                }
            }
        }
        out
    }

    /// Connected components as vertex lists.
    pub fn components(&self) -> Vec<Vec<usize>> {
        let mut seen = vec![false; self.n];
        let mut comps = Vec::new();
        for start in 0..self.n {
            if seen[start] {
                continue;
            }
            let mut comp = vec![start];
            seen[start] = true;
            let mut stack = vec![start];
            while let Some(u) = stack.pop() {
                for v in self.adj[u].iter() {
                    if !seen[v] {
                        seen[v] = true;
                        comp.push(v);
                        stack.push(v);
                    }
                }
            }
            comp.sort_unstable();
            comps.push(comp);
        }
        comps
    }

    pub fn is_connected(&self) -> bool {
        self.n <= 1 || self.components().len() == 1
    }

    /// The subgraph induced by `verts`; returns the graph and the map from
    /// new indices to original vertices.
    pub fn induced(&self, verts: &[usize]) -> (UGraph, Vec<usize>) {
        let mut index = vec![usize::MAX; self.n];
        for (i, &v) in verts.iter().enumerate() {
            index[v] = i;
        }
        let mut g = UGraph::new(verts.len());
        for (i, &v) in verts.iter().enumerate() {
            for w in self.adj[v].iter() {
                if index[w] != usize::MAX && index[w] > i {
                    g.add_edge(i, index[w]);
                }
            }
        }
        (g, verts.to_vec())
    }

    /// The complete graph `K_n`.
    pub fn complete(n: usize) -> UGraph {
        let mut g = UGraph::new(n);
        for u in 0..n {
            for v in u + 1..n {
                g.add_edge(u, v);
            }
        }
        g
    }

    /// The path with `n` vertices.
    pub fn path(n: usize) -> UGraph {
        let mut g = UGraph::new(n);
        for u in 1..n {
            g.add_edge(u - 1, u);
        }
        g
    }

    /// The cycle with `n ≥ 3` vertices.
    pub fn cycle(n: usize) -> UGraph {
        assert!(n >= 3, "a cycle needs at least 3 vertices");
        let mut g = UGraph::path(n);
        g.add_edge(n - 1, 0);
        g
    }

    /// The `rows × cols` grid: vertex `(i, j)` is index `i * cols + j`, with
    /// edges between positions at Manhattan distance 1 (§4.2/appendix).
    pub fn grid(rows: usize, cols: usize) -> UGraph {
        let mut g = UGraph::new(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                let u = i * cols + j;
                if j + 1 < cols {
                    g.add_edge(u, u + 1);
                }
                if i + 1 < rows {
                    g.add_edge(u, u + cols);
                }
            }
        }
        g
    }

    /// Erdős–Rényi-style random graph (used by tests and workloads; the
    /// caller supplies its own RNG as a closure returning `true` with the
    /// desired edge probability).
    pub fn random(n: usize, mut coin: impl FnMut() -> bool) -> UGraph {
        let mut g = UGraph::new(n);
        for u in 0..n {
            for v in u + 1..n {
                if coin() {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }
}

impl fmt::Debug for UGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "UGraph(n={}, edges={:?})", self.n, self.edges())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_basic_ops() {
        let mut s = BitSet::new();
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.insert(100));
        assert!(s.contains(3) && s.contains(100) && !s.contains(4));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 100]);
        s.remove(3);
        assert!(!s.contains(3));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn self_loops_are_ignored() {
        let mut g = UGraph::new(2);
        g.add_edge(0, 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn complete_graph_shape() {
        let g = UGraph::complete(5);
        assert_eq!(g.edge_count(), 10);
        assert!(g.is_connected());
        assert_eq!(g.degree(2), 4);
    }

    #[test]
    fn grid_shape() {
        let g = UGraph::grid(3, 4);
        assert_eq!(g.n(), 12);
        // 3*(4-1) horizontal + (3-1)*4 vertical = 9 + 8
        assert_eq!(g.edge_count(), 17);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(0, 4));
        assert!(!g.has_edge(3, 4)); // row wrap is not an edge
    }

    #[test]
    fn components_and_induced() {
        let mut g = UGraph::new(5);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        let comps = g.components();
        assert_eq!(comps, vec![vec![0, 1], vec![2, 3], vec![4]]);
        let (sub, map) = g.induced(&[2, 3, 4]);
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.edge_count(), 1);
        assert!(sub.has_edge(0, 1));
        assert_eq!(map, vec![2, 3, 4]);
    }

    #[test]
    fn path_and_cycle() {
        assert_eq!(UGraph::path(4).edge_count(), 3);
        assert_eq!(UGraph::cycle(4).edge_count(), 4);
        assert!(UGraph::path(1).is_connected());
        assert!(UGraph::new(0).is_connected());
    }
}
