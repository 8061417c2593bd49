//! Width recognition must not grow the process: the ρ_∆ renaming draws
//! from a reserved pool, so recognising the same forest again interns no
//! variable. One test, in a process of its own: the vocabulary is global.

use wdsparql::rdf::Variable;
use wdsparql::tree::{Wdpf, ROOT};
use wdsparql::width::{domination_width, gtg, ForestSubtree};
use wdsparql::workloads::{clique_child_tree, fk_forest, tprime_tree};

/// Ids are dense, so a newly interned probe's id counts the variables
/// interned before it.
fn interned(probe: &str) -> u32 {
    Variable::new(probe).id()
}

#[test]
fn recognising_a_forest_again_interns_no_variable() {
    let single = |t| Wdpf::new(vec![t]);
    let mut forests: Vec<(Wdpf, usize)> = Vec::new();
    for k in 2..=4 {
        forests.push((fk_forest(k), 1));
        forests.push((single(tprime_tree(k)), 1));
        forests.push((single(clique_child_tree(k)), (k - 1).max(1)));
    }
    // Example 4: GtG of the root subtree of T1 in F_k has two elements,
    // the second tree's child renamed apart from the first's.
    let root_gtg_vars = |f: &Wdpf| -> Vec<usize> {
        let st = ForestSubtree {
            tree: 0,
            nodes: [ROOT].into_iter().collect(),
        };
        gtg(f, &st).iter().map(|e| e.graph.s.vars().len()).collect()
    };

    let first: Vec<usize> = forests.iter().map(|(f, _)| domination_width(f)).collect();
    let first_gtg = root_gtg_vars(&forests[0].0);
    for ((_, expected), got) in forests.iter().zip(&first) {
        assert_eq!(got, expected);
    }
    // F_2's root: {x, y} plus z (n11) or o1, o2 (n12), plus z, w (n2).
    assert_eq!(first_gtg, vec![5, 6]);

    let before = interned("interning-probe-before");
    let second: Vec<usize> = forests.iter().map(|(f, _)| domination_width(f)).collect();
    let second_gtg = root_gtg_vars(&forests[0].0);
    let after = interned("interning-probe-after");
    assert_eq!(second, first);
    assert_eq!(second_gtg, first_gtg);
    assert_eq!(after, before + 1, "the second pass interned variables");
}
