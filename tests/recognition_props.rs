//! Property tests for the recognition problem: on random well-designed
//! forests, the certificate-producing recognisers must agree exactly with
//! the width computations, certificates must verify, and the §3.2
//! collapse (dw = bw on UNION-free patterns) must carry over to the
//! recognisers.

use proptest::prelude::*;
use wdsparql::algebra::parse_pattern;
use wdsparql::hom::{ctw, maps_to};
use wdsparql::tree::Wdpf;
use wdsparql::width::{
    branch_treewidth, domination_width, dw_at_most, forest_subtrees, gtg, recognize_bw,
    recognize_dw, verify_dw_certificate, DwCertificate,
};
use wdsparql::workloads::{
    clique_child_tree, fk_forest, random_wdpf, random_wdpt, tprime_tree, RandomTreeParams,
};

fn small_params() -> RandomTreeParams {
    RandomTreeParams {
        max_nodes: 4,
        max_fanout: 2,
        max_triples_per_node: 2,
        n_predicates: 2,
        reuse_bias: 0.6,
    }
}

/// Forests with more and wider nodes than [`small_params`].
fn larger_params() -> RandomTreeParams {
    RandomTreeParams {
        max_nodes: 6,
        max_fanout: 3,
        max_triples_per_node: 3,
        n_predicates: 2,
        reuse_bias: 0.6,
    }
}

/// `dw(F)` straight from Definitions 1–2: every element's `ctw`, then the
/// least `k ≥ 1` at which, in every `GtG(T)`, each element of `ctw > k`
/// is the image of one of `ctw ≤ k`.
fn definitional_dw(f: &Wdpf) -> usize {
    let sets: Vec<_> = forest_subtrees(f)
        .iter()
        .map(|st| {
            let elements = gtg(f, st);
            let widths: Vec<usize> = elements.iter().map(|e| ctw(&e.graph).width).collect();
            (elements, widths)
        })
        .collect();
    let k_dominated = |k: usize| {
        sets.iter().all(|(elements, widths)| {
            (0..elements.len()).all(|i| {
                widths[i] <= k
                    || (0..elements.len())
                        .any(|d| widths[d] <= k && maps_to(&elements[d].graph, &elements[i].graph))
            })
        })
    };
    (1..)
        .find(|&k| k_dominated(k))
        .expect("k = max ctw dominates")
}

/// `domination_width` and `dw_at_most` at every `k` around it agree with
/// [`definitional_dw`].
fn agrees_with_the_definition(f: &Wdpf) -> Result<(), TestCaseError> {
    let dw = definitional_dw(f);
    prop_assert_eq!(domination_width(f), dw);
    for k in 0..=dw + 1 {
        prop_assert_eq!(
            dw_at_most(f, k),
            dw <= k,
            "dw_at_most(F, {}) with dw = {}",
            k,
            dw
        );
    }
    Ok(())
}

/// A width-1 child beside a `K_k` child, under a root that a second tree
/// shares: the root subtree's `GtG` holds an element of `ctw 1` that does
/// not map into the clique element, so `dw = k − 1` comes from there alone
/// (the second tree's loop brings every other clique element to `ctw 1`).
fn clique_beside_a_width_one_child(k: usize) -> Wdpf {
    let clique: Vec<String> = (1..=k)
        .flat_map(|i| ((i + 1)..=k).map(move |j| format!("(?o{i}, r, ?o{j})")))
        .collect();
    let text = format!(
        "(((?x, p, ?y) OPT (?y, q, ?z)) OPT ((?y, r, ?o1) AND {})) \
         UNION (((?x, p, ?y) AND (?y, q, ?z)) OPT ((?y, r, ?o) AND (?o, r, ?o)))",
        clique.join(" AND ")
    );
    Wdpf::from_pattern(&parse_pattern(&text).expect("parses")).expect("well-designed")
}

#[test]
fn the_paper_families_agree_with_the_definition() {
    let mut forests: Vec<Wdpf> = (2..=5).map(fk_forest).collect();
    forests.extend((3..=5).map(|k| Wdpf::new(vec![clique_child_tree(k)])));
    forests.extend((2..=4).map(|k| Wdpf::new(vec![tprime_tree(k)])));
    forests.extend((3..=4).map(clique_beside_a_width_one_child));
    for f in &forests {
        agrees_with_the_definition(f).unwrap();
    }
}

proptest! {
    // Most random forests have dw = 1; enough cases to draw some of dw 2.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The lazy widths (a core only where `tw` and the width-1 dominators
    /// leave the threshold open, one per distinct element) give the
    /// definition's answer.
    #[test]
    fn domination_width_matches_the_definition(seed in 0u64..3000) {
        agrees_with_the_definition(&random_wdpf(larger_params(), seed))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// `recognize_dw(F, k)` holds exactly for `k ≥ dw(F)`, and every
    /// positive certificate verifies.
    #[test]
    fn dw_recognition_matches_the_exact_width(seed in 0u64..3000) {
        let f = random_wdpf(small_params(), seed);
        let dw = domination_width(&f);
        // At the exact width: holds with a verifiable certificate.
        match recognize_dw(&f, dw) {
            DwCertificate::Holds(entries) => {
                prop_assert!(verify_dw_certificate(&f, dw, &entries));
            }
            DwCertificate::Violated(v) => {
                prop_assert!(false, "dw(F) = {dw} but k = {dw} violated: {v:?}");
            }
        }
        // Just below (when possible): violated with an honest witness.
        if dw > 1 {
            match recognize_dw(&f, dw - 1) {
                DwCertificate::Violated(v) => {
                    prop_assert!(v.element_ctw > dw - 1);
                }
                DwCertificate::Holds(_) => {
                    prop_assert!(false, "dw(F) = {dw} but k = {} accepted", dw - 1);
                }
            }
        }
    }

    /// `recognize_bw` agrees with `branch_treewidth`, and on UNION-free
    /// patterns with `recognize_dw` too (Proposition 5 at the level of
    /// deciders).
    #[test]
    fn bw_recognition_matches_and_collapses_to_dw(seed in 0u64..3000) {
        let t = random_wdpt(small_params(), seed);
        let bw = branch_treewidth(&t);
        prop_assert!(recognize_bw(&t, bw).holds());
        if bw > 1 {
            prop_assert!(!recognize_bw(&t, bw - 1).holds());
        }
        let f = wdsparql::tree::Wdpf::new(vec![t]);
        prop_assert_eq!(
            recognize_dw(&f, bw).holds(),
            true,
            "Proposition 5: dw = bw on UNION-free patterns"
        );
        if bw > 1 {
            prop_assert!(!recognize_dw(&f, bw - 1).holds());
        }
    }

    /// A certificate for width k is also valid testimony for any k' ≥ k
    /// (k-domination is monotone), and the verifier accepts it at k'.
    #[test]
    fn certificates_are_monotone_in_k(seed in 0u64..3000) {
        let f = random_wdpf(small_params(), seed);
        let dw = domination_width(&f);
        if let DwCertificate::Holds(entries) = recognize_dw(&f, dw) {
            prop_assert!(verify_dw_certificate(&f, dw + 1, &entries));
            prop_assert!(verify_dw_certificate(&f, dw + 3, &entries));
            // ...but not below the width it certifies.
            if dw > 1 {
                prop_assert!(!verify_dw_certificate(&f, dw - 1, &entries));
            }
        }
    }
}
