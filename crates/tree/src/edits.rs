//! Structural clean-ups used between CBS phases.
//!
//! Paper Fig. 2: step 2 extracts the BST topology "in which the redundant
//! Steiner nodes will be eliminated"; step 4 traverses all nodes to
//! ensure "1) the tree should be a binary tree, and 2) the load pin nodes
//! must be leaf nodes". These passes implement exactly those rules.

use crate::{ClockTree, NodeId, NodeKind};

/// Removes redundant Steiner nodes: Steiner leaves are deleted and
/// pass-through (degree-1) Steiner nodes are spliced out, with routed
/// lengths preserved. Runs to a fixed point; returns how many nodes were
/// removed.
///
/// Each pass visits the live nodes in arena order but skips clean ones:
/// a node found with two or more children keeps that degree until one
/// of its leaves is removed, which dirties it (a splice hands the parent
/// a new child in place of the old, so degrees stand). The removals are
/// exactly those of a full rescan (DESIGN.md §4f).
pub fn eliminate_redundant_steiner(tree: &mut ClockTree) -> usize {
    let mut removed = 0;
    let mut ids: Vec<NodeId> = Vec::with_capacity(tree.len());
    let mut dirty = vec![true; tree.arena_len()];
    loop {
        let mut changed = false;
        ids.clear();
        ids.extend(tree.node_ids());
        for &id in &ids {
            if !dirty[id.index()] || !tree.is_alive(id) || id == tree.root() {
                continue;
            }
            dirty[id.index()] = false;
            let n = tree.node(id);
            if !n.kind.is_steiner() {
                continue;
            }
            match n.children().len() {
                0 => {
                    let parent = n.parent().expect("non-root node has a parent");
                    tree.remove_leaf(id);
                    dirty[parent.index()] = true;
                    removed += 1;
                    changed = true;
                }
                1 => {
                    tree.splice_out(id);
                    removed += 1;
                    changed = true;
                }
                _ => {}
            }
        }
        if !changed {
            return removed;
        }
    }
}

/// Ensures every load pin is a leaf (CBS step 4, rule 2): an internal sink
/// is replaced by a Steiner point at the same location, with the sink
/// re-attached below it through a zero-length edge. Returns the number of
/// sinks that were pushed down.
pub fn sinks_to_leaves(tree: &mut ClockTree) -> usize {
    let mut pushed = 0;
    let ids: Vec<NodeId> = tree.node_ids().collect();
    for id in ids {
        let n = tree.node(id);
        let (cap_ff, sink_index) = match n.kind {
            NodeKind::Sink { cap_ff, sink_index } if !n.children().is_empty() => {
                (cap_ff, sink_index)
            }
            _ => continue,
        };
        let pos = tree.node(id).pos;
        // Demote the internal node to a Steiner point…
        tree.set_kind(id, NodeKind::Steiner);
        // …and hang the actual load pin underneath with zero wire.
        tree.add_sink_indexed(id, pos, cap_ff, sink_index);
        pushed += 1;
    }
    pushed
}

/// Ensures no node has more than two children (CBS step 4, rule 1) by
/// inserting zero-length Steiner nodes. Children are paired by a blend of
/// proximity and subtree-depth similarity: the grouping becomes the merge
/// order of the downstream DME re-embedding, where merging a deep subtree
/// with a shallow neighbour costs detour wire. Returns the number of
/// Steiner nodes inserted.
pub fn binarize(tree: &mut ClockTree) -> usize {
    // Deepest routed path below each node (0 for leaves), used as the
    // delay proxy when pairing.
    let mut depth_below = vec![0.0f64; tree.arena_len()];
    let order = tree.topo_order();
    for &id in order.iter().rev() {
        if let Some(p) = tree.node(id).parent() {
            let cand = depth_below[id.index()] + tree.node(id).edge_len();
            if cand > depth_below[p.index()] {
                depth_below[p.index()] = cand;
            }
        }
    }

    let mut inserted = 0;
    let mut stack = vec![tree.root()];
    while let Some(id) = stack.pop() {
        while tree.node(id).children().len() > 2 {
            let kids = tree.node(id).children().to_vec();
            let mut best = (0usize, 1usize, f64::INFINITY);
            for i in 0..kids.len() {
                for j in (i + 1)..kids.len() {
                    let (a, b) = (kids[i], kids[j]);
                    let d = tree.node(a).pos.dist(tree.node(b).pos);
                    let da = depth_below[a.index()] + tree.node(a).edge_len();
                    let db = depth_below[b.index()] + tree.node(b).edge_len();
                    let cost = d + (da - db).abs();
                    if cost < best.2 {
                        best = (i, j, cost);
                    }
                }
            }
            let (a, b) = (kids[best.0], kids[best.1]);
            let pos = tree.node(id).pos;
            let grouped_depth = (depth_below[a.index()] + tree.node(a).edge_len())
                .max(depth_below[b.index()] + tree.node(b).edge_len());
            let group = tree.add_steiner(id, pos);
            tree.reparent(a, group);
            tree.reparent(b, group);
            if depth_below.len() <= group.index() {
                depth_below.resize(group.index() + 1, 0.0);
            }
            depth_below[group.index()] = grouped_depth;
            inserted += 1;
        }
        stack.extend(tree.node(id).children());
    }
    inserted
}

/// The full-rescan form of [`eliminate_redundant_steiner`]: every pass
/// revisits every live node. Equivalence oracle for the worklist pass.
#[cfg(test)]
pub(crate) fn eliminate_redundant_steiner_oracle(tree: &mut ClockTree) -> usize {
    let mut removed = 0;
    loop {
        let mut changed = false;
        let ids: Vec<NodeId> = tree.node_ids().collect();
        for id in ids {
            if !tree.is_alive(id) || id == tree.root() {
                continue;
            }
            let n = tree.node(id);
            if !n.kind.is_steiner() {
                continue;
            }
            match n.children().len() {
                0 => {
                    tree.remove_leaf(id);
                    removed += 1;
                    changed = true;
                }
                1 => {
                    tree.splice_out(id);
                    removed += 1;
                    changed = true;
                }
                _ => {}
            }
        }
        if !changed {
            return removed;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sllt_geom::Point;

    #[test]
    fn steiner_leaf_and_passthrough_removed() {
        let mut t = ClockTree::new(Point::ORIGIN);
        let a = t.add_steiner(t.root(), Point::new(2.0, 0.0)); // pass-through
        let b = t.add_steiner(a, Point::new(4.0, 0.0));
        t.add_sink(b, Point::new(6.0, 0.0), 1.0);
        t.add_steiner(b, Point::new(4.0, 2.0)); // dead leaf
        let removed = eliminate_redundant_steiner(&mut t);
        // The dead leaf goes first; that makes b pass-through, and removing
        // b makes a pass-through too — the cascade removes all three.
        assert_eq!(removed, 3);
        t.validate().unwrap();
        // The sink keeps its full routed length through the spliced point.
        let sinks = t.sinks();
        assert_eq!(t.path_lengths()[sinks[0].index()], 6.0);
    }

    #[test]
    fn cascading_removal_reaches_fixed_point() {
        // steiner -> steiner -> steiner (all pass-through/leaf chains).
        let mut t = ClockTree::new(Point::ORIGIN);
        let a = t.add_steiner(t.root(), Point::new(1.0, 0.0));
        let b = t.add_steiner(a, Point::new(2.0, 0.0));
        t.add_steiner(b, Point::new(3.0, 0.0));
        let removed = eliminate_redundant_steiner(&mut t);
        assert_eq!(removed, 3);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn internal_sinks_become_leaves() {
        let mut t = ClockTree::new(Point::ORIGIN);
        let s = t.add_sink(t.root(), Point::new(3.0, 0.0), 2.5);
        t.add_sink(s, Point::new(6.0, 0.0), 1.0);
        assert_eq!(sinks_to_leaves(&mut t), 1);
        t.validate().unwrap();
        // Both pins are now leaves; total cap is preserved.
        let sinks = t.sinks();
        assert_eq!(sinks.len(), 2);
        for id in &sinks {
            assert!(t.node(*id).children().is_empty());
        }
        let total: f64 = sinks.iter().map(|&id| t.node(id).cap_ff()).sum();
        assert!((total - 3.5).abs() < 1e-12);
        // Wirelength unchanged: the new leaf edge is zero-length.
        assert!((t.wirelength() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn binarize_splits_high_degree_nodes() {
        let mut t = ClockTree::new(Point::ORIGIN);
        for i in 0..5 {
            t.add_sink(t.root(), Point::new(i as f64, 1.0), 1.0);
        }
        let inserted = binarize(&mut t);
        assert_eq!(inserted, 3, "5 children need 3 grouping nodes");
        t.validate().unwrap();
        for id in t.node_ids() {
            assert!(t.node(id).children().len() <= 2, "node {id} still fat");
        }
        assert_eq!(t.sinks().len(), 5);
    }

    #[test]
    fn binarize_groups_nearest_children() {
        let mut t = ClockTree::new(Point::ORIGIN);
        let far = t.add_sink(t.root(), Point::new(50.0, 0.0), 1.0);
        let a = t.add_sink(t.root(), Point::new(1.0, 1.0), 1.0);
        let b = t.add_sink(t.root(), Point::new(1.0, 2.0), 1.0);
        binarize(&mut t);
        // a and b (1 µm apart) share a parent; far does not.
        assert_eq!(t.node(a).parent(), t.node(b).parent());
        assert_ne!(t.node(a).parent(), t.node(far).parent());
    }

    #[test]
    fn full_normalization_pipeline() {
        // A messy tree: fat root, internal sink, redundant steiner chain.
        let mut t = ClockTree::new(Point::ORIGIN);
        let s0 = t.add_sink(t.root(), Point::new(2.0, 0.0), 1.0);
        t.add_sink(s0, Point::new(4.0, 0.0), 1.0);
        let st = t.add_steiner(t.root(), Point::new(0.0, 2.0));
        t.add_steiner(st, Point::new(0.0, 4.0));
        t.add_sink(t.root(), Point::new(-2.0, 0.0), 1.0);
        t.add_sink(t.root(), Point::new(-2.0, 1.0), 1.0);

        eliminate_redundant_steiner(&mut t);
        sinks_to_leaves(&mut t);
        binarize(&mut t);
        t.validate().unwrap();
        for id in t.node_ids() {
            let n = t.node(id);
            assert!(n.children().len() <= 2);
            if n.kind.is_sink() {
                assert!(n.children().is_empty());
            }
        }
        assert_eq!(t.sinks().len(), 4);
    }

    /// A random tree over coarse-grid points (so positions coincide):
    /// each node hangs under a random earlier node as a Steiner point or
    /// a sink, a quarter of the edges carry detour wire, and a round of
    /// shortcut reparents (as SALT applies) strands Steiner leaves and
    /// pass-through chains.
    fn random_tree(seed: u64, n: usize) -> ClockTree {
        use sllt_rng::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        let pt = |rng: &mut StdRng| {
            Point::new(
                rng.random_range(0..6) as f64 * 5.0,
                rng.random_range(0..6) as f64 * 5.0,
            )
        };
        let mut t = ClockTree::new(pt(&mut rng));
        for i in 1..n {
            let parent = NodeId(rng.random_range(0..i));
            let pos = pt(&mut rng);
            let parent_is_sink = t.node(parent).kind.is_sink();
            let id = if parent_is_sink || rng.random_range(0..2) == 0 {
                t.add_steiner(parent, pos)
            } else {
                t.add_sink(parent, pos, 1.0)
            };
            if rng.random_range(0..4) == 0 {
                t.add_detour(id, rng.random_range(0.5..10.0));
            }
        }
        for _ in 0..n / 3 {
            let v = NodeId(rng.random_range(1..n));
            // Shortcut to a random strict ancestor other than the parent.
            let mut ancestors = Vec::new();
            let mut cur = t.node(v).parent().and_then(|p| t.node(p).parent());
            while let Some(a) = cur {
                ancestors.push(a);
                cur = t.node(a).parent();
            }
            if !ancestors.is_empty() {
                let to = ancestors[rng.random_range(0..ancestors.len())];
                t.reparent(v, to);
            }
        }
        t
    }

    fn assert_elimination_matches_oracle(tree: &ClockTree, what: &str) {
        let (mut fast, mut slow) = (tree.clone(), tree.clone());
        let removed = eliminate_redundant_steiner(&mut fast);
        assert_eq!(
            removed,
            eliminate_redundant_steiner_oracle(&mut slow),
            "{what}"
        );
        assert_eq!(fast, slow, "{what}");
        assert_eq!(
            crate::codec::encode_tree(&fast),
            crate::codec::encode_tree(&slow),
            "{what}"
        );
    }

    #[test]
    fn worklist_elimination_matches_oracle() {
        for seed in 0..200 {
            let n = 1 + (seed as usize * 13) % 120;
            let tree = random_tree(seed, n);
            assert_elimination_matches_oracle(&tree, &format!("seed {seed}, {n} nodes"));
            // Normalized the way CBS step 4 leaves trees.
            let mut normalized = tree;
            eliminate_redundant_steiner(&mut normalized);
            sinks_to_leaves(&mut normalized);
            binarize(&mut normalized);
            assert_elimination_matches_oracle(&normalized, &format!("seed {seed} normalized"));
        }
    }

    #[test]
    fn worklist_elimination_revisits_forks_left_pass_through() {
        // A spine of forks, each with a dead Steiner leaf: the first pass
        // removes the leaves after their forks were visited, so only the
        // dirty marks bring the forks (now pass-through) back in the
        // second pass.
        let mut t = ClockTree::new(Point::ORIGIN);
        let mut cur = t.root();
        for i in 0..300 {
            let fork = t.add_steiner(cur, Point::new(i as f64, 0.0));
            t.add_steiner(fork, Point::new(i as f64, 1.0));
            cur = fork;
        }
        assert_elimination_matches_oracle(&t, "chain");
        eliminate_redundant_steiner(&mut t);
        assert!(t.is_empty());
    }

    #[test]
    #[cfg(feature = "proptest")]
    fn proptest_worklist_elimination_matches_oracle() {
        use proptest::prelude::*;
        proptest!(|(seed in 0u64..100_000, n in 1usize..300)| {
            assert_elimination_matches_oracle(&random_tree(seed, n), "random tree");
        });
    }
}
