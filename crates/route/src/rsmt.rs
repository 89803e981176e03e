//! Rectilinear Steiner minimum tree heuristic (FLUTE substitute).
//!
//! Two stages:
//!
//! 1. **RMST** — a Prim minimum spanning tree in the L1 metric rooted at
//!    the clock source,
//! 2. **Steinerization** — repeated best-gain insertion of median points:
//!    for a node `v` with neighbours `a, b`, the component-wise median `m`
//!    of `(v, a, b)` lies inside both `bbox(a, v)` and `bbox(b, v)`, so
//!    replacing the star `{v–a, v–b}` by `{v–m, m–a, m–b}` never lengthens
//!    any source→sink path while saving `d(v,a) + d(v,b) − d(v,m) −
//!    d(m,a) − d(m,b)` µm of wire.
//!
//! On 10–40-pin clock nets this lands within a few percent of FLUTE's
//! wirelength (the RMST is at most 1.5× the RSMT; Steinerization
//! recovers most of the gap), which is all the lightness baseline of the
//! paper needs — see `DESIGN.md` for the substitution note.

use sllt_geom::Point;
use sllt_tree::{ClockNet, ClockTree, NodeId};

/// Builds the rectilinear *spanning* tree (no Steiner points), rooted at
/// the net's source. Runs Prim in O(n²).
pub fn rmst(net: &ClockNet) -> ClockTree {
    let n = net.sinks.len();
    // Room for the Steiner points [`steinerize`] adds (at most n − 1).
    let mut tree = ClockTree::with_capacity(net.source, 2 * n + 1);
    if n == 0 {
        return tree;
    }
    // points[0] = source, points[i+1] = sink i.
    let mut pts = Vec::with_capacity(n + 1);
    pts.push(net.source);
    pts.extend(net.sinks.iter().map(|s| s.pos));

    let mut in_tree = vec![false; n + 1];
    let mut best_dist = vec![f64::INFINITY; n + 1];
    let mut best_link = vec![0usize; n + 1];
    let mut node_of: Vec<Option<NodeId>> = vec![None; n + 1];

    in_tree[0] = true;
    node_of[0] = Some(tree.root());
    for i in 1..=n {
        best_dist[i] = pts[0].dist(pts[i]);
    }
    for _ in 0..n {
        // Pick the closest unattached point.
        let (mut pick, mut pick_d) = (usize::MAX, f64::INFINITY);
        for i in 1..=n {
            if !in_tree[i] && best_dist[i] < pick_d {
                pick = i;
                pick_d = best_dist[i];
            }
        }
        let parent = node_of[best_link[pick]].expect("link is in tree");
        let sink = &net.sinks[pick - 1];
        let id = tree.add_sink_indexed(parent, sink.pos, sink.cap_ff, pick - 1);
        node_of[pick] = Some(id);
        in_tree[pick] = true;
        for i in 1..=n {
            if !in_tree[i] {
                let d = pts[pick].dist(pts[i]);
                if d < best_dist[i] {
                    best_dist[i] = d;
                    best_link[i] = pick;
                }
            }
        }
    }
    tree
}

/// Builds a rectilinear Steiner tree: [`rmst`] followed by
/// [`steinerize`]. The result's wirelength is the workspace's lightness
/// reference (`β`-denominator).
pub fn rsmt(net: &ClockNet) -> ClockTree {
    // The quadratic Prim is fine for CTS-sized nets; whole-design nets go
    // through the octant-graph MST (same weight, near-linear).
    let mut tree = if net.len() > 512 {
        crate::rmst_fast::rmst_octant(net)
    } else {
        rmst(net)
    };
    steinerize(&mut tree);
    tree
}

/// Convenience: the RSMT wirelength of a net, µm.
pub fn rsmt_wirelength(net: &ClockNet) -> f64 {
    rsmt(net).wirelength()
}

/// Component-wise median of three points.
fn median3(a: Point, b: Point, c: Point) -> Point {
    fn med(x: f64, y: f64, z: f64) -> f64 {
        x.max(y).min(x.max(z)).min(y.max(z))
    }
    Point::new(med(a.x, b.x, c.x), med(a.y, b.y, c.y))
}

/// Greedy median-point Steinerization. Mutates `tree` in place; returns
/// the total wirelength saved.
///
/// Only straight-distance edges are touched: an edge carrying detour wire
/// (routed length above the Manhattan distance) is left alone, since the
/// detour encodes a deliberate delay-balancing decision.
///
/// Runs bounded passes over the live nodes in arena order, applying the
/// best-gain move at each node until none is left. A pass skips *clean*
/// nodes — ones whose neighbourhood has not changed since they last
/// reported no move — because they would report no move again; a move
/// dirties the node, both rewired neighbours and the new Steiner point.
/// Visit order and moves are those of a full rescan (DESIGN.md §4f).
pub fn steinerize(tree: &mut ClockTree) -> f64 {
    let mut saved = 0.0;
    let mut ids: Vec<NodeId> = Vec::with_capacity(tree.len());
    let mut nbrs: Vec<NodeId> = Vec::new();
    let mut dirty = vec![true; tree.arena_len()];
    for _ in 0..8 {
        let mut improved = false;
        ids.clear();
        ids.extend(tree.node_ids());
        for &v in &ids {
            if !dirty[v.index()] || !tree.is_alive(v) {
                continue;
            }
            while let Some((a, b, m, g)) = best_median_move(tree, v, &mut nbrs) {
                if g <= 1e-9 {
                    break;
                }
                let s = apply_median_move(tree, v, a, b, m);
                dirty.resize(tree.arena_len(), true);
                dirty[a.index()] = true;
                dirty[b.index()] = true;
                dirty[s.index()] = true;
                saved += g;
                improved = true;
            }
            dirty[v.index()] = false;
        }
        if !improved {
            break;
        }
    }
    saved
}

/// Iterated 1-median relocation of Steiner points. Each Steiner node is
/// moved to the component-wise median of its neighbours whenever that
/// shortens the adjacent wire; passes repeat to a fixed point. Returns
/// the wirelength saved.
///
/// Nodes touching detour-carrying edges are left in place — the detour
/// encodes a deliberate delay-balancing decision, and relocation would
/// discard it. Unlike [`steinerize`], relocation may *lengthen*
/// individual source→sink paths (while shortening total wire), so
/// shallowness-sensitive callers must re-enforce their budget afterwards.
///
/// Like [`steinerize`], a pass visits live nodes in arena order but skips
/// clean ones; moving a node dirties it, its parent and its children.
pub fn relocate_steiner(tree: &mut ClockTree) -> f64 {
    let mut saved = 0.0;
    let mut ids: Vec<NodeId> = Vec::with_capacity(tree.len());
    let mut nbr_pos: Vec<Point> = Vec::new();
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    let mut dirty = vec![true; tree.arena_len()];
    for _ in 0..10 {
        let mut improved = false;
        ids.clear();
        ids.extend(tree.node_ids());
        for &v in &ids {
            if !dirty[v.index()] || !tree.is_alive(v) || !tree.node(v).kind.is_steiner() {
                continue;
            }
            dirty[v.index()] = false;
            let Some((m, gain)) = relocation(tree, v, &mut nbr_pos, &mut xs, &mut ys) else {
                continue;
            };
            tree.move_node(v, m);
            saved += gain;
            improved = true;
            let node = tree.node(v);
            dirty[v.index()] = true;
            if let Some(p) = node.parent() {
                dirty[p.index()] = true;
            }
            for c in node.children() {
                dirty[c.index()] = true;
            }
        }
        if !improved {
            break;
        }
    }
    saved
}

/// The improving move of Steiner node `v` in [`relocate_steiner`]: the
/// median of its neighbours and the wire it saves, or `None` when `v`
/// touches a detour edge, has fewer than two neighbours, or gains
/// nothing. `nbr_pos`, `xs` and `ys` are scratch.
fn relocation(
    tree: &ClockTree,
    v: NodeId,
    nbr_pos: &mut Vec<Point>,
    xs: &mut Vec<f64>,
    ys: &mut Vec<f64>,
) -> Option<(Point, f64)> {
    let node = tree.node(v);
    let pv = node.pos;
    nbr_pos.clear();
    let mut straight = true;
    if let Some(p) = node.parent() {
        straight &= node.edge_len() <= tree.node(p).pos.dist(pv) + 1e-9;
        nbr_pos.push(tree.node(p).pos);
    }
    for c in node.children() {
        straight &= tree.node(c).edge_len() <= tree.node(c).pos.dist(pv) + 1e-9;
        nbr_pos.push(tree.node(c).pos);
    }
    if !straight || nbr_pos.len() < 2 {
        return None;
    }
    let m = median_of(nbr_pos, xs, ys);
    if m.approx_eq(pv) {
        return None;
    }
    let before: f64 = nbr_pos.iter().map(|&q| pv.dist(q)).sum();
    let after: f64 = nbr_pos.iter().map(|&q| m.dist(q)).sum();
    (after + 1e-9 < before).then_some((m, before - after))
}

/// Component-wise lower median of `pts`: the exact 1-median for odd
/// counts, an optimal corner for even ones. `xs` and `ys` are scratch.
fn median_of(pts: &[Point], xs: &mut Vec<f64>, ys: &mut Vec<f64>) -> Point {
    xs.clear();
    ys.clear();
    xs.extend(pts.iter().map(|p| p.x));
    ys.extend(pts.iter().map(|p| p.y));
    xs.sort_by(f64::total_cmp);
    ys.sort_by(f64::total_cmp);
    Point::new(xs[(xs.len() - 1) / 2], ys[(ys.len() - 1) / 2])
}

/// Finds the best median insertion around `v`: a pair of its straight
/// neighbour edges and the median point, with the wirelength gain.
/// `nbrs` is scratch.
fn best_median_move(
    tree: &ClockTree,
    v: NodeId,
    nbrs: &mut Vec<NodeId>,
) -> Option<(NodeId, NodeId, Point, f64)> {
    let node = tree.node(v);
    let pv = node.pos;
    // Straight (detour-free) neighbours only.
    nbrs.clear();
    if let Some(p) = node.parent() {
        if node.edge_len() <= tree.node(p).pos.dist(pv) + 1e-9 {
            nbrs.push(p);
        }
    }
    for c in node.children() {
        if tree.node(c).edge_len() <= tree.node(c).pos.dist(pv) + 1e-9 {
            nbrs.push(c);
        }
    }
    let mut best: Option<(NodeId, NodeId, Point, f64)> = None;
    for i in 0..nbrs.len() {
        for j in (i + 1)..nbrs.len() {
            let (a, b) = (nbrs[i], nbrs[j]);
            let (pa, pb) = (tree.node(a).pos, tree.node(b).pos);
            let m = median3(pv, pa, pb);
            if m.approx_eq(pv) || m.approx_eq(pa) || m.approx_eq(pb) {
                continue;
            }
            let g = pv.dist(pa) + pv.dist(pb) - (pv.dist(m) + m.dist(pa) + m.dist(pb));
            if g > best.map_or(0.0, |(_, _, _, bg)| bg) {
                best = Some((a, b, m, g));
            }
        }
    }
    best
}

/// Rewires the star `{v–a, v–b}` through a new Steiner node at `m`, and
/// returns that node.
fn apply_median_move(tree: &mut ClockTree, v: NodeId, a: NodeId, b: NodeId, m: Point) -> NodeId {
    let parent = tree.node(v).parent();
    // The new node hangs under whichever of the three is the parent of
    // the other two: a → m → {v, b}, b → m → {v, a}, or v → m → {a, b}.
    let (hub, x, y) = if parent == Some(a) {
        (a, v, b)
    } else if parent == Some(b) {
        (b, v, a)
    } else {
        (v, a, b)
    };
    let s = tree.add_steiner(hub, m);
    tree.reparent(x, s);
    tree.reparent(y, s);
    s
}

/// The full-rescan forms of [`steinerize`] and [`relocate_steiner`]: every
/// pass revisits every live node. Equivalence oracles for the worklist
/// passes.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    pub(crate) fn steinerize(tree: &mut ClockTree) -> f64 {
        let mut saved = 0.0;
        for _ in 0..8 {
            let mut improved = false;
            let ids: Vec<NodeId> = tree.node_ids().collect();
            for v in ids {
                if !tree.is_alive(v) {
                    continue;
                }
                loop {
                    let gain = best_median_move(tree, v, &mut Vec::new());
                    match gain {
                        Some((a, b, m, g)) if g > 1e-9 => {
                            apply_median_move(tree, v, a, b, m);
                            saved += g;
                            improved = true;
                        }
                        _ => break,
                    }
                }
            }
            if !improved {
                break;
            }
        }
        saved
    }

    pub(crate) fn relocate_steiner(tree: &mut ClockTree) -> f64 {
        let mut saved = 0.0;
        for _ in 0..10 {
            let mut improved = false;
            let ids: Vec<NodeId> = tree.node_ids().collect();
            for v in ids {
                if !tree.is_alive(v) || !tree.node(v).kind.is_steiner() {
                    continue;
                }
                let scratch = (&mut Vec::new(), &mut Vec::new(), &mut Vec::new());
                if let Some((m, gain)) = relocation(tree, v, scratch.0, scratch.1, scratch.2) {
                    tree.move_node(v, m);
                    saved += gain;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
        saved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dme::{DelayModel, DmeOptions};
    use crate::topogen::TopologyScheme;
    use sllt_rng::prelude::*;
    use sllt_tree::codec::encode_tree;
    use sllt_tree::Sink;

    fn random_net(seed: u64, n: usize, side: f64) -> ClockNet {
        let mut rng = StdRng::seed_from_u64(seed);
        ClockNet::new(
            Point::new(rng.random_range(0.0..side), rng.random_range(0.0..side)),
            (0..n)
                .map(|_| {
                    Sink::new(
                        Point::new(rng.random_range(0.0..side), rng.random_range(0.0..side)),
                        1.0,
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn median3_is_in_all_pair_boxes() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 2.0);
        let c = Point::new(4.0, 8.0);
        let m = median3(a, b, c);
        assert_eq!(m, Point::new(4.0, 2.0));
        // Lies inside bbox of every pair: distances decompose exactly.
        assert!((a.dist(m) + m.dist(b) - a.dist(b)).abs() < 1e-12);
        assert!((a.dist(m) + m.dist(c) - a.dist(c)).abs() < 1e-12);
        assert!((b.dist(m) + m.dist(c) - b.dist(c)).abs() < 1e-12);
    }

    #[test]
    fn rmst_spans_all_sinks() {
        let net = random_net(1, 20, 75.0);
        let t = rmst(&net);
        assert_eq!(t.sinks().len(), 20);
        t.validate().unwrap();
    }

    #[test]
    fn rmst_of_empty_net_is_bare_source() {
        let net = ClockNet::new(Point::ORIGIN, vec![]);
        assert!(rmst(&net).is_empty());
    }

    #[test]
    fn classic_l_corner_gains_a_steiner_point() {
        // Source at origin; sinks at (10,0) and (10,10): the RMST chains
        // them (WL 20); the RSMT is identical here. But sinks at (8, 4)
        // and (8, -4) from origin: MST = 8+4 + 8 (chain) vs Steiner at
        // (8, 0): 8 + 4 + 4 = 16.
        let net = ClockNet::new(
            Point::ORIGIN,
            vec![
                Sink::new(Point::new(8.0, 4.0), 1.0),
                Sink::new(Point::new(8.0, -4.0), 1.0),
            ],
        );
        let mst_wl = rmst(&net).wirelength();
        let t = rsmt(&net);
        assert!((mst_wl - 20.0).abs() < 1e-9);
        assert!(
            (t.wirelength() - 16.0).abs() < 1e-9,
            "got {}",
            t.wirelength()
        );
        t.validate().unwrap();
    }

    #[test]
    fn steinerization_never_hurts_and_respects_validity() {
        for seed in 0..20 {
            let net = random_net(seed, 25, 75.0);
            let before = rmst(&net).wirelength();
            let t = rsmt(&net);
            t.validate().unwrap();
            assert!(t.wirelength() <= before + 1e-9);
            assert_eq!(t.sinks().len(), 25);
        }
    }

    #[test]
    fn steinerization_never_lengthens_paths() {
        for seed in 0..10 {
            let net = random_net(seed + 100, 20, 75.0);
            let base = rmst(&net);
            let pl_before = base.path_lengths();
            let sink_pl_before: Vec<(usize, f64)> = base
                .sinks()
                .iter()
                .map(|&id| match base.node(id).kind {
                    sllt_tree::NodeKind::Sink { sink_index, .. } => {
                        (sink_index, pl_before[id.index()])
                    }
                    _ => unreachable!(),
                })
                .collect();
            let t = rsmt(&net);
            let pl_after = t.path_lengths();
            for &id in &t.sinks() {
                let (sink_index, after) = match t.node(id).kind {
                    sllt_tree::NodeKind::Sink { sink_index, .. } => {
                        (sink_index, pl_after[id.index()])
                    }
                    _ => unreachable!(),
                };
                let before = sink_pl_before
                    .iter()
                    .find(|(i, _)| *i == sink_index)
                    .expect("sink preserved")
                    .1;
                assert!(
                    after <= before + 1e-6,
                    "path to sink {sink_index} grew: {before} -> {after}"
                );
            }
        }
    }

    #[test]
    fn rsmt_beats_or_ties_mst_on_random_nets() {
        let mut total_gain = 0.0;
        for seed in 0..30 {
            let net = random_net(seed + 500, 30, 75.0);
            let mst = rmst(&net).wirelength();
            let st = rsmt(&net).wirelength();
            assert!(st <= mst + 1e-9);
            total_gain += (mst - st) / mst;
        }
        // Median-point Steinerization typically recovers ~5-10 % of MST WL.
        assert!(
            total_gain / 30.0 > 0.02,
            "mean gain {:.4}",
            total_gain / 30.0
        );
    }

    #[test]
    fn duplicate_sink_positions_are_handled() {
        let p = Point::new(5.0, 5.0);
        let net = ClockNet::new(Point::ORIGIN, vec![Sink::new(p, 1.0); 3]);
        let t = rsmt(&net);
        assert_eq!(t.sinks().len(), 3);
        t.validate().unwrap();
        assert!((t.wirelength() - 10.0).abs() < 1e-9);
    }

    /// A net whose coordinates snap to a coarse grid, so sinks coincide
    /// with each other and with the source.
    fn snapped_net(seed: u64, n: usize) -> ClockNet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pt = || {
            Point::new(
                rng.random_range(0..4) as f64 * 10.0,
                rng.random_range(0..4) as f64 * 10.0,
            )
        };
        let source = pt();
        ClockNet::new(source, (0..n).map(|_| Sink::new(pt(), 1.0)).collect())
    }

    /// Steinerization and relocation on clones of `tree` agree with their
    /// full-rescan oracles: same returned gain, bit-identical trees.
    fn assert_passes_match_oracles(tree: &ClockTree, what: &str) {
        let (mut fast, mut slow) = (tree.clone(), tree.clone());
        let (g_fast, g_slow) = (steinerize(&mut fast), oracle::steinerize(&mut slow));
        assert_eq!(
            g_fast.to_bits(),
            g_slow.to_bits(),
            "{what}: steinerize gain"
        );
        assert_eq!(fast, slow, "{what}: steinerize tree");
        assert_eq!(encode_tree(&fast), encode_tree(&slow), "{what}: steinerize");

        let (mut fast, mut slow) = (tree.clone(), tree.clone());
        let (g_fast, g_slow) = (
            relocate_steiner(&mut fast),
            oracle::relocate_steiner(&mut slow),
        );
        assert_eq!(g_fast.to_bits(), g_slow.to_bits(), "{what}: relocate gain");
        assert_eq!(fast, slow, "{what}: relocate tree");
        assert_eq!(encode_tree(&fast), encode_tree(&slow), "{what}: relocate");
    }

    /// Replays the SALT relaxation of `tree` step by step, checking both
    /// passes against their oracles on every intermediate tree.
    fn assert_salt_rounds_match_oracles(net: &ClockNet, mut tree: ClockTree, eps: f64, what: &str) {
        for round in 0..3 {
            crate::salt::enforce_shallowness(net, &mut tree, eps);
            assert_passes_match_oracles(&tree, &format!("{what} round {round} shortcut"));
            relocate_steiner(&mut tree);
            assert_passes_match_oracles(&tree, &format!("{what} round {round} relocated"));
            steinerize(&mut tree);
            sllt_tree::edits::eliminate_redundant_steiner(&mut tree);
        }
    }

    fn dme_tree(net: &ClockNet, scheme: TopologyScheme, opts: &DmeOptions) -> ClockTree {
        crate::dme::dme(net, &scheme.build(net).to_hinted(), opts)
    }

    #[test]
    fn worklist_passes_match_oracles_on_rmst() {
        for seed in 0..40 {
            let n = 1 + (seed as usize * 7) % 40;
            assert_passes_match_oracles(&rmst(&random_net(seed, n, 75.0)), "random rmst");
            let snapped = rmst(&snapped_net(seed, n));
            assert_passes_match_oracles(&snapped, "coincident rmst");
            let steinerized = {
                let mut t = snapped;
                steinerize(&mut t);
                t
            };
            assert_passes_match_oracles(&steinerized, "coincident rsmt");
        }
    }

    #[test]
    fn worklist_passes_match_oracles_on_detour_edges() {
        let mut rng = StdRng::seed_from_u64(77);
        for seed in 0..30 {
            let mut t = rmst(&random_net(seed + 40, 25, 75.0));
            // Snake a third of the edges: routed length above Manhattan.
            let ids: Vec<NodeId> = t.node_ids().skip(1).collect();
            for id in ids {
                if rng.random_range(0..3) == 0 {
                    t.add_detour(id, rng.random_range(0.5..20.0));
                }
            }
            assert_passes_match_oracles(&t, "detoured rmst");
        }
    }

    #[test]
    fn worklist_passes_match_oracles_on_octant_rsmt() {
        // Above 512 sinks `rsmt` builds its spanning tree with the octant
        // graph instead of Prim.
        let net = random_net(9, 600, 400.0);
        let spanning = crate::rmst_fast::rmst_octant(&net);
        assert_passes_match_oracles(&spanning, "octant rmst");
        let mut rsmt_tree = spanning;
        steinerize(&mut rsmt_tree);
        assert_eq!(rsmt_tree, rsmt(&net));
        assert_passes_match_oracles(&rsmt_tree, "octant rsmt");
    }

    #[test]
    fn worklist_passes_match_oracles_on_dme_and_salt_trees() {
        let elmore = DelayModel::Elmore(sllt_timing::Technology::n28());
        for seed in 0..12 {
            let net = random_net(seed + 200, 8 + seed as usize * 3, 75.0);
            let coincident = snapped_net(seed + 200, 12);
            for (i, scheme) in TopologyScheme::ALL.into_iter().enumerate() {
                let (skew_bound, model) = [
                    (0.0, DelayModel::PathLength),
                    (15.0, DelayModel::PathLength),
                    (2.0, elmore),
                    (10.0, elmore),
                ][(seed as usize + i) % 4];
                let opts = DmeOptions { skew_bound, model };
                for net in [&net, &coincident] {
                    // DME output keeps its balancing detours.
                    let bst = dme_tree(net, scheme, &opts);
                    assert_passes_match_oracles(&bst, &format!("{scheme} dme"));
                    let eps = [0.0, 0.2, 1.0][seed as usize % 3];
                    assert_salt_rounds_match_oracles(net, bst, eps, &format!("{scheme} salt"));
                }
            }
            let salt = crate::salt::salt(&net, 0.2);
            assert_passes_match_oracles(&salt, "salt output");
        }
    }

    #[test]
    #[cfg(feature = "proptest")]
    fn proptest_worklist_passes_match_oracles() {
        use proptest::prelude::*;
        proptest!(|(seed in 0u64..1000, n in 1usize..60, coincident in 0usize..2, eps in 0f64..1.5)| {
            let net = if coincident == 1 {
                snapped_net(seed, n)
            } else {
                random_net(seed, n, 75.0)
            };
            assert_passes_match_oracles(&rmst(&net), "rmst");
            let opts = DmeOptions {
                skew_bound: eps * 10.0,
                model: DelayModel::PathLength,
            };
            let bst = dme_tree(&net, TopologyScheme::ALL[seed as usize % 4], &opts);
            assert_passes_match_oracles(&bst, "dme");
            assert_salt_rounds_match_oracles(&net, bst, eps, "salt");
        });
    }
}
