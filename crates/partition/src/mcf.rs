//! Minimum-cost flow for the capacity assignment.
//!
//! [`repair_overflow`] is the production solver: successive shortest
//! augmenting paths with Johnson potentials (Dijkstra on reduced costs)
//! over the overflow-repair network of `kmeans::capacitated_assign`.
//! The network is never materialised. Its residual graph is a pure
//! function of three small pieces of state: each point's current
//! centre, each centre's members, and the source/sink residual per
//! centre. Dijkstra enumerates a node's residual arcs from that state
//! on demand.
//!
//! Two further mechanisms keep each augmentation cheap (see
//! `DESIGN.md`, *Partition fast path*):
//!
//! * **Early-exit Dijkstra.** Each augmentation stops the moment the
//!   sink settles and updates potentials with the standard partial rule
//!   (`π[v] += min(dist[v], dist[t])`), so early augmentations — whose
//!   shortest path is just `source → centre → gate → centre → sink` —
//!   touch a handful of nodes instead of the whole graph. Scratch arrays
//!   are reset through a touched-node list, never re-allocated.
//! * **Floating-point clamp.** Potentials keep reduced costs
//!   non-negative in exact arithmetic; rounding residue is clamped to
//!   zero inside the sweep so the invariant (and termination) survives
//!   large coordinates.
//!
//! `MinCostFlow` (test builds only) is the same algorithm on an
//! explicit edge list — the oracle the implicit solver is checked
//! against, push for push.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Debug, Clone, PartialEq)]
struct HeapItem(f64, usize);

impl Eq for HeapItem {}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on cost.
        other.0.total_cmp(&self.0)
    }
}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Min-cost overflow repair on the implicit residual graph.
///
/// The network is the one `kmeans::repair_assign` describes, with the
/// node ids its explicit form would use: `0` = source, `1 + c` =
/// centre `c`, `1 + k + i` = gate of point `i`, `1 + k + n` = sink.
/// `source → c` carries `load[c] − cap` for overloaded centres,
/// `c → sink` carries `cap − load[c]` for underloaded ones, `near[i] →
/// gate_i` (cost 0) lets point `i` leave its nearest centre once, and
/// `gate_i → c` (cost `w[i·k + c]`, for every `c ≠ near[i]`) prices its
/// move. Flow on the gate arcs is exactly "point `i` sits at `cur[i]`",
/// so the residual arcs out of each node follow from `cur` alone, and
/// are enumerated in the order the explicit edge list stores them:
///
/// * source: overloaded centres with remaining overflow, ascending;
/// * centre `c`: its current members ascending (cost `0` back into a
///   point's own gate when `near[i] == c`, else `−w[i·k + c]` to undo
///   the move), then the sink while slack remains;
/// * gate `i`: `near[i]` first if the point has moved (cost `−0`), then
///   every centre ascending except `near[i]` and `cur[i]` (cost
///   `w[i·k + c]`).
///
/// The arc back to the source (residual of an injected unit) is never
/// listed: the source settles first, so Dijkstra would skip it anyway.
///
/// Same node ids, same arc order, same heap and the same float
/// expressions make the push/pop sequence — and hence the returned
/// assignment — bit-identical to solving the explicit network.
///
/// Returns the repaired assignment (`cur`).
///
/// # Panics
///
/// Panics when the slack cannot absorb the overflow (`Σ load > k·cap`)
/// or the inputs disagree in length.
pub(crate) fn repair_overflow(
    w: &[f64],
    k: usize,
    cap: i64,
    near: &[usize],
    load: &[i64],
) -> Vec<usize> {
    let n = near.len();
    assert!(w.len() == n * k && load.len() == k, "bad repair inputs");
    let sink = 1 + k + n;
    let mut src_res: Vec<i64> = load.iter().map(|&l| (l - cap).max(0)).collect();
    let mut sink_res: Vec<i64> = load.iter().map(|&l| (cap - l).max(0)).collect();
    let overflow: i64 = src_res.iter().sum();
    let mut cur = near.to_vec();
    // Members ascending by point index: the order a centre's arcs sit
    // in its explicit adjacency list.
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); k];
    for (i, &c) in near.iter().enumerate() {
        members[c].push(i as u32);
    }

    let nodes = 2 + k + n;
    let mut potential = vec![0.0f64; nodes];
    let mut dist = vec![f64::INFINITY; nodes];
    let mut prev = vec![usize::MAX; nodes];
    let mut settled = vec![false; nodes];
    let mut touched: Vec<usize> = Vec::with_capacity(64);
    let mut heap: BinaryHeap<HeapItem> = BinaryHeap::with_capacity(64);
    let mut flow = 0i64;
    loop {
        for &v in &touched {
            dist[v] = f64::INFINITY;
            prev[v] = usize::MAX;
            settled[v] = false;
        }
        touched.clear();
        heap.clear();
        dist[0] = 0.0;
        touched.push(0);
        heap.push(HeapItem(0.0, 0));
        let mut dt = f64::INFINITY;
        while let Some(HeapItem(d, v)) = heap.pop() {
            if settled[v] || d > dist[v] {
                continue;
            }
            settled[v] = true;
            if v == sink {
                dt = d;
                break;
            }
            let pv = potential[v];
            let mut relax = |u: usize, cost: f64| {
                // `rc ≥ 0` below, so a node already at `dist ≤ d` —
                // every settled node included — cannot improve.
                if dist[u] <= d {
                    return;
                }
                // Reduced cost, clamped: rounding can push it a hair
                // negative once potentials carry sums of large
                // coordinates, and a negative arc lets Dijkstra chase
                // a residual cycle of noise forever.
                let rc = (cost + pv - potential[u]).max(0.0);
                let nd = d + rc;
                if nd < dist[u] {
                    if dist[u].is_infinite() {
                        touched.push(u);
                    }
                    dist[u] = nd;
                    prev[u] = v;
                    heap.push(HeapItem(nd, u));
                }
            };
            if v == 0 {
                for (c, &r) in src_res.iter().enumerate() {
                    if r > 0 {
                        relax(1 + c, 0.0);
                    }
                }
            } else if v <= k {
                let c = v - 1;
                for &i in &members[c] {
                    let i = i as usize;
                    let cost = if near[i] == c { 0.0 } else { -w[i * k + c] };
                    relax(1 + k + i, cost);
                }
                if sink_res[c] > 0 {
                    relax(sink, 0.0);
                }
            } else {
                let i = v - 1 - k;
                let (home, at) = (near[i], cur[i]);
                if at != home {
                    relax(1 + home, -0.0);
                }
                for c in 0..k {
                    if c != home && c != at {
                        relax(1 + c, w[i * k + c]);
                    }
                }
            }
        }
        if !dt.is_finite() {
            break;
        }
        // Partial Johnson update for the early exit: settled nodes
        // advance by their exact distance, everything else (labeled or
        // not) by the sink distance — the standard
        // `π[v] += min(dist[v], dist[t])` rule, which keeps every
        // residual reduced cost non-negative.
        for (v, p) in potential.iter_mut().enumerate() {
            *p += if settled[v] { dist[v] } else { dt };
        }
        // Walk the path back: sink ← centre (← gate ← centre)* ← source.
        // Every path crosses a unit gate arc, so each augmentation
        // moves exactly one unit.
        let mut to = prev[sink] - 1;
        sink_res[to] -= 1;
        loop {
            let g = prev[1 + to];
            if g == 0 {
                src_res[to] -= 1;
                break;
            }
            let i = g - 1 - k;
            let from = prev[g] - 1;
            let at = members[from]
                .binary_search(&(i as u32))
                .expect("a gate is entered from its point's centre");
            members[from].remove(at);
            let slot = members[to]
                .binary_search(&(i as u32))
                .expect_err("a point sits at one centre");
            members[to].insert(slot, i as u32);
            cur[i] = to;
            to = from;
        }
        flow += 1;
        if sllt_obs::enabled() {
            sllt_obs::count("partition.mcf.augmentations", 1);
        }
    }
    if sllt_obs::enabled() {
        sllt_obs::count("partition.mcf.solves", 1);
    }
    // Invariant: Σ load = n ≤ k·cap implies total slack ≥ total
    // overflow, and every gate reaches every centre.
    assert_eq!(flow, overflow, "repair flow must drain all overflow");
    cur
}

/// A directed flow network with unit-precision capacities and `f64`
/// costs, stored as an explicit edge list — the test oracle for
/// [`repair_overflow`] and the dense assignment.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct MinCostFlow {
    // Edge arrays: edges stored in pairs (forward at 2k, backward at 2k+1).
    to: Vec<usize>,
    cap: Vec<i64>,
    cost: Vec<f64>,
    head: Vec<Vec<usize>>, // adjacency: node -> edge indices
    potential: Vec<f64>,
}

#[cfg(test)]
impl MinCostFlow {
    /// Creates an empty network with `n` nodes.
    pub(crate) fn new(n: usize) -> Self {
        MinCostFlow {
            to: Vec::new(),
            cap: Vec::new(),
            cost: Vec::new(),
            head: vec![Vec::new(); n],
            potential: vec![0.0; n],
        }
    }

    fn len(&self) -> usize {
        self.head.len()
    }

    /// Adds a directed edge and returns its id (usable with
    /// [`MinCostFlow::flow_on`]).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints or negative cost/capacity.
    pub(crate) fn add_edge(&mut self, from: usize, to: usize, cap: i64, cost: f64) -> usize {
        assert!(
            from < self.len() && to < self.len(),
            "edge endpoint out of range"
        );
        assert!(cap >= 0, "negative capacity");
        assert!(cost >= 0.0, "negative cost not supported");
        let id = self.to.len();
        self.to.push(to);
        self.cap.push(cap);
        self.cost.push(cost);
        self.head[from].push(id);
        self.to.push(from);
        self.cap.push(0);
        self.cost.push(-cost);
        self.head[to].push(id + 1);
        id
    }

    /// Flow currently on edge `id` (the residual on its reverse edge).
    pub(crate) fn flow_on(&self, id: usize) -> i64 {
        self.cap[id ^ 1]
    }

    /// Sends as much flow as possible from `s` to `t` at minimum total
    /// cost by successive shortest paths (early-exit Dijkstra, partial
    /// Johnson update). Returns `(flow, cost)`; per-edge flows can be
    /// read back with [`MinCostFlow::flow_on`].
    ///
    /// # Panics
    ///
    /// Panics when `s == t` or either is out of range.
    pub(crate) fn solve(&mut self, s: usize, t: usize) -> (i64, f64) {
        assert!(s < self.len() && t < self.len() && s != t, "bad terminals");
        let n = self.len();
        self.potential.clear();
        self.potential.resize(n, 0.0);
        let mut total_flow = 0i64;
        let mut total_cost = 0.0f64;
        let mut dist = vec![f64::INFINITY; n];
        let mut prev_edge = vec![usize::MAX; n];
        let mut settled = vec![false; n];
        let mut touched: Vec<usize> = Vec::with_capacity(64);
        let mut heap: BinaryHeap<HeapItem> = BinaryHeap::with_capacity(64);
        loop {
            for &v in &touched {
                dist[v] = f64::INFINITY;
                prev_edge[v] = usize::MAX;
                settled[v] = false;
            }
            touched.clear();
            heap.clear();
            dist[s] = 0.0;
            touched.push(s);
            heap.push(HeapItem(0.0, s));
            let mut dt = f64::INFINITY;
            while let Some(HeapItem(d, v)) = heap.pop() {
                if settled[v] || d > dist[v] {
                    continue;
                }
                settled[v] = true;
                if v == t {
                    dt = d;
                    break;
                }
                for &e in &self.head[v] {
                    if self.cap[e] <= 0 {
                        continue;
                    }
                    let u = self.to[e];
                    if settled[u] {
                        continue;
                    }
                    let rc = (self.cost[e] + self.potential[v] - self.potential[u]).max(0.0);
                    let nd = d + rc;
                    if nd < dist[u] {
                        if dist[u].is_infinite() {
                            touched.push(u);
                        }
                        dist[u] = nd;
                        prev_edge[u] = e;
                        heap.push(HeapItem(nd, u));
                    }
                }
            }
            if !dt.is_finite() {
                break;
            }
            for (v, p) in self.potential.iter_mut().enumerate() {
                *p += if settled[v] { dist[v] } else { dt };
            }
            let mut bottleneck = i64::MAX;
            let mut v = t;
            while v != s {
                let e = prev_edge[v];
                bottleneck = bottleneck.min(self.cap[e]);
                v = self.to[e ^ 1];
            }
            let mut v = t;
            while v != s {
                let e = prev_edge[v];
                self.cap[e] -= bottleneck;
                self.cap[e ^ 1] += bottleneck;
                total_cost += self.cost[e] * bottleneck as f64;
                v = self.to[e ^ 1];
            }
            total_flow += bottleneck;
            if sllt_obs::enabled() {
                sllt_obs::count("partition.mcf.augmentations", 1);
            }
        }
        if sllt_obs::enabled() {
            sllt_obs::count("partition.mcf.solves", 1);
        }
        (total_flow, total_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_path() {
        let mut g = MinCostFlow::new(3);
        let e0 = g.add_edge(0, 1, 5, 2.0);
        let e1 = g.add_edge(1, 2, 3, 1.0);
        let (f, c) = g.solve(0, 2);
        assert_eq!(f, 3);
        assert!((c - 9.0).abs() < 1e-9);
        assert_eq!(g.flow_on(e0), 3);
        assert_eq!(g.flow_on(e1), 3);
    }

    #[test]
    fn prefers_cheap_route() {
        let mut g = MinCostFlow::new(4);
        let cheap = g.add_edge(0, 1, 1, 1.0);
        g.add_edge(1, 3, 1, 1.0);
        let dear = g.add_edge(0, 2, 1, 5.0);
        g.add_edge(2, 3, 1, 5.0);
        let (f, c) = g.solve(0, 3);
        assert_eq!(f, 2);
        assert!((c - 12.0).abs() < 1e-9);
        assert_eq!(g.flow_on(cheap), 1);
        assert_eq!(g.flow_on(dear), 1);
    }

    #[test]
    fn respects_capacity() {
        let mut g = MinCostFlow::new(2);
        g.add_edge(0, 1, 7, 0.5);
        let (f, c) = g.solve(0, 1);
        assert_eq!(f, 7);
        assert!((c - 3.5).abs() < 1e-9);
    }

    #[test]
    fn disconnected_graph_moves_nothing() {
        let mut g = MinCostFlow::new(4);
        g.add_edge(0, 1, 1, 1.0);
        g.add_edge(2, 3, 1, 1.0);
        let (f, c) = g.solve(0, 3);
        assert_eq!(f, 0);
        assert_eq!(c, 0.0);
    }

    #[test]
    fn assignment_problem_is_optimal() {
        // 3 workers × 3 jobs, costs form a matrix with a unique optimum.
        let cost = [[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]];
        // Node ids: 0 = source, 1..=3 workers, 4..=6 jobs, 7 = sink.
        let mut g = MinCostFlow::new(8);
        for (w, row) in cost.iter().enumerate() {
            g.add_edge(0, 1 + w, 1, 0.0);
            for (j, &c) in row.iter().enumerate() {
                g.add_edge(1 + w, 4 + j, 1, c);
            }
        }
        for j in 0..3 {
            g.add_edge(4 + j, 7, 1, 0.0);
        }
        let (f, c) = g.solve(0, 7);
        assert_eq!(f, 3);
        // Optimal assignment: w0→j1 (1), w1→j0 (2), w2→j2 (2) = 5.
        assert!((c - 5.0).abs() < 1e-9, "got {c}");
    }

    /// The implicit solver on a hand-sized instance: three points all
    /// nearest centre 0 (cap 1), so two must move; the cheapest moves
    /// are point 1 → centre 1 and point 2 → centre 2.
    #[test]
    fn repair_overflow_moves_the_cheapest_points() {
        let w = [
            0.0, 5.0, 6.0, // point 0 is dear to move anywhere
            0.0, 1.0, 4.0, // point 1 moves cheaply to centre 1
            0.0, 3.0, 2.0, // point 2 moves cheaply to centre 2
        ];
        let out = repair_overflow(&w, 3, 1, &[0, 0, 0], &[3, 0, 0]);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "negative cost")]
    fn negative_cost_rejected() {
        let mut g = MinCostFlow::new(2);
        g.add_edge(0, 1, 1, -1.0);
    }

    #[test]
    #[cfg(feature = "proptest")]
    fn proptest_flow_conservation() {
        use proptest::prelude::*;
        proptest!(|(seed in 0u64..200)| {
            // Random small bipartite assignment instances: flow equals
            // min(supply, demand) and per-edge flows are within capacity.
            use sllt_rng::prelude::*;
            let mut rng = StdRng::seed_from_u64(seed);
            let (nw, nj) = (rng.random_range(1..6), rng.random_range(1..6));
            let mut g = MinCostFlow::new(2 + nw + nj);
            let t = 1 + nw + nj;
            let mut edge_ids = Vec::new();
            for w in 0..nw {
                g.add_edge(0, 1 + w, 1, 0.0);
                for j in 0..nj {
                    edge_ids.push(g.add_edge(1 + w, 1 + nw + j, 1, rng.random_range(0.0..10.0)));
                }
            }
            for j in 0..nj {
                g.add_edge(1 + nw + j, t, 1, 0.0);
            }
            let (f, c) = g.solve(0, t);
            prop_assert_eq!(f, nw.min(nj) as i64);
            prop_assert!(c >= 0.0);
            for &e in &edge_ids {
                let fl = g.flow_on(e);
                prop_assert!((0..=1).contains(&fl));
            }
        });
    }
}
