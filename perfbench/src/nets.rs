//! `cbs_nets`: random paper nets (paper Tables 2/3 traffic) routed by
//! CBS and timed by Elmore, one after another on one thread. No
//! partitioning, sizing, assembly or worker threads.

use crate::trace::{Times, Tracer};
use crate::{
    catch, check_finite, check_sinks, collect, median, peak_rss_mb, trace_path, tree_hash,
    violates, OpTimes, Options, Outcome, Setup, Tally, Workload, END_TO_END, PER_LAYER,
};
use sllt_core::cbs::{
    cbs, step3_salt_relax, step4_normalize_and_extract, step5_restore_skew, CbsConfig,
};
use sllt_design::NetGenerator;
use sllt_obs::RecordingSink;
use sllt_route::{topogen::TopologyScheme, DelayModel};
use sllt_timing::Technology;
use sllt_tree::{ClockNet, ClockTree};
use std::collections::BTreeMap;
use std::time::Instant;

/// Nets per pass.
pub const NETS: usize = 6000;
const TINY_NETS: usize = 60;
/// The paper's Elmore skew levels, ps; net `i` uses level `i % 3`.
pub const SKEW_LEVELS_PS: [f64; 3] = [80.0, 10.0, 5.0];

/// Elmore skew and latency of one routed net, ps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    pub skew_ps: f64,
    pub latency_ps: f64,
}

/// What every later routing of a net must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expected {
    pub hash: u64,
    pub timed: Timed,
    pub wl_um: f64,
    pub cap_ff: f64,
}

struct Inputs {
    nets: Vec<ClockNet>,
    configs: [CbsConfig; 3],
    tech: Technology,
}

fn inputs(seed: u64, tiny: bool) -> Inputs {
    let gen = NetGenerator {
        seed,
        ..NetGenerator::paper()
    };
    let tech = Technology::n28();
    let count = if tiny { TINY_NETS } else { NETS };
    Inputs {
        nets: (0..count as u64).map(|i| gen.net(i)).collect(),
        configs: SKEW_LEVELS_PS.map(|skew_bound| CbsConfig {
            scheme: TopologyScheme::GreedyDist,
            skew_bound,
            eps: 0.2,
            model: DelayModel::Elmore(tech),
        }),
        tech,
    }
}

/// Elmore delays from an ideal source: `to_rc_tree` + `elmore`.
pub fn elmore(tree: &ClockTree, tech: &Technology) -> Timed {
    let (rc, map) = tree.to_rc_tree();
    let delays = rc.elmore(tech, 0.0);
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for s in tree.sinks() {
        let d = delays[map[s.index()].expect("to_rc_tree maps every live node")];
        lo = lo.min(d);
        hi = hi.max(d);
    }
    Timed {
        skew_ps: hi - lo,
        latency_ps: hi,
    }
}

/// Checks one routed net: every sink reached once, finite timing, and the
/// same tree and timing as the net's first routing, which fixes
/// `expected`.
pub fn check_net(
    index: usize,
    net: &ClockNet,
    tree: &ClockTree,
    timed: Timed,
    tech: &Technology,
    expected: &mut Option<Expected>,
) -> Result<(), String> {
    let what = format!("net {index}");
    check_sinks(tree, &net.sinks).map_err(|e| format!("{what}: {e}"))?;
    let wl_um = tree.wirelength();
    let got = Expected {
        hash: tree_hash(tree),
        timed,
        wl_um,
        cap_ff: tech.net_cap(net.total_pin_cap(), wl_um),
    };
    check_finite(&what, &[timed.skew_ps, timed.latency_ps, wl_um])?;
    match expected {
        None => {
            *expected = Some(got);
            Ok(())
        }
        Some(e) if *e == got => Ok(()),
        Some(_) => Err(format!(
            "{what}: tree or timing differs from the first routing"
        )),
    }
}

struct Pass {
    /// Time of each net's routing and timing, seconds.
    op_secs: Vec<f64>,
    times: BTreeMap<&'static str, Times>,
    counters: BTreeMap<String, u64>,
    arena_bytes: usize,
}

struct Bench {
    inputs: Inputs,
    expected: Vec<Option<Expected>>,
    tally: Tally,
    tracer: Tracer,
}

impl Bench {
    /// Routes and times every net: `cbs` as one call, or (traced) its
    /// steps one by one with step 1 split into topology and DME.
    fn pass(&mut self, traced: bool) -> Pass {
        let sink = RecordingSink::new();
        let scope = traced.then(|| sink.registry().install("main"));
        let mut op_secs = Vec::with_capacity(self.inputs.nets.len());
        let mut arena_bytes = 0;
        let Inputs {
            nets,
            configs,
            tech,
        } = &self.inputs;
        for (i, net) in nets.iter().enumerate() {
            let cfg = &configs[i % configs.len()];
            let result = if traced {
                let start = self.tracer.now_ns();
                let r = self.tracer.caught(&format!("net {i}"), |t| {
                    t.span("net.op", |t| {
                        let topo = t.span("route.topogen", |_| cfg.scheme.build(net));
                        let tree = t.span("route.dme", |_| {
                            sllt_route::dme(net, &topo.to_hinted(), &cfg.dme_options())
                        });
                        let relaxed = t.span("core.cbs.salt_relax", |_| {
                            step3_salt_relax(net, tree, cfg.eps)
                        });
                        let (normalized, hinted) = t.span("core.cbs.normalize", |_| {
                            step4_normalize_and_extract(relaxed)
                        });
                        let tree = t.span("core.cbs.restore_skew", |_| {
                            step5_restore_skew(net, normalized, &hinted, cfg)
                        });
                        let timed = t.span("timing.elmore", |_| elmore(&tree, tech));
                        (tree, timed)
                    })
                });
                op_secs.push((self.tracer.now_ns() - start) as f64 * 1e-9);
                r
            } else {
                let start = Instant::now();
                let r = catch(&format!("net {i}"), || {
                    let tree = cbs(net, cfg);
                    let timed = elmore(&tree, tech);
                    (tree, timed)
                });
                op_secs.push(start.elapsed().as_secs_f64());
                r
            };
            let checked = result.and_then(|(tree, timed)| {
                arena_bytes += tree.arena_bytes();
                check_net(i, net, &tree, timed, tech, &mut self.expected[i])
            });
            self.tally.record(checked);
        }
        drop(scope);
        Pass {
            op_secs,
            times: self.tracer.take_times(),
            counters: sink.registry().snapshot().metrics.counters,
            arena_bytes,
        }
    }
}

/// Runs `cbs_nets` for `opts.seconds` after a warm-up pass.
pub fn run(opts: &Options) -> Outcome {
    let seed = opts.seed.unwrap_or(NetGenerator::paper().seed);
    let (mut setup, inputs) = Setup::new(|| inputs(seed, opts.tiny));
    let mut bench = Bench {
        expected: vec![None; inputs.nets.len()],
        inputs,
        tally: Tally::default(),
        tracer: Tracer::default(),
    };
    // The warm-up pass fills the allocator and fixes the reference trees.
    bench.pass(false);

    let sinks: usize = bench.inputs.nets.iter().map(ClockNet::len).sum();
    let (mut plain_times, mut traced_times) = (OpTimes::default(), OpTimes::default());
    let mut traced = Vec::new();
    let start = Instant::now();
    loop {
        let plain = bench.pass(false);
        plain_times.add(&plain.op_secs);
        if opts.trace {
            let p = bench.pass(true);
            traced_times.add(&p.op_secs);
            traced.push(p);
        }
        drop(setup.time());
        if start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }

    let expected: Vec<Expected> = bench.expected.iter().flatten().copied().collect();
    let bound = |i: usize| SKEW_LEVELS_PS[i % SKEW_LEVELS_PS.len()];
    let violations = bench
        .expected
        .iter()
        .enumerate()
        .filter(|(i, e)| e.is_some_and(|e| violates(e.timed.skew_ps, bound(*i))))
        .count();
    let n = expected.len().max(1) as f64;
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    if opts.trace {
        let med = |f: &dyn Fn(&Pass) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        let self_s =
            |p: &Pass, span: &str| p.times.get(span).map_or(0.0, |t| t.self_ns as f64 * 1e-9);
        for (metric, span) in [
            ("route.topogen.s", "route.topogen"),
            ("route.dme.s", "route.dme"),
            ("core.cbs.salt_relax.s", "core.cbs.salt_relax"),
            ("core.cbs.normalize.s", "core.cbs.normalize"),
            ("core.cbs.restore_skew.s", "core.cbs.restore_skew"),
            ("timing.elmore.s", "timing.elmore"),
        ] {
            values.insert(metric, med(&|p| self_s(p, span)));
        }
        values.insert(
            "unattributed_share",
            med(&|p| {
                let op = p.times.get("net.op").copied().unwrap_or_default();
                op.self_ns as f64 / op.total_ns as f64
            }),
        );
        values.insert(
            "trace.overhead",
            traced_times.median_total() / plain_times.median_total(),
        );
        let first = &traced[0];
        for name in ["route.dme.merge_segments", "route.dme.embed_nodes"] {
            values.insert(name, first.counters.get(name).copied().unwrap_or(0) as f64);
        }
        values.insert("tree.arena_bytes", first.arena_bytes as f64);
        values.insert("skew_violations", violations as f64);
        // Layers of the hierarchical flow that this workload skips.
        for name in [
            "cts.partition.s",
            "partition.kmeans.lloyd_iterations",
            "partition.mcf.augmentations",
            "partition.sa.proposals",
            "partition.sa.accept_ratio",
            "cts.route.s",
            "cts.route.l0.s",
            "cts.route.parallel_eff",
            "cts.sizing.s",
            "cts.assemble.s",
            "cts.eval.s",
            "cts.levels",
            "cts.route.clusters",
            "cts.level.delay_spread_ps.max",
            "cts.sizing.pads",
            "cts.assemble.repeaters",
            "cts.level.extra_attempts",
            "buffers",
        ] {
            values.insert(name, 0.0);
        }
        let path = trace_path(Workload::CbsNets, seed);
        if let Err(e) = bench.tracer.write(&path) {
            bench
                .tally
                .record(Err(format!("writing {}: {e}", path.display())));
        }
    } else {
        let rate = sinks as f64 / plain_times.median_total();
        values.insert("setup_s", setup.median_s());
        values.insert("sinks_per_s", rate);
        // Serial by construction: one thread is all it ever uses.
        values.insert("sinks_per_s_1w", rate);
        let rss = peak_rss_mb().unwrap_or_else(|e| {
            bench.tally.record(Err(e));
            0.0
        });
        values.insert("peak_rss_mb", rss);
        values.insert(
            "skew_ps",
            expected.iter().map(|e| e.timed.skew_ps).sum::<f64>() / n,
        );
        values.insert(
            "latency_ps",
            expected.iter().map(|e| e.timed.latency_ps).sum::<f64>() / n,
        );
        values.insert("clock_cap_ff", expected.iter().map(|e| e.cap_ff).sum());
        values.insert("clock_wl_um", expected.iter().map(|e| e.wl_um).sum());
        values.insert(
            "worst_skew_ratio",
            bench
                .expected
                .iter()
                .enumerate()
                .filter_map(|(i, e)| e.map(|e| e.timed.skew_ps / bound(i)))
                .fold(0.0, f64::max),
        );
    }
    let table: &[_] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = collect(table, &values, &mut bench.tally);
    Outcome {
        seed,
        metrics,
        notes: vec![
            format!("nets={} sinks={sinks}", bench.inputs.nets.len()),
            format!("skew_violations={violations} buffers=0"),
            format!(
                "passes={} traced_passes={}",
                plain_times.passes(),
                traced.len()
            ),
        ],
        tally: bench.tally,
    }
}
