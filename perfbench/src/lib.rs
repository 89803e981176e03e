//! The repository benchmark of the SLLT clock tree synthesis flow.
//!
//! A single-process, closed-loop harness: one design or net at a time,
//! at most two flow worker threads. Each workload reports end-to-end
//! metrics with tracing off; a traced run (`--trace 1`) reports the
//! per-layer metrics, measured by timing calls into each layer's public
//! functions. `README.md` documents the workloads, metrics and baseline.

pub mod flows;
pub mod nets;
pub mod trace;

use sllt_tree::{ClockTree, NodeKind, Sink};
use std::collections::BTreeMap;
use std::time::Instant;

/// Whether a larger or a smaller value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A named metric with its unit.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// Reported with `--trace 0`, on every workload.
pub const END_TO_END: [Metric; 9] = [
    m("setup_s", "s", Lower),
    m("sinks_per_s", "1/s", Higher),
    m("sinks_per_s_1w", "1/s", Higher),
    m("peak_rss_mb", "MB", Lower),
    m("skew_ps", "ps", Lower),
    m("latency_ps", "ps", Lower),
    m("clock_cap_ff", "fF", Lower),
    m("clock_wl_um", "um", Lower),
    m("worst_skew_ratio", "ratio", Lower),
];

/// Reported with `--trace 1`, on every workload; 0 where the layer does
/// not run.
pub const PER_LAYER: [Metric; 30] = [
    m("cts.partition.s", "s", Lower),
    m("partition.kmeans.lloyd_iterations", "count", Lower),
    m("partition.mcf.augmentations", "count", Lower),
    m("partition.sa.proposals", "count", Lower),
    m("partition.sa.accept_ratio", "ratio", Higher),
    m("cts.route.s", "s", Lower),
    m("cts.route.l0.s", "s", Lower),
    m("cts.route.parallel_eff", "ratio", Higher),
    m("route.topogen.s", "s", Lower),
    m("route.dme.s", "s", Lower),
    m("core.cbs.salt_relax.s", "s", Lower),
    m("core.cbs.normalize.s", "s", Lower),
    m("core.cbs.restore_skew.s", "s", Lower),
    m("timing.elmore.s", "s", Lower),
    m("route.dme.merge_segments", "count", Lower),
    m("route.dme.embed_nodes", "count", Lower),
    m("cts.sizing.s", "s", Lower),
    m("cts.assemble.s", "s", Lower),
    m("cts.eval.s", "s", Lower),
    m("cts.levels", "count", Lower),
    m("cts.route.clusters", "count", Lower),
    m("cts.level.delay_spread_ps.max", "ps", Lower),
    m("cts.sizing.pads", "count", Lower),
    m("cts.assemble.repeaters", "count", Lower),
    m("cts.level.extra_attempts", "count", Lower),
    m("tree.arena_bytes", "B", Lower),
    m("skew_violations", "count", Lower),
    m("buffers", "count", Lower),
    m("trace.overhead", "ratio", Lower),
    m("unattributed_share", "ratio", Lower),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The ten paper Table-1 designs through the hierarchical flow.
    PaperSuite,
    /// One square 2×10⁵-sink register grid through the hierarchical flow.
    Grid200k,
    /// Random paper nets routed by CBS and timed by Elmore, serially.
    CbsNets,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::PaperSuite, Workload::Grid200k, Workload::CbsNets];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSuite => "paper_suite",
            Workload::Grid200k => "grid_200k",
            Workload::CbsNets => "cbs_nets",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one run is configured.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Workload seed; `None` takes the program's own default seed.
    pub seed: Option<u64>,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Shrink every workload to a few thousand sinks (self-tests).
    pub tiny: bool,
}

/// What one run measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub seed: u64,
    pub tally: Tally,
    /// Every metric of the run's kind, in table order.
    pub metrics: Vec<(Metric, f64)>,
    /// Extra facts for the human-readable summary.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(*v),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts one operation; `Err` marks it failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// Runs one workload.
pub fn run(workload: Workload, opts: &Options) -> Outcome {
    match workload {
        Workload::PaperSuite | Workload::Grid200k => flows::run(workload, opts),
        Workload::CbsNets => nets::run(opts),
    }
}

/// How far a sink node may sit from its pin, µm: DME re-embeds sinks
/// through rotated coordinates, which moves them by a few ulps.
pub const POS_TOLERANCE_UM: f64 = 1e-6;

/// Checks that `tree` reaches each of `sinks` exactly once, at its
/// position, and nothing else.
pub fn check_sinks(tree: &ClockTree, sinks: &[Sink]) -> Result<(), String> {
    let mut seen = vec![false; sinks.len()];
    for id in tree.topo_order() {
        let node = tree.node(id);
        if let NodeKind::Sink { sink_index, .. } = node.kind {
            let want = sinks
                .get(sink_index)
                .ok_or_else(|| format!("tree has unknown sink {sink_index}"))?;
            if std::mem::replace(&mut seen[sink_index], true) {
                return Err(format!("sink {sink_index} reached twice"));
            }
            if node.pos.dist(want.pos) > POS_TOLERANCE_UM {
                return Err(format!("sink {sink_index} moved to {:?}", node.pos));
            }
        }
    }
    match seen.iter().position(|s| !s) {
        Some(i) => Err(format!("sink {i} not reached")),
        None => Ok(()),
    }
}

/// Skew a tree may exceed its bound by before it counts as a violation,
/// ps: the tolerance CBS itself accepts a skew-legal tree with.
pub const SKEW_TOLERANCE_PS: f64 = 1e-9;

/// Whether `skew_ps` exceeds `bound_ps`.
pub fn violates(skew_ps: f64, bound_ps: f64) -> bool {
    skew_ps > bound_ps + SKEW_TOLERANCE_PS
}

/// Checks that every value is finite.
pub fn check_finite(what: &str, values: &[f64]) -> Result<(), String> {
    match values.iter().find(|v| !v.is_finite()) {
        Some(v) => Err(format!("{what}: non-finite value {v}")),
        None => Ok(()),
    }
}

/// FNV-1a of the tree's binary encoding: equal hashes mean bit-identical
/// trees.
pub fn tree_hash(tree: &ClockTree) -> u64 {
    sllt_obs::fnv1a64(&sllt_tree::codec::encode_tree(tree))
}

/// Runs `f`, turning a panic into an error.
pub fn catch<R>(what: &str, f: impl FnOnce() -> R) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .map_err(|_| format!("{what}: panicked"))
}

/// Median of the samples (0 when there are none).
pub fn median(samples: &[f64]) -> f64 {
    let mut v: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Per-operation times over passes. Totals add each operation's median
/// time, so interference that slows part of a few passes does not move
/// them.
#[derive(Debug, Clone, Default)]
pub struct OpTimes {
    per_op: Vec<Vec<f64>>,
}

impl OpTimes {
    /// Adds one pass: the time of each operation, in a fixed order.
    pub fn add(&mut self, pass: &[f64]) {
        self.per_op
            .resize(pass.len().max(self.per_op.len()), Vec::new());
        for (samples, &t) in self.per_op.iter_mut().zip(pass) {
            samples.push(t);
        }
    }

    /// Passes added so far.
    pub fn passes(&self) -> usize {
        self.per_op.first().map_or(0, Vec::len)
    }

    /// Sum over operations of each one's median time, seconds.
    pub fn median_total(&self) -> f64 {
        self.per_op.iter().map(|t| median(t)).sum()
    }
}

/// Set-ups made before the measured window; one more follows each
/// repetition inside it.
pub const SETUP_REPS: usize = 5;

/// Times the set-up of a workload's inputs. Samples are spread over the
/// whole run, so `setup_s` (their median) sees the same machine state as
/// the throughput it sits beside.
pub struct Setup<F> {
    build: F,
    samples: Vec<f64>,
}

impl<T, F: FnMut() -> T> Setup<F> {
    /// Builds the inputs [`SETUP_REPS`] times and keeps the last build.
    pub fn new(build: F) -> (Self, T) {
        let mut setup = Setup {
            build,
            samples: Vec::new(),
        };
        for _ in 1..SETUP_REPS {
            drop(setup.time());
        }
        let out = setup.time();
        (setup, out)
    }

    /// One timed build.
    pub fn time(&mut self) -> T {
        let t = Instant::now();
        let out = std::hint::black_box((self.build)());
        self.samples.push(t.elapsed().as_secs_f64());
        out
    }

    /// Median build time, seconds.
    pub fn median_s(&self) -> f64 {
        median(&self.samples)
    }
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Fills every metric of `table` from `values`; a missing one is a bug in
/// the harness, a non-finite one fails the run.
pub fn collect(
    table: &[Metric],
    values: &BTreeMap<&'static str, f64>,
    tally: &mut Tally,
) -> Vec<(Metric, f64)> {
    table
        .iter()
        .map(|m| {
            let v = *values
                .get(m.name)
                .unwrap_or_else(|| panic!("metric {} not measured", m.name));
            if !v.is_finite() {
                tally.record(Err(format!("metric {} is {v}", m.name)));
            }
            (*m, v)
        })
        .collect()
}

/// Where a traced run writes its spans.
pub fn trace_path(workload: Workload, seed: u64) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-seed{seed}.jsonl", workload.name()))
}
