//! Minimal, offline stand-in for the external `criterion` crate.
//!
//! Implements the benchmarking surface the `sllt-bench` harness uses —
//! [`Criterion`], [`BenchmarkGroup`], [`BenchmarkId`], [`Bencher::iter`],
//! and the [`criterion_group!`]/[`criterion_main!`] macros — with plain
//! wall-clock sampling instead of criterion's statistical machinery:
//! each benchmark warms up for `warm_up_time`, then runs `sample_size`
//! samples (each sized to fit `measurement_time`) and reports
//! mean / median / standard deviation per iteration.
//!
//! As with criterion, the first non-flag command-line argument selects
//! benchmarks: only those whose full `group/id` name contains it run
//! (`cargo bench --bench partition -- balanced_kmeans_flow_cell`).
//! Flags are ignored.
//!
//! Benches are feature-gated (`--features criterion` on `sllt-bench`) so
//! the tier-1 build never needs them; see `DESIGN.md`.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Top-level benchmark driver (a stand-in for `criterion::Criterion`).
#[derive(Debug, Clone)]
pub struct Criterion {
    measurement_time: Duration,
    warm_up_time: Duration,
    sample_size: usize,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            measurement_time: Duration::from_secs(3),
            warm_up_time: Duration::from_secs(1),
            sample_size: 50,
            filter: None,
        }
    }
}

impl Criterion {
    /// Takes the benchmark-name filter from the process arguments (what
    /// [`criterion_group!`] does for every group).
    pub fn configure_from_args(mut self) -> Self {
        self.filter = name_filter(std::env::args().skip(1));
        self
    }

    /// Total time budget for one benchmark's samples.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Warm-up budget before sampling starts.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Number of samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: None,
        }
    }

    /// Runs one benchmark outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        if !selects(self.filter.as_deref(), id) {
            return self;
        }
        run_bench(
            id,
            self.warm_up_time,
            self.measurement_time,
            self.sample_size,
            &mut f,
        );
        self
    }
}

/// A named set of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Overrides the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.max(2));
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut f: F,
    ) -> &mut Self {
        let id = id.into();
        let label = format!("{}/{}", self.name, id.0);
        if !selects(self.criterion.filter.as_deref(), &label) {
            return self;
        }
        run_bench(
            &label,
            self.criterion.warm_up_time,
            self.criterion.measurement_time,
            self.sample_size.unwrap_or(self.criterion.sample_size),
            &mut f,
        );
        self
    }

    /// Runs one benchmark parameterized by `input`.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group (report lines are emitted eagerly, so this is a
    /// no-op kept for API compatibility).
    pub fn finish(self) {}
}

/// A benchmark's identifier within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// An id rendered from a parameter value.
    pub fn from_parameter(p: impl Display) -> Self {
        BenchmarkId(p.to_string())
    }

    /// An id with a function name and a parameter value.
    pub fn new(name: impl Into<String>, p: impl Display) -> Self {
        BenchmarkId(format!("{}/{}", name.into(), p))
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId(s.to_owned())
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId(s)
    }
}

/// Passed to the benchmark closure; call [`iter`](Bencher::iter) with the
/// routine under test.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine` over this sample's iteration batch.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

/// The first argument that is not a flag, as criterion reads its
/// benchmark filter.
fn name_filter(args: impl IntoIterator<Item = String>) -> Option<String> {
    args.into_iter().find(|a| !a.starts_with('-'))
}

/// Whether `filter` selects the benchmark named `label` (its full
/// `group/id` name): any substring matches.
fn selects(filter: Option<&str>, label: &str) -> bool {
    filter.is_none_or(|f| label.contains(f))
}

fn run_bench<F: FnMut(&mut Bencher)>(
    label: &str,
    warm_up: Duration,
    measurement: Duration,
    samples: usize,
    f: &mut F,
) {
    // Warm up while estimating the per-iteration cost.
    let warm_start = Instant::now();
    let mut iters_done = 0u64;
    while warm_start.elapsed() < warm_up || iters_done == 0 {
        let mut b = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        iters_done += 1;
    }
    let per_iter = warm_start.elapsed().as_secs_f64() / iters_done as f64;

    // Size each sample so all samples roughly fill the measurement budget.
    let budget = measurement.as_secs_f64() / samples as f64;
    let iters = ((budget / per_iter.max(1e-9)) as u64).max(1);

    let mut per_iter_times: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        per_iter_times.push(b.elapsed.as_secs_f64() / iters as f64);
    }
    per_iter_times.sort_by(|a, b| a.total_cmp(b));
    let mean = per_iter_times.iter().sum::<f64>() / per_iter_times.len() as f64;
    let median = per_iter_times[per_iter_times.len() / 2];
    let var = per_iter_times
        .iter()
        .map(|t| (t - mean) * (t - mean))
        .sum::<f64>()
        / per_iter_times.len() as f64;
    println!(
        "{label:<40} mean {:>12}  median {:>12}  σ {:>10}  ({} samples × {} iters)",
        fmt_time(mean),
        fmt_time(median),
        fmt_time(var.sqrt()),
        samples,
        iters,
    );
}

fn fmt_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

/// Declares a benchmark entry function running `targets` under `config`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config.configure_from_args();
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares `main` running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        let mut c = Criterion::default()
            .measurement_time(Duration::from_millis(20))
            .warm_up_time(Duration::from_millis(5))
            .sample_size(3);
        let mut g = c.benchmark_group("demo");
        let mut calls = 0u64;
        g.bench_function("noop", |b| {
            b.iter(|| calls += 1);
        });
        g.bench_with_input(BenchmarkId::from_parameter(42), &7usize, |b, &x| {
            b.iter(|| x * 2)
        });
        g.finish();
        assert!(calls > 0);
    }

    #[test]
    fn filter_is_the_first_non_flag_argument_and_matches_substrings() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(name_filter(args(&["--bench"])), None);
        let filter = name_filter(args(&["--bench", "flow_cell", "x"]));
        assert_eq!(filter.as_deref(), Some("flow_cell"));
        assert!(selects(Some("flow_cell"), "partition/kmeans_flow_cell/150"));
        assert!(!selects(Some("flow_cell"), "partition/sa_refine_500"));
        assert!(selects(Some("kmeans/2"), "kmeans/200"), "spans group/id");
        assert!(selects(None, "anything"), "no filter runs everything");
    }

    #[test]
    fn id_formats() {
        assert_eq!(BenchmarkId::from_parameter(3.5).0, "3.5");
        assert_eq!(BenchmarkId::new("f", 2).0, "f/2");
    }
}
