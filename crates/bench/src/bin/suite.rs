//! Fault-isolated batch suite runner: designs × constraint configs, one
//! OS process per job.
//!
//! The parent process walks the job matrix and re-execs itself
//! (`--job design:config`) for each cell, so a job that fails, panics,
//! or is cancelled never takes the batch down — the worst outcome is a
//! nonzero final exit code and a manifest row saying why. Progress is
//! journaled to a checksummed, fsync'd manifest (`manifest.jsonl` in
//! `--out`, same sealed-JSONL format as the level checkpoints; see
//! DESIGN.md "Durability model"), so a killed batch restarts with
//! `--resume` and executes only the jobs that never finished.
//!
//! Each child runs with the PR-4 recovery ladder enabled and writes a
//! per-job level checkpoint next to the manifest; a child that died
//! mid-run resumes its own flow from the last committed level on the
//! next attempt.
//!
//! ```text
//! cargo run --release -p sllt-bench --bin suite [-- --designs s35932,s38584
//!     --configs base,tight --out results/suite --retries 1 --resume]
//! ```
//!
//! `--designs` accepts suite names (`s35932`, …) and synthetic
//! `grid<N>` designs (an N-sink register grid) for fast smoke runs.
//! `--inject-panic design:config` makes that child panic mid-job and
//! `--inject-hang design:config` wedges it forever — the isolation and
//! deadline contracts' test hooks.
//!
//! Robustness knobs shared with the `slltd` daemon (same primitives,
//! `sllt-server` crate): `--job-timeout <s>` SIGKILLs a child that
//! outlives its wall-clock deadline (status `timeout`, retryable), and
//! retries back off with deterministic jittered exponential delays —
//! a pure function of the job name and attempt, journaled as
//! `backoff_ms` in each `job_start` record. `--fault-fs <spec>` routes
//! the manifest and per-job progress journals through the deterministic
//! fault-injecting filesystem (see `sllt_obs::vfs`).

use sllt_bench::{arg_flag, arg_parse, arg_value, peak_rss_bytes, run_main, Table};
use sllt_cts::{evaluate, CancelToken, CtsError, Progress};
use sllt_design::design_by_name;
use sllt_obs::journal::{fnv1a64, read_journal};
use sllt_obs::vfs::{real_fs, FaultConfig, FaultFs, Vfs};
use sllt_obs::{DurableAppender, JournalProgress, Value};
use sllt_server::backoff::{backoff_ms, BASE_MS, CAP_MS};
use sllt_server::jobs::{config_by_name, run_journaled};
use sllt_server::supervise::{run_supervised, SuperviseOpts};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SUITE_SCHEMA: u64 = 1;
/// Child exit codes the parent interprets; anything else (libstd's 101,
/// or death by signal) is classified as a panic.
const EXIT_JOB_ERROR: i32 = 2;
const EXIT_JOB_CANCELLED: i32 = 3;

fn main() -> ExitCode {
    if let Some(job) = arg_value("--job") {
        return child_main(&job);
    }
    run_main(parent_main)
}

// ---------------------------------------------------------------- jobs

/// The storage seam shared by the manifest and per-job progress
/// journals: `--fault-fs seed=N[,after=N][,rate=F][,kinds=...]` swaps
/// the real filesystem for a deterministic fault injector, so ENOSPC
/// and torn-sync behaviour of the batch paths is testable on a healthy
/// disk.
fn fault_vfs() -> Result<Arc<dyn Vfs>, String> {
    match arg_value("--fault-fs") {
        None => Ok(real_fs()),
        Some(spec) => {
            let cfg = FaultConfig::parse(&spec).map_err(|e| format!("--fault-fs: {e}"))?;
            Ok(Arc::new(FaultFs::over_real(cfg)))
        }
    }
}

fn ckpt_path(out_dir: &Path, job: &str) -> PathBuf {
    out_dir.join(format!("ckpt_{}.jsonl", job.replace(':', "_")))
}

/// The per-job progress journal: level start/done and decile events,
/// sealed JSONL, written live so a dashboard can tail a running batch.
fn progress_path(out_dir: &Path, job: &str) -> PathBuf {
    out_dir.join(format!("progress_{}.jsonl", job.replace(':', "_")))
}

// --------------------------------------------------------------- child

/// Runs one `design:config` job in-process and reports through the exit
/// code plus a `RESULT {json}` stdout line. This is the isolation
/// boundary: everything in here may fail, panic, or be interrupted
/// without consequence for the parent.
fn child_main(job: &str) -> ExitCode {
    match child_run(job) {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => ExitCode::from(code),
    }
}

fn child_run(job: &str) -> Result<(), u8> {
    let fail = |msg: String| -> u8 {
        eprintln!("error: {msg}");
        EXIT_JOB_ERROR as u8
    };
    let (dname, cname) = job
        .split_once(':')
        .ok_or_else(|| fail(format!("bad job {job:?}: expected design:config")))?;
    let design = design_by_name(dname).map_err(fail)?;
    let mut cts = config_by_name(cname).map_err(fail)?;
    cts.workers = arg_parse("--workers", 1usize);
    let out_dir = PathBuf::from(arg_value("--out").unwrap_or_else(|| "results/suite".into()));

    let token = CancelToken::new();
    cts.cancel = token.clone();
    #[cfg(unix)]
    sllt_cts::cancel::install_signals(&token);

    if arg_flag("--child-panic") {
        panic!("injected child panic ({job}); suite isolation test hook");
    }
    if arg_flag("--child-hang") {
        // The deadline contract's test hook: wedge forever, ignoring the
        // cooperative machinery. Only the parent's SIGKILL ends this.
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }

    // Live progress: deterministic work-budget events stream into the
    // job's sealed journal. A journal that cannot be created is not
    // fatal — progress is observability, never a reason to fail a job.
    let progress = progress_path(&out_dir, job);
    let vfs = fault_vfs().map_err(fail)?;
    if let Ok(sink) = JournalProgress::create_with(vfs.as_ref(), &progress) {
        cts.progress = Progress::new(Arc::new(sink));
    }

    let ckpt = ckpt_path(&out_dir, job);
    let t0 = Instant::now();
    let result = run_journaled(&cts, &design, &ckpt);

    match result {
        Ok(tree) => {
            let report = evaluate(&tree, &cts.tech, &cts.lib);
            let v = Value::obj()
                .with("job", job)
                .with("sinks", design.num_ffs())
                .with("skew_ps", report.skew_ps)
                .with("wl_um", report.clock_wl_um)
                .with("runtime_s", t0.elapsed().as_secs_f64())
                // VmHWM, bytes; JSON null off Linux (no procfs).
                .with("peak_rss_bytes", peak_rss_bytes());
            println!("RESULT {}", v.encode());
            // The manifest row is the durable record of a finished job;
            // its level checkpoint has nothing left to resume.
            std::fs::remove_file(&ckpt).ok();
            Ok(())
        }
        Err(CtsError::Cancelled) => {
            eprintln!(
                "{job}: cancelled; committed levels remain at {}",
                ckpt.display()
            );
            Err(EXIT_JOB_CANCELLED as u8)
        }
        Err(e) => Err(fail(format!("{job}: {e}"))),
    }
}

// -------------------------------------------------------------- parent

#[derive(Debug, Clone)]
struct Outcome {
    status: String,
    attempts: usize,
    skew_ps: Option<f64>,
    runtime_s: Option<f64>,
    detail: String,
}

fn parent_main() -> Result<(), String> {
    let designs: Vec<String> = arg_value("--designs")
        .unwrap_or_else(|| "s35932,s38584".into())
        .split(',')
        .map(str::to_string)
        .collect();
    let configs: Vec<String> = arg_value("--configs")
        .unwrap_or_else(|| "base,tight".into())
        .split(',')
        .map(str::to_string)
        .collect();
    let retries = arg_parse("--retries", 1usize);
    let workers = arg_parse("--workers", 1usize);
    let inject = arg_value("--inject-panic");
    let inject_hang = arg_value("--inject-hang");
    let out_dir = PathBuf::from(arg_value("--out").unwrap_or_else(|| "results/suite".into()));
    let resume = arg_flag("--resume");
    let seed: u64 = arg_parse("--seed", 0u64);
    let job_timeout = match arg_value("--job-timeout") {
        None => None,
        Some(raw) => match raw.parse::<f64>() {
            Ok(s) if s > 0.0 && s.is_finite() => Some(Duration::from_secs_f64(s)),
            _ => return Err(format!("bad --job-timeout {raw:?}: want seconds > 0")),
        },
    };

    // Validate the whole matrix before journaling anything: a typo must
    // not burn a manifest.
    for d in &designs {
        design_by_name(d).map(|_| ())?;
    }
    for c in &configs {
        config_by_name(c).map(|_| ())?;
    }
    let jobs: Vec<String> = designs
        .iter()
        .flat_map(|d| configs.iter().map(move |c| format!("{d}:{c}")))
        .collect();

    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let vfs = fault_vfs()?;
    let manifest = out_dir.join("manifest.jsonl");
    let (mut app, finished) =
        open_manifest(vfs.as_ref(), &manifest, resume, &designs, &configs, retries)?;

    let token = CancelToken::new();
    #[cfg(unix)]
    sllt_cts::cancel::install_signals(&token);

    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut outcomes: BTreeMap<String, Outcome> = finished
        .iter()
        .map(|(job, o)| (job.clone(), o.clone()))
        .collect();
    let mut interrupted = false;

    for job in &jobs {
        if finished.contains_key(job) {
            continue;
        }
        if token.is_cancelled() {
            interrupted = true;
            break;
        }
        let mut outcome = Outcome {
            status: "pending".into(),
            attempts: 0,
            skew_ps: None,
            runtime_s: None,
            detail: String::new(),
        };
        for attempt in 1..=retries + 1 {
            outcome.attempts = attempt;
            // Deterministic jittered exponential backoff before each
            // retry: a pure function of (seed, job, attempt), so a
            // replayed batch waits identically and the manifest's
            // backoff_ms values are reproducible.
            let backoff = backoff_ms(
                seed ^ fnv1a64(job.as_bytes()),
                attempt as u32,
                BASE_MS,
                CAP_MS,
            );
            if backoff > 0 {
                std::thread::sleep(Duration::from_millis(backoff));
            }
            append(
                &mut app,
                Value::obj()
                    .with("type", "job_start")
                    .with("job", job.as_str())
                    .with("attempt", attempt)
                    .with("backoff_ms", backoff),
            )?;
            let mut cmd = Command::new(&exe);
            cmd.arg("--job")
                .arg(job)
                .arg("--workers")
                .arg(workers.to_string())
                .arg("--out")
                .arg(&out_dir);
            if inject.as_deref() == Some(job.as_str()) {
                cmd.arg("--child-panic");
            }
            if inject_hang.as_deref() == Some(job.as_str()) {
                cmd.arg("--child-hang");
            }
            if let Some(spec) = arg_value("--fault-fs") {
                // Children get the same schedule: their progress
                // journals go through the injector too.
                cmd.arg("--fault-fs").arg(spec);
            }
            let opts = SuperviseOpts {
                timeout: job_timeout,
                interrupt: Some(token.clone()),
                ..SuperviseOpts::default()
            };
            let sup = run_supervised(&mut cmd, &opts)
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            let stdout = sup.stdout.as_str();
            let stderr = sup.stderr.as_str();

            let mut done = Value::obj()
                .with("type", "job_done")
                .with("job", job.as_str())
                .with("attempt", attempt)
                // Parent-measured wall time: present for every outcome,
                // including panics and errors (the child's runtime_s is
                // only reported on success).
                .with("wall_s", sup.wall.as_secs_f64());
            if sup.timed_out && !sup.interrupted {
                // The deadline fired and the child was SIGKILLed; a hung
                // job may be a flaky one, so the remaining attempts run.
                outcome.status = "timeout".into();
                outcome.detail = format!(
                    "SIGKILLed after {:.2}s (--job-timeout)",
                    sup.wall.as_secs_f64()
                );
                done.set("status", "timeout");
                done.set("detail", outcome.detail.as_str());
                append(&mut app, done)?;
                continue;
            }
            match sup.status.code() {
                Some(0) => match parse_result_line(stdout) {
                    Some(r) => {
                        outcome.status = "ok".into();
                        outcome.skew_ps = r.get("skew_ps").and_then(Value::as_f64);
                        outcome.runtime_s = r.get("runtime_s").and_then(Value::as_f64);
                        done.set("status", "ok");
                        done.set("skew_ps", outcome.skew_ps);
                        done.set("runtime_s", outcome.runtime_s);
                        // Child VmHWM (bytes); null off Linux.
                        done.set(
                            "peak_rss_bytes",
                            r.get("peak_rss_bytes").cloned().unwrap_or(Value::Null),
                        );
                    }
                    None => {
                        outcome.status = "error".into();
                        outcome.detail = "child exited 0 without a RESULT line".into();
                        done.set("status", "error");
                        done.set("detail", outcome.detail.as_str());
                    }
                },
                Some(EXIT_JOB_CANCELLED) => {
                    outcome.status = "cancelled".into();
                    outcome.detail = "job cancelled; its level checkpoint is kept".into();
                    done.set("status", "cancelled");
                }
                Some(EXIT_JOB_ERROR) => {
                    outcome.status = "error".into();
                    outcome.detail = last_line(stderr);
                    done.set("status", "error");
                    done.set("detail", outcome.detail.as_str());
                }
                code => {
                    // 101 (Rust panic), any other code, or death by
                    // signal: the child blew up. The batch carries on.
                    outcome.status = "panic".into();
                    outcome.detail = match code {
                        Some(c) => format!("child exited {c}: {}", last_line(stderr)),
                        None => "child killed by signal".into(),
                    };
                    done.set("status", "panic");
                    done.set("detail", outcome.detail.as_str());
                }
            }
            append(&mut app, done)?;
            // Cancellation is a stop request, not a flaky job: never
            // retry it. Errors and panics get the remaining attempts.
            if outcome.status == "ok" || outcome.status == "cancelled" {
                break;
            }
        }
        if outcome.status == "cancelled" {
            interrupted = true;
        }
        outcomes.insert(job.clone(), outcome);
        if interrupted {
            break;
        }
    }

    let mut table = Table::new(vec!["Job", "Status", "Attempts", "Skew (ps)", "Time (s)"]);
    let mut failures = 0usize;
    let mut pending = 0usize;
    for job in &jobs {
        match outcomes.get(job) {
            Some(o) => {
                if o.status != "ok" {
                    failures += 1;
                    if !o.detail.is_empty() {
                        eprintln!("{job}: {}: {}", o.status, o.detail);
                    }
                }
                let prev = if finished.contains_key(job) {
                    " (previous run)"
                } else {
                    ""
                };
                table.row(vec![
                    job.clone(),
                    format!("{}{prev}", o.status),
                    o.attempts.to_string(),
                    o.skew_ps.map_or("—".into(), |s| format!("{s:.1}")),
                    o.runtime_s.map_or("—".into(), |s| format!("{s:.2}")),
                ]);
            }
            None => {
                pending += 1;
                table.row(vec![
                    job.clone(),
                    "not run".to_string(),
                    "0".to_string(),
                    "—".to_string(),
                    "—".to_string(),
                ]);
            }
        }
    }
    println!(
        "suite — {} jobs, manifest {}",
        jobs.len(),
        manifest.display()
    );
    println!("{}", table.render());

    if interrupted {
        return Err(format!(
            "batch interrupted; rerun with --resume --out {} to finish {} job(s)",
            out_dir.display(),
            failures + pending
        ));
    }
    if failures > 0 {
        return Err(format!(
            "{failures} job(s) failed; manifest at {}",
            manifest.display()
        ));
    }
    Ok(())
}

/// Opens (or resumes) the batch manifest. Returns the appender plus the
/// jobs already finished `ok` in previous runs, with their recorded
/// outcomes. On resume the journal's torn final line — the signature of
/// a batch killed mid-append — is truncated away and appending
/// continues from the last intact record.
fn open_manifest(
    vfs: &dyn Vfs,
    manifest: &Path,
    resume: bool,
    designs: &[String],
    configs: &[String],
    retries: usize,
) -> Result<(DurableAppender, BTreeMap<String, Outcome>), String> {
    let meta = Value::obj()
        .with("type", "suite-meta")
        .with("schema", SUITE_SCHEMA)
        .with(
            "designs",
            Value::Arr(designs.iter().map(|d| Value::from(d.as_str())).collect()),
        )
        .with(
            "configs",
            Value::Arr(configs.iter().map(|c| Value::from(c.as_str())).collect()),
        )
        .with("retries", retries);

    if resume && manifest.exists() {
        let journal = read_journal(manifest).map_err(|e| format!("{}: {e}", manifest.display()))?;
        let head = journal
            .records
            .first()
            .ok_or_else(|| format!("{}: empty manifest", manifest.display()))?;
        if head.get("type").and_then(Value::as_str) != Some("suite-meta") {
            return Err(format!("{}: not a suite manifest", manifest.display()));
        }
        for key in ["designs", "configs"] {
            if head.get(key).map(Value::encode) != meta.get(key).map(Value::encode) {
                return Err(format!(
                    "{}: manifest {key} do not match this invocation; \
                     use a fresh --out for a different matrix",
                    manifest.display()
                ));
            }
        }
        let mut finished = BTreeMap::new();
        for rec in &journal.records[1..] {
            if rec.get("type").and_then(Value::as_str) != Some("job_done") {
                continue;
            }
            let (Some(job), Some(status)) = (
                rec.get("job").and_then(Value::as_str),
                rec.get("status").and_then(Value::as_str),
            ) else {
                continue;
            };
            if status == "ok" {
                finished.insert(
                    job.to_string(),
                    Outcome {
                        status: "ok".into(),
                        attempts: rec.get("attempt").and_then(Value::as_u64).unwrap_or(0) as usize,
                        skew_ps: rec.get("skew_ps").and_then(Value::as_f64),
                        runtime_s: rec.get("runtime_s").and_then(Value::as_f64),
                        detail: String::new(),
                    },
                );
            }
        }
        let app = DurableAppender::reopen_with(vfs, manifest, journal.valid_len)
            .map_err(|e| format!("reopen {}: {e}", manifest.display()))?;
        return Ok((app, finished));
    }

    let mut app = DurableAppender::create_with(vfs, manifest)
        .map_err(|e| format!("create {}: {e}", manifest.display()))?;
    append(&mut app, meta)?;
    Ok((app, BTreeMap::new()))
}

fn append(app: &mut DurableAppender, record: Value) -> Result<(), String> {
    app.append(&record)
        .map_err(|e| format!("manifest append: {e}"))
}

fn parse_result_line(stdout: &str) -> Option<Value> {
    let line = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("RESULT "))?;
    sllt_obs::json::parse(line).ok()
}

fn last_line(stderr: &str) -> String {
    stderr
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty() && !l.starts_with("note:"))
        .unwrap_or("(no stderr)")
        .to_string()
}
