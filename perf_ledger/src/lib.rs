//! Performance ledger for the ORP solver and simulator: four workloads,
//! end-to-end metrics measured with tracing off, and a separate traced
//! run that splits the time by layer. See `README.md` beside this
//! package for why each workload exists and which layer metric should
//! move which end-to-end metric.

pub mod sim;
pub mod solve;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Input sizes: the benchmarked ones, or small ones for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Toy,
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["solve_dense", "solve_packed", "inject_open", "npb_suite"];

/// End-to-end metrics (tracing off), with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("haspl_gap", "hops"),
    ("sim_time_us", "us"),
];

/// Per-layer metrics (traced run), with units. Every traced run emits
/// all of them; a layer a workload does not use reads 0.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("search.build_s", "s"),
    ("search.cache_bytes", "bytes"),
    ("search.apply_ns", "ns"),
    ("search.eval_ns_p50", "ns"),
    ("search.eval_ns_p99", "ns"),
    ("search.commit_ns", "ns"),
    ("search.rollback_ns", "ns"),
    ("search.eval_share", "ratio"),
    ("search.evals_incremental", "count"),
    ("search.evals_full", "count"),
    ("search.early_rejected", "count"),
    ("search.rows_repaired", "count"),
    ("search.rows_swept", "count"),
    ("search.affected_frac", "ratio"),
    ("anneal.accept_ratio", "ratio"),
    ("anneal.self_share", "ratio"),
    ("pool.jobs", "count"),
    ("pool.busy_frac", "ratio"),
    ("pool.idle_ns", "ns"),
    ("pool.steals", "count"),
    ("pool.steal_fail_ratio", "ratio"),
    ("route.compile_s", "s"),
    ("route.lookup_ns", "ns"),
    ("route.share", "ratio"),
    ("queue.events", "count"),
    ("queue.cancelled", "count"),
    ("queue.tombstone_ratio", "ratio"),
    ("queue.compacted", "count"),
    ("queue.peak_depth", "count"),
    ("sharing.model_compacted", "count"),
    ("engine.ns_per_event", "ns"),
    ("npb.build_s", "s"),
    ("npb.flows", "count"),
    ("npb.bytes", "bytes"),
    ("npb.ep.run_s", "s"),
    ("npb.is.run_s", "s"),
    ("npb.ft.run_s", "s"),
    ("npb.mg.run_s", "s"),
    ("npb.cg.run_s", "s"),
    ("npb.lu.run_s", "s"),
    ("npb.bt.run_s", "s"),
    ("npb.sp.run_s", "s"),
    ("obs.trace_overhead", "ratio"),
    ("trace.loop_s", "s"),
    ("self.search_build_s", "s"),
    ("self.search_apply_s", "s"),
    ("self.search_eval_s", "s"),
    ("self.search_commit_s", "s"),
    ("self.search_rollback_s", "s"),
    ("self.route_compile_s", "s"),
    ("self.npb_build_s", "s"),
    ("self.sim_build_s", "s"),
    ("self.sim_run_s", "s"),
    ("self.route_replay_s", "s"),
    ("self.harness_s", "s"),
];

/// One timed repetition that passed its correctness checks.
#[derive(Debug, Clone)]
pub struct Rep {
    pub run_s: f64,
    pub haspl_gap: f64,
    pub sim_time_us: f64,
    /// Bit-exact identity of the result; every repetition and the
    /// traced replay of one run must reproduce it.
    pub fingerprint: String,
}

/// Per-layer figures of one traced pass.
#[derive(Debug, Clone)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    /// The pass's counterpart of the untraced `run_s`.
    traced_run_s: f64,
}

impl Layers {
    /// Starts the figures of a trace whose outermost span is `root`.
    fn new(tr: &Tracer, root: &str, traced_run_s: f64) -> Self {
        let mut l = Self {
            values: BTreeMap::new(),
            traced_run_s,
        };
        l.set("trace.loop_s", tr.total_s(root));
        l
    }

    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.values.insert(name, value);
    }

    /// Fails unless the reported self times add up to the loop's wall
    /// time (every span must be attributed to some `self.*` figure).
    fn finish(&self) -> Result<(), String> {
        let loop_s = self.values["trace.loop_s"];
        let sum: f64 = self
            .values
            .iter()
            .filter(|(k, _)| k.starts_with("self."))
            .map(|(_, v)| v)
            .sum();
        if (sum - loop_s).abs() > 1e-6 * loop_s + 1e-9 {
            return Err(format!(
                "self times add up to {sum} s, loop took {loop_s} s"
            ));
        }
        Ok(())
    }

    /// Every per-layer metric, 0 where this workload has no such layer.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n, self.values.get(n).copied().unwrap_or(0.0), u))
            .collect()
    }
}

enum Workload {
    Solve(solve::SolveWorkload),
    Inject(sim::InjectWorkload),
    Npb(sim::NpbWorkload),
}

impl Workload {
    fn new(name: &str, seed: u64, scale: Scale) -> Result<Self, String> {
        Ok(match name {
            "solve_dense" => Self::Solve(solve::SolveWorkload::new(
                solve::SolveSpec::dense(scale),
                seed,
            )),
            "solve_packed" => Self::Solve(solve::SolveWorkload::new(
                solve::SolveSpec::packed(scale),
                seed,
            )),
            "inject_open" => {
                Self::Inject(sim::InjectWorkload::new(sim::InjectSpec::new(scale), seed)?)
            }
            "npb_suite" => Self::Npb(sim::NpbWorkload::new(sim::NpbSpec::new(scale), seed)?),
            other => return Err(format!("unknown workload {other:?}")),
        })
    }

    /// One timed repetition; the first one of a solve also recomputes
    /// the solved graph's metrics from scratch (later repetitions must
    /// match its fingerprint bit for bit).
    fn rep(&mut self) -> Result<Rep, String> {
        match self {
            Self::Solve(w) => w.rep(),
            Self::Inject(w) => w.rep(),
            Self::Npb(w) => w.rep(),
        }
    }

    fn setup_only(&mut self) -> Result<f64, String> {
        match self {
            Self::Solve(w) => w.setup_only(),
            Self::Inject(w) => w.setup_only(),
            Self::Npb(w) => w.setup_only(),
        }
    }

    fn traced(&mut self, fingerprint: &str) -> Result<Layers, String> {
        match self {
            Self::Solve(w) => w.traced(fingerprint),
            Self::Inject(w) => w.traced(fingerprint),
            Self::Npb(w) => w.traced(fingerprint),
        }
    }
}

/// Result of one benchmark invocation.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Repetitions always measured, however long they take.
const MIN_REPS: usize = 3;
/// Set-up samples per run, taken before any repetition so that every
/// seed samples from the same process state: at least the minimum, and
/// up to the maximum while a quarter of the run budget lasts.
const MIN_SETUP_SAMPLES: usize = 3;
const MAX_SETUP_SAMPLES: usize = 25;
/// A run stops early after this many failed repetitions.
const MAX_FAILURES: u64 = 3;

fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Runs `workload` for `seconds` of timed repetitions (at least
/// [`MIN_REPS`]). With `trace`, every repetition is followed by a traced
/// pass, and the per-layer figures of the median pass (by loop time)
/// are reported instead of the end-to-end ones.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
) -> Result<Outcome, String> {
    let mut w = Workload::new(workload, seed, scale)?;
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut reps: Vec<Rep> = Vec::new();
    let mut passes: Vec<Layers> = Vec::new();
    let mut peak_rss = None;
    let mut setup = Vec::new();
    while !trace
        && (setup.len() < MIN_SETUP_SAMPLES
            || (setup.len() < MAX_SETUP_SAMPLES && start.elapsed() < budget / 4))
    {
        setup.push(w.setup_only()?);
    }
    while failed < MAX_FAILURES && (reps.len() < MIN_REPS || start.elapsed() < budget) {
        attempted += 1;
        let rep = w.rep().and_then(|r| match reps.first() {
            Some(f) if f.fingerprint != r.fingerprint => Err(format!(
                "repetition is not reproducible: {} vs {}",
                r.fingerprint, f.fingerprint
            )),
            _ => Ok(r),
        });
        match rep {
            Ok(r) => {
                eprintln!(
                    "{workload} seed={seed} rep={attempted} run_s={:.6} {}",
                    r.run_s, r.fingerprint
                );
                reps.push(r);
            }
            Err(e) => {
                failed += 1;
                eprintln!("{workload} seed={seed} rep={attempted} FAILED: {e}");
                continue;
            }
        }
        // the high-water mark of setting up and running the workload
        // once; later repetitions only reshuffle the heap
        if peak_rss.is_none() {
            peak_rss = Some(peak_rss_mib()?);
        }
        if trace {
            attempted += 1;
            match w.traced(&reps[0].fingerprint) {
                Ok(l) => passes.push(l),
                Err(e) => {
                    failed += 1;
                    eprintln!("{workload} seed={seed} traced FAILED: {e}");
                }
            }
        }
    }
    let peak_rss = match peak_rss {
        Some(mib) if !(trace && passes.is_empty()) => mib,
        _ => {
            return Ok(Outcome {
                correct: false,
                attempted,
                failed,
                metrics: Vec::new(),
            })
        }
    };
    let col = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let run_s = stats::median(&col(|r| r.run_s));
    let metrics = if trace {
        let traced_run_s: Vec<f64> = passes.iter().map(|l| l.traced_run_s).collect();
        passes.sort_by(|a, b| a.values["trace.loop_s"].total_cmp(&b.values["trace.loop_s"]));
        let mut median_pass = passes.swap_remove(passes.len() / 2);
        median_pass.set("obs.trace_overhead", stats::median(&traced_run_s) / run_s);
        median_pass.metrics()
    } else {
        vec![
            ("setup_s", stats::median(&setup), "s"),
            ("run_s", run_s, "s"),
            ("peak_rss_mib", peak_rss, "MiB"),
            ("haspl_gap", stats::median(&col(|r| r.haspl_gap)), "hops"),
            ("sim_time_us", stats::median(&col(|r| r.sim_time_us)), "us"),
        ]
    };
    if let Some((n, v, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("{n} is not finite: {v}"));
    }
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}
