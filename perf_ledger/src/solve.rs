//! The two annealing workloads: a fixed proposal budget of the paper's
//! 2-neighbour-swing search from a seeded random start at `m_opt`.

use crate::trace::Tracer;
use crate::{Layers, Rep, Scale};
use orp_core::anneal::{Anneal, MoveKind, SaConfig, SaResult};
use orp_core::bounds::{continuous_moore_haspl, optimal_switch_count};
use orp_core::construct::random_general;
use orp_core::graph::HostSwitchGraph;
use orp_core::metrics::{path_metrics, PathMetrics};
use orp_core::ops::{sample_swing, Swing};
use orp_core::search::{
    CacheMode, EvalOutcome, EvalPathKind, SearchConfig, SearchState, EARLY_REJECT_LOG,
};
use orp_netsim::NetConfig;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// One annealing instance and its proposal budget.
#[derive(Debug, Clone, Copy)]
pub struct SolveSpec {
    pub n: u32,
    pub r: u32,
    pub iters: usize,
    /// Evaluation workers; `None` keeps the library's default pool size.
    pub workers: Option<usize>,
    pub cache_mode: CacheMode,
}

impl SolveSpec {
    /// `solve_dense`: m_opt = 734 ≤ 4096, so the auto policy picks the
    /// dense u16 rows; one worker, so the pool never runs.
    pub fn dense(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                n: 4096,
                r: 16,
                iters: 1000,
                workers: Some(1),
                cache_mode: CacheMode::Auto,
            },
            Scale::Toy => Self {
                n: 256,
                r: 12,
                iters: 300,
                workers: Some(1),
                cache_mode: CacheMode::Auto,
            },
        }
    }

    /// `solve_packed`: m_opt = 8122 > 4096, so the auto policy picks
    /// packed u8 rows, with the default (one per CPU) evaluation pool.
    /// The toy size forces the packed codec, which auto would not pick.
    pub fn packed(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                n: 32768,
                r: 16,
                iters: 100,
                workers: None,
                cache_mode: CacheMode::Auto,
            },
            Scale::Toy => Self {
                n: 512,
                r: 12,
                iters: 100,
                workers: None,
                cache_mode: CacheMode::Compressed,
            },
        }
    }

    fn config(&self, seed: u64) -> SaConfig {
        SaConfig {
            iters: self.iters,
            seed,
            eval_workers: self.workers,
            search: SearchConfig {
                cache_mode: self.cache_mode,
                ..SearchConfig::default()
            },
            ..SaConfig::default()
        }
    }
}

/// The bit-exact identity of a finished search.
fn fingerprint(res: &SaResult) -> String {
    format!(
        "proposed={} accepted={} disconnected={} haspl_bits={:#018x}",
        res.proposed,
        res.accepted,
        res.disconnected,
        res.metrics.haspl.to_bits()
    )
}

pub struct SolveWorkload {
    spec: SolveSpec,
    seed: u64,
    /// The start graph every repetition anneals a copy of; regenerating
    /// it (seconds at n = 32768) would only repeat the set-up that
    /// `setup_only` samples.
    start: Option<(u32, HostSwitchGraph)>,
    /// Whether a result has been recomputed from scratch yet.
    checked: bool,
}

/// Modelled mean zero-load host-to-host message latency in µs: the
/// simulator's software overhead plus one hop latency per link, over a
/// route of h-ASPL links on average.
fn zero_load_latency_us(haspl: f64) -> f64 {
    let cfg = NetConfig::default();
    (cfg.sw_overhead + haspl * cfg.hop_latency) * 1e6
}

impl SolveWorkload {
    pub fn new(spec: SolveSpec, seed: u64) -> Self {
        Self {
            spec,
            seed,
            start: None,
            checked: false,
        }
    }

    /// Set-up: the m_opt prediction and the seeded random start graph.
    fn setup(&self) -> Result<(u32, HostSwitchGraph), String> {
        let SolveSpec { n, r, .. } = self.spec;
        let (m, _) = optimal_switch_count(u64::from(n), u64::from(r));
        let m = m as u32;
        let g = random_general(n, m, r, self.seed).map_err(|e| format!("start graph: {e}"))?;
        Ok((m, g))
    }

    pub fn setup_only(&mut self) -> Result<f64, String> {
        let t = Instant::now();
        let out = self.setup()?;
        let s = t.elapsed().as_secs_f64();
        self.start.get_or_insert(out);
        Ok(s)
    }

    fn start(&mut self) -> Result<(u32, HostSwitchGraph), String> {
        if self.start.is_none() {
            self.start = Some(self.setup()?);
        }
        Ok(self.start.clone().expect("set up above"))
    }

    fn gap(&self, m: u32, metrics: &PathMetrics) -> f64 {
        let bound =
            continuous_moore_haspl(u64::from(self.spec.n), u64::from(m), u64::from(self.spec.r));
        metrics.haspl - bound
    }

    pub fn rep(&mut self) -> Result<Rep, String> {
        let (m, start) = self.start()?;
        let cfg = self.spec.config(self.seed);
        let t1 = Instant::now();
        let res = Anneal::builder(start)
            .kind(MoveKind::TwoNeighborSwing)
            .config(cfg)
            .run()
            .map_err(|e| format!("anneal: {e}"))?;
        let run_s = t1.elapsed().as_secs_f64();
        if !self.checked {
            check_result(&res)?;
            self.checked = true;
        }
        Ok(Rep {
            run_s,
            haspl_gap: self.gap(m, &res.metrics),
            sim_time_us: zero_load_latency_us(res.metrics.haspl),
            fingerprint: fingerprint(&res),
        })
    }

    /// Replays `Anneal::run` call for call through the public
    /// `SearchState` API with a span around each engine call, and
    /// fails unless the replay reaches the untraced fingerprint.
    pub fn traced(&mut self, expect: &str) -> Result<Layers, String> {
        let (_, start) = self.start()?;
        let cfg = self.spec.config(self.seed);
        let mut tr = Tracer::new();
        let root = tr.begin("loop");
        let (replay, state) = replay(&mut tr, start, &cfg)?;
        tr.end(root);
        check_result(&replay.result)?;
        let fp = fingerprint(&replay.result);
        if fp != expect {
            return Err(format!(
                "traced replay diverged from Anneal::run: {fp} vs {expect}"
            ));
        }
        let mut l = Layers::new(&tr, "loop", tr.total_s("loop"));
        let loop_s = tr.total_s("loop");
        let selfs = tr.self_s();
        let self_of = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
        // a call that never happened (no rollback, say) reads 0
        let or_zero = |x: f64| if x.is_nan() { 0.0 } else { x };
        let med = |name: &str| or_zero(crate::stats::median(&tr.durations_ns(name)));
        l.set("search.build_s", tr.total_s("search.build"));
        l.set("search.cache_bytes", state.cache_resident_bytes() as f64);
        l.set("search.apply_ns", med("search.apply"));
        l.set("search.eval_ns_p50", med("search.eval"));
        let p99 = crate::stats::percentile(&tr.durations_ns("search.eval"), 99.0);
        l.set("search.eval_ns_p99", or_zero(p99));
        l.set("search.commit_ns", med("search.commit"));
        l.set("search.rollback_ns", med("search.rollback"));
        l.set("search.eval_share", self_of("search.eval") / loop_s);
        let st = *state.eval_stats();
        l.set("search.evals_incremental", st.incremental as f64);
        l.set("search.evals_full", st.full as f64);
        l.set("search.early_rejected", st.early_rejected as f64);
        l.set("search.rows_repaired", st.repaired as f64);
        l.set("search.rows_swept", st.swept as f64);
        l.set(
            "search.affected_frac",
            replay.affected_sum / (replay.incremental_evals.max(1) as f64),
        );
        l.set(
            "anneal.accept_ratio",
            replay.result.accepted as f64 / (replay.result.proposed.max(1) as f64),
        );
        l.set("anneal.self_share", self_of("loop") / loop_s);
        let pool = state.pool_stats();
        let busy: u64 = pool.iter().map(|w| w.busy_ns).sum();
        let idle: u64 = pool.iter().map(|w| w.idle_ns).sum();
        let steals: u64 = pool.iter().map(|w| w.steals).sum();
        let fails: u64 = pool.iter().map(|w| w.steal_fails).sum();
        l.set("pool.jobs", st.pool_jobs as f64);
        l.set(
            "pool.busy_frac",
            busy as f64 / (pool.len().max(1) as f64 * loop_s * 1e9),
        );
        l.set("pool.idle_ns", idle as f64);
        l.set("pool.steals", steals as f64);
        l.set(
            "pool.steal_fail_ratio",
            fails as f64 / ((steals + fails).max(1) as f64),
        );
        for (phase, metric) in [
            ("search.build", "self.search_build_s"),
            ("search.apply", "self.search_apply_s"),
            ("search.eval", "self.search_eval_s"),
            ("search.commit", "self.search_commit_s"),
            ("search.rollback", "self.search_rollback_s"),
            ("loop", "self.harness_s"),
        ] {
            l.set(metric, self_of(phase));
        }
        l.finish()?;
        Ok(l)
    }
}

/// Recomputes the returned graph's metrics from scratch and requires
/// the annealer's figures bit for bit.
fn check_result(res: &SaResult) -> Result<(), String> {
    res.graph
        .validate()
        .map_err(|e| format!("invalid result graph: {e}"))?;
    let scratch = path_metrics(&res.graph).ok_or("result graph is disconnected")?;
    if scratch.haspl.to_bits() != res.metrics.haspl.to_bits()
        || scratch.total_length != res.metrics.total_length
        || scratch.diameter != res.metrics.diameter
    {
        return Err(format!(
            "h-ASPL mismatch: annealer {:?} vs path_metrics {:?}",
            res.metrics, scratch
        ));
    }
    Ok(())
}

struct Replay {
    result: SaResult,
    incremental_evals: u64,
    affected_sum: f64,
}

/// The annealer's 2-neighbour-swing loop, step for step as in
/// `orp_core::anneal`, so that the same seed draws the same moves.
fn replay(
    tr: &mut Tracer,
    start: HostSwitchGraph,
    cfg: &SaConfig,
) -> Result<(Replay, SearchState), String> {
    let workers = cfg.eval_workers.map_or_else(
        || orp_core::search::resolve_parallel_eval(cfg.parallel_eval, start.num_switches()),
        |w| w.max(1),
    );
    let (mut state, mut cur) = tr.span("search.build", || {
        let mut s = SearchState::with_search(start, workers, cfg.search)
            .map_err(|e| format!("search state: {e}"))?;
        s.set_pool_telemetry(true);
        let cur = s.evaluate().ok_or("start graph is disconnected")?;
        Ok::<_, String>((s, cur))
    })?;
    let mut best = state.graph().clone();
    let mut best_metrics = cur;
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let (mut proposed, mut accepted, mut disconnected) = (0usize, 0usize, 0usize);
    let (mut incremental_evals, mut affected_sum) = (0u64, 0.0f64);
    let iters = cfg.iters.max(1);
    let ratio = if cfg.t0 > 0.0 && cfg.t_end > 0.0 {
        (cfg.t_end / cfg.t0).powf(1.0 / iters as f64)
    } else {
        1.0
    };
    let mut t = cfg.t0;
    let mut cand: Vec<u32> = Vec::new();

    let metropolis = |rng: &mut ChaCha8Rng, delta: f64, t: f64| {
        if delta <= 0.0 {
            true
        } else if t <= 0.0 {
            false
        } else {
            rng.gen::<f64>() < (-delta / t).exp()
        }
    };

    for _ in 0..cfg.iters {
        let temp = t;
        t *= ratio;
        let Some(s1) = sample_swing(state.graph(), state.edges(), &mut rng, cfg.sample_attempts)
        else {
            continue;
        };
        proposed += 1;
        let reject_above = cfg
            .early_reject
            .then(|| cur.haspl + EARLY_REJECT_LOG * temp.max(0.0));
        tr.span("search.apply", || {
            state.begin();
            state.apply_swing(s1)
        })
        .map_err(|e| format!("first swing: {e}"))?;
        let out = tr.span("search.eval", || state.evaluate_guarded(reject_above));
        note_eval(&state, &mut incremental_evals, &mut affected_sum);
        match out {
            EvalOutcome::Metrics(m1) => {
                if metropolis(&mut rng, m1.haspl - cur.haspl, temp) {
                    tr.span("search.commit", || state.commit());
                    accept(
                        &state,
                        m1,
                        &mut cur,
                        &mut accepted,
                        &mut best,
                        &mut best_metrics,
                    );
                    continue;
                }
            }
            EvalOutcome::EarlyRejected(_) => {}
            EvalOutcome::Disconnected => disconnected += 1,
        }
        let s2 = {
            let g = state.graph();
            cand.clear();
            cand.extend(g.neighbors(s1.c).iter().copied().filter(|&d| {
                d != s1.a
                    && d != s1.b
                    && Swing {
                        a: d,
                        b: s1.c,
                        c: s1.b,
                    }
                    .is_valid(g)
            }));
            match cand.as_slice() {
                [] => None,
                cs => Some(Swing {
                    a: cs[rng.gen_range(0..cs.len())],
                    b: s1.c,
                    c: s1.b,
                }),
            }
        };
        if let Some(s2) = s2 {
            tr.span("search.apply", || {
                state.begin();
                state.apply_swing(s2)
            })
            .map_err(|e| format!("second swing: {e}"))?;
            let out = tr.span("search.eval", || state.evaluate_guarded(reject_above));
            note_eval(&state, &mut incremental_evals, &mut affected_sum);
            match out {
                EvalOutcome::Metrics(m2) => {
                    if metropolis(&mut rng, m2.haspl - cur.haspl, temp) {
                        tr.span("search.commit", || state.commit());
                        tr.span("search.commit", || state.commit());
                        accept(
                            &state,
                            m2,
                            &mut cur,
                            &mut accepted,
                            &mut best,
                            &mut best_metrics,
                        );
                        continue;
                    }
                }
                EvalOutcome::EarlyRejected(_) => {}
                EvalOutcome::Disconnected => disconnected += 1,
            }
            tr.span("search.rollback", || state.rollback());
        }
        tr.span("search.rollback", || state.rollback());
    }
    let result = SaResult {
        graph: best,
        metrics: best_metrics,
        proposed,
        accepted,
        disconnected,
        history: Vec::new(),
    };
    Ok((
        Replay {
            result,
            incremental_evals,
            affected_sum,
        },
        state,
    ))
}

fn note_eval(state: &SearchState, incremental: &mut u64, affected_sum: &mut f64) {
    let st = state.eval_stats();
    if st.last_kind == EvalPathKind::Incremental {
        *incremental += 1;
        *affected_sum += f64::from(st.last_affected) / f64::from(st.last_sources.max(1));
    }
}

fn accept(
    state: &SearchState,
    m: PathMetrics,
    cur: &mut PathMetrics,
    accepted: &mut usize,
    best: &mut HostSwitchGraph,
    best_metrics: &mut PathMetrics,
) {
    *cur = m;
    *accepted += 1;
    if m.haspl < best_metrics.haspl {
        *best_metrics = m;
        *best = state.graph().clone();
    }
}
