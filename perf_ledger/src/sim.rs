//! The two simulation workloads. Both run on fixed fabrics that are
//! inputs of the benchmark, never products of the annealer, so a solver
//! change cannot move their figures.

use crate::trace::Tracer;
use crate::{Layers, Rep, Scale};
use orp_core::bounds::continuous_moore_haspl;
use orp_core::construct::random_general;
use orp_core::graph::HostSwitchGraph;
use orp_core::metrics::path_metrics;
use orp_netsim::npb::{Benchmark, Class};
use orp_netsim::{InjectedFlow, Network, Op, Program, SharingMode, SimReport, Simulator};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// The proposed-topology fabric for (n = 1024, r = 16, m = 183) that
/// `npb_suite` simulates, made once by the annealer and kept as data.
const NPB_FABRIC: &str = include_str!("../data/npb_fabric_n1024_r16_m183.hsg");
/// FNV-1a 64 of [`NPB_FABRIC`]: a changed file is a different workload.
const NPB_FABRIC_FNV1A: u64 = 0x7867_6f5c_e2eb_53ad;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// h-ASPL of a fixed fabric minus the continuous Moore bound at its m:
/// a property of the input, reported so every workload states how far
/// its topology is from the bound.
fn fabric_gap(g: &HostSwitchGraph) -> Result<f64, String> {
    let pm = path_metrics(g).ok_or("fabric is disconnected")?;
    let bound = continuous_moore_haspl(
        u64::from(g.num_hosts()),
        u64::from(g.num_switches()),
        u64::from(g.radix()),
    );
    Ok(pm.haspl - bound)
}

/// The bit-exact identity of a finished simulation.
fn fingerprint(rep: &SimReport) -> String {
    format!(
        "time_bits={:#018x} flows={} bytes_bits={:#018x} events={}",
        rep.time.to_bits(),
        rep.flows,
        rep.bytes.to_bits(),
        rep.events
    )
}

/// Requires every expected flow and byte to have gone through the
/// network.
fn check_delivery(what: &str, rep: &SimReport, flows: u64, bytes: f64) -> Result<(), String> {
    if rep.flows != flows {
        return Err(format!(
            "{what}: {} flows completed, {flows} expected",
            rep.flows
        ));
    }
    if (rep.bytes - bytes).abs() > bytes * 1e-12 {
        return Err(format!(
            "{what}: {} bytes delivered, {bytes} injected",
            rep.bytes
        ));
    }
    if !(rep.time.is_finite() && rep.time > 0.0) {
        return Err(format!(
            "{what}: simulated time {} is not positive",
            rep.time
        ));
    }
    Ok(())
}

// ---- inject_open ----------------------------------------------------

/// Open-loop injection sizes.
#[derive(Debug, Clone, Copy)]
pub struct InjectSpec {
    pub hosts: u32,
    pub switches: u32,
    pub radix: u32,
    pub flows: usize,
}

impl InjectSpec {
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                hosts: 256,
                switches: 64,
                radix: 16,
                flows: 1_000_000,
            },
            Scale::Toy => Self {
                hosts: 64,
                switches: 16,
                radix: 10,
                flows: 5_000,
            },
        }
    }
}

/// Seed of the fixed random fabric `inject_open` runs on; the workload
/// seed varies the traffic only.
const INJECT_FABRIC_SEED: u64 = 7;
/// Every injected flow carries this many bytes (an integer, so the
/// delivered total is exact in f64 at any flow count used here).
const FLOW_BYTES: f64 = 1e6;

pub struct InjectWorkload {
    fabric: HostSwitchGraph,
    flows: Vec<InjectedFlow>,
}

impl InjectWorkload {
    pub fn new(spec: InjectSpec, seed: u64) -> Result<Self, String> {
        let fabric = random_general(spec.hosts, spec.switches, spec.radix, INJECT_FABRIC_SEED)
            .map_err(|e| format!("inject fabric: {e}"))?;
        // every flow released within 1 ms: a 1 MB flow needs ≥ 0.2 ms
        // alone, so nearly all of them stream at once
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let flows = (0..spec.flows)
            .map(|_| {
                let src = rng.gen_range(0..spec.hosts);
                let mut dst = rng.gen_range(0..spec.hosts);
                while dst == src {
                    dst = rng.gen_range(0..spec.hosts);
                }
                InjectedFlow {
                    at: f64::from(rng.gen_range(0u32..1_000_000)) * 1e-9,
                    src,
                    dst,
                    bytes: FLOW_BYTES,
                }
            })
            .collect();
        Ok(Self { fabric, flows })
    }

    fn build<'n>(&self, net: &'n Network) -> Simulator<'n> {
        Simulator::builder(net)
            .inject(&self.flows)
            .sharing(SharingMode::ApproxFair)
            .workers(1)
            .build()
    }

    pub fn setup_only(&mut self) -> Result<f64, String> {
        let t = Instant::now();
        let net = Network::builder(&self.fabric).build();
        let sim = self.build(&net);
        let s = t.elapsed().as_secs_f64();
        drop(std::hint::black_box(sim));
        Ok(s)
    }

    fn check(&self, rep: &SimReport) -> Result<(), String> {
        let n = self.flows.len();
        check_delivery("inject_open", rep, n as u64, n as f64 * FLOW_BYTES)
    }

    pub fn rep(&mut self) -> Result<Rep, String> {
        let net = Network::builder(&self.fabric).build();
        let sim = self.build(&net);
        let t = Instant::now();
        let rep = sim.run().map_err(|e| format!("inject_open: {e}"))?;
        let run_s = t.elapsed().as_secs_f64();
        self.check(&rep)?;
        Ok(Rep {
            run_s,
            haspl_gap: fabric_gap(&self.fabric)?,
            sim_time_us: rep.time * 1e6,
            fingerprint: fingerprint(&rep),
        })
    }

    pub fn traced(&mut self, expect: &str) -> Result<Layers, String> {
        let mut tr = Tracer::new();
        let root = tr.begin("loop");
        let net = tr.span("route.compile", || Network::builder(&self.fabric).build());
        let sim = tr.span("sim.build", || self.build(&net));
        let rep = tr
            .span("sim.run", || sim.run())
            .map_err(|e| format!("inject_open: {e}"))?;
        let lookups = replay_routes(&mut tr, &net, self.flows.iter().map(|f| (f.src, f.dst)))?;
        tr.end(root);
        self.check(&rep)?;
        if fingerprint(&rep) != expect {
            return Err(format!(
                "traced run diverged: {} vs {expect}",
                fingerprint(&rep)
            ));
        }
        let mut l = Layers::new(&tr, "loop", tr.total_s("sim.run"));
        sim_layers(&mut l, &tr, &[rep], lookups.count, lookups.per_lookup_ns)?;
        l.finish()?;
        Ok(l)
    }
}

// ---- npb_suite --------------------------------------------------------

/// NPB suite sizes: ranks, simulated iterations per kernel, fabric.
#[derive(Debug, Clone, Copy)]
pub struct NpbSpec {
    pub ranks: u32,
    pub iters: usize,
    scale: Scale,
}

impl NpbSpec {
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                ranks: 1024,
                iters: 1,
                scale,
            },
            Scale::Toy => Self {
                ranks: 64,
                iters: 1,
                scale,
            },
        }
    }

    fn fabric(&self) -> Result<HostSwitchGraph, String> {
        match self.scale {
            Scale::Full => {
                let h = fnv1a(NPB_FABRIC.as_bytes());
                if h != NPB_FABRIC_FNV1A {
                    return Err(format!(
                        "npb fabric hash {h:#018x} != {NPB_FABRIC_FNV1A:#018x}"
                    ));
                }
                orp_core::io::from_str(NPB_FABRIC).map_err(|e| format!("npb fabric: {e}"))
            }
            Scale::Toy => random_general(self.ranks, 24, 8, 1).map_err(|e| e.to_string()),
        }
    }
}

/// The eight kernels of §6.2, all at class A.
const KERNELS: [(Benchmark, &str); 8] = [
    (Benchmark::Ep, "npb.ep.run_s"),
    (Benchmark::Is, "npb.is.run_s"),
    (Benchmark::Ft, "npb.ft.run_s"),
    (Benchmark::Mg, "npb.mg.run_s"),
    (Benchmark::Cg, "npb.cg.run_s"),
    (Benchmark::Lu, "npb.lu.run_s"),
    (Benchmark::Bt, "npb.bt.run_s"),
    (Benchmark::Sp, "npb.sp.run_s"),
];

/// Every network flow a set of programs makes under `placement`: host
/// pair and payload of each send between distinct hosts (sends within
/// one host are loopback deliveries, not flows).
fn flows<'a>(
    programs: &'a [Program],
    placement: &'a [u32],
) -> impl Iterator<Item = (u32, u32, f64)> + 'a {
    programs
        .iter()
        .enumerate()
        .flat_map(move |(rank, prog)| {
            prog.iter().filter_map(move |op| match *op {
                Op::Send { to, bytes } | Op::SendRecv { to, bytes, .. } => {
                    Some((placement[rank], placement[to as usize], bytes.max(0.0)))
                }
                Op::Compute(_) | Op::Recv { .. } => None,
            })
        })
        .filter(|(src, dst, _)| src != dst)
}

/// Flow count and total bytes a set of programs must deliver.
fn demand(programs: &[Program], placement: &[u32]) -> (u64, f64) {
    flows(programs, placement).fold((0, 0.0), |(n, total), (_, _, b)| (n + 1, total + b))
}

pub struct NpbWorkload {
    spec: NpbSpec,
    fabric: HostSwitchGraph,
    placement: Vec<u32>,
}

impl NpbWorkload {
    pub fn new(spec: NpbSpec, seed: u64) -> Result<Self, String> {
        let fabric = spec.fabric()?;
        if fabric.num_hosts() != spec.ranks {
            return Err("npb fabric must have one host per rank".into());
        }
        let mut placement: Vec<u32> = (0..spec.ranks).collect();
        placement.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
        Ok(Self {
            spec,
            fabric,
            placement,
        })
    }

    fn build<'n>(&self, net: &'n Network, programs: Vec<Program>) -> Simulator<'n> {
        Simulator::builder(net)
            .programs(programs)
            .placement(self.placement.clone())
            .sharing(SharingMode::ExactMaxMin)
            .build()
    }

    pub fn setup_only(&mut self) -> Result<f64, String> {
        let mut s = 0.0;
        let t = Instant::now();
        let net = Network::builder(&self.fabric).build();
        s += t.elapsed().as_secs_f64();
        for (bench, _) in KERNELS {
            let t = Instant::now();
            let programs = bench.build(self.spec.ranks, Class::A, self.spec.iters);
            let sim = self.build(&net, programs);
            s += t.elapsed().as_secs_f64();
            drop(std::hint::black_box(sim));
        }
        Ok(s)
    }

    pub fn rep(&mut self) -> Result<Rep, String> {
        let (mut run_s, mut sim_time) = (0.0, 0.0);
        let mut prints = Vec::new();
        let net = Network::builder(&self.fabric).build();
        for (bench, _) in KERNELS {
            let programs = bench.build(self.spec.ranks, Class::A, self.spec.iters);
            let (want_flows, want_bytes) = demand(&programs, &self.placement);
            let sim = self.build(&net, programs);
            let t = Instant::now();
            let rep = sim.run().map_err(|e| format!("{}: {e}", bench.name()))?;
            run_s += t.elapsed().as_secs_f64();
            check_delivery(bench.name(), &rep, want_flows, want_bytes)?;
            sim_time += rep.time;
            prints.push(format!("{}[{}]", bench.name(), fingerprint(&rep)));
        }
        Ok(Rep {
            run_s,
            haspl_gap: fabric_gap(&self.fabric)?,
            sim_time_us: sim_time * 1e6,
            fingerprint: prints.join(" "),
        })
    }

    pub fn traced(&mut self, expect: &str) -> Result<Layers, String> {
        let mut tr = Tracer::new();
        let mut reps = Vec::new();
        let mut pairs = Vec::new();
        let mut prints = Vec::new();
        let root = tr.begin("loop");
        let net = tr.span("route.compile", || Network::builder(&self.fabric).build());
        for (bench, _) in KERNELS {
            let programs = tr.span("npb.build", || {
                bench.build(self.spec.ranks, Class::A, self.spec.iters)
            });
            let (want_flows, want_bytes) = demand(&programs, &self.placement);
            pairs.extend(flows(&programs, &self.placement).map(|(src, dst, _)| (src, dst)));
            let sim = tr.span("sim.build", || self.build(&net, programs));
            let rep = tr
                .span("sim.run", || sim.run())
                .map_err(|e| format!("{}: {e}", bench.name()))?;
            check_delivery(bench.name(), &rep, want_flows, want_bytes)?;
            prints.push(format!("{}[{}]", bench.name(), fingerprint(&rep)));
            reps.push(rep);
        }
        let lookups = replay_routes(&mut tr, &net, pairs.iter().copied())?;
        tr.end(root);
        let print = prints.join(" ");
        if print != expect {
            return Err(format!("traced run diverged: {print} vs {expect}"));
        }
        let mut l = Layers::new(&tr, "loop", tr.total_s("sim.run"));
        sim_layers(&mut l, &tr, &reps, lookups.count, lookups.per_lookup_ns)?;
        l.set("npb.build_s", tr.total_s("npb.build"));
        l.set("npb.flows", reps.iter().map(|r| r.flows as f64).sum());
        l.set("npb.bytes", reps.iter().map(|r| r.bytes).sum());
        for ((_, metric), ns) in KERNELS.iter().zip(tr.durations_ns("sim.run")) {
            l.set(metric, ns * 1e-9);
        }
        l.finish()?;
        Ok(l)
    }
}

// ---- shared simulation layers -----------------------------------------

struct Lookups {
    count: u64,
    per_lookup_ns: f64,
}

/// Lookups timed per batch, so the clock read stays off the per-call
/// path; the reported cost is the median batch's mean.
const ROUTE_BATCH: usize = 1024;

/// Replays one `Network::route_with_into` per flow the engine routed,
/// with the network's own routing table.
fn replay_routes(
    tr: &mut Tracer,
    net: &Network,
    pairs: impl Iterator<Item = (u32, u32)>,
) -> Result<Lookups, String> {
    let pairs: Vec<(u32, u32)> = pairs.filter(|(s, d)| s != d).collect();
    let mut buf = Vec::new();
    let mut per_batch = Vec::new();
    let replay = tr.begin("route.replay");
    for chunk in pairs.chunks(ROUTE_BATCH) {
        let t = Instant::now();
        for &(src, dst) in chunk {
            net.route_with_into(net.routing(), src, dst, 0, &mut buf)
                .map_err(|e| format!("route {src}->{dst}: {e}"))?;
            std::hint::black_box(&buf);
        }
        per_batch.push(t.elapsed().as_nanos() as f64 / chunk.len() as f64);
    }
    tr.end(replay);
    Ok(Lookups {
        count: pairs.len() as u64,
        per_lookup_ns: crate::stats::median(&per_batch),
    })
}

fn sim_layers(
    l: &mut Layers,
    tr: &Tracer,
    reps: &[SimReport],
    lookups: u64,
    lookup_ns: f64,
) -> Result<(), String> {
    let flows: u64 = reps.iter().map(|r| r.flows).sum();
    if lookups != flows {
        return Err(format!(
            "route replay made {lookups} lookups for {flows} simulated flows"
        ));
    }
    let sum = |f: fn(&SimReport) -> f64| reps.iter().map(f).sum::<f64>();
    let events = sum(|r| r.events as f64);
    let cancelled = sum(|r| r.events_cancelled as f64);
    let run_s = tr.total_s("sim.run");
    let selfs = tr.self_s();
    let self_of = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    l.set("route.compile_s", tr.total_s("route.compile"));
    l.set("route.lookup_ns", lookup_ns);
    l.set("route.share", tr.total_s("route.replay") / run_s);
    l.set("queue.events", events);
    l.set("queue.cancelled", cancelled);
    l.set(
        "queue.tombstone_ratio",
        cancelled / (events + cancelled).max(1.0),
    );
    l.set("queue.compacted", sum(|r| r.events_compacted as f64));
    l.set(
        "queue.peak_depth",
        reps.iter().map(|r| r.peak_queue_depth).max().unwrap_or(0) as f64,
    );
    l.set("sharing.model_compacted", sum(|r| r.model_compacted as f64));
    l.set(
        "engine.ns_per_event",
        self_of("sim.run") * 1e9 / events.max(1.0),
    );
    for (phase, metric) in [
        ("route.compile", "self.route_compile_s"),
        ("npb.build", "self.npb_build_s"),
        ("sim.build", "self.sim_build_s"),
        ("sim.run", "self.sim_run_s"),
        ("route.replay", "self.route_replay_s"),
        ("loop", "self.harness_s"),
    ] {
        l.set(metric, self_of(phase));
    }
    Ok(())
}
