//! Integration tests of the network simulator against physical
//! intuition: latency ordering across topologies, contention behaviour,
//! NPB end-to-end runs on every topology family, and an open-loop run
//! of 50k concurrent flows inside a wall-clock budget.

use orp::core::construct::{clique, random_general, star};
use orp::netsim::mpi::ProgramBuilder;
use orp::netsim::network::Network;
use orp::netsim::npb::Benchmark;
use orp::netsim::report::run_suite;
use orp::netsim::{InjectedFlow, SharingMode, Simulator};
use orp::topo::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

fn alltoall_time(g: &orp::core::HostSwitchGraph, ranks: u32, bytes: f64) -> f64 {
    let net = Network::builder(g).build();
    let mut b = ProgramBuilder::new(ranks);
    b.alltoall(bytes);
    Simulator::builder(&net)
        .programs(b.build())
        .run()
        .unwrap()
        .time
}

#[test]
fn shorter_topologies_finish_alltoall_faster() {
    // star (everything 2 hops) < clique fabric < sparse random fabric,
    // for a latency-bound alltoall
    let n = 64;
    let star_g = star(n, 64).unwrap();
    let clique_g = clique(n, 24).unwrap();
    let sparse_g = random_general(n, 16, 8, 3).unwrap();
    let t_star = alltoall_time(&star_g, n, 64.0);
    let t_clique = alltoall_time(&clique_g, n, 64.0);
    let t_sparse = alltoall_time(&sparse_g, n, 64.0);
    assert!(t_star < t_clique, "star {t_star} vs clique {t_clique}");
    assert!(
        t_clique < t_sparse,
        "clique {t_clique} vs sparse {t_sparse}"
    );
}

#[test]
fn more_bandwidth_hungry_alltoall_separates_topologies_less_by_latency() {
    // with large messages, the clique's extra hops matter less: ratio
    // (sparse/clique) should shrink relative to the tiny-message case
    let n = 64;
    let clique_g = clique(n, 24).unwrap();
    let sparse_g = random_general(n, 16, 8, 3).unwrap();
    let small_ratio = alltoall_time(&sparse_g, n, 64.0) / alltoall_time(&clique_g, n, 64.0);
    let large_ratio = alltoall_time(&sparse_g, n, 1e6) / alltoall_time(&clique_g, n, 1e6);
    assert!(
        large_ratio < small_ratio,
        "large {large_ratio} should be < small {small_ratio}"
    );
}

#[test]
fn npb_runs_on_all_topology_families() {
    let ranks = 64u32;
    let graphs: Vec<(&str, orp::core::HostSwitchGraph)> = vec![
        (
            "torus",
            Torus {
                dim: 3,
                base: 4,
                radix: 8,
            }
            .build_with_hosts(ranks, AttachOrder::Sequential)
            .unwrap(),
        ),
        (
            "dragonfly",
            Dragonfly { a: 4 }
                .build_with_hosts(ranks, AttachOrder::Sequential)
                .unwrap(),
        ),
        (
            "fattree",
            FatTree { k: 8 }
                .build_with_hosts(ranks, AttachOrder::Sequential)
                .unwrap(),
        ),
        ("random", random_general(ranks, 16, 8, 3).unwrap()),
    ];
    for (name, g) in graphs {
        let net = Network::builder(&g).build();
        let results = run_suite(&net, &Benchmark::all(), ranks, 1).unwrap();
        for r in &results {
            assert!(r.time > 0.0, "{name}/{}", r.name);
            assert!(
                r.time < 60.0,
                "{name}/{} absurd simulated time {}",
                r.name,
                r.time
            );
            assert!(r.mops.is_finite() && r.mops > 0.0, "{name}/{}", r.name);
        }
        // EP must be topology-insensitive: its time is dominated by the
        // fixed compute, so all topologies land within a few percent
        let ep = results.iter().find(|r| r.name == "EP").unwrap();
        let ep_compute = 2f64.powi(30) * 25.0 / ranks as f64 / 100e9;
        assert!(
            (ep.time - ep_compute) / ep_compute < 0.05,
            "{name}: EP {} vs pure compute {ep_compute}",
            ep.time
        );
    }
}

#[test]
fn identical_flops_across_topologies() {
    // the Mop/s comparison is only fair if the flop count is invariant
    let ranks = 64u32;
    let a = random_general(ranks, 16, 8, 3).unwrap();
    let b = FatTree { k: 8 }
        .build_with_hosts(ranks, AttachOrder::Sequential)
        .unwrap();
    for bench in Benchmark::all() {
        let net_a = Network::builder(&a).build();
        let net_b = Network::builder(&b).build();
        let ra = run_suite(&net_a, &[bench], ranks, 1).unwrap();
        let rb = run_suite(&net_b, &[bench], ranks, 1).unwrap();
        assert_eq!(ra[0].flops, rb[0].flops, "{}", bench.name());
        assert_eq!(ra[0].flows, rb[0].flows, "{}", bench.name());
    }
}

#[test]
fn contention_slows_shared_links() {
    // two hosts on one switch, two on another, single inter-switch link:
    // four crossing flows share it and take ~4× one flow's time
    let mut g = orp::core::HostSwitchGraph::new(2, 6).unwrap();
    g.add_link(0, 1).unwrap();
    for s in [0u32, 0, 1, 1] {
        g.attach_host(s).unwrap();
    }
    let net = Network::builder(&g).build();
    let bytes = 10e6;
    let mut pb = ProgramBuilder::new(4);
    // hosts 0,1 on switch 0; hosts 2,3 on switch 1
    pb.raw(0, orp::netsim::Op::Send { to: 2, bytes });
    pb.raw(1, orp::netsim::Op::Send { to: 3, bytes });
    pb.raw(
        2,
        orp::netsim::Op::SendRecv {
            to: 0,
            bytes,
            from: 0,
        },
    );
    pb.raw(
        3,
        orp::netsim::Op::SendRecv {
            to: 1,
            bytes,
            from: 1,
        },
    );
    pb.raw(0, orp::netsim::Op::Recv { from: 2 });
    pb.raw(1, orp::netsim::Op::Recv { from: 3 });
    let rep = Simulator::builder(&net).programs(pb.build()).run().unwrap();
    let cfg = net.config();
    let one_flow = bytes / cfg.bandwidth;
    // 2 flows per direction share each unidirectional link: 2× serialization
    assert!(
        rep.time > 2.0 * one_flow,
        "no contention visible: {}",
        rep.time
    );
    assert!(rep.time < 3.0 * one_flow, "too much: {}", rep.time);
}

/// 50k random 1 MB flows released within 1 ms on a 256-host fabric
/// under the approximate fair-sharing model: every flow is delivered,
/// the cancel-heavy run reclaims tombstones (queue or sharing-model
/// compaction), and the whole run stays inside a 120 s wall budget.
#[test]
fn open_loop_50k_flows_finish_inside_the_wall_budget() {
    let (hosts, n_flows) = (256u32, 50_000usize);
    let g = random_general(hosts, hosts / 4, 8 + hosts / 32, 7).unwrap();
    let net = Network::builder(&g).build();
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let flows: Vec<InjectedFlow> = (0..n_flows)
        .map(|_| {
            let src = rng.gen_range(0..hosts);
            let mut dst = rng.gen_range(0..hosts);
            while dst == src {
                dst = rng.gen_range(0..hosts);
            }
            InjectedFlow {
                at: rng.gen_range(0u32..1_000_000) as f64 * 1e-9,
                src,
                dst,
                bytes: 1e6,
            }
        })
        .collect();
    let start = Instant::now();
    let rep = Simulator::builder(&net)
        .inject(&flows)
        .sharing(SharingMode::ApproxFair)
        .run()
        .unwrap();
    let wall = start.elapsed();
    assert_eq!(rep.flows as usize, n_flows, "every injected flow ran");
    assert!(
        rep.events_compacted + rep.model_compacted > 0,
        "cancel-heavy run must compact ({} cancelled)",
        rep.events_cancelled
    );
    assert!(
        wall <= Duration::from_secs(120),
        "wall-clock budget exceeded: {wall:?}"
    );
}
