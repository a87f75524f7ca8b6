//! Every application, executed on the virtual-time simulator, over real
//! loopback TCP sockets, and under replication, must agree with its
//! thread-cluster / sequential results: the substrates are
//! interchangeable by construction, so any divergence is a protocol
//! bug.

use kylix::{Kylix, NetworkPlan, ReplicatedComm};
use kylix_apps::bfs::{bfs_reference, distributed_bfs};
use kylix_apps::components::{components_reference, distributed_components};
use kylix_apps::diameter::distributed_diameter;
use kylix_apps::sgd::{sgd_reference, Example, SgdWorker};
use kylix_apps::{distributed_pagerank, PageRankConfig};
use kylix_netsim::{NicModel, SimCluster, Substrate};
use kylix_powerlaw::{Csr, EdgeList, Zipf};
use kylix_sparse::{mix_many, Xoshiro256};

fn split_edges(edges: &[(u32, u32)], m: usize) -> Vec<Vec<(u32, u32)>> {
    (0..m)
        .map(|k| {
            edges
                .iter()
                .enumerate()
                .filter(|(i, _)| i % m == k)
                .map(|(_, e)| *e)
                .collect()
        })
        .collect()
}

#[test]
fn components_on_simulator_match_reference() {
    let n = 150u64;
    let g = EdgeList::power_law(n, 600, 1.0, 1.0, 21);
    let expected = components_reference(n, &g.edges);
    let parts = split_edges(&g.edges, 4);
    let cluster = SimCluster::new(4, NicModel::ec2_10g()).seed(1);
    let results = cluster.run_all(|mut comm| {
        let me = kylix_net::Comm::rank(&comm);
        let kylix = Kylix::new(NetworkPlan::new(&[2, 2]));
        distributed_components(&mut comm, &kylix, &parts[me], 64).unwrap()
    });
    for res in &results {
        for &(v, l) in res {
            assert_eq!(l, expected[v as usize]);
        }
    }
}

#[test]
fn bfs_replicated_with_failure_matches_reference() {
    let n = 120u64;
    let g = EdgeList::power_law(n, 700, 1.0, 1.0, 23);
    let expected = bfs_reference(n, &g.edges, 1);
    let parts = split_edges(&g.edges, 4);
    // 8 physical = 4 logical x 2; one replica, physical 5, is dead from
    // the start.
    let cluster = SimCluster::new(8, NicModel::ec2_10g()).seed(2);
    let results = cluster.run_all(|comm| {
        if kylix_net::Comm::rank(&comm) == 5 {
            return None;
        }
        let mut rc = ReplicatedComm::new(comm, 2);
        let me = kylix_net::Comm::rank(&rc);
        let kylix = Kylix::new(NetworkPlan::new(&[2, 2]));
        Some(distributed_bfs(&mut rc, &kylix, &parts[me], 1, 64).unwrap())
    });
    let mut checked = 0;
    for (phys, res) in results.iter().enumerate() {
        if phys == 5 {
            continue;
        }
        for &(v, d) in res.as_ref().unwrap() {
            assert_eq!(d, expected[v as usize], "phys {phys} vertex {v}");
            checked += 1;
        }
    }
    assert!(checked > 0);
}

#[test]
fn diameter_on_simulator_is_deterministic_and_sane() {
    let n = 64u32;
    let edges: Vec<(u32, u32)> = (0..n).map(|v| (v, (v + 1) % n)).collect(); // cycle
    let parts = split_edges(&edges, 2);
    let run = |seed: u64| {
        let cluster = SimCluster::new(2, NicModel::ec2_10g()).seed(seed);
        cluster.run_all(|mut comm| {
            let me = kylix_net::Comm::rank(&comm);
            let kylix = Kylix::new(NetworkPlan::direct(2));
            distributed_diameter(&mut comm, &kylix, &parts[me], n as u64, 16, 36, 5)
                .unwrap()
                .effective_diameter
        })
    };
    let a = run(1);
    let b = run(9);
    assert_eq!(a[0], a[1], "machines disagree");
    assert_eq!(a, b, "jitter seed must not affect estimates");
    assert!(
        (22..=34).contains(&a[0]),
        "64-cycle effective diameter ≈ 0.9·32, got {}",
        a[0]
    );
}

/// The flagship workload on the third substrate: PageRank on a
/// power-law graph over real loopback sockets, validated against the
/// sequential reference — every protocol byte crosses the OS network
/// stack.
#[test]
fn pagerank_over_tcp_loopback_matches_reference() {
    let n = 200u64;
    let g = EdgeList::power_law(n, 900, 1.0, 1.0, 41);
    let iters = 5;
    let cfg = PageRankConfig {
        damping: 0.85,
        iterations: iters,
        compute_per_edge: 0.0,
    };
    let expected = Csr::from_edges(n, &g.edges).pagerank_reference(iters, 0.85);
    let parts = split_edges(&g.edges, 4);
    let (outcomes, _) = Substrate::Tcp.run(4, |mut comm| {
        let me = kylix_net::Comm::rank(&comm);
        let kylix = Kylix::new(NetworkPlan::new(&[2, 2]));
        distributed_pagerank(&mut comm, &kylix, n, &parts[me], &cfg).unwrap()
    });
    let mut checked = 0;
    for o in &outcomes {
        for &(v, r) in &o.ranks {
            assert!(
                (r - expected[v as usize]).abs() < 1e-9,
                "vertex {v}: {r} vs {}",
                expected[v as usize]
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "no ranks produced over TCP");
}

#[test]
fn sgd_replicated_matches_reference() {
    let m = 2;
    let rounds = 4;
    let n_features = 48u64;
    let zipf = Zipf::new(n_features, 1.1);
    let data: Vec<Vec<Vec<Example>>> = (0..rounds)
        .map(|r| {
            (0..m)
                .map(|mc| {
                    let mut rng = Xoshiro256::new(mix_many(&[77, r as u64, mc as u64]));
                    (0..6)
                        .map(|_| {
                            let mut fs: Vec<u64> =
                                (0..4).map(|_| zipf.sample_index(&mut rng)).collect();
                            fs.sort_unstable();
                            fs.dedup();
                            let label = if fs[0].is_multiple_of(2) { 1.0 } else { -1.0 };
                            Example {
                                features: fs.into_iter().map(|f| (f, 1.0)).collect(),
                                label,
                            }
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    let lr = 0.3;
    let expected = sgd_reference(&data, lr);
    // 4 physical = 2 logical x 2 replicas on the simulator.
    let cluster = SimCluster::new(4, NicModel::ec2_10g()).seed(5);
    let shards = cluster.run_all(|comm| {
        let mut rc = ReplicatedComm::new(comm, 2);
        let me = kylix_net::Comm::rank(&rc);
        let kylix = Kylix::new(NetworkPlan::direct(2));
        let mut worker = SgdWorker::new(me, m, n_features, lr);
        for (r, machines) in data.iter().enumerate() {
            worker
                .step(&mut rc, &kylix, &machines[me], r as u32 + 1)
                .unwrap();
        }
        worker.shard().collect::<Vec<(u64, f64)>>()
    });
    // Replicas agree; union matches reference.
    assert_eq!(shards[0], shards[2]);
    assert_eq!(shards[1], shards[3]);
    for shard in &shards[..2] {
        for (f, w) in shard {
            let want = expected.get(f).copied().unwrap_or(0.0);
            assert!((w - want).abs() < 1e-9, "feature {f}: {w} vs {want}");
        }
    }
}
