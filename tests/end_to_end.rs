//! Whole-pipeline integration tests: dataset generation → network
//! design → application → validation, across the execution substrates.

use kylix::{optimal_degrees, DesignInput, Kylix, NetworkPlan, ReplicatedComm};
use kylix_apps::{distributed_pagerank, PageRankConfig};
use kylix_net::{Comm, LocalCluster};
use kylix_netsim::{NicModel, SimCluster, Substrate};
use kylix_powerlaw::{Csr, DatasetSpec, DensityModel};

/// Generate → design → run → validate: the full user journey.
#[test]
fn designed_network_runs_pagerank_correctly() {
    let spec = DatasetSpec::twitter_like(20_000); // 3000 vertices, 75k edges
    let m = 16;
    let plan = optimal_degrees(&DesignInput {
        m,
        model: spec.density_model(),
        lambda0: spec.lambda0(m),
        elem_bytes: 8,
        min_packet_bytes: 2_000.0,
    });
    assert_eq!(plan.size(), m);

    let graph = spec.generate(3);
    let parts = graph.partition_random(m, 4);
    let iters = 5;
    let cfg = PageRankConfig {
        damping: 0.85,
        iterations: iters,
        compute_per_edge: 0.0,
    };
    let expected = Csr::from_edges(spec.n_vertices, &graph.edges).pagerank_reference(iters, 0.85);
    let outcomes = LocalCluster::run(m, |mut comm| {
        let me = comm.rank();
        let kylix = Kylix::new(plan.clone());
        distributed_pagerank(&mut comm, &kylix, spec.n_vertices, &parts[me].edges, &cfg).unwrap()
    });
    let mut checked = 0;
    for o in &outcomes {
        for &(v, r) in &o.ranks {
            assert!(
                (r - expected[v as usize]).abs() < 1e-9,
                "vertex {v} (plan {plan})"
            );
            checked += 1;
        }
    }
    assert!(checked > 1000, "only {checked} ranks validated");
}

/// The same PageRank on every substrate produces identical ranks — the
/// simulator's match the thread cluster's and the TCP cluster's — and a
/// physically sensible makespan.
#[test]
fn simulated_pagerank_matches_thread_pagerank() {
    let spec = DatasetSpec::yahoo_like(200_000); // 7000 vertices, 30k edges
    let m = 8;
    let plan = NetworkPlan::new(&[4, 2]);
    let graph = spec.generate(5);
    let parts = graph.partition_random(m, 6);
    let cfg = PageRankConfig {
        damping: 0.85,
        iterations: 4,
        compute_per_edge: 1e-9,
    };
    let mut first: Option<(Substrate, Vec<_>)> = None;
    for s in Substrate::all(NicModel::ec2_10g(), 9) {
        let (out, _) = s.run(m, |mut comm| {
            let me = comm.rank();
            let out = distributed_pagerank(
                &mut comm,
                &Kylix::new(plan.clone()),
                spec.n_vertices,
                &parts[me].edges,
                &cfg,
            )
            .unwrap();
            (out.ranks, comm.now())
        });
        for (rank, (_, makespan)) in out.iter().enumerate() {
            assert!(
                *makespan > 0.0 && *makespan < 60.0,
                "{s} rank {rank}: makespan {makespan}"
            );
        }
        let ranks: Vec<_> = out.into_iter().map(|(r, _)| r).collect();
        match &first {
            None => first = Some((s, ranks)),
            Some((s0, r0)) => assert_eq!(&ranks, r0, "{s}: results must be identical to {s0}'s"),
        }
    }
}

/// Replicated PageRank with node failures still matches the reference.
#[test]
fn replicated_pagerank_survives_failures_on_simulator() {
    let n = 400u64;
    let graph = kylix_powerlaw::EdgeList::power_law(n, 3000, 1.1, 1.1, 7);
    let m_logical = 4;
    let parts = graph.partition_random(m_logical, 8);
    let iters = 4;
    let cfg = PageRankConfig {
        damping: 0.85,
        iterations: iters,
        compute_per_edge: 0.0,
    };
    let expected = Csr::from_edges(n, &graph.edges).pagerank_reference(iters, 0.85);
    // 8 physical = 4 logical x 2; one replica of logical 2, physical 6,
    // is dead from the start.
    let cluster = SimCluster::new(8, NicModel::ec2_10g()).seed(11);
    let outcomes = cluster.run_all(|comm| {
        if comm.rank() == 6 {
            return None;
        }
        let mut rc = ReplicatedComm::new(comm, 2);
        let me = rc.rank();
        let out = distributed_pagerank(
            &mut rc,
            &Kylix::new(NetworkPlan::new(&[2, 2])),
            n,
            &parts[me].edges,
            &cfg,
        );
        Some(out.unwrap().ranks)
    });
    let mut checked = 0;
    for (phys, ranks) in outcomes.iter().enumerate() {
        if phys == 6 {
            assert!(ranks.is_none());
            continue;
        }
        for &(v, r) in ranks.as_ref().unwrap() {
            assert!(
                (r - expected[v as usize]).abs() < 1e-9,
                "phys {phys} vertex {v}"
            );
            checked += 1;
        }
    }
    assert!(checked > 0);
}

/// The design workflow's plan beats both classical topologies on the
/// simulator at the paper's operating point (64 nodes, direct packets
/// far below the efficient size). At small clusters with big packets
/// the workflow correctly degenerates to direct itself.
#[test]
fn designed_plan_is_competitive_on_simulator() {
    let m = 64;
    // Sized so per-node volume ≈ 25.6 KB at 1/1000 NIC scale — the
    // paper's 0.4 MB-direct-packet regime.
    let model = DensityModel::new(15_238, 1.1);
    let lambda0 = model.lambda_for_density(0.21);
    let nic = NicModel {
        overhead: NicModel::ec2_10g_collective().overhead / 1000.0,
        latency: NicModel::ec2_10g_collective().latency / 1000.0,
        cpu_per_msg: NicModel::ec2_10g_collective().cpu_per_msg / 1000.0,
        ..NicModel::ec2_10g_collective()
    };
    let designed = optimal_degrees(&DesignInput {
        m,
        model,
        lambda0,
        elem_bytes: 8,
        min_packet_bytes: NicModel::ec2_10g().min_efficient_packet(0.8) / 1000.0,
    });
    let gen = kylix_powerlaw::PartitionGenerator::new(model, lambda0, 13);
    let indices: Vec<Vec<u64>> = (0..m).map(|i| gen.indices(i)).collect();
    let span_of = |plan: &NetworkPlan| -> f64 {
        let cluster = SimCluster::new(m, nic).seed(2);
        cluster
            .run_all(|mut comm| {
                let me = comm.rank();
                let kylix = Kylix::new(plan.clone());
                let mut state = kylix
                    .configure(&mut comm, &indices[me], &indices[me], 0)
                    .unwrap();
                let vals = vec![1.0f64; indices[me].len()];
                state
                    .reduce(&mut comm, &vals, kylix_sparse::SumReducer)
                    .unwrap();
                comm.now()
            })
            .into_iter()
            .fold(0.0, f64::max)
    };
    let t_designed = span_of(&designed);
    let t_direct = span_of(&NetworkPlan::direct(m));
    let t_binary = span_of(&NetworkPlan::binary(m));
    assert!(
        t_designed <= t_direct * 1.05 && t_designed <= t_binary * 1.05,
        "designed {designed}: {t_designed} vs direct {t_direct}, binary {t_binary}"
    );
}
