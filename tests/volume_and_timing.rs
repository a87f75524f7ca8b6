//! Cross-crate invariants on traffic accounting and virtual timing.

use kylix::{Kylix, NetworkPlan};
use kylix_net::telemetry::Counter;
use kylix_net::Comm;
use kylix_netsim::{NicModel, SimCluster};
use kylix_powerlaw::{DensityModel, PartitionGenerator};
use kylix_sparse::SumReducer;

fn workload(m: usize, n: u64, density: f64, seed: u64) -> Vec<Vec<u64>> {
    let model = DensityModel::new(n, 1.1);
    let gen = PartitionGenerator::with_density(model, density, seed);
    (0..m).map(|i| gen.indices(i)).collect()
}

/// The simulator's per-layer traffic counters agree with the routing
/// state's own volume accounting (down pass, self-packets included).
#[test]
fn traffic_stats_match_routing_state_volumes() {
    let m = 8;
    let plan = NetworkPlan::new(&[4, 2]);
    let idx = workload(m, 4096, 0.25, 1);
    let cluster = SimCluster::new(m, NicModel::ideal(1e9));
    // Configure, then run exactly one reduce; the counters see both.
    let per_node: Vec<(Vec<usize>, usize)> = {
        let idx = &idx;
        let plan = &plan;
        let cluster = &cluster;
        let states: Vec<(Vec<usize>, usize)> = cluster.run_all(move |mut comm| {
            let me = comm.rank();
            let kylix = Kylix::new(plan.clone());
            let mut state = kylix.configure(&mut comm, &idx[me], &idx[me], 0).unwrap();
            let vals = vec![1.0f64; idx[me].len()];
            state.reduce(&mut comm, &vals, SumReducer).unwrap();
            (state.down_volume_elems(), state.bottom_elems())
        });
        states
    };
    // Expected reduce-phase value bytes per layer: every element of the
    // down pass costs 8 bytes of payload plus an 8-byte count header
    // per message/self-part (d messages incl. self per node per layer).
    let report = cluster.telemetry().report();
    for (layer, &d) in plan.degrees().iter().enumerate() {
        let elems: usize = per_node.iter().map(|p| p.0[layer]).sum();
        let payload = elems as u64 * 8;
        let l = layer as u16;
        let measured =
            report.on_layer(l, Counter::BytesSent) + report.on_layer(l, Counter::SelfBytes);
        // Layer traffic includes config (8B/index + headers) and reduce
        // down (8B/value + headers) and reduce up (8B/value + headers):
        // bound it between the pure down-pass payload and 4x it. Each of
        // the m*d parts carries fixed framing: config 24B (two key
        // counts + seal), down 16B (count + seal), up 16B (count + seal).
        assert!(
            measured >= payload,
            "layer {layer}: measured {measured} < down payload {payload}"
        );
        assert!(
            measured <= 4 * payload + (m * d * (24 + 16 + 16)) as u64,
            "layer {layer}: measured {measured} vs payload {payload}"
        );
    }
}

/// Virtual makespans scale sensibly: more data, more time; a faster
/// network, less time.
#[test]
fn virtual_time_responds_to_physics() {
    let m = 8;
    let plan = NetworkPlan::new(&[4, 2]);
    let small = workload(m, 2048, 0.2, 2);
    let large = workload(m, 32768, 0.2, 2);
    let span = |idx: &Vec<Vec<u64>>, nic: NicModel| -> f64 {
        let idx = idx.clone();
        let plan = plan.clone();
        SimCluster::new(m, nic)
            .seed(1)
            .run_all(move |mut comm| {
                let me = comm.rank();
                let kylix = Kylix::new(plan.clone());
                let mut state = kylix.configure(&mut comm, &idx[me], &idx[me], 0).unwrap();
                let vals = vec![1.0f64; idx[me].len()];
                state.reduce(&mut comm, &vals, SumReducer).unwrap();
                comm.now()
            })
            .into_iter()
            .fold(0.0, f64::max)
    };
    // Bandwidth-bound regime (tiny per-message overhead) so volume is
    // the driver; the full EC2 preset at these sizes is overhead-bound
    // and nearly flat in volume — which is itself the paper's point.
    let nic = NicModel {
        overhead: 1e-9,
        ..NicModel::ideal(1e9)
    };
    let t_small = span(&small, nic);
    let t_large = span(&large, nic);
    assert!(
        t_large > 2.0 * t_small,
        "16x data should cost clearly more: {t_small} vs {t_large}"
    );
    let fast = NicModel {
        bandwidth: nic.bandwidth * 10.0,
        ..nic
    };
    let t_fast = span(&large, fast);
    assert!(
        t_fast < t_large,
        "10x bandwidth should help: {t_large} -> {t_fast}"
    );
}

/// Jitter changes timing but never results; different seeds give
/// different (deterministic) makespans.
#[test]
fn jitter_perturbs_time_not_values() {
    let m = 4;
    let plan = NetworkPlan::new(&[2, 2]);
    let idx = workload(m, 1024, 0.3, 3);
    let run = |seed: u64| -> (Vec<Vec<f64>>, f64) {
        let idx = idx.clone();
        let plan = plan.clone();
        let cluster = SimCluster::new(m, NicModel::ec2_10g().with_jitter(1.0)).seed(seed);
        let out: Vec<(Vec<f64>, f64)> = cluster.run_all(move |mut comm| {
            let me = comm.rank();
            let kylix = Kylix::new(plan.clone());
            let vals = vec![1.5f64; idx[me].len()];
            let (r, _) = kylix
                .allreduce_combined(&mut comm, &idx[me], &idx[me], &vals, SumReducer, 0)
                .unwrap();
            (r, comm.now())
        });
        let span = out.iter().map(|o| o.1).fold(0.0, f64::max);
        (out.into_iter().map(|o| o.0).collect(), span)
    };
    let (v1, t1) = run(1);
    let (v2, t2) = run(2);
    assert_eq!(v1, v2, "values must not depend on jitter");
    assert_ne!(t1, t2, "different seeds should shift virtual time");
    // Same seed is bit-identical.
    let (v1b, t1b) = run(1);
    assert_eq!(v1, v1b);
    assert_eq!(t1, t1b);
}
