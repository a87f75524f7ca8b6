//! A tour of the virtual-time cluster simulator: cost model, tracing,
//! jitter, stragglers — the substrate behind every timing figure.
//!
//! ```text
//! cargo run --release --example simulator_tour
//! ```

use kylix::{Kylix, NetworkPlan};
use kylix_net::Comm;
use kylix_netsim::{NicModel, SimCluster};
use kylix_powerlaw::{DensityModel, PartitionGenerator};
use kylix_sparse::SumReducer;
use std::collections::BTreeMap;

fn makespan(cluster: &SimCluster, plan: &NetworkPlan, indices: &[Vec<u64>]) -> f64 {
    cluster
        .run_all(|mut comm| {
            let me = comm.rank();
            let kylix = Kylix::new(plan.clone());
            let mut state = kylix
                .configure(&mut comm, &indices[me], &indices[me], 0)
                .unwrap();
            let vals = vec![1.0f64; indices[me].len()];
            state.reduce(&mut comm, &vals, SumReducer).unwrap();
            comm.now()
        })
        .into_iter()
        .fold(0.0, f64::max)
}

fn main() {
    let nic = NicModel::ec2_10g();
    println!(
        "EC2-calibrated NIC: {:.2} ms/message overhead, 10 Gb/s,",
        nic.overhead * 1e3
    );
    println!(
        "minimum efficient packet (80% of peak): {:.1} MB\n",
        nic.min_efficient_packet(0.8) / 1e6
    );

    // A 16-node workload.
    let m = 16;
    let model = DensityModel::new(1 << 16, 1.1);
    let gen = PartitionGenerator::with_density(model, 0.2, 42);
    let indices: Vec<Vec<u64>> = (0..m).map(|i| gen.indices(i)).collect();
    let plan = NetworkPlan::new(&[4, 4]);

    // 1. Deterministic virtual time.
    let t1 = makespan(&SimCluster::new(m, nic).seed(1), &plan, &indices);
    let t2 = makespan(&SimCluster::new(m, nic).seed(1), &plan, &indices);
    println!(
        "1. determinism: two seed-1 runs -> {:.3} ms == {:.3} ms",
        t1 * 1e3,
        t2 * 1e3
    );
    assert_eq!(t1, t2);

    // 2. Jitter moves time (never results).
    let t3 = makespan(&SimCluster::new(m, nic).seed(2), &plan, &indices);
    println!(
        "2. jitter seed 2 -> {:.3} ms (different tail draws)",
        t3 * 1e3
    );

    // 3. Tracing: where did the bytes go?
    let traced = SimCluster::new(m, nic).seed(1).traced();
    makespan(&traced, &plan, &indices);
    // Each send left an emit/deliver pair on its sender's event ring.
    // Per layer: messages, bytes, first emit, last delivery.
    let mut layers: BTreeMap<u16, (u64, u64, f64, f64)> = BTreeMap::new();
    for r in &traced.telemetry().report().ranks {
        assert_eq!(r.events_total, r.events.len() as u64, "trace ring wrapped");
        for e in r.events.iter().filter(|e| e.label.starts_with("sim_")) {
            let s = layers.entry(e.layer).or_insert((0, 0, f64::INFINITY, 0.0));
            if e.label == "sim_emit" {
                s.0 += 1;
                s.1 += e.value;
                s.2 = s.2.min(e.t);
            } else {
                s.3 = s.3.max(e.t);
            }
        }
    }
    let total: u64 = layers.values().map(|s| s.0).sum();
    println!("\n3. trace: {total} messages total");
    for (layer, (msgs, bytes, first_emit, last_deliver)) in layers {
        println!(
            "   layer {layer}: {msgs:4} msgs, {:7.1} KB total, mean packet {:6.1} KB, span {:.3} ms",
            bytes as f64 / 1e3,
            bytes as f64 / msgs as f64 / 1e3,
            (last_deliver - first_emit).max(0.0) * 1e3
        );
    }

    // 4. A straggler stretches the makespan; the butterfly contains it
    //    better than direct all-to-all.
    println!("\n4. one node runs 4x slow:");
    for (label, p) in [("direct", NetworkPlan::direct(m)), ("4x4", plan.clone())] {
        let base = makespan(&SimCluster::new(m, nic).seed(1), &p, &indices);
        let slow = makespan(
            &SimCluster::new(m, nic).seed(1).stragglers(&[(0, 4.0)]),
            &p,
            &indices,
        );
        println!(
            "   {label:>6}: {:.3} ms -> {:.3} ms ({:.2}x)",
            base * 1e3,
            slow * 1e3,
            slow / base
        );
    }
}
