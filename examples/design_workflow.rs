//! The §IV design workflow, end to end: measure your data's density,
//! invert the density curve, walk the layers, and get optimal butterfly
//! degrees — then sanity-check the choice on the cluster simulator.
//!
//! ```text
//! cargo run --release --example design_workflow
//! ```

use kylix::design::SimpleNic;
use kylix::{optimal_degrees, predict_reduce_time, DesignInput, Kylix, NetworkPlan};
use kylix_net::Comm;
use kylix_netsim::{NicModel, SimCluster};
use kylix_powerlaw::{DensityModel, PartitionGenerator};
use kylix_sparse::SumReducer;

fn main() {
    // Step 0: the workload. 2^17 features, power-law α = 1.1, and the
    // (measured) density of one node's partition is 0.21 — the paper's
    // Twitter-like operating point, scaled down 1000x.
    let m = 64;
    let model = DensityModel::new(1 << 17, 1.1);
    let density = 0.21;

    // Step 1: invert the density curve (Fig. 4) to get λ0.
    let lambda0 = model.lambda_for_density(density);
    println!("measured density {density} -> lambda0 = {lambda0:.4}");

    // Step 2: read the minimum efficient packet size off the NIC's
    // curve (80 % of peak), using the collective preset (per-message
    // overhead as experienced by a many-peer exchange). Time constants
    // divided by 1000 relative to the paper's EC2 testbed.
    let scale = 1000.0;
    let nic = NicModel {
        overhead: NicModel::ec2_10g_collective().overhead / scale,
        latency: NicModel::ec2_10g_collective().latency / scale,
        cpu_per_msg: NicModel::ec2_10g_collective().cpu_per_msg / scale,
        ..NicModel::ec2_10g_collective()
    };
    let min_packet = nic.min_efficient_packet(0.8);
    println!(
        "minimum efficient packet at 80% utilisation: {:.1} KB",
        min_packet / 1e3
    );

    // Step 3: walk the layers.
    let input = DesignInput {
        m,
        model,
        lambda0,
        elem_bytes: 8,
        min_packet_bytes: min_packet,
    };
    let plan = optimal_degrees(&input);
    println!("optimal degrees for m={m}: {plan}");
    for (t, pred) in model
        .layer_predictions(lambda0, plan.degrees())
        .iter()
        .enumerate()
    {
        println!(
            "  node layer {t}: aggregates {:3} partitions, density {:.3}, {:8.1} KB/node",
            pred.aggregated,
            pred.density,
            pred.elems_per_node * 8.0 / 1e3
        );
    }

    // Step 4: compare against the standard topologies, first with the
    // closed-form cost model…
    let simple = SimpleNic {
        overhead: nic.overhead,
        bandwidth: nic.bandwidth,
    };
    println!("\nclosed-form reduce-time predictions:");
    for p in [plan.clone(), NetworkPlan::direct(m), NetworkPlan::binary(m)] {
        let t = predict_reduce_time(&p, &model, lambda0, 8, &simple);
        println!("  {p:>12}: {:.2} ms", t * 1e3);
    }

    // …then measured on the virtual-time cluster simulator.
    println!("\nsimulated config+reduce makespans:");
    let gen = PartitionGenerator::new(model, lambda0, 99);
    let indices: Vec<Vec<u64>> = (0..m).map(|i| gen.indices(i)).collect();
    for p in [plan, NetworkPlan::direct(m), NetworkPlan::binary(m)] {
        let cluster = SimCluster::new(m, nic).seed(1);
        let span = cluster
            .run_all(|mut comm| {
                let me = comm.rank();
                let kylix = Kylix::new(p.clone());
                let mut state = kylix
                    .configure(&mut comm, &indices[me], &indices[me], 0)
                    .unwrap();
                let vals = vec![1.0f64; indices[me].len()];
                state.reduce(&mut comm, &vals, SumReducer).unwrap();
                comm.now()
            })
            .into_iter()
            .fold(0.0, f64::max);
        println!("  {p:>12}: {:.2} ms", span * 1e3);
    }
}
