//! Replication and packet racing (§V): run a replicated allreduce on
//! the simulator, kill nodes, and watch the collective finish anyway —
//! then wipe out a whole replica group and watch it fail loudly. The
//! later scenarios exercise the chaos layer: replicas crashing in the
//! *middle* of the protocol, and an unreplicated run over lossy links
//! repaired by the ack/retransmit layer.
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use kylix::{Kylix, NetworkPlan, ReplicatedComm};
use kylix_net::telemetry::{Clock, Counter, Telemetry};
use kylix_net::{Comm, FaultPlan, LocalCluster, ReliableComm};
use kylix_netsim::{NicModel, SimCluster};
use kylix_sparse::SumReducer;
use std::time::Duration;

/// Run a replicated sum-allreduce with the given dead physical ranks;
/// returns per-physical-node results (None for dead or failed ranks).
fn run_with_failures(dead: &[usize]) -> Vec<Option<f64>> {
    let logical = 8;
    let replication = 2;
    let physical = logical * replication;
    let plan = NetworkPlan::new(&[4, 2]);
    let cluster = SimCluster::new(physical, NicModel::ec2_10g())
        .seed(5)
        .failures(dead);
    cluster
        .run(|comm| {
            let mut rc = ReplicatedComm::new(comm, replication);
            let me = rc.rank() as u64;
            let kylix = Kylix::new(plan.clone());
            // Everyone contributes 1.0 at index (rank mod 4); asks for
            // index 0 (contributed by logical ranks 0 and 4).
            kylix
                .allreduce_combined(&mut rc, &[0u64], &[me % 4], &[1.0f64], SumReducer, 0)
                .ok()
                .map(|(v, _)| v[0])
        })
        .into_iter()
        .map(Option::flatten)
        .collect()
}

fn main() {
    println!("8 logical nodes x 2 replicas = 16 physical nodes, 4x2 butterfly\n");

    println!("no failures:");
    let ok = run_with_failures(&[]);
    println!(
        "  all {} physical ranks completed, v[0] = {:?}",
        ok.iter().flatten().count(),
        ok[0].unwrap()
    );
    assert!(ok.iter().all(|r| *r == Some(2.0)));

    println!("\nkill 3 replicas in distinct groups (physical 8, 9, 10):");
    let survived = run_with_failures(&[8, 9, 10]);
    let alive = survived.iter().flatten().count();
    println!("  {alive}/16 physical ranks completed — every logical node still answered");
    assert_eq!(alive, 13);
    assert!(survived.iter().flatten().all(|&v| v == 2.0));

    println!("\nwipe out BOTH replicas of logical node 3 (physical 3 and 11):");
    // The protocol cannot proceed without any replica of node 3;
    // receives targeting it fail. A short patience surfaces the error
    // quickly instead of after the default 60 s.
    let cluster = SimCluster::new(16, NicModel::ec2_10g())
        .seed(6)
        .failures(&[3, 11]);
    let outcomes = cluster.run(|comm| {
        let patient = kylix_net::PatienceComm::new(comm, Duration::from_millis(200));
        let mut rc = ReplicatedComm::new(patient, 2);
        let me = rc.rank() as u64;
        let kylix = Kylix::new(NetworkPlan::new(&[4, 2]));
        kylix
            .allreduce_combined(&mut rc, &[0u64], &[me % 4], &[1.0f64], SumReducer, 0)
            .map(|(v, _)| v[0])
            .map_err(|e| e.to_string())
    });
    let failures = outcomes.iter().flatten().filter(|r| r.is_err()).count();
    println!("  {failures} surviving ranks reported a communication failure");
    assert!(failures > 0, "a wiped replica group must surface errors");

    println!("\ncrash 2 replicas MID-protocol (virtual-time crash, not dead at start):");
    // Unlike `failures(..)`, a `crash_at` node participates normally
    // until its crash time, then goes dark; survivors race past it.
    let cluster = SimCluster::new(16, NicModel::ec2_10g().with_jitter(0.3))
        .seed(7)
        .crash_at(9, 5e-5)
        .crash_at(10, 8e-5);
    let outcomes = cluster.run(|comm| {
        let mut rc = ReplicatedComm::new(comm, 2);
        let me = rc.rank() as u64;
        let kylix = Kylix::new(NetworkPlan::new(&[4, 2]));
        kylix
            .allreduce_combined(&mut rc, &[0u64], &[me % 4], &[1.0f64], SumReducer, 0)
            .ok()
            .map(|(v, _)| v[0])
    });
    let alive: Vec<f64> = outcomes.iter().flatten().flatten().copied().collect();
    println!(
        "  {}/16 physical ranks completed; survivors all agree: v[0] = {:?}",
        alive.len(),
        alive[0]
    );
    assert!(
        alive.len() >= 14,
        "at most the crashed replicas may drop out"
    );
    assert!(alive.iter().all(|&v| v == 2.0));

    println!("\nlossy links, NO replication — ReliableComm retransmits through 15% loss:");
    let faults = FaultPlan::new(11)
        .drop_rate(0.15)
        .duplicate_rate(0.05)
        .corrupt_rate(0.02);
    let tel = Telemetry::new(8, Clock::Wall);
    let out = LocalCluster::run_with_faults_telemetry(8, &faults, &tel, |chaos| {
        let mut comm = ReliableComm::new(chaos);
        let me = comm.rank() as u64;
        let kylix = Kylix::new(NetworkPlan::new(&[4, 2]));
        let v = kylix
            .allreduce_combined(&mut comm, &[0u64], &[me % 4], &[1.0f64], SumReducer, 0)
            .map(|(v, _)| v[0])
            .expect("reliable delivery must complete despite loss");
        comm.flush().expect("flush");
        v
    });
    let report = tel.report();
    let rexmit = report.total(Counter::Retransmits);
    let dups = report.total(Counter::DupesDropped);
    println!(
        "  all 8 ranks correct (v[0] = {}), {rexmit} retransmissions, {dups} duplicates dropped",
        out[0]
    );
    assert!(out.iter().all(|&v| v == 2.0));
}
