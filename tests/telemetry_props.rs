//! Property tests for the telemetry conservation laws.
//!
//! The deterministic ledger checks live in `telemetry_conservation.rs`;
//! here the same invariants are hammered across random seeds, random
//! workload shapes, and random fault rates:
//!
//! * fault-free collectives conserve messages and bytes per
//!   `(phase, layer)` on any topology and workload;
//! * the wire identity `sent == logical − drops + duplicates` holds for
//!   *any* drop/duplicate rates, including zero, while delivery stays
//!   complete and in order.

use bytes::Bytes;
use kylix::{Kylix, NetworkPlan};
use kylix_net::telemetry::{Counter, PHASES};
use kylix_net::{ChaosComm, Comm, FaultPlan, LinkFaults, Phase, ReliableComm, Tag};
use kylix_netsim::Substrate;
use kylix_powerlaw::{DensityModel, PartitionGenerator};
use kylix_sparse::{SumReducer, Xoshiro256};

/// Cases per property; the case number seeds its generator, and every
/// failure message names it.
const CASES: u64 = 8;

/// Topologies the conservation property cycles through (kept small so a
/// case stays cheap; the heterogeneous one exercises unequal degrees).
const TOPOLOGIES: &[&[usize]] = &[&[2, 2], &[4, 2], &[2, 2, 2]];

fn workload(m: usize, seed: u64) -> Vec<Vec<u64>> {
    let model = DensityModel::new(2048, 1.1);
    let gen = PartitionGenerator::with_density(model, 0.3, seed);
    (0..m).map(|i| gen.indices(i)).collect()
}

/// Σ sent == Σ received per `(phase, layer)` after any fault-free
/// collective, on every listed topology.
#[test]
fn fault_free_conservation() {
    for seed in 0..CASES {
        let plan = NetworkPlan::new(TOPOLOGIES[seed as usize % TOPOLOGIES.len()]);
        let m = plan.size();
        let idx = workload(m, seed);
        let (_, tel) = Substrate::Thread.run(m, |mut comm| {
            let me = comm.rank();
            let kylix = Kylix::new(plan.clone());
            let mut state = kylix.configure(&mut comm, &idx[me], &idx[me], 0).unwrap();
            let vals = vec![1.0f64; idx[me].len()];
            state.reduce(&mut comm, &vals, SumReducer).unwrap();
        });
        let rep = tel.report();
        for phase in 0..PHASES as u8 {
            for layer in rep.layers() {
                assert_eq!(
                    rep.on(phase, layer, Counter::MsgsSent),
                    rep.on(phase, layer, Counter::MsgsRecv),
                    "seed {seed}: phase {phase} layer {layer}"
                );
                assert_eq!(
                    rep.on(phase, layer, Counter::BytesSent),
                    rep.on(phase, layer, Counter::BytesRecv),
                    "seed {seed}: phase {phase} layer {layer}"
                );
            }
        }
        assert!(rep.total(Counter::MsgsSent) > 0, "seed {seed}");
    }
}

/// The wire identity holds for arbitrary drop/duplicate rates on
/// the data link, and the stream still arrives complete and in
/// order.
#[test]
fn lossy_wire_identity() {
    const STREAM_LEN: u64 = 30;
    for seed in 0..CASES {
        let mut rng = Xoshiro256::new(seed);
        let drop_p = 0.3 * rng.next_f64();
        let dup_p = 0.3 * rng.next_f64();
        let tag = Tag::new(Phase::App, 0, 1);
        let faults = FaultPlan::new(seed).link(
            0,
            1,
            LinkFaults {
                drop_p,
                dup_p,
                ..LinkFaults::none()
            },
        );
        let (received, tel) = Substrate::Thread.run(2, |c| {
            let mut comm = ReliableComm::new(ChaosComm::new(c, faults.clone()));
            let me = comm.rank();
            let mut got = Vec::new();
            if me == 0 {
                for i in 0..STREAM_LEN {
                    comm.send(1, tag, Bytes::from(i.to_le_bytes().to_vec()));
                }
            } else {
                for _ in 0..STREAM_LEN {
                    let payload = comm
                        .recv(0, tag)
                        .unwrap_or_else(|e| panic!("seed {seed}: reliable delivery: {e:?}"));
                    got.push(u64::from_le_bytes(payload[..8].try_into().unwrap()));
                }
            }
            comm.flush()
                .unwrap_or_else(|e| panic!("seed {seed}: drain: {e:?}"));
            got
        });
        assert_eq!(
            received[1],
            (0..STREAM_LEN).collect::<Vec<u64>>(),
            "seed {seed}"
        );

        let rep = tel.report();
        let logical = STREAM_LEN + rep.total(Counter::Retransmits) + rep.total(Counter::AcksSent);
        assert_eq!(
            rep.total(Counter::MsgsSent),
            logical - rep.total(Counter::FaultsDropped) + rep.total(Counter::FaultsDuplicated),
            "seed {seed}"
        );
        assert!(
            rep.total(Counter::MsgsRecv) <= rep.total(Counter::MsgsSent),
            "seed {seed}"
        );
        assert_eq!(rep.total(Counter::GaveUp), 0, "seed {seed}");
    }
}
