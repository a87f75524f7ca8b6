//! Telemetry conservation laws.
//!
//! The counters are only trustworthy if they balance like a ledger:
//!
//! * **Fault-free**: a completed collective consumes every message it
//!   sends, so per `(phase, layer)` the cluster-wide sent totals must
//!   equal the received totals exactly — bytes and messages. (Own
//!   parts never cross the wire: they are filed apart, as
//!   `SelfBytes`/`SelfMsgs`.)
//! * **Under faults**: with a chaos layer dropping and duplicating
//!   frames and the reliability layer repairing the damage, the *wire*
//!   identity must hold exactly — messages on the wire equal logical
//!   sends minus chaos drops plus chaos duplicates — while delivery
//!   stays complete and in order, paid for with retransmissions.

use bytes::Bytes;
use kylix::{Kylix, NetworkPlan};
use kylix_net::telemetry::{Counter, PHASES};
use kylix_net::{ChaosComm, Comm, FaultPlan, LinkFaults, Phase, ReliableComm, Tag};
use kylix_netsim::{NicModel, Substrate};
use kylix_powerlaw::{DensityModel, PartitionGenerator};
use kylix_sparse::SumReducer;

fn workload(m: usize, n: u64, density: f64, seed: u64) -> Vec<Vec<u64>> {
    let model = DensityModel::new(n, 1.1);
    let gen = PartitionGenerator::with_density(model, density, seed);
    (0..m).map(|i| gen.indices(i)).collect()
}

/// Fault-free allreduce: Σ sent == Σ received per `(phase, layer)`,
/// bytes and messages, across the whole cluster.
#[test]
fn fault_free_collective_conserves_messages() {
    let m = 8;
    let plan = NetworkPlan::new(&[4, 2]);
    let idx = workload(m, 4096, 0.3, 9);
    let (_, tel) = Substrate::Thread.run(m, |mut comm| {
        let me = comm.rank();
        let kylix = Kylix::new(plan.clone());
        let mut state = kylix.configure(&mut comm, &idx[me], &idx[me], 0).unwrap();
        let vals = vec![1.0f64; idx[me].len()];
        state.reduce(&mut comm, &vals, SumReducer).unwrap();
    });
    let rep = tel.report();
    let mut checked = 0u32;
    for phase in 0..PHASES as u8 {
        for layer in rep.layers() {
            let sent = rep.on(phase, layer, Counter::MsgsSent);
            let recv = rep.on(phase, layer, Counter::MsgsRecv);
            assert_eq!(
                sent, recv,
                "phase {phase} layer {layer}: {sent} msgs sent vs {recv} received"
            );
            assert_eq!(
                rep.on(phase, layer, Counter::BytesSent),
                rep.on(phase, layer, Counter::BytesRecv),
                "phase {phase} layer {layer}: byte totals diverged"
            );
            checked += u32::from(sent > 0);
        }
    }
    assert!(
        checked >= 3,
        "expected traffic on several (phase, layer) slots"
    );
    // Own parts were kept, and stayed out of the wire counts above.
    assert!(rep.total(Counter::SelfMsgs) > 0);
}

/// Every pass files each rank's own part of each layer once, as one
/// `SelfMsgs` under the pass's phase — over configure + reduce and a
/// combined op, so every pass is in the ledger — on every substrate.
#[test]
fn self_traffic_balances_across_both_views() {
    let plan = NetworkPlan::new(&[4, 2]);
    let m = plan.size();
    let idx = workload(m, 4096, 0.3, 5);
    for s in Substrate::all(NicModel::ec2_10g(), 5) {
        let (_, tel) = s.run(m, |mut comm| {
            let me = comm.rank();
            let kylix = Kylix::new(plan.clone());
            let vals = vec![1.0f64; idx[me].len()];
            let mut state = kylix.configure(&mut comm, &idx[me], &idx[me], 0).unwrap();
            state.reduce(&mut comm, &vals, SumReducer).unwrap();
            kylix
                .allreduce_combined(&mut comm, &idx[me], &idx[me], &vals, SumReducer, 2)
                .unwrap();
        });
        let rep = tel.report();
        for (rank, r) in rep.ranks.iter().enumerate() {
            for layer in rep.layers() {
                // One own part per pass and layer; the combined op's
                // up pass is a second `ReduceUp`.
                for (phase, parts) in [
                    (Phase::Config, 1),
                    (Phase::ReduceDown, 1),
                    (Phase::ReduceUp, 2),
                    (Phase::Combined, 1),
                ] {
                    assert_eq!(
                        r.get(phase as u8, layer, Counter::SelfMsgs),
                        parts,
                        "{s} rank {rank} layer {layer}: {phase:?} own parts"
                    );
                }
            }
        }
    }
}

/// Every collective op lands in its rank's op histogram: a combined
/// op and then a reduce on its state read two timed ops per rank, on
/// every substrate.
#[test]
fn combined_and_reduce_ops_are_both_timed() {
    let plan = NetworkPlan::new(&[4, 2]);
    let m = plan.size();
    let idx = workload(m, 4096, 0.3, 7);
    for s in Substrate::all(NicModel::ec2_10g(), 7) {
        let (_, tel) = s.run(m, |mut comm| {
            let me = comm.rank();
            let kylix = Kylix::new(plan.clone());
            let vals = vec![1.0f64; idx[me].len()];
            let (_, mut state) = kylix
                .allreduce_combined(&mut comm, &idx[me], &idx[me], &vals, SumReducer, 0)
                .unwrap();
            state.reduce(&mut comm, &vals, SumReducer).unwrap();
        });
        for (rank, r) in tel.report().ranks.iter().enumerate() {
            assert_eq!(r.ops, 2, "{s} rank {rank}: timed ops");
            assert!(r.op_nanos > 0, "{s} rank {rank}: no op time");
        }
    }
}

/// Messages streamed rank 0 → rank 1 in the lossy-link harness.
const STREAM_LEN: u64 = 50;

/// Two ranks over `ReliableComm<ChaosComm<_>>` on the thread substrate,
/// with a one-directional drop + duplicate plan on the data link. After both
/// sides drain, the ledger must balance:
///
/// * wire identity (exact): thread-level messages sent == logical sends
///   into the chaos layer − drops + duplicates, where logical sends are
///   themselves reconstructed from telemetry (payload stream + acks +
///   retransmits);
/// * the stream arrives complete and in order despite the drops;
/// * repairs are visible: retransmits > 0 when frames were dropped,
///   and nothing was abandoned.
#[test]
fn lossy_link_ledger_balances() {
    let m = 2;
    let tag = Tag::new(Phase::App, 0, 1);
    // Data flows 0 → 1 over a bad link; the ack path 1 → 0 stays clean
    // so the drain below terminates deterministically.
    let faults = FaultPlan::new(11).link(
        0,
        1,
        LinkFaults {
            drop_p: 0.25,
            dup_p: 0.2,
            ..LinkFaults::none()
        },
    );
    let (received, tel) = Substrate::Thread.run(m, |c| {
        let mut comm = ReliableComm::new(ChaosComm::new(c, faults.clone()));
        let me = comm.rank();
        let mut got = Vec::new();
        if me == 0 {
            for i in 0..STREAM_LEN {
                comm.send(1, tag, Bytes::from(i.to_le_bytes().to_vec()));
            }
        } else {
            for _ in 0..STREAM_LEN {
                let payload = comm.recv(0, tag).expect("reliable delivery");
                got.push(u64::from_le_bytes(payload[..8].try_into().unwrap()));
            }
        }
        // Drain: retransmit until acked, answer late retransmits.
        comm.flush().expect("drain");
        got
    });

    // Delivery: complete and in order despite the lossy link.
    assert_eq!(received[1], (0..STREAM_LEN).collect::<Vec<u64>>());

    let rep = tel.report();
    let total = |k: Counter| rep.total(k);
    let dropped = total(Counter::FaultsDropped);
    let duplicated = total(Counter::FaultsDuplicated);
    let retransmits = total(Counter::Retransmits);
    let acks = total(Counter::AcksSent);

    // The seeded plan must actually have exercised both fault kinds.
    assert!(dropped > 0, "seed produced no drops");
    assert!(duplicated > 0, "seed produced no duplicates");
    assert!(retransmits > 0, "drops must force retransmissions");
    assert_eq!(total(Counter::GaveUp), 0, "nothing may be abandoned");

    // Wire identity: every logical send (stream + retransmits + acks)
    // either hit the wire once, was dropped, or hit it twice.
    let logical = STREAM_LEN + retransmits + acks;
    assert_eq!(
        total(Counter::MsgsSent),
        logical - dropped + duplicated,
        "wire sends must equal logical sends - drops + duplicates \
         (logical {logical}, dropped {dropped}, duplicated {duplicated})"
    );

    // Receive side: nothing materialises from thin air; at most the
    // frames still in flight when the ranks exited go unreceived.
    assert!(total(Counter::MsgsRecv) <= total(Counter::MsgsSent));
    assert!(total(Counter::BytesRecv) <= total(Counter::BytesSent));
    // Duplicate deliveries were recognised and dropped above the wire.
    assert!(
        total(Counter::DupesDropped) > 0,
        "duplicated frames must be caught by the reliability layer"
    );
}
