//! Cross-substrate telemetry differential tests.
//!
//! The same plan and seed, run on every `Substrate` (the virtual-time
//! simulator, the real thread cluster, and the loopback-TCP cluster),
//! must produce **identical** per-rank, per-`(phase, layer)` send-side
//! counters — bytes sent, messages sent, and the self-addressed volumes
//! the reduce hot path records — and **bit-identical** reduction
//! results. Send counts are fixed by the routing tables and reduction
//! values by the deterministic arrival-order-independent reducers, so
//! any divergence means one substrate's accounting or delivery drifted.
//! Timing and receive-side stash behaviour are deliberately excluded —
//! virtual and wall clocks cannot agree, and each substrate parks a
//! different set of arrivals (the simulator parks everything, the
//! thread and TCP clusters only out-of-order traffic, with real-socket
//! interleaving differing from channel interleaving run to run).
//!
//! Three topologies, including the heterogeneous-degree butterfly
//! `4×3×2` where every layer has a different group size.

use std::collections::BTreeMap;

use kylix::{Kylix, NetworkPlan};
use kylix_net::telemetry::{Counter, TelemetryReport};
use kylix_net::Comm;
use kylix_netsim::{NicModel, Substrate};
use kylix_powerlaw::{DensityModel, PartitionGenerator};
use kylix_sparse::SumReducer;

fn workload(m: usize, n: u64, density: f64, seed: u64) -> Vec<Vec<u64>> {
    let model = DensityModel::new(n, 1.1);
    let gen = PartitionGenerator::with_density(model, density, seed);
    (0..m).map(|i| gen.indices(i)).collect()
}

/// Send-side counters per rank: `(phase, layer)` → (bytes sent, msgs
/// sent, self bytes, self msgs), zero rows dropped.
type SendSide = Vec<BTreeMap<(u8, u16), (u64, u64, u64, u64)>>;

fn send_side(rep: &TelemetryReport) -> SendSide {
    rep.ranks
        .iter()
        .map(|r| {
            r.counters
                .iter()
                .map(|(&slot, _)| {
                    let row = (
                        r.get(slot.0, slot.1, Counter::BytesSent),
                        r.get(slot.0, slot.1, Counter::MsgsSent),
                        r.get(slot.0, slot.1, Counter::SelfBytes),
                        r.get(slot.0, slot.1, Counter::SelfMsgs),
                    );
                    (slot, row)
                })
                .filter(|(_, row)| *row != (0, 0, 0, 0))
                .collect()
        })
        .collect()
}

fn to_bits(vals: Vec<f64>) -> Vec<u64> {
    vals.into_iter().map(f64::to_bits).collect()
}

/// Configure + one reduce on every rank of every substrate, the
/// workload and the simulator's jitter both seeded by `seed`: each
/// substrate's send-side counters and reduced bits must equal the
/// simulator's.
fn assert_identical(degrees: &[usize], seed: u64) {
    let plan = NetworkPlan::new(degrees);
    let m = plan.size();
    let idx = workload(m, 4096, 0.3, seed);
    let mut first: Option<(Substrate, SendSide, Vec<Vec<u64>>)> = None;
    for s in Substrate::all(NicModel::ec2_10g(), seed) {
        let (reduced_bits, tel) = s.run(m, |mut comm| {
            let me = comm.rank();
            let kylix = Kylix::new(plan.clone());
            let mut state = kylix.configure(&mut comm, &idx[me], &idx[me], 0).unwrap();
            let vals = vec![1.0f64; idx[me].len()];
            to_bits(state.reduce(&mut comm, &vals, SumReducer).unwrap())
        });
        let send = send_side(&tel.report());
        let Some((s0, send0, bits0)) = &first else {
            // Sanity: the run actually sent something and produced
            // reduced values.
            let sent = send.iter().flat_map(|r| r.values()).map(|&(b, ..)| b);
            assert!(
                sent.sum::<u64>() > 0,
                "{degrees:?} {s}: no traffic recorded"
            );
            let values = reduced_bits.iter().map(|r| r.len()).sum::<usize>();
            assert!(values > 0, "{degrees:?} {s}: no reduced values produced");
            first = Some((s, send, reduced_bits));
            continue;
        };
        assert_eq!(
            send0.len(),
            send.len(),
            "{degrees:?}: rank count ({s0} vs {s})"
        );
        for (rank, (a, b)) in send0.iter().zip(&send).enumerate() {
            assert_eq!(
                a, b,
                "{degrees:?} rank {rank}: send-side counters diverged ({s0} vs {s})"
            );
        }
        assert_eq!(
            bits0, &reduced_bits,
            "{degrees:?}: reduction results not bit-identical ({s0} vs {s})"
        );
    }
}

#[test]
fn square_butterfly_2x2_matches() {
    assert_identical(&[2, 2], 42);
}

#[test]
fn rectangular_butterfly_4x2_matches() {
    assert_identical(&[4, 2], 43);
}

#[test]
fn heterogeneous_butterfly_4x3x2_matches() {
    assert_identical(&[4, 3, 2], 44);
}
