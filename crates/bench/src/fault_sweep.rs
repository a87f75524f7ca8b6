//! Fault sweep: completion rate and time overhead under injected
//! failures.
//!
//! The paper's §V argues replication + packet racing makes Kylix
//! tolerate machine failures; this experiment quantifies the whole
//! chaos surface the workspace can now inject:
//!
//! * **Crash sweep** (virtual time, deterministic) — a 2×-replicated
//!   16-logical-node Kylix run on the simulator with `k` replicas
//!   crashing *mid-protocol* at staggered virtual times (a
//!   [`ChaosComm`] around every rank's `SimComm`, from one plan).
//!   Measures the completion rate across physical ranks, result
//!   correctness against the sequential reference, and the virtual
//!   makespan overhead of racing past the dead. Same seed ⇒ bit-identical completion sets,
//!   results, and virtual times.
//! * **Loss sweep** (wall time) — an *unreplicated* Kylix run over
//!   lossy links (drop/duplicate/corrupt/delay per [`FaultPlan`]),
//!   repaired by [`ReliableComm`]'s ack/retransmit layer. Measures
//!   completion, correctness, retransmit counts, and wall-time overhead
//!   versus the lossless run. Retransmission timers are wall-clock, so
//!   this half reports *measured* times, not virtual ones.
//! * **Corruption check** — payload corruption without the reliability
//!   layer must be *detected* by the codec's checksum seal and surfaced
//!   as `CommError::Corrupt`, never silently reduced into results.

use crate::scaling::scaled_nic;
use crate::workload::VectorWorkload;
use kylix::{
    reference_allreduce, Kylix, KylixError, NetworkPlan, NodeContribution, ReplicatedComm,
};
use kylix_net::telemetry::Counter;
use kylix_net::{ChaosComm, Comm, CommError, FaultPlan, ReliableComm};
use kylix_netsim::{SimCluster, Substrate};
use kylix_sparse::SumReducer;
use std::time::Instant;

/// One measured row of the sweep.
#[derive(Debug, Clone)]
pub struct FaultRow {
    /// Which half of the sweep the row belongs to.
    pub scenario: &'static str,
    /// Injected-fault description.
    pub detail: String,
    /// Ranks that completed the allreduce.
    pub completed: usize,
    /// Total physical ranks.
    pub total: usize,
    /// Every completed rank's result matched the reference.
    pub correct: bool,
    /// Makespan: virtual seconds (crash sweep) or wall seconds (loss
    /// sweep).
    pub time: f64,
    /// `time` relative to the fault-free run of the same scenario.
    pub overhead: f64,
    /// Data retransmissions (loss sweep only).
    pub retransmits: u64,
}

/// Logical cluster size of the crash sweep.
const CRASH_LOGICAL: usize = 16;
/// Replication factor of the crash sweep.
const CRASH_REPLICATION: usize = 2;

fn contributions(w: &VectorWorkload) -> Vec<NodeContribution<f64>> {
    w.node_indices
        .iter()
        .map(|idx| NodeContribution {
            in_indices: idx.clone(),
            out_indices: idx.clone(),
            out_values: vec![1.0; idx.len()],
        })
        .collect()
}

/// One crash-sweep run: `k` replicas crash mid-protocol at virtual
/// times staggered across `(0, horizon)`. Returns per *physical* rank
/// `Some((logical result, final virtual time))`, or `None` where the
/// rank crashed. Fully deterministic in `(scale, seed, k, horizon)` —
/// the determinism test compares two invocations verbatim.
pub fn crash_run(scale: u64, seed: u64, k: usize, horizon: f64) -> Vec<Option<(Vec<f64>, f64)>> {
    assert!(k <= CRASH_LOGICAL, "at most one crash per logical node");
    let w = VectorWorkload::twitter_like(CRASH_LOGICAL, scale, seed);
    let physical = CRASH_LOGICAL * CRASH_REPLICATION;
    let plan = NetworkPlan::new(&[4, 4]);
    let nic = scaled_nic(scale as f64).with_jitter(0.3);
    // Crash replica 1 of the first `k` logical nodes (so every logical
    // node keeps a live replica) at times spread over the horizon —
    // mid-protocol, not before the start.
    let mut faults = FaultPlan::new(seed);
    for i in 0..k {
        let t = horizon * (0.2 + 0.6 * i as f64 / k.max(1) as f64);
        faults = faults.crash_at(CRASH_LOGICAL + i, t);
    }
    let cluster = SimCluster::new(physical, nic).seed(seed);
    cluster.run_all(|comm| {
        let chaos = ChaosComm::new(comm, faults.clone());
        let mut rc = ReplicatedComm::new(chaos, CRASH_REPLICATION);
        let me = rc.rank();
        let ones = vec![1.0f64; w.node_indices[me].len()];
        let kylix = Kylix::new(plan.clone());
        let got = kylix
            .allreduce_combined(
                &mut rc,
                &w.node_indices[me],
                &w.node_indices[me],
                &ones,
                SumReducer,
                0,
            )
            .map(|(vals, _)| vals);
        match got {
            Ok(vals) => Some((vals, rc.now())),
            Err(_) => None, // this replica crashed mid-run
        }
    })
}

/// Crash sweep rows for the given replica-crash counts.
pub fn crash_sweep(scale: u64, seed: u64, counts: &[usize]) -> Vec<FaultRow> {
    let w = VectorWorkload::twitter_like(CRASH_LOGICAL, scale, seed);
    let expected = reference_allreduce(&contributions(&w), SumReducer);
    // Fault-free run fixes the crash-time horizon and the baseline
    // makespan.
    let base = crash_run(scale, seed, 0, 0.0);
    let horizon = base.iter().flatten().map(|(_, t)| *t).fold(0.0, f64::max);
    let mut rows = Vec::new();
    for &k in counts {
        let out = crash_run(scale, seed, k, horizon);
        let completed = out.iter().flatten().count();
        let correct = out.iter().enumerate().all(|(phys, r)| match r {
            None => true,
            Some((vals, _)) => {
                let logical = phys % CRASH_LOGICAL;
                vals.len() == expected[logical].len()
                    && vals
                        .iter()
                        .zip(&expected[logical])
                        .all(|(a, b)| (a - b).abs() < 1e-9)
            }
        });
        let time = out.iter().flatten().map(|(_, t)| *t).fold(0.0, f64::max);
        rows.push(FaultRow {
            scenario: "crash",
            detail: format!("{k} replica crashes mid-run (s=2, 16 logical)"),
            completed,
            total: CRASH_LOGICAL * CRASH_REPLICATION,
            correct,
            time,
            overhead: if horizon > 0.0 { time / horizon } else { 1.0 },
            retransmits: 0,
        });
    }
    rows
}

/// Loss-sweep cluster size (must equal the plan's size).
const LOSS_NODES: usize = 8;

/// One loss-sweep run at per-message loss rate `p` (plus proportional
/// duplication, corruption, and delay). Unreplicated Kylix over
/// `ReliableComm<ChaosComm<_>>` on the thread substrate; wall-clock.
/// Returns per-rank `(correct, seconds, retransmits)` — retransmit
/// counts read back from the cluster telemetry shards the reliability
/// layer records into, not from ad-hoc per-connection accounting.
pub fn loss_run(scale: u64, seed: u64, p: f64) -> Vec<(bool, f64, u64)> {
    let w = VectorWorkload::twitter_like(LOSS_NODES, scale, seed);
    let expected = reference_allreduce(&contributions(&w), SumReducer);
    let plan = NetworkPlan::new(&[4, 2]);
    let faults = FaultPlan::new(seed)
        .drop_rate(p)
        .duplicate_rate(p / 2.0)
        .corrupt_rate(p / 4.0)
        .delay_rate(p / 2.0);
    let (out, tel) = Substrate::Thread.run(LOSS_NODES, |c| {
        let mut comm = ReliableComm::new(ChaosComm::new(c, faults.clone()));
        let me = comm.rank();
        let ones = vec![1.0f64; w.node_indices[me].len()];
        let start = Instant::now();
        let kylix = Kylix::new(plan.clone());
        let got = kylix
            .allreduce_combined(
                &mut comm,
                &w.node_indices[me],
                &w.node_indices[me],
                &ones,
                SumReducer,
                0,
            )
            .map(|(vals, _)| vals);
        // Still drain the reliability layer; its stats now also live in
        // the telemetry shard read after the join.
        comm.flush().ok();
        let secs = start.elapsed().as_secs_f64();
        let correct = match got {
            Ok(vals) => {
                vals.len() == expected[me].len()
                    && vals
                        .iter()
                        .zip(&expected[me])
                        .all(|(a, b)| (a - b).abs() < 1e-9)
            }
            Err(_) => false,
        };
        (correct, secs)
    });
    let rep = tel.report();
    out.into_iter()
        .zip(&rep.ranks)
        .map(|((correct, secs), r)| (correct, secs, r.total(Counter::Retransmits)))
        .collect()
}

/// Loss sweep rows for the given loss rates (first rate is the
/// overhead baseline).
pub fn loss_sweep(scale: u64, seed: u64, rates: &[f64]) -> Vec<FaultRow> {
    let mut rows: Vec<FaultRow> = Vec::new();
    let mut baseline = f64::NAN;
    for &p in rates {
        let out = loss_run(scale, seed, p);
        let completed = out.iter().filter(|(ok, _, _)| *ok).count();
        let time = out.iter().map(|(_, s, _)| *s).fold(0.0, f64::max);
        let retransmits = out.iter().map(|(_, _, r)| r).sum();
        if baseline.is_nan() {
            baseline = time;
        }
        rows.push(FaultRow {
            scenario: "loss",
            detail: format!(
                "loss {:.0}% dup {:.0}% corrupt {:.0}%",
                p * 100.0,
                p * 50.0,
                p * 25.0
            ),
            completed,
            total: LOSS_NODES,
            correct: completed == LOSS_NODES,
            time,
            overhead: if baseline > 0.0 { time / baseline } else { 1.0 },
            retransmits,
        });
    }
    rows
}

/// Corruption check: with every link corrupting and *no* reliability
/// layer, the allreduce must fail loudly with `CommError::Corrupt` on
/// every rank — the checksum seal turns silent data poisoning into a
/// detected fault.
pub fn corrupt_check(scale: u64, seed: u64) -> FaultRow {
    let m = 4;
    let w = VectorWorkload::twitter_like(m, scale, seed);
    let plan = NetworkPlan::new(&[2, 2]);
    let faults = FaultPlan::new(seed).corrupt_rate(1.0);
    let (out, _) = Substrate::Thread.run(m, |c| {
        let mut chaos = ChaosComm::new(c, faults.clone());
        let me = chaos.rank();
        let ones = vec![1.0f64; w.node_indices[me].len()];
        let kylix = Kylix::new(plan.clone());
        kylix.allreduce_combined(
            &mut chaos,
            &w.node_indices[me],
            &w.node_indices[me],
            &ones,
            SumReducer,
            0,
        )
    });
    let detected = out
        .iter()
        .filter(|r| {
            matches!(
                r,
                Err(KylixError::Comm {
                    source: CommError::Corrupt { .. },
                    ..
                })
            )
        })
        .count();
    FaultRow {
        scenario: "corrupt",
        detail: "100% link corruption, no reliability layer".into(),
        completed: detected,
        total: m,
        correct: detected == m, // "correct" = corruption detected everywhere
        time: 0.0,
        overhead: 1.0,
        retransmits: 0,
    }
}

/// The full sweep. `quick` trims it to a CI-smoke subset.
pub fn run(scale: u64, seed: u64, quick: bool) -> Vec<FaultRow> {
    let (crash_counts, loss_rates): (&[usize], &[f64]) = if quick {
        (&[0, 2], &[0.0, 0.1])
    } else {
        (&[0, 1, 2, 4], &[0.0, 0.05, 0.1, 0.2])
    };
    let mut rows = crash_sweep(scale, seed, crash_counts);
    rows.extend(loss_sweep(scale, seed + 1, loss_rates));
    rows.push(corrupt_check(scale, seed + 2));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Acceptance: two crash-sweep runs with the same seed and plan
    /// produce identical completion sets, identical results, and
    /// identical virtual times — bit for bit.
    #[test]
    fn crash_runs_are_deterministic() {
        // Fix the horizon from a fault-free baseline so the injected
        // crashes genuinely land mid-protocol.
        let base = crash_run(4000, 21, 0, 0.0);
        let horizon = base.iter().flatten().map(|(_, t)| *t).fold(0.0, f64::max);
        assert!(horizon > 0.0);
        let a = crash_run(4000, 21, 3, horizon);
        let b = crash_run(4000, 21, 3, horizon);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            match (x, y) {
                (None, None) => {}
                (Some((va, ta)), Some((vb, tb))) => {
                    assert_eq!(va, vb, "results must be identical");
                    assert_eq!(
                        ta.to_bits(),
                        tb.to_bits(),
                        "virtual times must be identical"
                    );
                }
                _ => panic!("completion sets differ"),
            }
        }
    }

    /// Acceptance: replicated Kylix completes *correctly* when one
    /// replica per affected logical node dies mid-protocol.
    #[test]
    fn replicated_completes_through_midrun_crashes() {
        let rows = crash_sweep(4000, 13, &[0, 2]);
        let faulted = &rows[1];
        assert!(faulted.correct, "survivors must match the reference");
        assert_eq!(
            faulted.total - faulted.completed,
            2,
            "exactly the crashed replicas drop out: {faulted:?}"
        );
        assert!(faulted.time >= rows[0].time * 0.5, "sane makespan");
    }

    /// Acceptance: the reliability layer completes a correct allreduce
    /// at ≥10% per-message loss without any replication.
    #[test]
    fn reliable_completes_at_ten_percent_loss() {
        let out = loss_run(4000, 17, 0.10);
        assert!(
            out.iter().all(|(ok, _, _)| *ok),
            "every rank must finish correctly: {out:?}"
        );
        let retransmits: u64 = out.iter().map(|(_, _, r)| r).sum();
        assert!(retransmits > 0, "10% loss must force retransmissions");
    }

    /// Acceptance: injected payload corruption is detected via the
    /// codec checksum and surfaced as an error, not reduced.
    #[test]
    fn corruption_is_detected_not_reduced() {
        let row = corrupt_check(4000, 19);
        assert!(
            row.correct,
            "all ranks must surface CommError::Corrupt: {row:?}"
        );
    }

    /// The quick (CI smoke) sweep holds the headline properties.
    #[test]
    fn quick_sweep_smoke() {
        let rows = run(4000, 23, true);
        assert!(rows.iter().all(|r| r.correct), "{rows:#?}");
    }
}
