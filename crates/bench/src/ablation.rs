//! Ablation studies on Kylix's design choices.
//!
//! The paper argues for several individually-motivated decisions; each
//! ablation here isolates one and measures its effect on the simulated
//! cluster:
//!
//! 1. **Degree ordering** — §IV observes optimal degrees *decrease*
//!    down the layers. We time `8×4×2` against its reverse `2×4×8` on
//!    the same data.
//! 2. **Packet racing** — §V.B claims replication's duplicate messages
//!    turn latency variance into a *race* won by the fastest copy. We
//!    compare racing receives against pinning every receive to replica
//!    0, under heavy jitter.
//! 3. **Replication factor** — Table I covers s ∈ {1, 2}; we sweep
//!    s ∈ {1, 2, 4} to expose the trend.
//! 4. **Sparse vs dense** — §VIII distinguishes Kylix from dense
//!    allreduce systems; we compare wire volumes against a dense ring
//!    allreduce on the same vector space.

use crate::fig5;
use crate::fig6::slowest_rank_ends;
use crate::scaling::scaled_nic;
use crate::workload::{VectorWorkload, ELEM_BYTES};
use bytes::Bytes;
use kylix::{NetworkPlan, ReplicatedComm};
use kylix_net::telemetry::RankTelemetry;
use kylix_net::{Comm, CommError, Tag};
use kylix_netsim::SimCluster;
use std::time::Duration;

/// Generic labelled measurement row.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Which ablation the row belongs to.
    pub study: &'static str,
    /// Variant label.
    pub variant: String,
    /// Measured quantity (seconds or bytes, per `unit`).
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
}

/// Configure + one reduce makespan of a workload over a plan, in
/// full-scale seconds, on the scaled collective NIC with the given
/// latency jitter and straggler ranks. Every rank runs under
/// [`ReplicatedComm`] (a pass-through at `replication` 1), racing its
/// receives, or with `race` off pinned to replica 0.
fn makespan(
    workload: &VectorWorkload,
    plan: &NetworkPlan,
    replication: usize,
    race: bool,
    jitter: f64,
    stragglers: &[(usize, f64)],
    seed: u64,
) -> f64 {
    let nic = scaled_nic(workload.scale as f64).with_jitter(jitter);
    let cluster = SimCluster::new(plan.size() * replication, nic)
        .seed(seed)
        .stragglers(stragglers);
    let ends = if race {
        slowest_rank_ends(&cluster, workload, plan, 1, |comm| {
            Some(ReplicatedComm::new(comm, replication))
        })
    } else {
        slowest_rank_ends(&cluster, workload, plan, 1, |comm| {
            let logical = comm.size() / replication;
            let pinned = ReplicaZero {
                inner: comm,
                logical,
            };
            Some(ReplicatedComm::new(pinned, replication))
        })
    };
    ends[1] * workload.scale as f64
}

/// The physical communicator below a [`ReplicatedComm`] with racing
/// disabled: every receive keeps only the replica-0 sources (physical
/// ranks below `logical`), so it is pinned to the sender's replica 0 —
/// the §V.B ablation baseline. Sends still fan out to every replica,
/// and the replicated layer above still discards the winner's siblings.
struct ReplicaZero<C: Comm> {
    inner: C,
    logical: usize,
}

impl<C: Comm> Comm for ReplicaZero<C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn send(&mut self, to: usize, tag: Tag, payload: Bytes) {
        self.inner.send(to, tag, payload);
    }
    fn recv_any_timeout(
        &mut self,
        sources: &[usize],
        tag: Tag,
        timeout: Duration,
    ) -> Result<(usize, Bytes), CommError> {
        let primaries: Vec<usize> = sources
            .iter()
            .copied()
            .filter(|&s| s < self.logical)
            .collect();
        self.inner.recv_any_timeout(&primaries, tag, timeout)
    }
    fn discard(&mut self, sources: &[usize], tag: Tag) {
        self.inner.discard(sources, tag);
    }
    fn now(&self) -> f64 {
        self.inner.now()
    }
    fn charge_compute(&mut self, seconds: f64) {
        self.inner.charge_compute(seconds);
    }
    fn telemetry(&self) -> Option<&RankTelemetry> {
        self.inner.telemetry()
    }
}

/// Ablation 1: degree ordering.
pub fn degree_order(scale: u64, seed: u64) -> Vec<AblationRow> {
    let w = VectorWorkload::twitter_like(64, scale, seed);
    [
        ("8x4x2 (decreasing)", vec![8usize, 4, 2]),
        ("2x4x8 (increasing)", vec![2, 4, 8]),
        ("4x4x4 (uniform)", vec![4, 4, 4]),
    ]
    .into_iter()
    .map(|(label, degrees)| AblationRow {
        study: "degree-order",
        variant: label.to_string(),
        value: makespan(&w, &NetworkPlan::new(&degrees), 1, true, 0.3, &[], seed),
        unit: "s",
    })
    .collect()
}

/// Ablation 2: packet racing under heavy latency jitter.
pub fn packet_racing(scale: u64, seed: u64) -> Vec<AblationRow> {
    let w = VectorWorkload::twitter_like(32, scale, seed);
    let plan = NetworkPlan::new(&[8, 4]);
    let jitter = 2.0;
    vec![
        AblationRow {
            study: "packet-racing",
            variant: "replicated, racing".into(),
            value: makespan(&w, &plan, 2, true, jitter, &[], seed),
            unit: "s",
        },
        AblationRow {
            study: "packet-racing",
            variant: "replicated, pinned to replica 0".into(),
            value: makespan(&w, &plan, 2, false, jitter, &[], seed),
            unit: "s",
        },
        AblationRow {
            study: "packet-racing",
            variant: "unreplicated".into(),
            value: makespan(&w, &plan, 1, true, jitter, &[], seed),
            unit: "s",
        },
    ]
}

/// Ablation 3: replication factor sweep.
pub fn replication_factor(scale: u64, seed: u64) -> Vec<AblationRow> {
    let w = VectorWorkload::twitter_like(16, scale, seed);
    let plan = NetworkPlan::new(&[4, 4]);
    [1usize, 2, 4]
        .into_iter()
        .map(|s| AblationRow {
            study: "replication-factor",
            variant: format!("s = {s}"),
            value: makespan(&w, &plan, s, true, 0.3, &[], seed),
            unit: "s",
        })
        .collect()
}

/// Wire volume per node of a dense ring allreduce (reduce-scatter +
/// allgather) over `n` elements on `m` nodes, in elements: `2·(m−1)/m · n`
/// whatever the sparsity. It is the bandwidth-optimal collective of the
/// dense world the paper sets itself apart from (§VIII).
fn ring_volume_elems(n: usize, m: usize) -> usize {
    if m <= 1 {
        0
    } else {
        2 * (m - 1) * (n / m + 1)
    }
}

/// Ablation 4: sparse allreduce wire volume vs a dense ring allreduce
/// over the same vector space.
pub fn sparse_vs_dense(scale: u64, seed: u64) -> Vec<AblationRow> {
    let w = VectorWorkload::twitter_like(64, scale, seed);
    let m = 64;
    // Sparse: the per-node down volume Fig. 5 measures on the paper
    // plan, twice (down + up).
    let down_bytes: u64 = fig5::profile(&w, &[8, 4, 2]).measured_bytes.iter().sum();
    let elems = down_bytes as usize / ELEM_BYTES * 2;
    let sparse_bytes = elems as f64 / m as f64 * ELEM_BYTES as f64;
    let dense_bytes = ring_volume_elems(w.model.n as usize, m) as f64 * ELEM_BYTES as f64;
    vec![
        AblationRow {
            study: "sparse-vs-dense",
            variant: "kylix 8x4x2 (sparse)".into(),
            value: sparse_bytes * scale as f64,
            unit: "bytes/node (full scale)",
        },
        AblationRow {
            study: "sparse-vs-dense",
            variant: "ring allreduce (dense)".into(),
            value: dense_bytes * scale as f64,
            unit: "bytes/node (full scale)",
        },
    ]
}

/// Ablation 5: straggler sensitivity (paper §II's "variable compute
/// node performance"). One node runs 4× slow; the direct topology's 63
/// serialised messages amplify it far more than the butterfly's 11,
/// and replication + racing absorbs it entirely when the straggler's
/// replica is healthy.
pub fn straggler_sensitivity(scale: u64, seed: u64) -> Vec<AblationRow> {
    let w64 = VectorWorkload::twitter_like(64, scale, seed);
    let slow = [(0usize, 4.0)];
    let mut rows = Vec::new();
    for (label, plan) in [
        ("direct (64)", NetworkPlan::direct(64)),
        ("8x4x2", NetworkPlan::new(&[8, 4, 2])),
    ] {
        let base = makespan(&w64, &plan, 1, true, 0.3, &[], seed);
        let hit = makespan(&w64, &plan, 1, true, 0.3, &slow, seed);
        rows.push(AblationRow {
            study: "straggler",
            variant: format!("{label}, 4x straggler slowdown factor"),
            value: hit / base,
            unit: "x",
        });
    }
    // Replicated: the straggler is one replica of logical 0; racing
    // should hide most of it.
    let w32 = VectorWorkload::twitter_like(32, scale, seed);
    let plan = NetworkPlan::new(&[8, 4]);
    let base = makespan(&w32, &plan, 2, true, 0.3, &[], seed);
    let hit = makespan(&w32, &plan, 2, true, 0.3, &slow, seed);
    rows.push(AblationRow {
        study: "straggler",
        variant: "8x4 rep=2, straggler on one replica".into(),
        value: hit / base,
        unit: "x",
    });
    rows
}

/// All ablations.
pub fn run(scale: u64, seed: u64) -> Vec<AblationRow> {
    let mut rows = degree_order(scale, seed);
    rows.extend(packet_racing(scale, seed + 1));
    rows.extend(replication_factor(scale, seed + 2));
    rows.extend(sparse_vs_dense(scale, seed + 3));
    rows.extend(straggler_sensitivity(scale, seed + 4));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_volume_is_sparsity_independent() {
        assert!(ring_volume_elems(1_000_000, 64) > 1_900_000);
        assert_eq!(ring_volume_elems(100, 1), 0);
    }

    #[test]
    fn decreasing_degrees_win() {
        let rows = degree_order(4000, 3);
        let by = |v: &str| {
            rows.iter()
                .find(|r| r.variant.starts_with(v))
                .unwrap()
                .value
        };
        assert!(
            by("8x4x2") < by("2x4x8"),
            "decreasing {} vs increasing {}",
            by("8x4x2"),
            by("2x4x8")
        );
    }

    #[test]
    fn racing_beats_pinned_under_jitter() {
        let rows = packet_racing(4000, 5);
        let racing = rows[0].value;
        let pinned = rows[1].value;
        assert!(
            racing <= pinned,
            "racing {racing} should not lose to pinned {pinned}"
        );
    }

    #[test]
    fn replication_cost_grows_with_factor() {
        let rows = replication_factor(4000, 7);
        assert!(rows[0].value < rows[1].value, "{rows:?}");
        assert!(rows[1].value < rows[2].value, "{rows:?}");
        // …but stays well under linear: racing and parallelism absorb
        // part of the duplicated traffic.
        assert!(rows[2].value < rows[0].value * 4.0, "{rows:?}");
    }

    #[test]
    fn stragglers_hurt_direct_more_and_replication_absorbs() {
        let rows = straggler_sensitivity(4000, 11);
        let direct_factor = rows[0].value;
        let butterfly_factor = rows[1].value;
        let replicated_factor = rows[2].value;
        assert!(
            direct_factor > butterfly_factor,
            "direct {direct_factor:.2}x should exceed butterfly {butterfly_factor:.2}x"
        );
        assert!(
            replicated_factor < butterfly_factor,
            "racing should absorb the straggler: {replicated_factor:.2}x vs {butterfly_factor:.2}x"
        );
    }

    #[test]
    fn sparse_moves_far_less_than_dense() {
        let rows = sparse_vs_dense(4000, 9);
        let sparse = rows[0].value;
        let dense = rows[1].value;
        assert!(
            dense > 2.0 * sparse,
            "dense {dense} should dwarf sparse {sparse}"
        );
    }
}
