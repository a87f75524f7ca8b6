//! Fig. 5 — total communication volume per layer: the "Kylix" shape.
//!
//! For the Twitter-like workload on the paper's 8×4×2 network and the
//! Yahoo-like workload on 16×4, measure the volume each layer of the
//! scatter-reduce moves (including packets to self, as the paper
//! counts), plus the fully reduced bottom volume. Dense (Twitter-like)
//! data collapses fast down the layers; sparse (Yahoo-like) data
//! shrinks more slowly — the two silhouettes of the paper's Fig. 5.
//!
//! Measured volumes come from the cross-substrate telemetry of a real
//! configure + reduce run (per-layer sent bytes, wire framing
//! stripped, packets to self included via the dedicated self kinds);
//! predicted volumes from the Prop. 4.1 model. Tests pin the telemetry
//! numbers to the model *and*, byte for byte, to the routing state's
//! structural count on both the thread cluster and the simulator.

use crate::workload::VectorWorkload;
use kylix::codec::SEAL_LEN;
use kylix::{Kylix, NetworkPlan};
use kylix_net::telemetry::{Counter, TelemetryReport};
use kylix_net::Phase;
use kylix_netsim::Substrate;
use kylix_sparse::SumReducer;

/// Wire framing per values message: 8-byte count header + checksum
/// seal. Subtracted per message so volumes count payload elements only,
/// exactly as the structural accounting did.
const MSG_OVERHEAD: u64 = 8 + SEAL_LEN as u64;

/// Bytes per reduced element (`f64`).
const ELEM_BYTES: u64 = 8;

/// Volume profile for one dataset/network pair.
#[derive(Debug, Clone)]
pub struct Fig5Profile {
    /// Workload name.
    pub dataset: String,
    /// Layer degrees used.
    pub degrees: Vec<usize>,
    /// Measured total volume per communication layer, bytes (full-scale
    /// equivalent: multiply by the workload scale to compare with the
    /// paper's axes).
    pub measured_bytes: Vec<u64>,
    /// The reduced bottom-layer volume (the paper's extra last bar).
    pub bottom_bytes: u64,
    /// Model-predicted volume per layer, bytes.
    pub predicted_bytes: Vec<f64>,
    /// Model-predicted bottom volume.
    pub predicted_bottom: f64,
    /// Full telemetry snapshot of the measuring run — the numbers
    /// behind `measured_bytes`, written out by `figures --telemetry`.
    pub telemetry: TelemetryReport,
}

/// Distil per-layer down-pass element bytes from a telemetry snapshot:
/// sent bytes plus self-addressed bytes at the down phase, minus the
/// per-message wire framing. Works identically on either substrate.
pub fn down_volume_from_telemetry(rep: &TelemetryReport, layers: usize) -> Vec<u64> {
    let down = Phase::ReduceDown as u8;
    (0..layers)
        .map(|l| {
            let l = l as u16;
            let bytes = rep.on(down, l, Counter::BytesSent) + rep.on(down, l, Counter::SelfBytes);
            let msgs = rep.on(down, l, Counter::MsgsSent) + rep.on(down, l, Counter::SelfMsgs);
            bytes - MSG_OVERHEAD * msgs
        })
        .collect()
}

/// Measure one dataset's per-layer volumes on its paper topology by
/// actually running a reduce over a telemetry-attached thread cluster
/// and reading the sent-byte counters back.
pub fn profile(workload: &VectorWorkload, degrees: &[usize]) -> Fig5Profile {
    let m = workload.node_indices.len();
    let plan = NetworkPlan::new(degrees);
    assert_eq!(plan.size(), m);
    let (bottoms, tel) = Substrate::Thread.run(m, |mut comm| {
        let me = kylix_net::Comm::rank(&comm);
        let kylix = Kylix::new(plan.clone());
        let mut state = kylix
            .configure(
                &mut comm,
                &workload.node_indices[me],
                &workload.node_indices[me],
                0,
            )
            .unwrap();
        let ones = vec![1.0f64; workload.node_indices[me].len()];
        state.reduce(&mut comm, &ones, SumReducer).unwrap();
        state.bottom_elems()
    });

    let layers = plan.layers();
    let telemetry = tel.report();
    let measured = down_volume_from_telemetry(&telemetry, layers);
    let bottom: u64 = bottoms.iter().map(|&b| b as u64 * ELEM_BYTES).sum();

    let preds = workload
        .model
        .layer_predictions(workload.lambda0, plan.degrees());
    let predicted: Vec<f64> = preds[..layers]
        .iter()
        .map(|p| p.elems_per_node * m as f64 * ELEM_BYTES as f64)
        .collect();
    let predicted_bottom = preds[layers].elems_per_node * m as f64 * ELEM_BYTES as f64;

    Fig5Profile {
        dataset: workload.name.clone(),
        degrees: degrees.to_vec(),
        measured_bytes: measured,
        bottom_bytes: bottom,
        predicted_bytes: predicted,
        predicted_bottom,
        telemetry,
    }
}

/// Run both paper datasets at the given scale divisor.
pub fn run(scale: u64, seed: u64) -> Vec<Fig5Profile> {
    let twitter = VectorWorkload::twitter_like(64, scale, seed);
    let yahoo = VectorWorkload::yahoo_like(64, scale, seed + 1);
    vec![profile(&twitter, &[8, 4, 2]), profile(&yahoo, &[16, 4])]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scaling::scaled_nic;
    use kylix_net::LocalCluster;
    use kylix_netsim::SimCluster;

    /// The telemetry-derived volumes must equal the routing state's
    /// structural count byte for byte — and the simulator, running the
    /// same workload, must report exactly the same numbers through the
    /// same telemetry export. This is the Fig. 5 cross-substrate
    /// acceptance check.
    #[test]
    fn telemetry_volumes_match_routing_state_exactly() {
        let w = VectorWorkload::twitter_like(64, 4000, 5);
        let degrees = [8usize, 4, 2];
        let plan = NetworkPlan::new(&degrees);

        // Structural ground truth straight from the configured routing
        // tables (what this experiment measured before telemetry).
        let per_node: Vec<Vec<usize>> = LocalCluster::run(64, |mut comm| {
            let me = kylix_net::Comm::rank(&comm);
            let kylix = Kylix::new(plan.clone());
            let state = kylix
                .configure(&mut comm, &w.node_indices[me], &w.node_indices[me], 0)
                .unwrap();
            state.down_volume_elems()
        });
        let mut structural = vec![0u64; plan.layers()];
        for vols in &per_node {
            for (l, v) in vols.iter().enumerate() {
                structural[l] += *v as u64 * ELEM_BYTES;
            }
        }

        let thread = profile(&w, &degrees);
        assert_eq!(thread.measured_bytes, structural);
        assert_eq!(thread.telemetry.ranks.len(), 64);

        // Same workload on the simulator: identical counters.
        let cluster = SimCluster::new(64, scaled_nic(4000.0)).seed(5);
        cluster.run_all(|mut comm| {
            let me = kylix_net::Comm::rank(&comm);
            let kylix = Kylix::new(plan.clone());
            let mut state = kylix
                .configure(&mut comm, &w.node_indices[me], &w.node_indices[me], 0)
                .unwrap();
            let ones = vec![1.0f64; w.node_indices[me].len()];
            state.reduce(&mut comm, &ones, SumReducer).unwrap();
        });
        let sim = down_volume_from_telemetry(&cluster.telemetry().report(), plan.layers());
        assert_eq!(
            sim, structural,
            "simulator telemetry must agree byte-for-byte"
        );
    }

    #[test]
    fn kylix_shape_volume_decreases_down_layers() {
        for p in run(4000, 3) {
            let mut seq: Vec<f64> = p.measured_bytes.iter().map(|&b| b as f64).collect();
            seq.push(p.bottom_bytes as f64);
            for w in seq.windows(2) {
                assert!(
                    w[1] < w[0],
                    "{}: volumes must shrink down the network: {seq:?}",
                    p.dataset
                );
            }
        }
    }

    #[test]
    fn measured_matches_prop41_prediction() {
        for p in run(4000, 7) {
            for (l, (&m, &pr)) in p.measured_bytes.iter().zip(&p.predicted_bytes).enumerate() {
                let rel = (m as f64 - pr).abs() / pr;
                assert!(
                    rel < 0.15,
                    "{} layer {l}: measured {m} vs predicted {pr} (rel {rel:.3})",
                    p.dataset
                );
            }
            let relb = (p.bottom_bytes as f64 - p.predicted_bottom).abs() / p.predicted_bottom;
            assert!(relb < 0.15, "{} bottom: rel {relb:.3}", p.dataset);
        }
    }

    #[test]
    fn twitter_collapses_faster_than_yahoo() {
        // Paper: "The Twitter graph shrinks very fast at lower layers …
        // for the Yahoo graph the volume shrinking is less significant."
        let profiles = run(4000, 11);
        let shrink =
            |p: &Fig5Profile| -> f64 { p.bottom_bytes as f64 / p.measured_bytes[0] as f64 };
        let twitter = shrink(&profiles[0]);
        let yahoo = shrink(&profiles[1]);
        assert!(
            twitter < yahoo,
            "twitter bottom/top {twitter:.3} should shrink below yahoo {yahoo:.3}"
        );
    }
}
