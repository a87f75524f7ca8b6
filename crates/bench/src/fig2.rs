//! Fig. 2 — network throughput vs packet size.
//!
//! The paper measures, on its EC2 testbed, rising throughput with
//! packet size that saturates near peak around 5 MB; 0.4 MB packets
//! achieve ≈30 % of peak. We regenerate the curve by streaming packets
//! between two simulated nodes (the measured series) next to the
//! closed-form model curve.

use kylix_netsim::throughput::{fig2_packet_sizes, measure_throughput, ThroughputPoint};
use kylix_netsim::NicModel;

/// One row of the Fig. 2 table.
#[derive(Debug, Clone, Copy)]
pub struct Fig2Row {
    /// Packet size in bytes.
    pub packet_bytes: usize,
    /// Simulator-measured throughput, Gb/s.
    pub measured_gbps: f64,
    /// Closed-form model throughput, Gb/s.
    pub model_gbps: f64,
    /// Measured fraction of peak bandwidth.
    pub utilisation: f64,
}

/// Run the Fig. 2 sweep on the paper-calibrated (full-scale) NIC.
pub fn run() -> Vec<Fig2Row> {
    let nic = NicModel::ec2_10g_nojitter();
    fig2_packet_sizes()
        .into_iter()
        .map(|p| {
            let ThroughputPoint {
                throughput,
                utilisation,
                ..
            } = measure_throughput(nic, p, 64);
            Fig2Row {
                packet_bytes: p,
                measured_gbps: throughput * 8.0 / 1e9,
                model_gbps: nic.effective_throughput(p) * 8.0 / 1e9,
                utilisation,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_matches_paper_shape() {
        let rows = run();
        // Monotone rising.
        for w in rows.windows(2) {
            assert!(w[1].measured_gbps >= w[0].measured_gbps * 0.99);
        }
        // 64KB is inefficient, ~30% at 0.4MB (closest sampled size
        // 512KB ≈ upper 30s%), saturation ≥ 90% at the top.
        assert!(rows[0].utilisation < 0.15, "64KB: {}", rows[0].utilisation);
        let at512k = rows.iter().find(|r| r.packet_bytes == 512 * 1024).unwrap();
        assert!(
            (0.25..0.45).contains(&at512k.utilisation),
            "512KB: {}",
            at512k.utilisation
        );
        assert!(rows.last().unwrap().utilisation > 0.9);
        // Measured tracks the model within a few percent.
        for r in &rows {
            let rel = (r.measured_gbps - r.model_gbps).abs() / r.model_gbps;
            assert!(rel < 0.1, "{}B: {rel}", r.packet_bytes);
        }
    }

    #[test]
    fn min_efficient_packet_is_about_5mb() {
        let nic = NicModel::ec2_10g();
        let p = nic.min_efficient_packet(0.8);
        assert!(
            (2.5e6..7.5e6).contains(&p),
            "80% point at {p} bytes, paper says ≈5MB"
        );
    }
}
