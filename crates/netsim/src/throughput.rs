//! Effective-throughput curves (paper Fig. 2).
//!
//! The paper measures, on its EC2 testbed, the achieved throughput of a
//! message stream as a function of packet size: small packets waste the
//! link on per-message overhead, and ≈5 MB is the smallest size that
//! masks it. We regenerate the curve two ways — in closed form from the
//! NIC model and *measured* through the simulator by streaming packets
//! between two simulated nodes — and the tests pin them to each other.

use crate::nic::NicModel;
use crate::simcomm::SimCluster;
use bytes::Bytes;
use kylix_net::{Comm, Phase, Tag};

/// One point of the Fig. 2 curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputPoint {
    /// Packet size, bytes.
    pub packet_bytes: usize,
    /// Achieved throughput, bytes/second.
    pub throughput: f64,
    /// Fraction of the link's peak bandwidth.
    pub utilisation: f64,
}

/// Measure achieved throughput by streaming `count` packets of
/// `packet_bytes` from one simulated node to another and dividing the
/// total payload by the virtual completion time.
pub fn measure_throughput(nic: NicModel, packet_bytes: usize, count: usize) -> ThroughputPoint {
    assert!(count > 0);
    let cluster = SimCluster::new(2, nic);
    let times = cluster.run_all(|mut c| {
        if c.rank() == 0 {
            for i in 0..count {
                c.send(
                    1,
                    Tag::new(Phase::App, 0, i as u32),
                    Bytes::from(vec![0u8; packet_bytes]),
                );
            }
            0.0
        } else {
            for i in 0..count {
                c.recv(0, Tag::new(Phase::App, 0, i as u32)).unwrap();
            }
            c.now()
        }
    });
    let total = (packet_bytes * count) as f64;
    let throughput = total / times[1];
    ThroughputPoint {
        packet_bytes,
        throughput,
        utilisation: throughput / nic.bandwidth,
    }
}

/// The standard Fig. 2 sweep: packet sizes from 64 KB to 32 MB.
pub fn fig2_packet_sizes() -> Vec<usize> {
    let mut v = Vec::new();
    let mut p = 64 * 1024;
    while p <= 32 * 1024 * 1024 {
        v.push(p);
        p *= 2;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_matches_closed_form() {
        let nic = NicModel::ec2_10g_nojitter();
        for &p in &[100_000usize, 1_000_000, 8_000_000] {
            let measured = measure_throughput(nic, p, 32);
            let closed = nic.effective_throughput(p);
            // Streaming amortises latency/processing of all but the last
            // packet; allow a few percent of tail effect.
            let rel = (measured.throughput - closed).abs() / closed;
            assert!(
                rel < 0.1,
                "{p}B: measured {} vs model {closed}",
                measured.throughput
            );
        }
    }

    #[test]
    fn fig2_shape_rises_and_saturates() {
        // The Fig. 2 sweep, streaming enough packets to amortise warmup
        // and the trailing receive-processing tail.
        let nic = NicModel::ec2_10g_nojitter();
        let pts: Vec<ThroughputPoint> = fig2_packet_sizes()
            .into_iter()
            .map(|p| measure_throughput(nic, p, 64))
            .collect();
        for w in pts.windows(2) {
            assert!(
                w[1].throughput >= w[0].throughput * 0.99,
                "throughput should not drop with packet size"
            );
        }
        let first = pts.first().unwrap();
        let last = pts.last().unwrap();
        assert!(first.utilisation < 0.15, "64KB should be inefficient");
        assert!(last.utilisation > 0.9, "32MB should saturate");
    }

    #[test]
    fn five_megabyte_is_minimum_efficient() {
        // The paper's threshold: ≈5 MB packets reach ≥80 % of peak.
        let nic = NicModel::ec2_10g_nojitter();
        let at5 = measure_throughput(nic, 5_000_000, 16);
        assert!(at5.utilisation > 0.75, "5MB: {}", at5.utilisation);
        let at04 = measure_throughput(nic, 400_000, 16);
        assert!(
            (0.2..0.4).contains(&at04.utilisation),
            "0.4MB: {}",
            at04.utilisation
        );
    }
}
