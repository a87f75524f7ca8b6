//! The network-design workflow (paper §IV).
//!
//! Given the measurable properties of a workload — the number of
//! features `n`, the power-law exponent `α`, and the density `D₀` of one
//! node's partition — plus the network's minimum efficient packet size
//! (read off its Fig. 2 curve), pick the butterfly degrees:
//!
//! 1. invert the density curve to get the top-layer scaling factor `λ₀`;
//! 2. at each layer, compute the expected per-node data volume
//!    `P = (n / K) · f(K λ₀) · elem_bytes` (Prop. 4.1);
//! 3. choose the **largest** degree `d` (dividing the remaining node
//!    count) such that the per-neighbour packet `P / d` stays at or
//!    above the minimum efficient size — big degrees mean few layers
//!    (low latency), so we take the biggest the packet budget allows;
//! 4. descend (`K ← K·d`) and repeat until the degrees multiply to `m`.
//!
//! When even a 2-way split would fall below the packet floor, the
//! workflow takes the *smallest* available divisor instead — packets
//! stay as large as possible, conceding an extra layer. Because
//! per-node volume shrinks monotonically down a power-law reduction,
//! degrees come out non-increasing — the paper's observation that "for
//! optimum performance, the butterfly degrees also decrease down the
//! layers".
//!
//! The module also provides a closed-form time estimate for any plan
//! (an analytic LogGP-style cost model over a [`SimpleNic`]), which
//! ranks candidate plans.

use crate::plan::NetworkPlan;
use kylix_powerlaw::DensityModel;

/// The two NIC parameters the cost estimate reads: a fixed per-message
/// overhead and a link bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimpleNic {
    /// Fixed per-message cost, seconds.
    pub overhead: f64,
    /// Bandwidth, bytes/second.
    pub bandwidth: f64,
}

/// Workload + network inputs to the design workflow.
#[derive(Debug, Clone, Copy)]
pub struct DesignInput {
    /// Cluster size (the degrees will multiply to this).
    pub m: usize,
    /// The data's density model (n features, exponent α).
    pub model: DensityModel,
    /// Top-layer scaling factor (invert the measured density to get it:
    /// `model.lambda_for_density(d0)`).
    pub lambda0: f64,
    /// Bytes per vector element on the wire.
    pub elem_bytes: usize,
    /// Minimum efficient packet size in bytes (paper: ≈5 MB on EC2).
    pub min_packet_bytes: f64,
}

/// Divisors of `x` that are ≥ 2, ascending.
fn divisors(x: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut d = 2;
    while d * d <= x {
        if x.is_multiple_of(d) {
            out.push(d);
            if d != x / d {
                out.push(x / d);
            }
        }
        d += 1;
    }
    if x >= 2 {
        out.push(x);
    }
    out.sort_unstable();
    out
}

/// The §IV workflow: choose optimal layer degrees for a workload.
pub fn optimal_degrees(input: &DesignInput) -> NetworkPlan {
    assert!(input.m >= 1);
    let mut remaining = input.m;
    let mut agg = 1u64;
    let mut degrees = Vec::new();
    while remaining > 1 {
        let density = input.model.density(agg as f64 * input.lambda0);
        let per_node_bytes =
            (input.model.n as f64 / agg as f64) * density * input.elem_bytes as f64;
        let divs = divisors(remaining);
        // Largest degree whose per-neighbour packet clears the floor;
        // fall back to the smallest divisor (maximise packet size at the
        // cost of a layer) when nothing clears it.
        let d = divs
            .iter()
            .copied()
            .filter(|&d| per_node_bytes / d as f64 >= input.min_packet_bytes)
            .max()
            .unwrap_or(divs[0]);
        degrees.push(d);
        agg *= d as u64;
        remaining /= d;
    }
    if degrees.is_empty() {
        degrees.push(1);
    }
    NetworkPlan::new(&degrees)
}

/// Closed-form estimate of one reduce pass (down + up) over a plan:
/// per layer every node sends `d−1` packets of `P/d` bytes through one
/// NIC, so the layer costs `(d−1)·(o + P/(d·B))`, and the up pass
/// mirrors the down pass with the in-set volumes ≈ out-set volumes.
///
/// The estimate deliberately ignores receive CPU and jitter — it is a
/// *ranking* model (which plan is better), not a clock.
pub fn predict_reduce_time(
    plan: &NetworkPlan,
    model: &DensityModel,
    lambda0: f64,
    elem_bytes: usize,
    nic: &SimpleNic,
) -> f64 {
    let preds = model.layer_predictions(lambda0, plan.degrees());
    let mut total = 0.0;
    for (i, &d) in plan.degrees().iter().enumerate() {
        let per_node_bytes = preds[i].elems_per_node * elem_bytes as f64;
        let packet = per_node_bytes / d as f64;
        let layer = (d as f64 - 1.0) * (nic.overhead + packet / nic.bandwidth);
        total += 2.0 * layer; // down + up
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn twitterish() -> (DensityModel, f64) {
        let model = DensityModel::new(1 << 20, 1.1);
        let lambda0 = model.lambda_for_density(0.21);
        (model, lambda0)
    }

    #[test]
    fn divisors_are_correct() {
        assert_eq!(divisors(64), vec![2, 4, 8, 16, 32, 64]);
        assert_eq!(divisors(12), vec![2, 3, 4, 6, 12]);
        assert_eq!(divisors(7), vec![7]);
        assert_eq!(divisors(1), Vec::<usize>::new());
    }

    #[test]
    fn degrees_multiply_to_m_and_decrease() {
        let (model, lambda0) = twitterish();
        for m in [4usize, 8, 16, 32, 64, 128] {
            let plan = optimal_degrees(&DesignInput {
                m,
                model,
                lambda0,
                elem_bytes: 8,
                min_packet_bytes: 150_000.0,
            });
            assert_eq!(plan.size(), m, "m={m}");
            let ds = plan.degrees();
            assert!(
                ds.windows(2).all(|w| w[0] >= w[1]),
                "degrees must not increase down the layers: {ds:?}"
            );
        }
    }

    #[test]
    fn large_packets_choose_direct() {
        // If the data is huge relative to the packet floor, one direct
        // layer is optimal (packets stay efficient at d = m).
        let (model, lambda0) = twitterish();
        let plan = optimal_degrees(&DesignInput {
            m: 16,
            model,
            lambda0,
            elem_bytes: 8,
            min_packet_bytes: 1.0,
        });
        assert_eq!(plan.degrees(), &[16]);
    }

    #[test]
    fn tiny_data_falls_back_to_binary() {
        // Packet floor unreachable: every layer takes the smallest
        // divisor, i.e. the binary butterfly for power-of-two m.
        let (model, lambda0) = twitterish();
        let plan = optimal_degrees(&DesignInput {
            m: 16,
            model,
            lambda0,
            elem_bytes: 8,
            min_packet_bytes: 1e12,
        });
        assert_eq!(plan.degrees(), &[2, 2, 2, 2]);
    }

    #[test]
    fn moderate_floor_yields_heterogeneous_plan() {
        let (model, lambda0) = twitterish();
        let plan = optimal_degrees(&DesignInput {
            m: 64,
            model,
            lambda0,
            elem_bytes: 8,
            min_packet_bytes: 150_000.0,
        });
        // Heterogeneous: more than one layer, not all binary.
        assert!(plan.layers() >= 2, "{plan}");
        assert!(plan.degrees()[0] > 2, "{plan}");
        assert_eq!(plan.size(), 64);
    }

    #[test]
    fn predictor_prefers_optimal_over_direct_small_packets() {
        // Sparse data on a big cluster: direct all-to-all pays m−1
        // overheads on tiny packets; a nested plan must predict faster.
        let model = DensityModel::new(1 << 20, 1.3);
        let lambda0 = model.lambda_for_density(0.035);
        let nic = SimpleNic {
            overhead: 0.75e-3,
            bandwidth: 1.25e9,
        };
        let direct = predict_reduce_time(&NetworkPlan::direct(64), &model, lambda0, 8, &nic);
        let nested = predict_reduce_time(&NetworkPlan::new(&[8, 4, 2]), &model, lambda0, 8, &nic);
        assert!(
            nested < direct,
            "nested {nested} should beat direct {direct}"
        );
    }

    /// The paper's full-scale Twitter operating point: 60 M features,
    /// 64-way partition density 0.21, 10 Gb/s NIC with ≈1 ms message
    /// overhead (≈5 MB minimum efficient packet). This is the regime of
    /// Figs. 5/6, where the direct topology's packets fall well below
    /// the efficient floor.
    fn paper_scale() -> (DensityModel, f64, SimpleNic) {
        let model = DensityModel::new(60_000_000, 1.1);
        let lambda0 = model.lambda_for_density(0.21);
        let nic = SimpleNic {
            overhead: 1.0e-3,
            bandwidth: 1.25e9,
        };
        (model, lambda0, nic)
    }

    #[test]
    fn predictor_prefers_fewer_layers_than_binary_when_data_large() {
        let (model, lambda0, nic) = paper_scale();
        let binary = predict_reduce_time(&NetworkPlan::binary(64), &model, lambda0, 8, &nic);
        let nested = predict_reduce_time(&NetworkPlan::new(&[8, 4, 2]), &model, lambda0, 8, &nic);
        assert!(
            nested < binary,
            "8x4x2 {nested} should beat binary {binary}"
        );
    }

    #[test]
    fn predictor_prefers_nested_over_direct_at_paper_scale() {
        let (model, lambda0, nic) = paper_scale();
        let direct = predict_reduce_time(&NetworkPlan::direct(64), &model, lambda0, 8, &nic);
        let nested = predict_reduce_time(&NetworkPlan::new(&[8, 4, 2]), &model, lambda0, 8, &nic);
        assert!(
            nested < direct,
            "8x4x2 {nested} should beat direct {direct}"
        );
    }

    #[test]
    fn designed_plan_predicts_no_worse_than_standard_topologies() {
        let (model, lambda0, nic) = paper_scale();
        // Packet floor: 80 % utilisation on this NIC ≈ 5 MB, as in §IV.
        let input = DesignInput {
            m: 64,
            model,
            lambda0,
            elem_bytes: 8,
            min_packet_bytes: 5_000_000.0,
        };
        let designed = optimal_degrees(&input);
        let t_designed = predict_reduce_time(&designed, &model, lambda0, 8, &nic);
        for other in [NetworkPlan::direct(64), NetworkPlan::binary(64)] {
            let t_other = predict_reduce_time(&other, &model, lambda0, 8, &nic);
            assert!(
                t_designed <= t_other * 1.05,
                "designed {designed} ({t_designed}) vs {other} ({t_other})"
            );
        }
    }
}
