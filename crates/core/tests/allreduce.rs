//! End-to-end correctness of the Kylix sparse allreduce: every topology,
//! both execution substrates (real threads and the virtual-time
//! simulator), replication, failures, and property-based equivalence
//! with the sequential reference semantics.

use kylix::codec::{put_keys, put_values, seal};
use kylix::{
    reference_allreduce, Kylix, KylixError, NetworkPlan, NodeContribution, ReplicatedComm,
};
use kylix_net::{Comm, LocalCluster, Phase, Tag};
use kylix_netsim::{NicModel, SimCluster, Substrate};
use kylix_powerlaw::{DensityModel, PartitionGenerator};
use kylix_sparse::{BitOrReducer, IndexSet, MinReducer, SumReducer, Xoshiro256};

/// Build node contributions from a deterministic seed: random sparse out
/// sets with values, in sets drawn from the union of all out sets.
fn random_workload(m: usize, n_features: u64, seed: u64) -> Vec<NodeContribution<f64>> {
    let mut rng = Xoshiro256::new(seed);
    // First decide all out sets so in sets can draw from their union.
    let outs: Vec<Vec<u64>> = (0..m)
        .map(|_| {
            let k = 1 + rng.next_index(40);
            let mut v: Vec<u64> = (0..k).map(|_| rng.next_below(n_features)).collect();
            v.sort_unstable();
            v.dedup();
            v
        })
        .collect();
    let union: Vec<u64> = {
        let mut u: Vec<u64> = outs.iter().flatten().copied().collect();
        u.sort_unstable();
        u.dedup();
        u
    };
    (0..m)
        .map(|i| {
            let k = 1 + rng.next_index(30);
            let in_indices: Vec<u64> = (0..k).map(|_| union[rng.next_index(union.len())]).collect();
            let out_values: Vec<f64> = outs[i]
                .iter()
                .map(|_| (rng.next_f64() * 8.0).round() / 4.0)
                .collect();
            NodeContribution {
                in_indices,
                out_indices: outs[i].clone(),
                out_values,
            }
        })
        .collect()
}

/// Run Kylix on the thread cluster and compare against the reference;
/// `case` names the workload in failure messages.
fn check_on_threads(plan: &NetworkPlan, nodes: &[NodeContribution<f64>], case: &str) {
    let m = plan.size();
    assert_eq!(nodes.len(), m);
    let expected = reference_allreduce(nodes, SumReducer);
    let got: Vec<Vec<f64>> = LocalCluster::run(m, |mut comm| {
        let me = comm.rank();
        let kylix = Kylix::new(plan.clone());
        let mut state = kylix
            .configure(&mut comm, &nodes[me].in_indices, &nodes[me].out_indices, 0)
            .unwrap();
        state
            .reduce(&mut comm, &nodes[me].out_values, SumReducer)
            .unwrap()
    });
    for (rank, (g, e)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(g.len(), e.len(), "{case}: rank {rank} (plan {plan})");
        for (a, b) in g.iter().zip(e) {
            assert!(
                (a - b).abs() < 1e-9,
                "{case}: rank {rank}: got {a}, want {b} (plan {plan})"
            );
        }
    }
}

#[test]
fn all_topologies_match_reference_threads() {
    for (seed, degrees) in [
        (1u64, vec![4usize]), // direct, 4 nodes
        (2, vec![2, 2]),      // 2x2 butterfly
        (3, vec![8]),         // direct, 8 nodes
        (4, vec![2, 2, 2]),   // binary, 8 nodes
        (5, vec![4, 2]),      // heterogeneous, 8 nodes
        (6, vec![3, 2]),      // non-power-of-two, 6 nodes
        (7, vec![2, 3]),      // increasing degrees still work
        (8, vec![4, 2, 2]),   // 16 nodes
        (9, vec![5]),         // odd direct
        (10, vec![1]),        // single node
    ] {
        let plan = NetworkPlan::new(&degrees);
        let nodes = random_workload(plan.size(), 500, seed);
        check_on_threads(&plan, &nodes, &format!("seed {seed}"));
    }
}

#[test]
fn combined_mode_matches_separate_mode() {
    let plan = NetworkPlan::new(&[4, 2]);
    let nodes = random_workload(8, 300, 42);
    let expected = reference_allreduce(&nodes, SumReducer);
    let got: Vec<Vec<f64>> = LocalCluster::run(8, |mut comm| {
        let me = comm.rank();
        let kylix = Kylix::new(plan.clone());
        let (vals, _state) = kylix
            .allreduce_combined(
                &mut comm,
                &nodes[me].in_indices,
                &nodes[me].out_indices,
                &nodes[me].out_values,
                SumReducer,
                0,
            )
            .unwrap();
        vals
    });
    for (g, e) in got.iter().zip(&expected) {
        for (a, b) in g.iter().zip(e) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}

/// One rank's result from `allreduce_combined` and from `configure` +
/// `reduce` on the same contribution (channels chosen so the two
/// collectives' tags never meet).
fn combined_and_separate<C: Comm>(
    comm: &mut C,
    plan: &NetworkPlan,
    node: &NodeContribution<f64>,
) -> (Vec<f64>, Vec<f64>) {
    let kylix = Kylix::new(plan.clone());
    let (combined, _) = kylix
        .allreduce_combined(
            comm,
            &node.in_indices,
            &node.out_indices,
            &node.out_values,
            SumReducer,
            0,
        )
        .unwrap();
    let mut state = kylix
        .configure(comm, &node.in_indices, &node.out_indices, 1)
        .unwrap();
    let separate = state.reduce(comm, &node.out_values, SumReducer).unwrap();
    (combined, separate)
}

/// Combined mode folds its rider in the reduce pass's deterministic
/// order, so its results match `configure` + `reduce` bit for bit — on
/// values whose sums round, where any other order shows in the low bits.
#[test]
fn combined_mode_is_bit_identical_to_configure_then_reduce() {
    for (seed, degrees) in [
        (11u64, vec![4usize, 2]),
        (12, vec![3, 2]),
        (13, vec![2, 2, 2]),
    ] {
        let plan = NetworkPlan::new(&degrees);
        let m = plan.size();
        let mut nodes = random_workload(m, 30, seed);
        let mut rng = Xoshiro256::new(seed);
        for v in nodes.iter_mut().flat_map(|n| n.out_values.iter_mut()) {
            *v = rng.next_f64() * 2.0 - 0.7;
        }
        let on_threads = LocalCluster::run(m, |mut comm| {
            let me = comm.rank();
            combined_and_separate(&mut comm, &plan, &nodes[me])
        });
        let on_sim = SimCluster::new(m, NicModel::ec2_10g())
            .seed(seed)
            .run_all(|mut comm| {
                let me = comm.rank();
                combined_and_separate(&mut comm, &plan, &nodes[me])
            });
        for (substrate, runs) in [("threads", &on_threads), ("sim", &on_sim)] {
            for (rank, (combined, separate)) in runs.iter().enumerate() {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(combined),
                    bits(separate),
                    "{substrate}: plan {plan}, rank {rank}"
                );
            }
        }
    }
}

/// Config parts are taken as they land, so a late low coordinate does
/// not hold up the others; the combined rider is still folded in
/// coordinate order. Ranks here are slower the lower their coordinates,
/// so in every group the low coordinates land last, and the results
/// stay bit-identical to `configure` + `reduce` and to an undelayed run.
#[test]
fn combined_mode_is_bit_identical_when_low_coordinates_land_last() {
    let plan = NetworkPlan::new(&[4, 2]);
    let m = plan.size();
    let mut nodes = random_workload(m, 30, 21);
    let mut rng = Xoshiro256::new(21);
    // Spread exponents: the sums round differently in any other order.
    for v in nodes.iter_mut().flat_map(|n| n.out_values.iter_mut()) {
        let mag = rng.next_index(12) as i32 - 6;
        *v = (rng.next_below(1000) as f64 + 1.0) * 10f64.powi(mag);
    }
    let lateness = |rank: usize| -> usize {
        (0..plan.layers())
            .map(|l| plan.degrees()[l] - 1 - plan.coordinate(rank, l))
            .sum()
    };
    let undelayed = LocalCluster::run(m, |mut comm| {
        let me = comm.rank();
        combined_and_separate(&mut comm, &plan, &nodes[me])
    });
    let on_threads = LocalCluster::run(m, |mut comm| {
        let me = comm.rank();
        std::thread::sleep(std::time::Duration::from_millis(10 * lateness(me) as u64));
        combined_and_separate(&mut comm, &plan, &nodes[me])
    });
    let slow: Vec<(usize, f64)> = (0..m)
        .map(|r| (r, 1.0 + 4.0 * lateness(r) as f64))
        .collect();
    let on_sim = SimCluster::new(m, NicModel::ec2_10g())
        .stragglers(&slow)
        .run_all(|mut comm| {
            let me = comm.rank();
            combined_and_separate(&mut comm, &plan, &nodes[me])
        });
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for rank in 0..m {
        let want = bits(&undelayed[rank].0);
        assert_eq!(bits(&undelayed[rank].1), want, "undelayed: rank {rank}");
        for (substrate, runs) in [("threads", &on_threads), ("sim", &on_sim)] {
            let (combined, separate) = &runs[rank];
            assert_eq!(bits(combined), want, "{substrate}: combined, rank {rank}");
            assert_eq!(bits(separate), want, "{substrate}: separate, rank {rank}");
        }
    }
}

/// A peer whose combined frame is malformed — a value count that is not
/// its key count, or a value section cut short — fails the collective
/// with a codec error instead of a panic.
#[test]
fn malformed_combined_frames_are_codec_errors() {
    let keys = IndexSet::from_indices([1u64, 2, 3]);
    let mut miscounted = Vec::new();
    put_keys(&mut miscounted, keys.keys());
    put_values(&mut miscounted, &[1.0f64, 2.0]);
    put_keys(&mut miscounted, &[]);
    let mut truncated = Vec::new();
    put_keys(&mut truncated, keys.keys());
    truncated.extend_from_slice(&3u64.to_le_bytes());
    truncated.extend_from_slice(&[0u8; 16]);
    for (case, frame) in [
        ("miscounted", seal(miscounted)),
        ("truncated", seal(truncated)),
    ] {
        let results = LocalCluster::run(2, |mut comm| {
            if comm.rank() == 1 {
                // Play the peer: send the forged frame and leave.
                comm.send(0, Tag::new(Phase::Combined, 0, 0), frame.clone());
                return None;
            }
            let kylix = Kylix::new(NetworkPlan::direct(2));
            Some(
                kylix
                    .allreduce_combined(&mut comm, &[1], &[1, 2], &[1.0f64, 2.0], SumReducer, 0)
                    .map(|(v, _)| v),
            )
        });
        match &results[0] {
            Some(Err(KylixError::Codec { .. })) => {}
            other => panic!("{case}: expected a codec error, got {other:?}"),
        }
    }
}

#[test]
fn repeated_reduce_on_one_configuration() {
    // PageRank pattern: one configuration, many reduces with evolving
    // values.
    let plan = NetworkPlan::new(&[2, 2]);
    let nodes = random_workload(4, 200, 7);
    let iters = 5;
    let got: Vec<Vec<f64>> = LocalCluster::run(4, |mut comm| {
        let me = comm.rank();
        let kylix = Kylix::new(plan.clone());
        let mut state = kylix
            .configure(&mut comm, &nodes[me].in_indices, &nodes[me].out_indices, 0)
            .unwrap();
        let mut vals = nodes[me].out_values.clone();
        let mut out = Vec::new();
        for _ in 0..iters {
            out = state.reduce(&mut comm, &vals, SumReducer).unwrap();
            // Evolve values deterministically.
            for v in &mut vals {
                *v += 1.0;
            }
        }
        out
    });
    // After k iterations each node's values were bumped k-1 times; the
    // expected result comes from the bumped contributions.
    let bumped: Vec<NodeContribution<f64>> = nodes
        .iter()
        .map(|n| NodeContribution {
            in_indices: n.in_indices.clone(),
            out_indices: n.out_indices.clone(),
            out_values: n
                .out_values
                .iter()
                .map(|v| v + (iters - 1) as f64)
                .collect(),
        })
        .collect();
    let expected = reference_allreduce(&bumped, SumReducer);
    for (g, e) in got.iter().zip(&expected) {
        for (a, b) in g.iter().zip(e) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}

/// `reduce_into` overwrites a dirty, reused `out` on every substrate:
/// one buffer serves three ops on each of two configurations with
/// in-sets of different sizes, so it both shrinks and grows. The
/// in-sets also request indices no rank contributes, which read as the
/// identity. Quarter-valued sums are exact, so every result must be
/// bit-equal to `reduce` and to `reference_allreduce`.
#[test]
fn reduce_into_overwrites_a_reused_buffer() {
    let plan = NetworkPlan::new(&[2, 2]);
    // Out indices lie in 0..200, so the requests at 1000 and above meet
    // no contribution.
    let base = random_workload(4, 200, 31);
    let with_requests = |nodes: &[NodeContribution<f64>], extra: u64| -> Vec<_> {
        nodes
            .iter()
            .enumerate()
            .map(|(r, n)| {
                let mut n = n.clone();
                n.in_indices.extend([1000 + r as u64, 5000, 1000 + extra]);
                n
            })
            .collect()
    };
    let mut long = with_requests(&base, 7);
    for n in &mut long {
        let again = n.in_indices.clone();
        n.in_indices.extend(again);
    }
    let short: Vec<_> = with_requests(&base, 9)
        .into_iter()
        .map(|mut n| {
            n.in_indices.drain(..n.in_indices.len() / 2);
            n
        })
        .collect();
    let configs = [&long, &short];
    let ops = 3;
    // Op `k` scales every contribution by `k + 1`.
    let scaled = |nodes: &[NodeContribution<f64>], k: usize| -> Vec<NodeContribution<f64>> {
        nodes
            .iter()
            .map(|n| NodeContribution {
                out_values: n.out_values.iter().map(|v| v * (k + 1) as f64).collect(),
                ..n.clone()
            })
            .collect()
    };
    for s in Substrate::all(NicModel::ec2_10g(), 3) {
        let (got, _) = s.run(4, |mut comm| {
            let me = comm.rank();
            let kylix = Kylix::new(plan.clone());
            let mut states: Vec<_> = configs
                .iter()
                .enumerate()
                .map(|(i, nodes)| {
                    let n = &nodes[me];
                    let channel = (i as u32) << 16;
                    kylix
                        .configure(&mut comm, &n.in_indices, &n.out_indices, channel)
                        .unwrap()
                })
                .collect();
            let mut out = vec![f64::NAN; 3 * long[me].in_indices.len()];
            // (config, op) -> (reduce_into result, reduce result).
            let mut results = Vec::new();
            for k in 0..ops {
                for (state, nodes) in states.iter_mut().zip(configs) {
                    let vals = &scaled(nodes, k)[me].out_values;
                    state
                        .reduce_into(&mut comm, vals, SumReducer, &mut out)
                        .unwrap();
                    let fresh = state.reduce(&mut comm, vals, SumReducer).unwrap();
                    results.push((out.clone(), fresh));
                }
            }
            results
        });
        for k in 0..ops {
            for (i, nodes) in configs.iter().enumerate() {
                let expected = reference_allreduce(&scaled(nodes, k), SumReducer);
                for (me, rank) in got.iter().enumerate() {
                    let (into, fresh) = &rank[k * configs.len() + i];
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    let case = format!("{s} config {i} op {k} rank {me}");
                    assert_eq!(into.len(), nodes[me].in_indices.len(), "{case}");
                    assert_eq!(bits(into), bits(fresh), "{case}: reduce_into vs reduce");
                    assert_eq!(bits(into), bits(&expected[me]), "{case}: vs reference");
                }
            }
        }
    }
}

#[test]
fn duplicate_user_indices_are_combined_and_served() {
    // Out list contains the same index twice (values must pre-combine);
    // in list asks for an index twice (value must be duplicated).
    let got: Vec<Vec<f64>> = LocalCluster::run(2, |mut comm| {
        let kylix = Kylix::new(NetworkPlan::direct(2));
        let me = comm.rank();
        let (out_idx, out_val): (Vec<u64>, Vec<f64>) = if me == 0 {
            (vec![5, 5, 9], vec![1.0, 2.0, 4.0])
        } else {
            (vec![9], vec![10.0])
        };
        let mut state = kylix.configure(&mut comm, &[5, 9, 5], &out_idx, 0).unwrap();
        state.reduce(&mut comm, &out_val, SumReducer).unwrap()
    });
    for g in &got {
        assert_eq!(g, &vec![3.0, 14.0, 3.0]);
    }
}

/// Duplicate out indices combine in the caller's order, from the
/// identity: on every substrate, `reduce` and `allreduce_combined` over
/// out lists with repeats give, bit for bit, what the same values
/// pre-combined per rank in input order give with distinct indices.
/// The repeats at index 7 round differently in any other order
/// (`(1e16 + 1) - 1e16` is 0, `(1e16 - 1e16) + 1` is 1), and index 11
/// carries a lone `-0.0`.
#[test]
fn duplicate_out_indices_fold_in_the_callers_order() {
    let plan = NetworkPlan::new(&[2, 2]);
    let m = plan.size();
    // Rank r's out list: index 7 three times, index 11 once (-0.0), and
    // indices 20 + r and 3 twice each, the copies spread through the list.
    let dup_out = |r: usize| -> (Vec<u64>, Vec<f64>) {
        let f = r as f64;
        let pairs = [
            (7, 1e16),
            (20 + r as u64, 0.25 + f),
            (3, 1e-3 * (f + 1.0)),
            (7, 1.0),
            (11, -0.0),
            (20 + r as u64, 1e17),
            (7, -1e16),
            (3, 1e19),
        ];
        pairs.iter().copied().unzip()
    };
    // The same values pre-combined in input order from the identity,
    // one entry per distinct index, in first-occurrence order.
    let distinct = |idx: &[u64], vals: &[f64]| -> (Vec<u64>, Vec<f64>) {
        let (mut di, mut dv): (Vec<u64>, Vec<f64>) = (Vec::new(), Vec::new());
        for (&i, &v) in idx.iter().zip(vals) {
            match di.iter().position(|&d| d == i) {
                Some(p) => dv[p] += v,
                None => {
                    di.push(i);
                    dv.push(0.0 + v);
                }
            }
        }
        (di, dv)
    };
    let in_idx: Vec<u64> = vec![7, 11, 3, 20, 21, 22, 23, 7];
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for s in Substrate::all(NicModel::ec2_10g(), 5) {
        let (got, _) = s.run(m, |mut comm| {
            let me = comm.rank();
            let kylix = Kylix::new(plan.clone());
            let (out, vals) = dup_out(me);
            let (d_out, d_vals) = distinct(&out, &vals);
            let mut dup = kylix.configure(&mut comm, &in_idx, &out, 0).unwrap();
            let reduced = dup.reduce(&mut comm, &vals, SumReducer).unwrap();
            let (combined, _) = kylix
                .allreduce_combined(&mut comm, &in_idx, &out, &vals, SumReducer, 1 << 16)
                .unwrap();
            let mut pre = kylix
                .configure(&mut comm, &in_idx, &d_out, 2 << 16)
                .unwrap();
            let want = pre.reduce(&mut comm, &d_vals, SumReducer).unwrap();
            (reduced, combined, want)
        });
        for (rank, (reduced, combined, want)) in got.iter().enumerate() {
            assert_eq!(bits(reduced), bits(want), "{s} rank {rank}: reduce");
            assert_eq!(bits(combined), bits(want), "{s} rank {rank}: combined");
            // Each rank's repeats at index 7 pre-combine to 0, not 1.
            assert_eq!(want[0], 0.0, "{s} rank {rank}");
        }
    }
}

#[test]
fn empty_ranks_still_participate() {
    // Ranks with no index in or out (a machine holding an empty matrix
    // share) must not break either pass.
    let empty = NodeContribution {
        in_indices: vec![],
        out_indices: vec![],
        out_values: vec![],
    };
    let nodes = vec![
        NodeContribution {
            in_indices: vec![0, 1],
            out_indices: vec![1],
            out_values: vec![6.0],
        },
        empty.clone(),
        NodeContribution {
            in_indices: vec![1],
            out_indices: vec![],
            out_values: vec![],
        },
        empty,
    ];
    for degrees in [vec![4usize], vec![2, 2]] {
        check_on_threads(&NetworkPlan::new(&degrees), &nodes, "empty ranks");
    }
}

#[test]
fn min_and_bitor_reducers_work_end_to_end() {
    let got_min: Vec<Vec<u64>> = LocalCluster::run(4, |mut comm| {
        let kylix = Kylix::new(NetworkPlan::new(&[2, 2]));
        let me = comm.rank() as u64;
        let (vals, _) = kylix
            .allreduce_combined(&mut comm, &[0u64], &[0u64], &[me + 10], MinReducer, 0)
            .unwrap();
        vals
    });
    assert!(got_min.iter().all(|v| v[0] == 10));

    let got_or: Vec<Vec<u64>> = LocalCluster::run(4, |mut comm| {
        let kylix = Kylix::new(NetworkPlan::new(&[2, 2]));
        let me = comm.rank();
        let (vals, _) = kylix
            .allreduce_combined(&mut comm, &[3u64], &[3u64], &[1u64 << me], BitOrReducer, 0)
            .unwrap();
        vals
    });
    assert!(got_or.iter().all(|v| v[0] == 0b1111));
}

#[test]
fn simulator_and_threads_agree_on_results() {
    let plan = NetworkPlan::new(&[4, 2]);
    let nodes = random_workload(8, 400, 99);
    let on_threads: Vec<Vec<f64>> = LocalCluster::run(8, |mut comm| {
        let me = comm.rank();
        Kylix::new(plan.clone())
            .allreduce_combined(
                &mut comm,
                &nodes[me].in_indices,
                &nodes[me].out_indices,
                &nodes[me].out_values,
                SumReducer,
                0,
            )
            .unwrap()
            .0
    });
    let cluster = SimCluster::new(8, NicModel::ec2_10g()).seed(1);
    let on_sim: Vec<Vec<f64>> = cluster.run_all(|mut comm| {
        let me = comm.rank();
        Kylix::new(plan.clone())
            .allreduce_combined(
                &mut comm,
                &nodes[me].in_indices,
                &nodes[me].out_indices,
                &nodes[me].out_values,
                SumReducer,
                0,
            )
            .unwrap()
            .0
    });
    assert_eq!(on_threads, on_sim);
}

#[test]
#[allow(clippy::needless_range_loop)] // `phys` is a physical rank
fn replicated_allreduce_is_exact_without_failures() {
    let plan = NetworkPlan::new(&[2, 2]);
    let nodes = random_workload(4, 200, 17);
    let expected = reference_allreduce(&nodes, SumReducer);
    // 8 physical ranks = 4 logical x 2 replicas.
    let got: Vec<Vec<f64>> = LocalCluster::run(8, |comm| {
        let mut rc = ReplicatedComm::new(comm, 2);
        let me = rc.rank();
        Kylix::new(plan.clone())
            .allreduce_combined(
                &mut rc,
                &nodes[me].in_indices,
                &nodes[me].out_indices,
                &nodes[me].out_values,
                SumReducer,
                0,
            )
            .unwrap()
            .0
    });
    // Every physical replica of logical node i must hold i's result.
    for phys in 0..8 {
        let logical = phys % 4;
        for (a, b) in got[phys].iter().zip(&expected[logical]) {
            assert!((a - b).abs() < 1e-9, "phys {phys}");
        }
    }
}

#[test]
#[allow(clippy::needless_range_loop)] // `phys` is a physical rank
fn replicated_allreduce_survives_failures() {
    let plan = NetworkPlan::new(&[2, 2]);
    let nodes = random_workload(4, 200, 23);
    let expected = reference_allreduce(&nodes, SumReducer);
    // Kill one replica of logical 1 and one replica of logical 3 (both
    // groups keep a survivor).
    let dead = [1usize, 7];
    let got = LocalCluster::run(8, |comm| {
        if dead.contains(&comm.rank()) {
            return None;
        }
        let mut rc = ReplicatedComm::new(comm, 2);
        let me = rc.rank();
        let out = Kylix::new(plan.clone()).allreduce_combined(
            &mut rc,
            &nodes[me].in_indices,
            &nodes[me].out_indices,
            &nodes[me].out_values,
            SumReducer,
            0,
        );
        Some(out.unwrap().0)
    });
    for phys in 0..8 {
        if dead.contains(&phys) {
            assert!(got[phys].is_none());
            continue;
        }
        let logical = phys % 4;
        let g = got[phys].as_ref().expect("alive rank completed");
        for (a, b) in g.iter().zip(&expected[logical]) {
            assert!((a - b).abs() < 1e-9, "phys {phys}");
        }
    }
}

#[test]
fn replicated_on_simulator_with_failures() {
    let plan = NetworkPlan::new(&[2, 2]);
    let nodes = random_workload(4, 300, 31);
    let expected = reference_allreduce(&nodes, SumReducer);
    // Physical rank 5 is dead from the start.
    let cluster = SimCluster::new(8, NicModel::ec2_10g()).seed(3);
    let got = cluster.run_all(|comm| {
        if comm.rank() == 5 {
            return None;
        }
        let mut rc = ReplicatedComm::new(comm, 2);
        let me = rc.rank();
        let out = Kylix::new(plan.clone()).allreduce_combined(
            &mut rc,
            &nodes[me].in_indices,
            &nodes[me].out_indices,
            &nodes[me].out_values,
            SumReducer,
            0,
        );
        Some(out.unwrap().0)
    });
    for phys in [0usize, 1, 2, 3, 4, 6, 7] {
        let logical = phys % 4;
        let g = got[phys].as_ref().unwrap();
        for (a, b) in g.iter().zip(&expected[logical]) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}

#[test]
fn power_law_partitions_reduce_correctly() {
    // Realistic workload: Prop 4.1 partitions as out sets, in = own out.
    let m = 8;
    let model = DensityModel::new(2000, 1.2);
    let gen = PartitionGenerator::with_density(model, 0.15, 77);
    let nodes: Vec<NodeContribution<f64>> = (0..m)
        .map(|i| {
            let idx = gen.indices(i);
            NodeContribution {
                in_indices: idx.clone(),
                out_indices: idx.clone(),
                out_values: vec![1.0; idx.len()],
            }
        })
        .collect();
    let plan = NetworkPlan::new(&[4, 2]);
    check_on_threads(&plan, &nodes, "Prop. 4.1 partitions");
}

/// Arbitrary sparse workloads on small topologies (each shape in turn)
/// match the sequential reference exactly.
#[test]
fn prop_allreduce_matches_reference() {
    const SHAPES: [&[usize]; 7] = [&[2], &[3], &[4], &[2, 2], &[3, 2], &[2, 2, 2], &[4, 2]];
    for seed in 0..24u64 {
        let plan = NetworkPlan::new(SHAPES[seed as usize % SHAPES.len()]);
        let nodes = random_workload(plan.size(), 256, seed);
        check_on_threads(&plan, &nodes, &format!("seed {seed}"));
    }
}

/// The up pass returns each node exactly the values it asked for, in
/// its own request order, for any permutation of the in list.
#[test]
fn prop_request_order_is_respected() {
    for seed in 0..24u64 {
        let mut rng = Xoshiro256::new(seed);
        let mut in_idx: Vec<u64> = (0..20).map(|_| rng.next_below(64)).collect();
        rng.shuffle(&mut in_idx);
        let in0 = in_idx.clone();
        let got: Vec<Vec<f64>> = LocalCluster::run(2, |mut comm| {
            let kylix = Kylix::new(NetworkPlan::direct(2));
            // Both nodes contribute value = index at every index 0..64.
            let out: Vec<u64> = (0..64).collect();
            let vals: Vec<f64> = (0..64).map(|i| i as f64).collect();
            let mut state = kylix.configure(&mut comm, &in0, &out, 0).unwrap();
            state.reduce(&mut comm, &vals, SumReducer).unwrap()
        });
        for g in got {
            for (p, &idx) in in_idx.iter().enumerate() {
                assert!((g[p] - 2.0 * idx as f64).abs() < 1e-9, "seed {seed}");
            }
        }
    }
}
