//! Property tests on the simulator's physics: serialization, worker
//! pools, jitter, and the relationships between them.

use bytes::Bytes;
use kylix_net::{Comm, Phase, Tag};
use kylix_netsim::{NicModel, SimCluster};
use kylix_sparse::Xoshiro256;

/// Cases per property; the case number seeds its generator, and every
/// failure message names it.
const CASES: u64 = 24;

/// Uniform integer in `lo..hi`.
fn int(rng: &mut Xoshiro256, lo: u64, hi: u64) -> u64 {
    lo + rng.next_below(hi - lo)
}

fn t(seq: u32) -> Tag {
    Tag::new(Phase::App, 0, seq)
}

/// Stream `count` messages of `bytes` from 0 to 1; return receiver's
/// final clock.
fn stream_time(nic: NicModel, count: u32, bytes: usize, seed: u64) -> f64 {
    let cluster = SimCluster::new(2, nic).seed(seed);
    cluster.run_all(|mut c| {
        if c.rank() == 0 {
            for i in 0..count {
                c.send(1, t(i), Bytes::from(vec![0u8; bytes]));
            }
            0.0
        } else {
            for i in 0..count {
                c.recv(0, t(i)).unwrap();
            }
            c.now()
        }
    })[1]
}

/// More messages can never finish earlier.
#[test]
fn monotone_in_message_count() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256::new(seed);
        let count = int(&mut rng, 1, 20) as u32;
        let bytes = int(&mut rng, 1, 50_000) as usize;
        let nic = NicModel::ec2_10g_nojitter();
        let a = stream_time(nic, count, bytes, 1);
        let b = stream_time(nic, count + 1, bytes, 1);
        assert!(
            b >= a,
            "seed {seed}: {count} msgs: {a} vs {}: {b}",
            count + 1
        );
    }
}

/// Bigger payloads can never finish earlier.
#[test]
fn monotone_in_bytes() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256::new(seed);
        let count = int(&mut rng, 1, 10) as u32;
        let bytes = int(&mut rng, 1, 50_000) as usize;
        let nic = NicModel::ec2_10g_nojitter();
        let a = stream_time(nic, count, bytes, 1);
        let b = stream_time(nic, count, bytes * 2, 1);
        assert!(b >= a, "seed {seed}");
    }
}

/// More workers can never hurt.
#[test]
fn monotone_in_workers() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256::new(seed);
        let count = int(&mut rng, 2, 16) as u32;
        let workers = int(&mut rng, 1, 8) as usize;
        let mut nic = NicModel::ideal(1e9);
        nic.cpu_per_msg = 1e-3;
        let slow = stream_time(nic.with_workers(workers), count, 1000, 1);
        let fast = stream_time(nic.with_workers(workers * 2), count, 1000, 1);
        assert!(fast <= slow + 1e-12, "seed {seed}");
    }
}

/// Virtual time equals the closed form for a single message.
#[test]
fn single_message_closed_form() {
    for seed in 0..CASES {
        let bytes = int(&mut Xoshiro256::new(seed), 1, 10_000_000) as usize;
        let nic = NicModel::ec2_10g_nojitter();
        let got = stream_time(nic, 1, bytes, 1);
        let want = nic.xfer_time(bytes) + nic.latency + nic.proc_time(bytes);
        assert!((got - want).abs() < 1e-12, "seed {seed}: {got} vs {want}");
    }
}

/// Jitter is always a positive multiplier: payload delivery still
/// happens and results stay deterministic per seed.
#[test]
fn jitter_keeps_time_finite_and_deterministic() {
    for seed in 0..CASES {
        let nic = NicModel::ec2_10g().with_jitter(2.0);
        let a = stream_time(nic, 5, 10_000, seed);
        let b = stream_time(nic, 5, 10_000, seed);
        assert!(a.is_finite() && a > 0.0, "seed {seed}");
        assert_eq!(a, b, "seed {seed}");
    }
}

/// The NIC serialises sends: the receiver cannot drain `k` messages
/// faster than the sender's NIC can emit them.
#[test]
fn sender_nic_is_the_floor() {
    let nic = NicModel::ec2_10g_nojitter();
    let k = 16u32;
    let bytes = 250_000;
    let total = stream_time(nic, k, bytes, 1);
    let emit_floor = k as f64 * nic.xfer_time(bytes);
    assert!(
        total >= emit_floor,
        "drained in {total}, but emission takes {emit_floor}"
    );
    // And with plentiful workers it is within one latency+proc of it.
    assert!(total <= emit_floor + nic.latency + nic.proc_time(bytes) + 1e-9);
}

/// Two independent sender pairs do not interact: times match a single
/// pair run (no false sharing between unrelated flows).
#[test]
fn independent_flows_do_not_interfere() {
    let nic = NicModel::ec2_10g_nojitter();
    let single = stream_time(nic, 8, 100_000, 3);
    let cluster = SimCluster::new(4, nic).seed(3);
    let times = cluster.run_all(|mut c| match c.rank() {
        0 => {
            for i in 0..8 {
                c.send(1, t(i), Bytes::from(vec![0u8; 100_000]));
            }
            0.0
        }
        2 => {
            for i in 0..8 {
                c.send(3, t(i), Bytes::from(vec![0u8; 100_000]));
            }
            0.0
        }
        r => {
            let from = r - 1;
            for i in 0..8 {
                c.recv(from, t(i)).unwrap();
            }
            c.now()
        }
    });
    assert!((times[1] - single).abs() < 1e-12);
    assert!((times[3] - single).abs() < 1e-12);
}

/// Tracing records every simulated message with coherent timestamps.
#[test]
fn trace_records_all_messages() {
    let nic = NicModel::ec2_10g_nojitter();
    let cluster = SimCluster::new(3, nic).traced();
    cluster.run_all(|mut c| {
        let me = c.rank();
        for to in 0..3 {
            if to != me {
                c.send(to, t(me as u32), Bytes::from(vec![0u8; 1000]));
            }
        }
        for from in 0..3 {
            if from != me {
                c.recv(from, t(from as u32)).unwrap();
            }
        }
    });
    // Each send pushes an emit/deliver pair onto its sender's ring.
    let report = cluster.telemetry().report();
    for (rank, r) in report.ranks.iter().enumerate() {
        assert_eq!(
            r.events_total,
            r.events.len() as u64,
            "rank {rank}: ring wrapped"
        );
        assert_eq!(r.events.len(), 4, "rank {rank}: 2 peers x emit+deliver");
        for pair in r.events.chunks(2) {
            let (emit, deliver) = (&pair[0], &pair[1]);
            assert_eq!((emit.label, deliver.label), ("sim_emit", "sim_deliver"));
            assert!(deliver.t > emit.t, "delivery after emission");
            assert_eq!((emit.value, deliver.value), (1000, 1000));
            assert_eq!((emit.layer, deliver.layer), (0, 0));
        }
    }
}

/// A straggler slows its own path proportionally and cannot speed
/// anything up.
#[test]
fn stragglers_slow_their_paths() {
    let nic = NicModel::ec2_10g_nojitter();
    let nominal = {
        let cluster = SimCluster::new(2, nic);
        cluster.run_all(|mut c| {
            if c.rank() == 0 {
                c.send(1, t(0), Bytes::from(vec![0u8; 100_000]));
                0.0
            } else {
                c.recv(0, t(0)).unwrap();
                c.now()
            }
        })[1]
    };
    let slowed = {
        let cluster = SimCluster::new(2, nic).stragglers(&[(0, 3.0)]);
        cluster.run_all(|mut c| {
            if c.rank() == 0 {
                c.send(1, t(0), Bytes::from(vec![0u8; 100_000]));
                0.0
            } else {
                c.recv(0, t(0)).unwrap();
                c.now()
            }
        })[1]
    };
    assert!(slowed > nominal * 1.5, "{nominal} -> {slowed}");
    // Sender emission tripled; receive path unchanged.
    let expect = 3.0 * nic.xfer_time(100_000) + nic.latency + nic.proc_time(100_000);
    assert!((slowed - expect).abs() < 1e-12, "{slowed} vs {expect}");
}
