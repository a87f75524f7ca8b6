//! Counting-allocator harness: the pooled hot path must make a
//! steady-state `reduce()` op at least 90 % cheaper in heap
//! allocations than the legacy allocate-per-message path.
//!
//! The baseline is a faithful reimplementation of the pre-pooling
//! reduce loop (allocate-per-message encode, decode to `Vec`, fresh
//! accumulator/gather/prev buffers per layer), written against the
//! same public routing tables and run in the same environment, so the
//! comparison cancels everything that is not the hot path itself.
//! Both paths are measured *marginally*: allocations at two operation
//! counts, subtracted, so one-time costs (thread spawn, configuration,
//! scratch warm-up) drop out. The pooled path also runs over loopback
//! TCP, where each cross-rank frame may cost its receiver the body
//! `Vec` and the `Bytes` around it, and nothing more. Finally
//! `allreduce_combined`, which runs the whole config pass every op, is
//! held to a budget of 72 allocations per rank-op.
//!
//! Everything lives in one `#[test]` — the counter is process-global
//! and concurrent tests would pollute each other's readings.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use kylix::codec::{decode_values, encode_values};
use kylix::config::MISSING;
use kylix::{Configured, Kylix, NetworkPlan};
use kylix_net::telemetry::{Clock, Counter, Telemetry};
use kylix_net::{Comm, LocalCluster, Phase, Tag, TcpCluster};
use kylix_sparse::vec::{gather, scatter_combine};
use kylix_sparse::SumReducer;

const M: usize = 4;
const DEGREES: [usize; 2] = [2, 2];

fn indices(rank: usize) -> Vec<u64> {
    // Overlapping sets so every layer carries real traffic.
    (0..24u64).map(|i| (i * 5 + rank as u64 * 3) % 48).collect()
}

/// The legacy reduce path, verbatim semantics: fixed-order receives,
/// one fresh allocation per buffer and per message. Uses only public
/// API so it stays compilable as the library evolves.
fn old_reduce<C: Comm>(state: &mut Configured, comm: &mut C, out_values: &[f64]) -> Vec<f64> {
    state.ops_issued += 1;
    let seq = state.channel.wrapping_add(state.ops_issued);
    let mut vals = vec![0.0f64; state.out0.len()];
    for (x, &sp) in out_values.iter().zip(&state.out_user_map) {
        vals[sp as usize] += *x;
    }
    for (layer, lr) in state.layers.iter().enumerate() {
        let tag = Tag::new(Phase::ReduceDown, layer as u16, seq);
        for (c, &peer) in lr.group.iter().enumerate() {
            if c != lr.my_pos {
                comm.send(peer, tag, encode_values(&vals[lr.out_spans[c].clone()]));
            }
        }
        let mut acc = vec![0.0f64; lr.out_union.len()];
        scatter_combine(
            &mut acc,
            &vals[lr.out_spans[lr.my_pos].clone()],
            &lr.out_maps[lr.my_pos],
            SumReducer,
        );
        for (c, &peer) in lr.group.iter().enumerate() {
            if c == lr.my_pos {
                continue;
            }
            let payload = comm.recv(peer, tag).unwrap();
            let got: Vec<f64> = decode_values(&payload).unwrap();
            scatter_combine(&mut acc, &got, &lr.out_maps[c], SumReducer);
        }
        vals = acc;
    }
    let mut uvals: Vec<f64> = state
        .bottom_in_to_out
        .iter()
        .map(|&p| if p == MISSING { 0.0 } else { vals[p as usize] })
        .collect();
    for (layer, lr) in state.layers.iter().enumerate().rev() {
        let tag = Tag::new(Phase::ReduceUp, layer as u16, seq);
        for (c, &peer) in lr.group.iter().enumerate() {
            if c != lr.my_pos {
                comm.send(peer, tag, encode_values(&gather(&uvals, &lr.in_maps[c])));
            }
        }
        let mut prev = vec![0.0f64; lr.in_prev_len()];
        let own = gather(&uvals, &lr.in_maps[lr.my_pos]);
        prev[lr.in_spans[lr.my_pos].clone()].copy_from_slice(&own);
        for (c, &peer) in lr.group.iter().enumerate() {
            if c == lr.my_pos {
                continue;
            }
            let payload = comm.recv(peer, tag).unwrap();
            let got: Vec<f64> = decode_values(&payload).unwrap();
            prev[lr.in_spans[c].clone()].copy_from_slice(&got);
        }
        uvals = prev;
    }
    state
        .in_user_map
        .iter()
        .map(|&p| uvals[p as usize])
        .collect()
}

/// One rank's part: configure, then `ops` steady-state reduce ops;
/// returns the last result.
fn rank_ops<C: Comm>(mut comm: C, ops: usize, pooled: bool) -> Vec<f64> {
    let me = comm.rank();
    let idx = indices(me);
    let vals: Vec<f64> = idx.iter().map(|&i| 1.0 + i as f64 * 0.5).collect();
    let kylix = Kylix::new(NetworkPlan::new(&DEGREES));
    let mut state = kylix.configure(&mut comm, &idx, &idx, 0).unwrap();
    let mut out = Vec::new();
    for _ in 0..ops {
        if pooled {
            state
                .reduce_into(&mut comm, &vals, SumReducer, &mut out)
                .unwrap();
        } else {
            out = old_reduce(&mut state, &mut comm, &vals);
        }
    }
    out
}

/// Run `ops` steady-state reduce ops on a fresh cluster and return the
/// global allocation count consumed, plus rank 0's last result. With
/// `telemetry`, the cluster records full per-rank counters and per-op
/// timings — the claim under test is that this instrumentation is
/// allocation-free in steady state.
fn measure(ops: usize, pooled: bool, telemetry: Option<&Telemetry>) -> (u64, Vec<f64>) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let body = |comm: kylix_net::ThreadComm| rank_ops(comm, ops, pooled);
    let results = match telemetry {
        Some(tel) => LocalCluster::run_with_telemetry(M, tel, body),
        None => LocalCluster::run(M, body),
    };
    let spent = ALLOCS.load(Ordering::Relaxed) - before;
    (spent, results.into_iter().next().unwrap())
}

/// [`measure`] for the pooled path over loopback TCP. Also returns the
/// messages the whole cluster received, counted by a telemetry shard
/// (the pooled+telemetry thread run shows the counting allocates
/// nothing).
fn measure_tcp(ops: usize) -> (u64, Vec<f64>, u64) {
    let tel = Telemetry::new(M, Clock::Wall);
    let before = ALLOCS.load(Ordering::Relaxed);
    let results = TcpCluster::run_with_telemetry(M, &tel, |comm| rank_ops(comm, ops, true));
    let spent = ALLOCS.load(Ordering::Relaxed) - before;
    let received = tel.report().total(Counter::MsgsRecv);
    (spent, results.into_iter().next().unwrap(), received)
}

/// Run `ops` `allreduce_combined` ops on a fresh cluster — each op
/// configures the sets anew, as minibatch workloads do — and return the
/// global allocation count consumed plus rank 0's last result.
fn measure_combined(ops: usize) -> (u64, Vec<f64>) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let results = LocalCluster::run(M, |mut comm| {
        let idx = indices(comm.rank());
        let vals: Vec<f64> = idx.iter().map(|&i| 1.0 + i as f64 * 0.5).collect();
        let kylix = Kylix::new(NetworkPlan::new(&DEGREES));
        let mut out = Vec::new();
        for op in 0..ops {
            out = kylix
                .allreduce_combined(&mut comm, &idx, &idx, &vals, SumReducer, op as u32)
                .unwrap()
                .0;
        }
        out
    });
    let spent = ALLOCS.load(Ordering::Relaxed) - before;
    (spent, results.into_iter().next().unwrap())
}

/// One test on purpose: see module docs.
#[test]
fn steady_state_reduce_allocates_90_percent_less() {
    const LO: usize = 8;
    const HI: usize = 56;
    // Marginal allocations per extra op, whole cluster. Order the runs
    // so each path's pair is adjacent (allocator state settles).
    let (old_lo, r_old_lo) = measure(LO, false, None);
    let (old_hi, r_old_hi) = measure(HI, false, None);
    let (new_lo, r_new_lo) = measure(LO, true, None);
    let (new_hi, r_new_hi) = measure(HI, true, None);
    let tel = Telemetry::new(M, Clock::Wall);
    let (tel_lo, r_tel_lo) = measure(LO, true, Some(&tel));
    let (tel_hi, r_tel_hi) = measure(HI, true, Some(&tel));
    let (tcp_lo, r_tcp_lo, recv_lo) = measure_tcp(LO);
    let (tcp_hi, r_tcp_hi, recv_hi) = measure_tcp(HI);
    let (comb_lo, r_comb_lo) = measure_combined(LO);
    let (comb_hi, r_comb_hi) = measure_combined(HI);
    // Sanity: both paths compute the same thing, bit for bit (the
    // pooled path parks float arrivals and combines them in
    // coordinate order, which replays the legacy fixed order).
    for (a, b) in [
        (&r_old_lo, &r_new_lo),
        (&r_old_hi, &r_new_hi),
        (&r_new_lo, &r_tel_lo),
        (&r_new_hi, &r_tel_hi),
        (&r_new_lo, &r_tcp_lo),
        (&r_new_hi, &r_tcp_hi),
        (&r_new_lo, &r_comb_lo),
        (&r_new_hi, &r_comb_hi),
    ] {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits(), "paths must agree: {x} vs {y}");
        }
    }
    let per_op_old = (old_hi.saturating_sub(old_lo)) as f64 / (HI - LO) as f64;
    let per_op_new = (new_hi.saturating_sub(new_lo)) as f64 / (HI - LO) as f64;
    let per_op_tel = (tel_hi.saturating_sub(tel_lo)) as f64 / (HI - LO) as f64;
    let per_op_tcp = (tcp_hi.saturating_sub(tcp_lo)) as f64 / (HI - LO) as f64;
    let per_rank_op_comb = (comb_hi.saturating_sub(comb_lo)) as f64 / ((HI - LO) * M) as f64;
    // A reduce op sends nothing to self (a rank's own share is only
    // noted as traffic), so every message received crossed a socket.
    let frames_per_op = (recv_hi - recv_lo) as f64 / (HI - LO) as f64;
    let per_frame_tcp = per_op_tcp / frames_per_op;
    eprintln!(
        "marginal allocs/op (whole {M}-rank cluster): \
         legacy {per_op_old:.1}, pooled {per_op_new:.1}, \
         pooled+telemetry {per_op_tel:.2}, \
         pooled over TCP {per_op_tcp:.2} ({frames_per_op:.0} frames/op, \
         {per_frame_tcp:.3} allocs/frame); \
         allreduce_combined {per_rank_op_comb:.1} per rank-op"
    );
    // The legacy path allocates per message and per layer; make sure
    // the measurement itself is alive before comparing.
    assert!(
        per_op_old >= 10.0,
        "legacy path should allocate heavily per op, got {per_op_old:.1}"
    );
    assert!(
        per_op_new <= per_op_old * 0.10,
        "steady-state pooled reduce must allocate >=90% less: \
         old {per_op_old:.1} allocs/op vs new {per_op_new:.1}"
    );
    // Telemetry is pure atomics on preallocated shards: enabling full
    // counters and per-op timing may not reintroduce steady-state heap
    // traffic to the hot path.
    assert!(
        per_op_tel <= 0.4,
        "telemetry-enabled steady state must stay allocation-free: \
         {per_op_tel:.2} allocs/op"
    );
    // Over TCP the receiver allocates each frame's body `Vec` and the
    // `Bytes` around it; the send side writes the pooled payload as is,
    // so a frame copy on the way out would show here. The 0.4 allocs/op
    // on top is the slack the thread runs get for queue growth.
    assert!(frames_per_op >= 1.0, "the TCP runs must send frames");
    assert!(
        per_op_tcp <= 2.0 * frames_per_op + 0.4,
        "TCP steady state must allocate at most 2 per cross-rank frame: \
         {per_frame_tcp:.3} allocs/frame ({per_op_tcp:.2} allocs/op)"
    );
    // A combined op configures from scratch and returns an owned
    // `Configured` (its sets, maps and spans), so it cannot be
    // allocation-free; the budget pins the config pass's copies,
    // per-level merge buffers and keyed input copies as gone (about 70
    // measured).
    assert!(
        per_rank_op_comb <= 72.0,
        "allreduce_combined must stay within 72 allocs per rank-op: \
         {per_rank_op_comb:.1}"
    );
}
