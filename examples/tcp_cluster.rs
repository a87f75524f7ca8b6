//! The same sparse allreduce as `quickstart`, but over **real loopback
//! TCP sockets**: every inter-rank message leaves the process through
//! the OS network stack as a length-prefixed frame and comes back in.
//!
//! Nothing about the protocol code changes — the `Substrate` value is
//! the only difference from the in-process version, which is the whole
//! point of the substrate abstraction: code developed against
//! `LocalCluster` deploys onto sockets untouched. Run with:
//!
//! ```text
//! cargo run --example tcp_cluster
//! ```

use kylix::{Kylix, NetworkPlan};
use kylix_net::telemetry::Counter;
use kylix_net::Comm;
use kylix_netsim::Substrate;
use kylix_sparse::SumReducer;

fn main() {
    let m = 8;
    let plan = NetworkPlan::new(&[4, 2]);
    println!(
        "topology: {} ({} nodes, {} layers), transport: loopback TCP",
        plan,
        plan.size(),
        plan.layers()
    );

    // Telemetry rides along unchanged too; afterwards it shows how many
    // payload bytes actually crossed the sockets.
    let (results, tel) = Substrate::Tcp.run(m, |mut comm| {
        let me = comm.rank() as u64;
        let kylix = Kylix::new(NetworkPlan::new(&[4, 2]));

        // Node i contributes 1.0 at indices {i, i+1, 2i}, asks for the
        // totals at {i, 7} — identical to the quickstart example.
        let out_indices = [me, me + 1, 2 * me];
        let out_values = [1.0f64, 1.0, 1.0];
        let in_indices = [me, 7];

        let (got, _state) = kylix
            .allreduce_combined(
                &mut comm,
                &in_indices,
                &out_indices,
                &out_values,
                SumReducer,
                0,
            )
            .expect("allreduce over TCP");
        (me, got)
    });

    println!("\nper-node results (value at own index, value at index 7):");
    for (me, got) in &results {
        println!("  node {me}: v[{me}] = {:.0}, v[7] = {:.0}", got[0], got[1]);
    }
    assert!(results.iter().all(|(_, g)| g[1] == 2.0));

    let rep = tel.report();
    println!(
        "\ntraffic: {} payload bytes in {} messages crossed real sockets \
         behind 12-byte frame headers; {} bytes in {} own parts stayed \
         in-process",
        rep.total(Counter::BytesSent),
        rep.total(Counter::MsgsSent),
        rep.total(Counter::SelfBytes),
        rep.total(Counter::SelfMsgs),
    );
    println!("index 7 received contributions from nodes 6 and 7: total 2.0 ✓");
}
