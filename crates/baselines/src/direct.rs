//! Direct all-to-all sparse allreduce (paper §II.A.2).
//!
//! Every feature has a *home node* (the owner of its hash range, the
//! same balanced assignment Kylix's bottom layer produces); each node
//! ships its contributions to the homes, homes aggregate, and ship
//! requested values back. This is precisely the one-layer butterfly
//! `[m]`, so the comparator *is* the Kylix engine run with
//! `kylix::NetworkPlan::direct(m)` — one code path, audited once, for
//! both the paper's system and its main comparator.
//!
//! The pathology the paper hammers on: with `m` nodes and per-node data
//! volume `P`, every message carries only `P/m` bytes — on 64 nodes the
//! Twitter-scale workload drops to ~0.4 MB packets, a third of the
//! network's efficient throughput (Fig. 2), and the per-node message
//! count grows linearly with `m`, so scaling *up* the cluster slows the
//! collective *down*.

#[cfg(test)]
mod tests {
    use kylix::NetworkPlan;

    #[test]
    fn message_count_grows_linearly() {
        // The §II scaling pathology, structurally.
        assert_eq!(NetworkPlan::direct(8).messages_per_node(), 7);
        assert_eq!(NetworkPlan::direct(64).messages_per_node(), 63);
    }
}
