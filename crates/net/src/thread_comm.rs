//! The in-process endpoint: [`ThreadComm`] is the shared
//! [`Endpoint`] over [`ChannelLink`]s.
//!
//! A send pushes the message straight into the peer's funnel, an
//! unbounded [`crate::channel`]; dropping an endpoint pushes an `Eof`
//! into every peer's funnel, behind everything it sent, so peers see a
//! dead rank exactly as they see a closed socket on `TcpComm`.

use crate::channel::Sender;
use crate::endpoint::{build_cluster, Endpoint, Event, Link};
use crate::tag::Tag;
use bytes::Bytes;
use kylix_telemetry::Telemetry;

/// A rank's endpoint in an in-process thread cluster.
pub type ThreadComm = Endpoint<ChannelLink>;

/// The in-process link from one rank to a peer: a sender into the
/// peer's funnel.
pub struct ChannelLink {
    /// The rank this link sends from.
    src: usize,
    tx: Sender<Event>,
}

impl Link for ChannelLink {
    fn send(&mut self, tag: Tag, payload: Bytes) {
        // A disconnected receiver is a dead node: drop silently, exactly
        // like a packet to a crashed machine (§V handles recovery).
        let _ = self.tx.send(Event::Msg {
            src: self.src,
            tag,
            payload,
        });
    }

    fn close(&mut self) {
        let _ = self.tx.send(Event::Eof { src: self.src });
    }
}

impl ThreadComm {
    /// Build a full set of endpoints for an `m`-rank cluster. The caller
    /// hands one endpoint to each node thread; dropping an endpoint
    /// models a dead node: messages to it vanish, and its peers' receives
    /// from it fail with `Closed` once they have taken what it sent.
    pub fn make_cluster(m: usize) -> Vec<ThreadComm> {
        build_cluster(m, None, channel_links)
    }

    /// [`ThreadComm::make_cluster`] with a telemetry shard attached to
    /// each endpoint: sends, deliveries, and stash parks are counted
    /// per `(phase, layer)` in `tel.rank(r)`, and every `Comm` wrapper
    /// stacked on top records into the same shard.
    pub fn make_cluster_with_telemetry(m: usize, tel: &Telemetry) -> Vec<ThreadComm> {
        build_cluster(m, Some(tel), channel_links)
    }
}

/// Every rank's link to every other rank's funnel.
fn channel_links(funnels: &[Sender<Event>]) -> Vec<Vec<Option<ChannelLink>>> {
    (0..funnels.len())
        .map(|src| {
            funnels
                .iter()
                .enumerate()
                .map(|(dst, tx)| {
                    (dst != src).then(|| ChannelLink {
                        src,
                        tx: tx.clone(),
                    })
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::suite;

    const MAKE: suite::Make<ChannelLink> = ThreadComm::make_cluster;
    const MAKE_TEL: suite::MakeTel<ChannelLink> = ThreadComm::make_cluster_with_telemetry;

    #[test]
    fn ping_pong() {
        suite::ping_pong(MAKE);
    }

    #[test]
    fn out_of_order_selective_receive() {
        suite::out_of_order_selective_receive(MAKE);
    }

    #[test]
    fn same_tag_messages_keep_fifo_order() {
        suite::same_tag_messages_keep_fifo_order(MAKE);
    }

    #[test]
    fn self_send_loops_back_through_the_funnel() {
        suite::self_send_loops_back(MAKE);
    }

    #[test]
    fn single_rank_cluster_works() {
        suite::single_rank_cluster_works(MAKE);
    }

    #[test]
    fn recv_any_returns_first_available() {
        suite::recv_any_returns_first_available(MAKE);
    }

    #[test]
    fn timeout_on_silent_peer() {
        suite::timeout_on_silent_live_peer(MAKE);
    }

    #[test]
    fn recv_any_timeout_reports_the_sources() {
        suite::recv_any_timeout_reports_the_sources(MAKE);
    }

    #[test]
    fn all_to_all_exchange() {
        suite::all_to_all_exchange(MAKE);
    }

    #[test]
    fn send_to_dead_rank_is_dropped() {
        suite::send_to_dead_rank_is_dropped(MAKE);
    }

    #[test]
    fn peer_death_surfaces_closed_not_hang() {
        suite::peer_death_surfaces_closed_not_hang(MAKE);
    }

    #[test]
    fn messages_sent_before_death_still_deliver() {
        suite::messages_sent_before_death_still_deliver(MAKE);
    }

    #[test]
    fn recv_any_with_all_sources_dead_is_closed() {
        suite::recv_any_with_all_sources_dead_is_closed(MAKE);
    }

    #[test]
    fn recv_any_with_one_live_source_keeps_racing() {
        suite::recv_any_with_one_live_source_keeps_racing(MAKE);
    }

    #[test]
    fn drop_order_is_arbitrary_and_clean() {
        suite::drop_order_is_arbitrary_and_clean(MAKE);
    }

    #[test]
    fn sends_to_dropped_peer_return_promptly() {
        suite::sends_to_dropped_peer_return_promptly(MAKE);
    }

    #[test]
    fn discard_removes_stashed_copy() {
        suite::discard_removes_stashed_copy(MAKE);
    }

    #[test]
    fn discard_applies_to_future_arrival() {
        suite::discard_applies_to_future_arrival(MAKE);
    }

    #[test]
    fn raw_recv_yields_anything_and_times_out_as_none() {
        suite::raw_recv_yields_anything_and_times_out_as_none(MAKE);
    }

    #[test]
    fn telemetry_counts_sends_deliveries_and_parks() {
        suite::telemetry_counts_sends_deliveries_and_parks(MAKE_TEL);
    }

    #[test]
    fn telemetry_counts_discard_consumed_arrivals_as_received() {
        suite::telemetry_counts_discard_consumed_arrivals_as_received(MAKE_TEL);
    }

    #[test]
    fn in_order_arrivals_are_delivered_without_parking() {
        suite::in_order_arrivals_are_delivered_without_parking(MAKE_TEL);
    }

    #[test]
    fn now_is_monotone() {
        suite::now_is_monotone(MAKE);
    }
}
