#pragma once
// Transport: message delivery + message-pool access, abstracted over the
// simulated network (sim::Network) and the thread backend's mailboxes.
//
// The CPU-model hooks (charge_cpu, node_paused) exist so the simulator can
// model service time and fault injection; the thread backend runs on real
// CPUs, so they are no-ops there.

#include <cstdint>
#include <functional>

#include "common/types.h"
#include "wire/messages.h"

namespace paris::runtime {

/// CPU cost (µs) of processing a message at a node; nullable. Only the sim
/// backend consumes it — real threads pay real cycles.
using ServiceFn = std::function<std::uint64_t(const wire::Message&)>;

class Transport {
 public:
  virtual ~Transport() = default;

  virtual void send(NodeId from, NodeId to, wire::MessagePtr msg) = 0;

  /// Timed delivery (decorator support): deliver msg at absolute executor
  /// time `at_us`. The thread backend parks the encoded envelope at the
  /// receiver and clamps per-channel so timed sends can never violate a
  /// channel's FIFO order (TCP model) — but mixing send() and send_at() on
  /// one channel CAN reorder, so a delaying decorator must route every
  /// message through send_at. Backends without timed delivery (the sim
  /// network models latency itself) deliver immediately.
  virtual void send_at(NodeId from, NodeId to, wire::MessagePtr msg, std::uint64_t at_us) {
    (void)at_us;
    send(from, to, std::move(msg));
  }

  /// True when a<->b were registered as colocated (a client and its
  /// coordinator): the link model gives such pairs loopback delay, like
  /// the simulated network does.
  virtual bool colocated(NodeId a, NodeId b) const {
    (void)a;
    (void)b;
    return false;
  }

  /// Pool the actor `self` builds outgoing messages from. The sim backend
  /// has one pool (single-threaded); the thread backend returns the pool of
  /// self's worker, which only that worker's thread may touch.
  virtual wire::MessagePool& msg_pool(NodeId self) = 0;

  virtual DcId dc_of(NodeId n) const = 0;

  /// Fault injection (sim only): a paused node's timers skip work. The
  /// thread backend never pauses nodes.
  virtual bool node_paused(NodeId n) const = 0;

  /// Accounts CPU consumed by background work (sim cost model; no-op for
  /// threads).
  virtual void charge_cpu(NodeId n, std::uint64_t us) = 0;

  virtual std::uint64_t total_bytes_sent() const = 0;
};

}  // namespace paris::runtime
