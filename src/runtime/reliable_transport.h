#pragma once
// ReliableTransport: at-least-once delivery with exactly-once handoff for
// the thread runtime (DESIGN.md §9).
//
// The backend's channels are FIFO but — once a lossy LinkTransport episode
// or the fuzzer sits below — no longer lossless, which the paper's TCP
// assumption requires. This decorator restores the assumption on top of a
// lossy stack, the way TCP restores it on top of IP:
//
//   protocol -> [ReliableTransport] -> [Fuzz] -> [Link] -> backend
//
//  * Every protocol message on a framed channel (see the framing rule
//    below) is wrapped in a wire::ReliableFrame carrying a
//    per-channel 1-based sequence number; the payload is the inner message's
//    encode_message() bytes (frames come from the sender worker's pool, so
//    the wrapping is allocation-free in steady state).
//  * The sender keeps unacknowledged frames in a per-channel window
//    (contiguous seqs, deque of recycled MessagePtrs), transmitting at
//    most `max_in_flight` of them at a time — the rest queue and are
//    ack-clocked out as the window head drains, so a blackout-era backlog
//    costs one bounded burst per retransmission probe instead of a
//    quadratic full-backlog resend. A periodic per-node timer retransmits
//    the in-flight burst once its oldest frame has been silent for the
//    RTO, with exponential backoff (capped) while a channel makes no
//    progress, so a long partition is probed, not flooded.
//  * The receiving side interposes an Endpoint actor between the backend
//    and the real server/client. It delivers frames strictly in sequence
//    order (duplicates are discarded; frames past a loss-induced gap are
//    BUFFERED, bounded, and drained the moment the gap fills), acks
//    cumulatively on every frame, and hands each decoded inner message to
//    the real actor exactly once — redelivery below, exactly-once above.
//    Buffering makes single-loss recovery cost one head retransmission
//    instead of a full go-back-N round on a fat WAN pipe.
//  * Latest-wins periodic messages (Heartbeat, GossipUp, GossipRoot,
//    UstDown) are COALESCED: when a newer one is framed while an older one
//    is still unacked, the older window entry is replaced by an empty
//    placeholder frame (same seq, no payload). Retransmission then carries
//    one live copy of such a message per channel instead of a partition-
//    long backlog; the receiver treats an empty payload as "advance the
//    sequence, deliver nothing".
//
// Framing rule: a channel is framed only when something below the layer can
// lose a frame on it. The owner passes that rule at construction (a
// per-destination predicate; none = frame every channel). Every other send
// goes to the inner transport unframed, through the same send/send_at the
// caller used, and the receiving endpoint passes unframed messages straight
// through: an in-process mailbox is already lossless and FIFO, so such a
// channel needs no seq, no ack, no window entry and no second encode.
// Deployment frames every channel when a link episode or the fuzzer sits
// below, and otherwise only the channels to
// nodes another process hosts (a dead socket drops what it held).
//
// Acks (wire::ReliableAck) are sent through the inner transport UNframed:
// they are idempotent and self-healing — a lost ack is re-elicited by the
// retransmission it fails to suppress, a duplicate or stale ack is ignored.
//
// Determinism: the reliable layer adds no randomness of its own. Its
// retransmissions are driven by real time, so (like the thread runtime
// itself) their schedule is not reproducible — but any link drops below
// stay seed-deterministic per channel, and the layer's guarantee (exactly-
// once, in order, per channel) is schedule-independent, which is what the
// exactness/causal checkers verify.

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/fields.h"
#include "runtime/actor.h"
#include "runtime/executor.h"
#include "runtime/link_transport.h"
#include "runtime/transport.h"

namespace paris::runtime {

struct ReliableConfig {
  /// Retransmit the window once its oldest frame has been unacked this long:
  /// the fixed RTO with adaptive_rto off, else the RTO of a channel before
  /// its first RTT sample. Also derives the scan period and the
  /// fast-retransmit guard below.
  std::uint64_t rto_us = 100'000;
  /// Backoff cap: consecutive silent retransmission rounds double the
  /// effective RTO up to this bound (recovery latency after a heal is at
  /// most this plus one scan period).
  std::uint64_t max_rto_us = 2'000'000;
  /// Window-scan timer period; 0 derives rto_us / 2.
  std::uint64_t scan_period_us = 0;
  /// Fast-retransmit guard: a stale ack (the receiver is stuck behind a
  /// gap) triggers an immediate retransmission of the window HEAD — the
  /// receiver buffers everything after the gap, so the head is all it
  /// needs — but at most once per this interval, since retransmitted
  /// duplicates re-elicit stale acks and the guard keeps that feedback from
  /// becoming a storm. 0 derives rto_us / 4.
  std::uint64_t fast_retx_guard_us = 0;
  /// Sender-side in-flight cap per channel: at most this many unacked
  /// frames are ever on the wire; the rest queue in the window and are
  /// ack-clocked out as the head drains. Bounds both a blackout probe's
  /// cost (one burst per backed-off RTO) and the post-heal replay rate.
  /// Must stay below max_ooo_buffered or the receiver sheds the burst tail.
  std::uint64_t max_in_flight = 512;
  /// Receiver-side reorder buffer cap per channel (frames held past a
  /// gap). Overflow sheds the newest frame — retransmission re-covers it —
  /// so a dead channel cannot hoard memory.
  std::size_t max_ooo_buffered = 1024;
  /// Selective repeat: receivers append SACK ranges (buffered-past-the-gap
  /// seqs) to every ack and senders retransmit only the gaps. Off =
  /// go-back-N over the in-flight burst (the PR 4 behavior), kept as a
  /// baseline the bench compares against.
  bool sack = true;
  /// At most this many [lo,hi] ranges per ack (TCP options carry 3-4; we
  /// can afford more, but the tail past the cap is re-covered by
  /// retransmission anyway).
  std::size_t max_sack_ranges = 8;
  /// Adaptive RTO (Jacobson/Karels, per channel; the default): retransmission
  /// timeouts derive from measured RTTs (RttEstimator::rto_us with the scan
  /// period as granularity) instead of the fixed rto_us, which then only
  /// seeds unprimed channels, so no channel retransmits before its measured
  /// RTT. Only a valid sample resets a channel's backoff (Karn). false pins
  /// the fixed rto_us (CLI: --reliable-rto-ms=R).
  bool adaptive_rto = true;
  /// Floor for the adaptive RTO: loopback RTTs are microseconds, and an
  /// RTO that small turns scheduling hiccups into retransmission storms.
  std::uint64_t min_rto_us = 5'000;
  /// This process's incarnation (SocketBackend epoch; 0 on threads/sim).
  /// Receivers drop frames whose dst_epoch differs — retransmissions
  /// numbered for a dead incarnation's channel must never mingle with the
  /// renumbered stream (see ReliableFrame::dst_epoch).
  std::uint32_t self_epoch = 0;

  std::uint64_t effective_scan_period_us() const {
    return scan_period_us != 0 ? scan_period_us : rto_us / 2;
  }
  std::uint64_t effective_fast_retx_guard_us() const {
    return fast_retx_guard_us != 0 ? fast_retx_guard_us : rto_us / 4;
  }
};

/// Jacobson/Karels RTT estimator (integer µs): srtt is an EWMA (gain 1/8),
/// rttvar a mean-deviation EWMA (gain 1/4), rto = srtt + max(G, 4*rttvar)
/// with G the timer granularity (RFC 6298 §2). Samples must follow Karn's
/// rule — never taken from a retransmitted frame, whose ack is ambiguous. Standalone so its convergence properties are unit-
/// testable without a transport.
class RttEstimator {
 public:
  void on_sample(std::uint64_t rtt_us) {
    if (srtt_us_ == 0) {
      srtt_us_ = rtt_us;
      rttvar_us_ = rtt_us / 2;
    } else {
      const std::uint64_t dev = srtt_us_ > rtt_us ? srtt_us_ - rtt_us : rtt_us - srtt_us_;
      rttvar_us_ = (3 * rttvar_us_ + dev) / 4;
      srtt_us_ = (7 * srtt_us_ + rtt_us) / 8;
    }
    ++samples_;
  }

  bool primed() const { return samples_ != 0; }
  std::uint64_t srtt_us() const { return srtt_us_; }
  std::uint64_t rttvar_us() const { return rttvar_us_; }
  std::uint64_t samples() const { return samples_; }

  /// srtt + max(granularity_us, 4*rttvar) clamped to [min_us, max_us];
  /// min_us when unprimed. The granularity term keeps a channel whose
  /// rttvar has decayed to almost nothing (a fixed-delay link) from timing
  /// out on the first scheduling hiccup; the reliable layer passes its scan
  /// period, the resolution at which it can notice a timeout anyway.
  std::uint64_t rto_us(std::uint64_t min_us, std::uint64_t max_us,
                       std::uint64_t granularity_us = 0) const {
    if (samples_ == 0) return min_us;
    const std::uint64_t raw = srtt_us_ + std::max(granularity_us, 4 * rttvar_us_);
    return raw < min_us ? min_us : (raw > max_us ? max_us : raw);
  }

 private:
  std::uint64_t srtt_us_ = 0;
  std::uint64_t rttvar_us_ = 0;
  std::uint64_t samples_ = 0;
};

class ReliableTransport final : public TransportDecorator {
 public:
  struct Stats {
    std::uint64_t frames_sent = 0;       ///< first transmissions
    std::uint64_t retransmits = 0;       ///< frames re-sent (RTO timer or fast)
    std::uint64_t fast_retransmits = 0;  ///< window resends triggered by stale acks
    std::uint64_t acks_sent = 0;
    std::uint64_t dup_frames = 0;        ///< already-delivered seqs discarded
    std::uint64_t ooo_frames = 0;        ///< post-gap frames buffered (or shed)
    std::uint64_t stale_acks = 0;        ///< acks that advanced nothing
    std::uint64_t coalesced = 0;         ///< latest-wins frames tombstoned
    std::uint64_t sacked_skips = 0;      ///< retransmissions avoided via SACK
    std::uint64_t malformed_acks = 0;    ///< acks with rejected SACK ranges
    std::uint64_t rtt_samples = 0;       ///< Karn-valid samples fed to estimators
    std::uint64_t channel_resets = 0;    ///< channels renumbered after a peer respawn
    std::uint64_t fenced_frames = 0;     ///< frames stamped for another incarnation

    template <class F, class... S>
    static void fields(F&& f, S&... s) {
      f("frames_sent", Merge::kSum, s.frames_sent...);
      f("retransmits", Merge::kSum, s.retransmits...);
      f("fast_retransmits", Merge::kSum, s.fast_retransmits...);
      f("acks_sent", Merge::kSum, s.acks_sent...);
      f("dup_frames", Merge::kSum, s.dup_frames...);
      f("ooo_frames", Merge::kSum, s.ooo_frames...);
      f("stale_acks", Merge::kSum, s.stale_acks...);
      f("coalesced", Merge::kSum, s.coalesced...);
      f("sacked_skips", Merge::kSum, s.sacked_skips...);
      f("malformed_acks", Merge::kSum, s.malformed_acks...);
      f("rtt_samples", Merge::kSum, s.rtt_samples...);
      f("channel_resets", Merge::kSum, s.channel_resets...);
      f("fenced_frames", Merge::kSum, s.fenced_frames...);
    }
  };

  /// True when sends toward `to` must be framed (see the framing rule
  /// above). Evaluated per send from worker threads, so it must be pure.
  using FrameRule = std::function<bool(NodeId to)>;

  /// An empty `frame_to` frames every channel.
  ReliableTransport(Transport& inner, Executor& exec, ReliableConfig cfg,
                    FrameRule frame_to = {});
  ~ReliableTransport() override;

  /// Returns the interposer to register with the backend IN PLACE OF
  /// `real`; after the backend assigns a node id, call attach(actor, node).
  /// Both calls must happen before the backend starts.
  Actor* wrap(Actor* real);
  void attach(Actor* wrapped, NodeId node);

  void send(NodeId from, NodeId to, wire::MessagePtr msg) override;
  void send_at(NodeId from, NodeId to, wire::MessagePtr msg, std::uint64_t at_us) override;

  const ReliableConfig& config() const { return cfg_; }
  Stats stats() const { return stats_.snapshot(); }

  /// In-flight frames currently awaiting ack across all channels of `node`
  /// (test/diagnostic access; call only when the backend is quiescent).
  std::size_t window_size(NodeId node) const;

  /// Epoch-fenced membership (DESIGN §11): the process owning `peers` was
  /// respawned with incarnation `peer_epoch`, so its reliable state
  /// (delivered seqs, dedup windows) is gone. Every send channel from
  /// `self` toward a peer is renumbered from seq 1 and restamped with the
  /// new epoch — unacked frames are re-framed in place and retransmitted,
  /// so nothing the old incarnation failed to ack is lost, while copies of
  /// the OLD framing still in flight are fenced at the receiver by their
  /// stale dst_epoch — and every receive channel from a peer restarts its
  /// dedup state at 0. MUST run on `self`'s worker (post it via the
  /// executor), like all endpoint state.
  void reset_peer_channels(NodeId self, const std::vector<NodeId>& peers,
                           std::uint32_t peer_epoch);

 private:
  class Endpoint;

  /// The sender's endpoint when the from->to channel is framed, else null
  /// (unwrapped sender or a channel the rule leaves unframed).
  Endpoint* framing_endpoint(NodeId from, NodeId to) const;

  Executor& exec_;
  ReliableConfig cfg_;
  FrameRule frame_to_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;  ///< fixed before start
  std::vector<Endpoint*> by_node_;                    ///< index = NodeId

  /// Touched from every worker.
  Counters<Stats> stats_;
};

}  // namespace paris::runtime
