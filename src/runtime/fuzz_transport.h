#pragma once
// FuzzTransport: stateful fuzzing of LIVE channels (DESIGN.md §13).
//
// PR 6 proved the decoder robust against every single-byte flip and
// truncation of one encoded message, offline. This decorator generalizes
// that mutator to a running cluster: it sits UNDER the reliable layer
//
//   protocol -> Reliable -> [Fuzz] -> Link -> backend
//
// so the traffic it sees is exactly what crosses a real wire (sequenced
// ReliableFrames and acks when --reliable is on), and it injects two fault
// classes:
//
//  * CORRUPTION (corrupt_p): the message is encoded, mutated (bit flip,
//    truncation, or a splice with a previously captured frame on the same
//    channel), and the mutated bytes are pushed through
//    wire::validate_encoded_message — and, when validation accepts, through
//    a full pooled decode — asserting the parsing stack cannot crash on
//    adversarial bytes no matter what state the run is in. The ORIGINAL
//    message is then dropped: TCP checksums turn corruption into loss, so
//    a corrupted frame must behave exactly like a dropped one (the reliable
//    layer retransmits; without it, corruption is honest loss the checker
//    may flag). Mutated bytes are NEVER delivered to the protocol — a
//    mutation that happens to re-validate decodes to a message no peer
//    sent, which no checksum-protected transport can produce.
//  * REPLAY (replay_p): a previously captured frame from the same channel
//    is re-decoded and delivered AGAIN, out of phase with the live stream.
//    The reliable endpoint's dedup (or the idempotent replication layer's
//    (ut, tx, sr) dedup) must absorb it; only frame types that are safe to
//    duplicate are captured (reliable frames, acks, replication layer).
//
// Every rejection/acceptance path is counted so runs can assert the fuzz
// actually exercised the machinery. Draws use the counter-hash idiom:
// deterministic per (seed, channel, channel send index) on every backend.

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "runtime/link_transport.h"

namespace paris::runtime {

struct FuzzConfig {
  double corrupt_p = 0;  ///< probability a message is mutated-then-dropped
  double replay_p = 0;   ///< probability a captured frame is re-delivered
  /// Frames larger than this are not captured for splice/replay (bounds the
  /// per-channel stash; snapshot chunks need not apply).
  std::uint32_t max_capture_bytes = 2048;

  bool enabled() const { return corrupt_p > 0 || replay_p > 0; }
};

class FuzzTransport final : public TransportDecorator {
 public:
  struct Stats {
    std::uint64_t mutated = 0;           ///< messages corrupted (then dropped)
    std::uint64_t flips = 0;             ///< ... by bit flip
    std::uint64_t truncations = 0;       ///< ... by truncation
    std::uint64_t splices = 0;           ///< ... by splice/cross-over
    std::uint64_t rejected_validate = 0; ///< mutants validate_encoded_message refused
    std::uint64_t accepted_validate = 0; ///< mutants that still parsed (then discarded)
    std::uint64_t replays = 0;           ///< captured frames re-delivered
    std::uint64_t captured = 0;          ///< frames stashed for splice/replay

    template <class F, class... S>
    static void fields(F&& f, S&... s) {
      f("mutated", Merge::kSum, s.mutated...);
      f("flips", Merge::kSum, s.flips...);
      f("truncations", Merge::kSum, s.truncations...);
      f("splices", Merge::kSum, s.splices...);
      f("rejected_validate", Merge::kSum, s.rejected_validate...);
      f("accepted_validate", Merge::kSum, s.accepted_validate...);
      f("replays", Merge::kSum, s.replays...);
      f("captured", Merge::kSum, s.captured...);
    }
  };

  /// `seed`: the deployment's; draws are a function of it and the channel.
  FuzzTransport(Transport& inner, Executor& exec, FuzzConfig cfg, std::uint64_t seed);

  void send(NodeId from, NodeId to, wire::MessagePtr msg) override {
    send_at(from, to, std::move(msg), exec_.now_us());
  }
  void send_at(NodeId from, NodeId to, wire::MessagePtr msg, std::uint64_t at_us) override;

  Stats stats() const { return stats_.snapshot(); }

 private:
  /// Mutates `buf` in place (kind drawn from u); returns the mutation kind
  /// tallied (0 flip, 1 truncate, 2 splice).
  int mutate(std::vector<std::uint8_t>& buf, const std::vector<std::uint8_t>* partner,
             std::uint64_t h);

  Executor& exec_;
  FuzzConfig cfg_;
  detail::ChannelDraws draws_;

  /// Per-channel capture ring (most recent kStashDepth eligible frames).
  /// Sharded by sender like ChannelDraws: a channel's sends always run on
  /// the from-node's worker.
  static constexpr std::size_t kStashDepth = 4;
  static constexpr std::size_t kShards = 64;
  struct Stash {
    std::vector<std::uint8_t> frames[kStashDepth];
    std::uint32_t next = 0;   ///< ring cursor
    std::uint32_t count = 0;  ///< filled entries (<= kStashDepth)
  };
  struct Shard {
    std::mutex mu;
    std::unordered_map<std::uint64_t, Stash> stash;
  };
  Shard shards_[kShards];

  Counters<Stats> stats_;
};

}  // namespace paris::runtime
