#pragma once
// LinkTransport: the link model of the thread and socket runtimes
// (DESIGN.md §8).
//
// The discrete-event simulator models WAN latency inside sim::Network, but
// the thread and socket backends deliver as fast as the machine allows. This
// decorator gives every channel a modeled link:
//
//   protocol -> [Reliable] -> [Fuzz] -> Link -> backend
//
//  * a base one-way delay drawn from the deployment's sim::LatencyModel (the
//    same model the simulator uses): per-DC-pair mean, intra-DC and loopback
//    delays, optional uniform jitter;
//  * a list of scheduled fault EPISODES. Each selects links (every channel,
//    one DC pair or direction, or every link of one isolated DC) and a
//    [start, end) window, and applies any mix of loss (i.i.d. or
//    Gilbert–Elliott), duplication of the idempotent class, a reorder
//    stall, a bandwidth pipe and a linearly ramped extra delay. A partition
//    is an episode with loss 1; the --chaos-* knobs are one whole-run,
//    every-channel episode.
//
// One send applies, over the episodes active on its link at send time:
//   1. loss: a dropped message pays nothing else and never occupies a pipe;
//   2. duplication;  3. stall;  4. bandwidth pipe;  5. ramp;  6. base delay.
// Each step runs over every active episode before the next starts, and a
// duplicate takes its own pipe slot, ramp and base delay, as if sent twice.
//
// Determinism: per-message draws are counter hashes of (seed, channel, the
// channel's draw index), and a Gilbert–Elliott chain is a pure function of
// (seed, episode, time slot). Two runs with the same seed shape the same
// per-channel message sequence on every backend, including each process of
// a socket cluster, however worker threads interleave.
//
// FIFO safety: every message goes through Transport::send_at, and the
// backend clamps deliver-at strictly increasing per channel, so the link
// can reorder traffic across channels but never within one (the paper's
// TCP assumption).
//
// With no episode configured a send costs what a bare delay model costs:
// no draw for a jitter-free model, no lock and no atomic read-modify-write.

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/fields.h"
#include "common/rng.h"
#include "runtime/executor.h"
#include "runtime/transport.h"
#include "sim/latency.h"

namespace paris::runtime {

/// Base delay model applied to a threads/sockets deployment's transport.
enum class LatencyModelKind {
  kNone,    ///< instant delivery (throughput experiments)
  kMatrix,  ///< per-DC-pair mean one-way delay, no jitter
  kJitter,  ///< matrix plus uniform jitter: mean * U[1-j, 1+j]
};

const char* latency_model_name(LatencyModelKind k);

/// Base decorator: forwards every Transport call to the wrapped transport.
/// Subclasses override just the sends they shape.
class TransportDecorator : public Transport {
 public:
  explicit TransportDecorator(Transport& inner) : inner_(inner) {}

  void send(NodeId from, NodeId to, wire::MessagePtr msg) override {
    inner_.send(from, to, std::move(msg));
  }
  void send_at(NodeId from, NodeId to, wire::MessagePtr msg, std::uint64_t at_us) override {
    inner_.send_at(from, to, std::move(msg), at_us);
  }
  wire::MessagePool& msg_pool(NodeId self) override { return inner_.msg_pool(self); }
  DcId dc_of(NodeId n) const override { return inner_.dc_of(n); }
  bool colocated(NodeId a, NodeId b) const override { return inner_.colocated(a, b); }
  bool node_paused(NodeId n) const override { return inner_.node_paused(n); }
  void charge_cpu(NodeId n, std::uint64_t us) override { inner_.charge_cpu(n, us); }
  std::uint64_t total_bytes_sent() const override { return inner_.total_bytes_sent(); }

 protected:
  Transport& inner_;
};

namespace detail {

/// Deterministic per-channel draw sequence: draw i on channel c is
/// u01(hash(seed, c, i)), so decorator randomness is reproducible per seed
/// no matter how worker threads interleave. Counter state is sharded by
/// the SENDING node — a channel's sends always run on the from-node's
/// worker, so two workers only ever contend when their shards collide,
/// never on one global lock.
class ChannelDraws {
 public:
  explicit ChannelDraws(std::uint64_t seed) : seed_(seed) {}

  /// Uniform double in [0, 1), advancing the channel's counter.
  double next(NodeId from, NodeId to) {
    const std::uint64_t key = (static_cast<std::uint64_t>(from) << 32) | to;
    Shard& s = shards_[from % kShards];
    std::uint64_t idx;
    {
      std::lock_guard<std::mutex> lk(s.mu);
      idx = s.counters[key]++;
    }
    const std::uint64_t h = splitmix64(splitmix64(seed_ ^ key) ^ idx);
    return static_cast<double>(h >> 11) * 0x1.0p-53;
  }

 private:
  static constexpr std::size_t kShards = 64;
  struct Shard {
    std::mutex mu;
    std::unordered_map<std::uint64_t, std::uint64_t> counters;
  };
  std::uint64_t seed_;
  Shard shards_[kShards];
};

}  // namespace detail

/// Which messages an episode's loss applies to. Reliable frames are
/// classified by the message they CARRY (ReliableFrame::inner_type), so a
/// narrowed class targets the protocol traffic inside the reliability
/// layer, not just its envelope; bare ReliableAcks match only kAll.
enum class DropClass : std::uint8_t {
  kReplication,  ///< ReplicateBatch + Heartbeat only
  kRequests,     ///< everything EXCEPT the replication layer
  kAll,          ///< any message, acks included
};

const char* drop_class_name(DropClass c);

/// True for the idempotent replication/stabilization layer (ReplicateBatch,
/// Heartbeat), classified THROUGH reliable frames by the message they carry;
/// bare ReliableAcks are not idempotent-class. Only this class is ever
/// duplicated (by the link or the fuzzer): duplicating anything else
/// without a reliability layer above would wedge transactions.
bool idempotent_message_class(const wire::Message& m);

/// One scheduled fault episode; see the file header. Times are absolute
/// executor µs (run-relative for the thread backend, warmup included).
struct LinkEpisode {
  enum class Links : std::uint8_t {
    kEvery,    ///< every channel, intra-DC and colocated ones included
    kPair,     ///< inter-DC channels a -> b (and b -> a when symmetric)
    kIsolate,  ///< every inter-DC channel to or from DC a
  };
  Links links = Links::kEvery;
  DcId a = 0;
  DcId b = 0;
  bool symmetric = false;
  std::uint64_t start_us = 0;
  std::uint64_t end_us = ~0ull;  ///< exclusive

  /// Per-message loss probability while the Gilbert–Elliott chain is good
  /// (the only state when p_good_bad is 0, i.e. i.i.d. loss) ...
  double loss_good = 0;
  double loss_bad = 0;    ///< ... and while it is bad
  double p_good_bad = 0;  ///< GE per-slot transition P(good -> bad)
  double p_bad_good = 0;  ///< GE per-slot transition P(bad -> good)
  DropClass drop_class = DropClass::kAll;
  double duplicate_p = 0;  ///< idempotent class only
  double stall_p = 0;      ///< probability a message is held back stall_us
  std::uint64_t stall_us = 0;
  std::uint32_t bandwidth_bytes_per_us = 0;  ///< 0 = uncapped
  std::uint64_t extra_delay_start_us = 0;    ///< added delay at window start
  std::uint64_t extra_delay_end_us = 0;      ///< ... ramped to this at the end

  /// A blackout of the DC pair a <-> b, or of every link of DC a when
  /// `isolate` is set: loss 1 for every message class.
  static LinkEpisode partition(DcId a, DcId b, bool isolate, std::uint64_t start_us,
                               std::uint64_t end_us);
  /// The --chaos-* defaults: whole run, every channel, 10 ms stalls, loss
  /// restricted to the replication layer. Inert until a knob is set.
  static LinkEpisode chaos();

  bool active(DcId from, DcId to, std::uint64_t now) const;
  bool has_loss() const { return loss_good > 0 || loss_bad > 0; }
  /// True when the episode changes nothing on its links.
  bool inert() const {
    return !has_loss() && duplicate_p <= 0 && stall_p <= 0 && bandwidth_bytes_per_us == 0 &&
           extra_delay_start_us == 0 && extra_delay_end_us == 0;
  }
};

/// Parses a comma-separated partition spec into blackout episodes, times in
/// MILLISECONDS:
///   "0-1:500:1500"  DCs 0 and 1 cannot talk from t=500ms to t=1500ms
///   "2:2000:2500"   DC 2 is isolated from everyone in [2000ms, 2500ms)
/// Appends to `out`; returns false (and leaves `out` untouched) on
/// malformed input.
bool parse_partition_spec(const std::string& s, std::vector<LinkEpisode>& out);

/// Parses the value of one --chaos-KNOB flag into a chaos() episode:
///   reorder=P  stall probability     stall-ms=N  stall length
///   duplicate=P                      drop=[replication|requests|all:]P
/// Probabilities must lie in [0, 1]. Returns false (and leaves `ep`
/// untouched) on an unknown knob or a malformed value.
bool parse_chaos_knob(const std::string& knob, const std::string& value, LinkEpisode& ep);

class LinkTransport final : public TransportDecorator {
 public:
  /// Gilbert–Elliott time slice: one chain transition per 10ms.
  static constexpr std::uint64_t kGeSlotUs = 10'000;

  struct Stats {
    std::uint64_t shaped = 0;      ///< sends that met an active episode
    std::uint64_t dropped = 0;     ///< lost (i.i.d., burst or blackout)
    std::uint64_t duplicated = 0;
    std::uint64_t stalled = 0;
    std::uint64_t bw_queued = 0;   ///< messages that waited behind a pipe
    std::uint64_t bw_wait_us = 0;  ///< total pipe queueing wait

    template <class F, class... S>
    static void fields(F&& f, S&... s) {
      f("shaped", Merge::kSum, s.shaped...);
      f("dropped", Merge::kSum, s.dropped...);
      f("duplicated", Merge::kSum, s.duplicated...);
      f("stalled", Merge::kSum, s.stalled...);
      f("bw_queued", Merge::kSum, s.bw_queued...);
      f("bw_wait_us", Merge::kSum, s.bw_wait_us...);
    }
  };

  /// `delay` empty: no base delay, episodes only.
  LinkTransport(Transport& inner, Executor& exec, std::optional<sim::LatencyModel> delay,
                std::vector<LinkEpisode> episodes, std::uint64_t seed);

  void send(NodeId from, NodeId to, wire::MessagePtr msg) override {
    send_at(from, to, std::move(msg), exec_.now_us());
  }
  void send_at(NodeId from, NodeId to, wire::MessagePtr msg, std::uint64_t at_us) override {
    if (episodes_.empty()) {
      inner_.send_at(from, to, std::move(msg), at_us + sample_one_way_us(from, to));
    } else {
      shape(from, to, std::move(msg), at_us);
    }
  }

  /// The base delay the next message from->to gets (public for tests: the
  /// sequence is a pure function of the seed and the channel).
  std::uint64_t sample_one_way_us(NodeId from, NodeId to);

  /// GE state of episode `ep` at executor time `now`: a pure function of
  /// (seed, ep, slot), public so tests can measure burstiness directly.
  bool ge_bad(std::size_t ep, std::uint64_t now);

  Stats stats() const { return stats_.snapshot(); }

 private:
  void shape(NodeId from, NodeId to, wire::MessagePtr msg, std::uint64_t at_us);
  /// Reserves the directed DC link's pipe; returns the departure time.
  std::uint64_t through_pipe(DcId from, DcId to, std::uint32_t bytes_per_us,
                             std::uint64_t bytes, std::uint64_t at_us);

  Executor& exec_;
  std::optional<sim::LatencyModel> delay_;
  std::vector<LinkEpisode> episodes_;
  std::uint64_t seed_;
  detail::ChannelDraws draws_;

  /// Per-episode GE chain (true = bad), grown on demand. A chain is a pure
  /// function of the seed, so every thread extends it to identical values;
  /// the mutex only orders the growth.
  std::mutex ge_mu_;
  std::vector<std::vector<bool>> ge_;

  /// Per directed-DC-link bandwidth pipe: the time it drains.
  std::mutex pipe_mu_;
  std::unordered_map<std::uint64_t, std::uint64_t> pipe_free_at_;

  Counters<Stats> stats_;
};

}  // namespace paris::runtime
