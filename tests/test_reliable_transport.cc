// ReliableTransport tests: exactly-once in-order delivery over deterministic
// message loss, duplicate-ack tolerance, retransmit-after-heal through a
// LinkTransport blackout, latest-wins coalescing, window recycling
// under sustained loss, end-to-end convergence — chaos may drop ANY
// message class and the exactness + causal + session checkers stay green —
// the framing rule (only channels that can lose a frame are framed) and the
// adaptive-RTO default.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <mutex>
#include <vector>

#include "runtime/link_transport.h"
#include "runtime/reliable_transport.h"
#include "runtime/thread_runtime.h"
#include "workload/experiment.h"

namespace paris::test {
namespace {

using runtime::DropClass;
using runtime::LinkEpisode;
using runtime::LinkTransport;
using runtime::ReliableConfig;
using runtime::ReliableTransport;
using runtime::ThreadBackend;

/// Records delivered Commit2pc/Heartbeat payloads with arrival times
/// (accessed on the owning worker, then after stop()).
class SinkActor : public runtime::Actor {
 public:
  explicit SinkActor(runtime::Executor& exec) : exec_(&exec) {}
  void on_message(NodeId /*from*/, const wire::Message& m) override {
    if (m.type() == wire::MsgType::kCommit2pc) {
      values.push_back(static_cast<const wire::Commit2pc&>(m).tx.raw);
    } else if (m.type() == wire::MsgType::kHeartbeat) {
      values.push_back(static_cast<const wire::Heartbeat&>(m).t.raw);
    } else {
      ADD_FAILURE() << "unexpected message " << wire::msg_type_name(m.type());
    }
    at_us.push_back(exec_->now_us());
  }
  std::vector<std::uint64_t> values;
  std::vector<std::uint64_t> at_us;

 private:
  runtime::Executor* exec_;
};

wire::MessagePtr numbered(std::uint64_t i) {
  auto m = wire::make_message<wire::Commit2pc>();
  m->tx = TxId{i};
  return m;
}

wire::MessagePtr heartbeat(std::uint64_t t) {
  auto hb = wire::make_message<wire::Heartbeat>();
  hb->t = Timestamp{t};
  return hb;
}

/// Deterministically lossy/duplicating transport: `drop_frame(i)` decides
/// the fate of the i-th kReliableFrame occurrence per channel (counting
/// retransmissions); `dup_acks` re-sends every kReliableAck. Counters are
/// mutex-guarded — sends originate on the main thread (pre-start) and on
/// worker timers.
class FaultyTransport final : public runtime::TransportDecorator {
 public:
  explicit FaultyTransport(runtime::Transport& inner) : TransportDecorator(inner) {}

  void send(NodeId from, NodeId to, wire::MessagePtr msg) override {
    if (msg->type() == wire::MsgType::kReliableFrame) {
      std::uint64_t idx;
      {
        std::lock_guard<std::mutex> lk(mu_);
        idx = frame_count_[(static_cast<std::uint64_t>(from) << 32) | to]++;
      }
      if (drop_frame && drop_frame(idx)) return;  // eaten
    }
    if (msg->type() == wire::MsgType::kReliableAck && dup_acks) {
      inner_.send(from, to, msg);  // duplicate copy
    }
    inner_.send(from, to, std::move(msg));
  }

  std::uint64_t frames_seen(NodeId from, NodeId to) {
    std::lock_guard<std::mutex> lk(mu_);
    return frame_count_[(static_cast<std::uint64_t>(from) << 32) | to];
  }

  std::function<bool(std::uint64_t)> drop_frame;  ///< by per-channel occurrence
  bool dup_acks = false;

 private:
  std::mutex mu_;
  std::unordered_map<std::uint64_t, std::uint64_t> frame_count_;
};

/// Two wrapped sink nodes on separate workers over the given inner chain.
struct Rig {
  Rig(ThreadBackend& be, runtime::Transport& inner, ReliableConfig cfg)
      : rt(inner, be.exec(), cfg), a(be.exec()), b(be.exec()) {
    runtime::Actor* wa = rt.wrap(&a);
    runtime::Actor* wb = rt.wrap(&b);
    na = be.add_node(wa, 0, nullptr);
    nb = be.add_node(wb, 1, nullptr);
    rt.attach(wa, na);
    rt.attach(wb, nb);
  }
  ReliableTransport rt;
  SinkActor a, b;
  NodeId na = kInvalidNode, nb = kInvalidNode;
};

ReliableConfig fast_rto() {
  ReliableConfig cfg;
  cfg.rto_us = 5'000;
  cfg.adaptive_rto = false;
  cfg.max_rto_us = 20'000;  // tight backoff cap keeps lossy tests fast
  return cfg;
}

TEST(ReliableTransport, DeliversExactlyOnceInOrderUnderDrops) {
  ThreadBackend be(ThreadBackend::Options{2, 1});
  FaultyTransport lossy(be.transport());
  // Eat a third of all frame transmissions, including retransmissions
  // (hash-based: deterministic but aperiodic, so full-window go-back-N
  // rounds cannot resonate with the drop pattern).
  lossy.drop_frame = [](std::uint64_t i) { return splitmix64(i) % 3 == 0; };
  Rig rig(be, lossy, fast_rto());

  const std::uint64_t kMsgs = 50;
  for (std::uint64_t i = 0; i < kMsgs; ++i) rig.rt.send(rig.na, rig.nb, numbered(i));
  be.run_for(300'000);
  be.stop();

  ASSERT_EQ(rig.b.values.size(), kMsgs) << "at-least-once must recover every drop";
  for (std::uint64_t i = 0; i < kMsgs; ++i) {
    EXPECT_EQ(rig.b.values[i], i);  // exactly-once, in order
  }
  const auto s = rig.rt.stats();
  EXPECT_GT(s.retransmits, 0u);
  EXPECT_GT(s.ooo_frames, 0u);  // post-drop frames were buffered, never reordered
  EXPECT_EQ(rig.rt.window_size(rig.na), 0u) << "acks must drain the window";
}

TEST(ReliableTransport, DuplicateAcksAreHarmless) {
  ThreadBackend be(ThreadBackend::Options{2, 1});
  FaultyTransport lossy(be.transport());
  lossy.drop_frame = [](std::uint64_t i) { return i == 3; };
  lossy.dup_acks = true;  // every ack arrives twice
  Rig rig(be, lossy, fast_rto());

  const std::uint64_t kMsgs = 20;
  for (std::uint64_t i = 0; i < kMsgs; ++i) rig.rt.send(rig.na, rig.nb, numbered(i));
  be.run_for(200'000);
  be.stop();

  ASSERT_EQ(rig.b.values.size(), kMsgs);
  for (std::uint64_t i = 0; i < kMsgs; ++i) EXPECT_EQ(rig.b.values[i], i);
  const auto s = rig.rt.stats();
  EXPECT_GT(s.stale_acks, 0u) << "the duplicated acks must have been seen and ignored";
  EXPECT_EQ(rig.rt.window_size(rig.na), 0u);
}

TEST(ReliableTransport, RetransmitsAfterPartitionHeals) {
  ThreadBackend be(ThreadBackend::Options{2, 1});
  // Blackout DC0 <-> DC1 from construction until t=80ms: the first
  // transmissions and early retransmits are all eaten; delivery must happen
  // via retransmission after the heal deadline.
  LinkTransport part(be.transport(), be.exec(), std::nullopt,
                     {LinkEpisode::partition(0, 1, false, 0, 80'000)}, /*seed=*/1);
  Rig rig(be, part, fast_rto());

  const std::uint64_t kMsgs = 10;
  for (std::uint64_t i = 0; i < kMsgs; ++i) rig.rt.send(rig.na, rig.nb, numbered(i));
  be.run_for(250'000);
  be.stop();

  ASSERT_EQ(rig.b.values.size(), kMsgs) << "messages must survive the blackout";
  for (std::uint64_t i = 0; i < kMsgs; ++i) {
    EXPECT_EQ(rig.b.values[i], i);
    EXPECT_GE(rig.b.at_us[i], 80'000u) << "nothing may cross an active blackout";
  }
  EXPECT_GT(part.stats().dropped, 0u);
  EXPECT_GT(rig.rt.stats().retransmits, 0u);
}

TEST(ReliableTransport, CoalescesSupersededLatestWinsMessages) {
  ThreadBackend be(ThreadBackend::Options{2, 1});
  LinkTransport part(be.transport(), be.exec(), std::nullopt,
                     {LinkEpisode::partition(0, 1, false, 0, 60'000)}, /*seed=*/1);
  Rig rig(be, part, fast_rto());

  // 20 heartbeats into the blackout: 19 are superseded while unacked, so
  // retransmission carries placeholders for them and one live payload.
  const std::uint64_t kBeats = 20;
  for (std::uint64_t i = 0; i < kBeats; ++i) rig.rt.send(rig.na, rig.nb, heartbeat(i));
  be.run_for(200'000);
  be.stop();

  ASSERT_EQ(rig.b.values.size(), 1u)
      << "only the latest heartbeat should survive coalescing";
  EXPECT_EQ(rig.b.values[0], kBeats - 1);
  EXPECT_EQ(rig.rt.stats().coalesced, kBeats - 1);
  EXPECT_EQ(rig.rt.window_size(rig.na), 0u) << "placeholders must still be acked";
}

TEST(ReliableTransport, WindowRecyclingSurvivesSustainedLoss) {
  // "Wraparound" coverage: many times more traffic than the in-flight
  // window ever holds, with drops sprinkled across first sends and
  // retransmissions, must still deliver exactly once in order. Sends are
  // paced by a timer (a closed protocol would do the same), so the window
  // recycles continuously instead of draining one 400-deep burst.
  ThreadBackend be(ThreadBackend::Options{2, 1});
  FaultyTransport lossy(be.transport());
  lossy.drop_frame = [](std::uint64_t i) { return splitmix64(i ^ 0x5105) % 4 == 0; };
  ReliableConfig cfg;
  cfg.rto_us = 3'000;
  cfg.adaptive_rto = false;
  cfg.max_rto_us = 9'000;
  Rig rig(be, lossy, cfg);

  const std::uint64_t kMsgs = 200;
  std::uint64_t sent = 0;
  runtime::TimerHandle pump =
      be.exec().every(rig.na, /*period=*/1'000, /*phase=*/0, [&] {
        for (int k = 0; k < 2 && sent < kMsgs; ++k) {
          rig.rt.send(rig.na, rig.nb, numbered(sent++));
        }
      });
  be.run_for(800'000);
  be.stop();

  ASSERT_EQ(rig.b.values.size(), kMsgs);
  for (std::uint64_t i = 0; i < kMsgs; ++i) EXPECT_EQ(rig.b.values[i], i);
  EXPECT_EQ(rig.rt.window_size(rig.na), 0u);
  const auto s = rig.rt.stats();
  EXPECT_EQ(s.frames_sent, kMsgs);  // first transmissions counted once each
  EXPECT_GT(s.retransmits, 0u);
}

TEST(ReliableTransport, InFlightCapBoundsBlackoutProbes) {
  // 60 frames queued into a blackout with an in-flight cap of 8: every
  // retransmission probe may carry at most one burst, so total wire
  // traffic stays linear in (probes + backlog) — the naive full-window
  // go-back-N would resend all 60 frames on every probe. After heal the
  // queued tail must ack-clock out completely, in order.
  ThreadBackend be(ThreadBackend::Options{2, 1});
  LinkTransport part(be.transport(), be.exec(), std::nullopt,
                     {LinkEpisode::partition(0, 1, false, 0, 100'000)}, /*seed=*/1);
  FaultyTransport counter(part);  // no drops; counts frame transmissions
  ReliableConfig cfg;
  cfg.rto_us = 5'000;
  cfg.adaptive_rto = false;
  cfg.max_rto_us = 20'000;
  cfg.max_in_flight = 8;
  Rig rig(be, counter, cfg);

  const std::uint64_t kMsgs = 60;
  for (std::uint64_t i = 0; i < kMsgs; ++i) rig.rt.send(rig.na, rig.nb, numbered(i));
  be.run_for(400'000);
  be.stop();

  ASSERT_EQ(rig.b.values.size(), kMsgs);
  for (std::uint64_t i = 0; i < kMsgs; ++i) EXPECT_EQ(rig.b.values[i], i);
  EXPECT_EQ(rig.rt.window_size(rig.na), 0u);
  // ~8-10 blackout probes x 8 frames + the 60-frame drain + slack: far
  // below the ~500+ a full-window resend per probe would transmit.
  EXPECT_LE(counter.frames_seen(rig.na, rig.nb), 350u)
      << "in-flight cap failed to bound retransmission traffic";
}

// ---------------------------------------------------------------------------
// Selective repeat (SACK) + adaptive RTO.
// ---------------------------------------------------------------------------

/// Captures every ReliableAck flowing through (cum + sack ranges).
class AckSpy final : public runtime::TransportDecorator {
 public:
  explicit AckSpy(runtime::Transport& inner) : TransportDecorator(inner) {}

  void send(NodeId from, NodeId to, wire::MessagePtr msg) override {
    if (msg->type() == wire::MsgType::kReliableAck) {
      const auto& a = static_cast<const wire::ReliableAck&>(*msg);
      std::lock_guard<std::mutex> lk(mu);
      acks.emplace_back(a.cum_seq, a.sack);
    }
    inner_.send(from, to, std::move(msg));
  }

  std::mutex mu;
  std::vector<std::pair<std::uint64_t, std::vector<std::uint64_t>>> acks;
};

TEST(ReliableSack, RetransmitsOnlyTheGaps) {
  // Burst of 30 with five scattered first-transmission drops. Selective
  // repeat must resend only (about) the five holes — bounded by the dropped
  // count, not the in-flight burst size go-back-N would replay.
  ThreadBackend be(ThreadBackend::Options{2, 1});
  FaultyTransport lossy(be.transport());
  lossy.drop_frame = [](std::uint64_t i) {
    return i == 3 || i == 9 || i == 15 || i == 21 || i == 27;
  };
  ReliableConfig cfg = fast_rto();
  cfg.sack = true;
  Rig rig(be, lossy, cfg);

  const std::uint64_t kMsgs = 30, kDropped = 5;
  for (std::uint64_t i = 0; i < kMsgs; ++i) rig.rt.send(rig.na, rig.nb, numbered(i));
  be.run_for(300'000);
  be.stop();

  ASSERT_EQ(rig.b.values.size(), kMsgs);
  for (std::uint64_t i = 0; i < kMsgs; ++i) EXPECT_EQ(rig.b.values[i], i);
  const auto s = rig.rt.stats();
  EXPECT_GT(s.retransmits, 0u);
  // Gap-only bound: each hole costs a retransmission, plus at most one
  // extra round of slack on a slow scheduler — far under the dozens a
  // go-back-N replay of the 27-deep burst would send (asserted below).
  EXPECT_LE(s.retransmits, 2 * kDropped + 3)
      << "SACK must confine retransmission to the gaps";
  EXPECT_GT(s.sacked_skips, 0u) << "the RTO scan must actually have skipped sacked frames";
  EXPECT_EQ(rig.rt.window_size(rig.na), 0u);
}

TEST(ReliableSack, GoBackNResendsTheBurstWithoutSack) {
  // The identical scenario with sack off: the same five holes force whole
  // in-flight-burst replays, so retransmissions exceed the burst size —
  // this is the waste the bench row (BENCH_realtime_socket.json) guards.
  ThreadBackend be(ThreadBackend::Options{2, 1});
  FaultyTransport lossy(be.transport());
  lossy.drop_frame = [](std::uint64_t i) {
    return i == 3 || i == 9 || i == 15 || i == 21 || i == 27;
  };
  ReliableConfig cfg = fast_rto();
  cfg.sack = false;
  Rig rig(be, lossy, cfg);

  const std::uint64_t kMsgs = 30;
  for (std::uint64_t i = 0; i < kMsgs; ++i) rig.rt.send(rig.na, rig.nb, numbered(i));
  be.run_for(300'000);
  be.stop();

  ASSERT_EQ(rig.b.values.size(), kMsgs);
  for (std::uint64_t i = 0; i < kMsgs; ++i) EXPECT_EQ(rig.b.values[i], i);
  const auto s = rig.rt.stats();
  EXPECT_GT(s.retransmits, 13u)  // > 2*dropped+3: strictly worse than the SACK bound
      << "go-back-N should have replayed whole bursts here";
  EXPECT_EQ(s.sacked_skips, 0u);
  EXPECT_EQ(rig.rt.window_size(rig.na), 0u);
}

TEST(ReliableSack, AckRangesCoalesceBufferedRuns) {
  // Drop seqs 1 and 5 of a 6-frame burst: the receiver buffers {2,3,4,6}
  // and must advertise exactly the coalesced ranges [2,4] and [6,6].
  ThreadBackend be(ThreadBackend::Options{2, 1});
  AckSpy spy(be.transport());
  FaultyTransport lossy(spy);
  lossy.drop_frame = [](std::uint64_t i) { return i == 0 || i == 4; };
  Rig rig(be, lossy, fast_rto());

  const std::uint64_t kMsgs = 6;
  for (std::uint64_t i = 0; i < kMsgs; ++i) rig.rt.send(rig.na, rig.nb, numbered(i));
  be.run_for(200'000);
  be.stop();

  ASSERT_EQ(rig.b.values.size(), kMsgs);
  for (std::uint64_t i = 0; i < kMsgs; ++i) EXPECT_EQ(rig.b.values[i], i);
  bool saw_coalesced = false;
  {
    std::lock_guard<std::mutex> lk(spy.mu);
    for (const auto& [cum, sack] : spy.acks) {
      if (cum == 0 && sack == std::vector<std::uint64_t>{2, 4, 6, 6}) {
        saw_coalesced = true;
      }
      ASSERT_EQ(sack.size() % 2, 0u) << "receivers must never emit odd range lists";
    }
  }
  EXPECT_TRUE(saw_coalesced)
      << "expected an ack advertising exactly [2,4] and [6,6] past the cum=0 hole";
}

TEST(ReliableSack, MalformedRangesAreRejectedNotTrusted) {
  // Inject hand-crafted garbage acks UNDER the reliable layer (straight
  // through the backend, as a broken peer process would): lo > hi, odd
  // range count, ranges overlapping the cumack hole, and a cumack beyond
  // anything ever sent. All must be counted and ignored — and delivery
  // must still complete exactly once after the blackout heals, proving no
  // window state was corrupted.
  ThreadBackend be(ThreadBackend::Options{2, 1});
  LinkTransport part(be.transport(), be.exec(), std::nullopt,
                     {LinkEpisode::partition(0, 1, false, 0, 120'000)}, /*seed=*/1);
  Rig rig(be, part, fast_rto());

  const std::uint64_t kMsgs = 10;
  for (std::uint64_t i = 0; i < kMsgs; ++i) rig.rt.send(rig.na, rig.nb, numbered(i));

  auto bad_ack = [&](std::uint64_t cum, std::vector<std::uint64_t> sack) {
    auto a = wire::make_message<wire::ReliableAck>();
    a->cum_seq = cum;
    a->sack = std::move(sack);
    be.send(rig.nb, rig.na, std::move(a));  // bypasses framing: raw delivery
  };
  bad_ack(0, {5, 3});          // lo > hi
  bad_ack(0, {4});             // odd count
  bad_ack(0, {1, 3});          // overlaps the cum+1 hole (lo < cum+2)
  bad_ack(0, {3, 5, 4, 9});    // out of order / overlapping ranges
  bad_ack(1'000'000, {});      // acks seqs that were never assigned

  be.run_for(300'000);
  be.stop();

  ASSERT_EQ(rig.b.values.size(), kMsgs) << "corrupt acks must not wedge the channel";
  for (std::uint64_t i = 0; i < kMsgs; ++i) EXPECT_EQ(rig.b.values[i], i);
  EXPECT_GE(rig.rt.stats().malformed_acks, 5u);
  EXPECT_EQ(rig.rt.window_size(rig.na), 0u);
}

TEST(AdaptiveRto, EstimatorConvergesUnderJitteredRtts) {
  // U[20ms, 40ms] samples: srtt must settle near the 30ms mean, rttvar
  // near the ~5ms mean deviation, and the resulting RTO must sit above
  // every plausible sample (no spurious retransmits at steady state)
  // without ballooning to the cap.
  runtime::RttEstimator est;
  Rng rng(42);
  std::uint64_t max_sample = 0, spurious = 0;
  const std::uint64_t kSamples = 500;
  for (std::uint64_t i = 0; i < kSamples; ++i) {
    const std::uint64_t s = 20'000 + rng.next_u64() % 20'001;
    if (i > 50 && s > est.rto_us(5'000, 2'000'000)) ++spurious;
    est.on_sample(s);
    max_sample = std::max(max_sample, s);
  }
  EXPECT_TRUE(est.primed());
  EXPECT_EQ(est.samples(), kSamples);
  EXPECT_GT(est.srtt_us(), 25'000u);
  EXPECT_LT(est.srtt_us(), 35'000u);
  const std::uint64_t rto = est.rto_us(5'000, 2'000'000);
  EXPECT_GE(rto, max_sample) << "an RTO below observed RTTs guarantees spurious storms";
  EXPECT_LT(rto, 100'000u) << "the estimator must not balloon on bounded jitter";
  EXPECT_EQ(spurious, 0u) << "steady-state samples above the live RTO = spurious retransmit";

  // Clamping: floor and ceiling are honored.
  EXPECT_EQ(est.rto_us(1'000'000, 2'000'000), 1'000'000u);
  EXPECT_EQ(est.rto_us(1'000, 10'000), 10'000u);
  runtime::RttEstimator cold;
  EXPECT_FALSE(cold.primed());
  EXPECT_EQ(cold.rto_us(7'000, 2'000'000), 7'000u) << "unprimed: the floor";

  // Granularity (RFC 6298): on a fixed-delay link rttvar decays to nothing,
  // and the G term keeps the RTO that far above srtt anyway.
  runtime::RttEstimator fixed;
  for (int i = 0; i < 100; ++i) fixed.on_sample(50'000);
  EXPECT_EQ(fixed.rto_us(5'000, 2'000'000), 50'000u);
  EXPECT_EQ(fixed.rto_us(5'000, 2'000'000, 20'000), 70'000u);
  EXPECT_EQ(cold.rto_us(7'000, 2'000'000, 20'000), 7'000u) << "unprimed: still the floor";
}

TEST(AdaptiveRto, BackoffHoldsUntilAValidSample) {
  // A 60 ms RTT over a 20 ms unprimed seed, one frame in flight at a time:
  // the first frame times out and backs off. Karn's rule keeps that backoff
  // through the ambiguous ack, so the next frame is acked before its RTO
  // and primes the estimator. Resetting the backoff on any ack would time
  // out every frame and never take a sample.
  ThreadBackend be(ThreadBackend::Options{2, 1});
  LinkTransport wan(be.transport(), be.exec(), sim::LatencyModel::uniform(2, 30'000, 150), {},
                    1);
  ReliableConfig cfg;  // adaptive RTO: the default
  cfg.rto_us = 20'000;
  Rig rig(be, wan, cfg);

  std::uint64_t next = 0;  // touched only on na's worker
  const auto pacer = be.exec().every(rig.na, 100'000, 1'000, [&] {
    rig.rt.send(rig.na, rig.nb, numbered(next++));
  });
  be.run_for(1'050'000);
  be.stop();

  ASSERT_GE(rig.b.values.size(), 8u);
  for (std::uint64_t i = 0; i < rig.b.values.size(); ++i) EXPECT_EQ(rig.b.values[i], i);
  const auto s = rig.rt.stats();
  EXPECT_GE(s.rtt_samples, 5u) << "the channel must get primed";
  EXPECT_LE(s.retransmits, 4u) << "only the frames before the first sample may time out";
}

TEST(PartitionSpec, ParsesPairIsolationAndLists) {
  std::vector<LinkEpisode> spec;
  ASSERT_TRUE(runtime::parse_partition_spec("0-1:500:1500", spec));
  ASSERT_EQ(spec.size(), 1u);
  EXPECT_EQ(spec[0].links, LinkEpisode::Links::kPair);
  EXPECT_TRUE(spec[0].symmetric);
  EXPECT_EQ(spec[0].a, 0u);
  EXPECT_EQ(spec[0].b, 1u);
  EXPECT_EQ(spec[0].start_us, 500'000u);
  EXPECT_EQ(spec[0].end_us, 1'500'000u);
  EXPECT_EQ(spec[0].loss_good, 1.0);  // a partition is an episode with loss 1
  EXPECT_EQ(spec[0].drop_class, DropClass::kAll);

  spec.clear();
  ASSERT_TRUE(runtime::parse_partition_spec("2:2000:2500,0-1:1:2", spec));
  ASSERT_EQ(spec.size(), 2u);
  EXPECT_EQ(spec[0].links, LinkEpisode::Links::kIsolate);
  EXPECT_EQ(spec[0].a, 2u);
  EXPECT_EQ(spec[1].links, LinkEpisode::Links::kPair);

  // Blackout predicate: pair window hits both directions, nothing else.
  const LinkEpisode& w = spec[1];
  EXPECT_TRUE(w.active(0, 1, 1'500));
  EXPECT_TRUE(w.active(1, 0, 1'500));
  EXPECT_FALSE(w.active(0, 2, 1'500));
  EXPECT_FALSE(w.active(0, 1, 2'000));  // heal deadline is exclusive

  std::vector<LinkEpisode> bad;
  EXPECT_FALSE(runtime::parse_partition_spec("", bad));
  EXPECT_FALSE(runtime::parse_partition_spec("0-1:500", bad));
  EXPECT_FALSE(runtime::parse_partition_spec("0-1:900:100", bad));  // end <= start
  EXPECT_FALSE(runtime::parse_partition_spec("x-1:1:2", bad));
  EXPECT_FALSE(runtime::parse_partition_spec("-1:0:500", bad));  // no unsigned wrap
  EXPECT_TRUE(bad.empty());

  // The --chaos-* knobs build one whole-run, every-channel episode.
  LinkEpisode chaos = LinkEpisode::chaos();
  EXPECT_TRUE(chaos.inert());
  ASSERT_TRUE(runtime::parse_chaos_knob("reorder", "0.25", chaos));
  ASSERT_TRUE(runtime::parse_chaos_knob("stall-ms", "7", chaos));
  ASSERT_TRUE(runtime::parse_chaos_knob("duplicate", "1", chaos));
  ASSERT_TRUE(runtime::parse_chaos_knob("drop", "0.1", chaos));
  EXPECT_EQ(chaos.links, LinkEpisode::Links::kEvery);
  EXPECT_EQ(chaos.stall_p, 0.25);
  EXPECT_EQ(chaos.stall_us, 7'000u);
  EXPECT_EQ(chaos.duplicate_p, 1.0);
  EXPECT_EQ(chaos.loss_good, 0.1);
  EXPECT_EQ(chaos.drop_class, DropClass::kReplication);  // the default class
  ASSERT_TRUE(runtime::parse_chaos_knob("drop", "requests:0.05", chaos));
  EXPECT_EQ(chaos.drop_class, DropClass::kRequests);
  EXPECT_EQ(chaos.loss_good, 0.05);

  // Malformed values are rejected and leave the episode untouched, where a
  // lenient atof/atoll would read "abc" as 0 and wrap "-5" to ~2^64.
  const LinkEpisode before = chaos;
  for (const auto& [knob, value] : std::vector<std::pair<std::string, std::string>>{
           {"reorder", "abc"},     {"reorder", ""},          {"reorder", "0.5x"},
           {"reorder", "nan"},     {"duplicate", "-0.1"},    {"drop", "all:1.5"},
           {"drop", "1.5"},        {"drop", "bogus:0.1"},    {"drop", "all:"},
           {"stall-ms", "-5"},     {"stall-ms", "abc"},      {"stall-ms", "5ms"},
           {"stall-ms", "99999999999999999999"},             {"bogus", "0.1"}}) {
    EXPECT_FALSE(runtime::parse_chaos_knob(knob, value, chaos)) << knob << "=" << value;
  }
  EXPECT_EQ(chaos.stall_p, before.stall_p);
  EXPECT_EQ(chaos.stall_us, before.stall_us);
  EXPECT_EQ(chaos.loss_good, before.loss_good);
  EXPECT_EQ(chaos.drop_class, before.drop_class);
}

// ---------------------------------------------------------------------------
// End-to-end convergence.
// ---------------------------------------------------------------------------

/// Sanitizer builds run the closed loop several times slower; stretch the
/// wall-clock windows so "committed > 0 within the window" stays a protocol
/// assertion, not a scheduler-speed one.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr std::uint64_t kTimeScale = 5;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr std::uint64_t kTimeScale = 5;
#else
constexpr std::uint64_t kTimeScale = 1;
#endif
#else
constexpr std::uint64_t kTimeScale = 1;
#endif

/// A whole-run chaos episode dropping `p` of `cls`.
LinkEpisode chaos_drop(double p, DropClass cls) {
  LinkEpisode e = LinkEpisode::chaos();
  e.loss_good = p;
  e.drop_class = cls;
  return e;
}

/// Rare 1 ms chaos stalls: they lose nothing but put a link episode below
/// the reliable layer, so every channel is framed.
LinkEpisode rare_stalls() {
  LinkEpisode e = LinkEpisode::chaos();
  e.stall_p = 0.001;
  e.stall_us = 1'000;
  return e;
}

workload::ExperimentConfig reliable_cluster(std::uint64_t seed) {
  workload::ExperimentConfig cfg;
  cfg.runtime = runtime::Kind::kThreads;
  cfg.worker_threads = 2;
  cfg.num_dcs = 3;
  cfg.num_partitions = 6;
  cfg.replication = 2;
  cfg.threads_per_process = 1;
  cfg.workload.ops_per_tx = 8;
  cfg.workload.writes_per_tx = 2;
  cfg.workload.keys_per_partition = 100;
  cfg.warmup_us = 50'000 * kTimeScale;
  cfg.measure_us = 350'000 * kTimeScale;
  cfg.aws_latency = false;
  cfg.codec = sim::CodecMode::kBytes;
  cfg.check_consistency = true;
  cfg.reliable = true;
  // A fixed RTO, scaled with the sanitizer slowdown like the windows: once
  // queueing delay exceeds the RTO, every message times out spuriously and
  // the duplicate load feeds back into more delay (congestion collapse).
  cfg.reliable_cfg.rto_us = 20'000 * kTimeScale;
  cfg.reliable_cfg.adaptive_rto = false;
  cfg.seed = seed;
  return cfg;
}

/// The headline guarantee: with the reliable layer on, chaos may drop ANY
/// message class — request/response, 2PC, replication, acks — and the run
/// still converges and passes the exactness + causal-safety + per-session
/// monotonic-snapshot checkers, for both systems.
TEST(ReliableEndToEnd, ChaosDropAnythingStillConvergesCheckerClean) {
  for (const auto sys : {proto::System::kParis, proto::System::kBpr}) {
    auto cfg = reliable_cluster(71);
    cfg.system = sys;
    cfg.link_episodes.push_back(chaos_drop(0.15, DropClass::kAll));

    const auto res = workload::run_experiment(cfg);
    SCOPED_TRACE(proto::system_name(sys));
    EXPECT_GT(res.committed, 0u);
    EXPECT_GT(res.link.dropped, 0u) << "chaos must actually engage";
    EXPECT_GT(res.reliable.retransmits, 0u) << "recovery must actually engage";
    for (const auto& v : res.violations) ADD_FAILURE() << v;
  }
}

/// Request/response traffic specifically (the class the pre-PR 4 transport
/// could never drop) survives targeted drops.
TEST(ReliableEndToEnd, RequestClassDropsConverge) {
  auto cfg = reliable_cluster(72);
  cfg.link_episodes.push_back(chaos_drop(0.2, DropClass::kRequests));

  const auto res = workload::run_experiment(cfg);
  EXPECT_GT(res.committed, 0u);
  EXPECT_GT(res.link.dropped, 0u);
  for (const auto& v : res.violations) ADD_FAILURE() << v;
}

/// End-to-end adaptive RTO: over a jittered WAN latency model with NO
/// loss, a mistuned estimator (RTO under the real RTT) would retransmit
/// everything; the converged one must stay (nearly) silent while still
/// taking steady RTT samples, over rare_stalls().
TEST(ReliableEndToEnd, AdaptiveRtoNoRetransmitStormAtSteadyState) {
  auto cfg = reliable_cluster(77);
  cfg.latency_model = runtime::LatencyModelKind::kJitter;
  cfg.uniform_inter_dc_us = 10'000;
  cfg.link_episodes.push_back(rare_stalls());
  cfg.reliable_cfg.adaptive_rto = true;
  cfg.reliable_cfg.rto_us = 200'000 * kTimeScale;  // pre-estimate: generous
  cfg.reliable_cfg.min_rto_us = 25'000 * kTimeScale;
  cfg.check_consistency = true;

  const auto res = workload::run_experiment(cfg);
  EXPECT_GT(res.committed, 0u);
  EXPECT_GT(res.reliable.rtt_samples, 100u) << "the estimator must actually be fed";
  // Strict storm bound only on unsanitized builds: sanitizer scheduling
  // spikes queueing delay far past any honest RTT estimate, and Karn's
  // rule then censors exactly the slow samples a spurious retransmission
  // delays — the estimator cannot see what it keeps retransmitting over.
  // Under sanitizers we only require that backoff keeps it from melting
  // down (and that the run stays checker-clean, asserted below).
  const std::uint64_t storm_bound =
      kTimeScale == 1 ? res.reliable.frames_sent / 100 : res.reliable.frames_sent / 2;
  EXPECT_LE(res.reliable.retransmits, storm_bound)
      << "adaptive RTO must not manufacture retransmissions on a lossless link";
  for (const auto& v : res.violations) ADD_FAILURE() << v;
}

/// The thread runtime over the 3-DC AWS matrix (IAD, PDX, DUB: RTTs of
/// 70, 76 and 136 ms) with reliable delivery and the default ReliableConfig.
workload::ExperimentConfig aws_matrix_cluster(std::uint64_t seed) {
  auto cfg = reliable_cluster(seed);
  cfg.aws_latency = true;
  cfg.latency_model = runtime::LatencyModelKind::kMatrix;
  cfg.reliable_cfg = ReliableConfig{};
  return cfg;
}

/// The framing rule: with no link episode below (the AWS matrix delay
/// alone), every channel of a thread deployment is an in-process mailbox,
/// lossless and FIFO, so the reliable layer frames nothing (no sequence
/// numbers, no acks). The same run with a lossy episode below frames every
/// channel again and recovers the drops.
TEST(ReliableFraming, FramesOnlyChannelsThatCanLoseAFrame) {
  for (const double drop_p : {0.0, 0.05}) {
    auto cfg = aws_matrix_cluster(81);
    if (drop_p > 0) cfg.link_episodes.push_back(chaos_drop(drop_p, DropClass::kAll));

    const auto res = workload::run_experiment(cfg);
    SCOPED_TRACE(drop_p > 0 ? "chaos drops below" : "no link episode");
    EXPECT_GT(res.committed, 0u);
    if (drop_p > 0) {
      EXPECT_GT(res.link.dropped, 0u) << "chaos must actually engage";
      EXPECT_GT(res.reliable.frames_sent, 0u);
      EXPECT_GT(res.reliable.retransmits, 0u) << "recovery must actually engage";
    } else {
      EXPECT_EQ(res.reliable.frames_sent, 0u);
      EXPECT_EQ(res.reliable.acks_sent, 0u);
    }
    for (const auto& v : res.violations) ADD_FAILURE() << v;
  }
}

/// The RTO default: on the AWS matrix the PDX-DUB RTT (136 ms) exceeds the
/// 100 ms fixed RTO. The default (adaptive) RTO must keep retransmissions
/// under 1% of frames on these lossless links, while pinning the fixed RTO
/// must retransmit more than 5% (so the bound can fail). rare_stalls()
/// frames every channel. The adaptive run still
/// pays one spurious round per PDX-DUB channel before its first sample
/// (the 100 ms seed is below the RTT): about 450 frames, so the run is long
/// enough that this start-up cost stays well under the bound.
TEST(ReliableEndToEnd, DefaultRtoDoesNotRetransmitBelowTheMeasuredRtt) {
  for (const bool pin_fixed : {false, true}) {
    auto cfg = aws_matrix_cluster(83);
    cfg.warmup_us = 200'000 * kTimeScale;
    cfg.measure_us = 2'000'000 * kTimeScale;
    cfg.link_episodes.push_back(rare_stalls());
    if (pin_fixed) cfg.reliable_cfg.adaptive_rto = false;

    const auto res = workload::run_experiment(cfg);
    SCOPED_TRACE(pin_fixed ? "fixed 100 ms RTO" : "default RTO");
    EXPECT_GT(res.committed, 0u);
    ASSERT_GT(res.reliable.frames_sent, 0u) << "chaos below must frame every channel";
    if (pin_fixed) {
      EXPECT_GT(res.reliable.retransmits * 20, res.reliable.frames_sent);
    } else {
      EXPECT_LE(res.reliable.retransmits * 100, res.reliable.frames_sent);
    }
    for (const auto& v : res.violations) ADD_FAILURE() << v;
  }
}

/// A scheduled inter-DC blackout heals on its deadline and the run
/// converges checker-clean: nothing the partition ate stays lost.
TEST(ReliableEndToEnd, PartitionHealsAndConvergesCheckerClean) {
  auto cfg = reliable_cluster(73);
  cfg.measure_us = 750'000 * kTimeScale;
  cfg.link_episodes.push_back(
      LinkEpisode::partition(0, 1, false, 150'000 * kTimeScale, 450'000 * kTimeScale));

  const auto res = workload::run_experiment(cfg);
  EXPECT_GT(res.committed, 0u);
  EXPECT_GT(res.link.dropped, 0u) << "the blackout must actually engage";
  EXPECT_GT(res.reliable.retransmits, 0u);
  for (const auto& v : res.violations) ADD_FAILURE() << v;
}

}  // namespace
}  // namespace paris::test
