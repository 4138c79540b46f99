// LinkTransport tests: per-channel delay ordering on the thread backend,
// seed-determinism of the jitter draws, the order in which one send
// composes several episodes, chaos episodes end to end (cross-channel
// reorder must PASS the causal/exactness checker; drops must be caught by
// it), and a cross-runtime latency-percentile smoke comparing the threads
// backend under the link's WAN delay against the simulator running the
// same deployment. The WAN episode effects (Gilbert–Elliott burstiness,
// bandwidth-pipe FIFO, directional shaping) are tested in test_scenario.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "runtime/link_transport.h"
#include "runtime/thread_runtime.h"
#include "workload/experiment.h"

namespace paris::test {
namespace {

using runtime::LinkEpisode;
using runtime::LinkTransport;
using runtime::ThreadBackend;

/// Records each heartbeat's payload and its arrival time on the backend
/// clock (accessed only from the owning worker, then after stop()).
class ArrivalActor : public runtime::Actor {
 public:
  explicit ArrivalActor(runtime::Executor& exec) : exec_(&exec) {}
  void on_message(NodeId /*from*/, const wire::Message& m) override {
    ASSERT_EQ(m.type(), wire::MsgType::kHeartbeat);
    values.push_back(static_cast<const wire::Heartbeat&>(m).t.raw);
    at_us.push_back(exec_->now_us());
  }
  std::vector<std::uint64_t> values;
  std::vector<std::uint64_t> at_us;

 private:
  runtime::Executor* exec_;
};

wire::MessagePtr heartbeat(std::uint64_t t) {
  auto hb = wire::make_message<wire::Heartbeat>();
  hb->t = Timestamp{t};
  return hb;
}

sim::LatencyModel wan(std::uint64_t inter_us, double jitter) {
  auto m = sim::LatencyModel::uniform(2, inter_us, /*intra_dc_us=*/500);
  m.set_jitter(jitter);
  return m;
}

/// An inter-DC episode on the directed link 0 -> 1, for the whole run.
LinkEpisode link01() {
  LinkEpisode e;
  e.links = LinkEpisode::Links::kPair;
  e.a = 0;
  e.b = 1;
  return e;
}

// ---------------------------------------------------------------------------
// Base delay.
// ---------------------------------------------------------------------------

TEST(LinkDelay, DelaysDeliveryAndPreservesPerChannelFifo) {
  ThreadBackend be(ThreadBackend::Options{2, 1});
  ArrivalActor a(be.exec()), b(be.exec());
  const NodeId na = be.add_node(&a, 0, nullptr);
  const NodeId nb = be.add_node(&b, 1, nullptr);
  LinkTransport lt(be.transport(), be.exec(), wan(20'000, /*jitter=*/0.3), {}, /*seed=*/7);

  const int kMsgs = 50;
  const std::uint64_t sent_at = be.exec().now_us();
  for (int i = 0; i < kMsgs; ++i) lt.send(na, nb, heartbeat(static_cast<std::uint64_t>(i)));
  be.run_for(80'000);
  be.stop();

  ASSERT_EQ(b.values.size(), static_cast<std::size_t>(kMsgs));
  for (int i = 0; i < kMsgs; ++i) {
    EXPECT_EQ(b.values[i], static_cast<std::uint64_t>(i));  // FIFO despite jitter
    if (i > 0) {
      EXPECT_GE(b.at_us[i], b.at_us[i - 1]);  // arrivals non-decreasing
    }
  }
  // One-way delay 20ms +- 30% jitter: nothing may arrive earlier than the
  // minimum modeled delay (scheduling can only add lateness, never remove
  // delay).
  EXPECT_GE(b.at_us.front(), sent_at + 14'000);
}

TEST(LinkDelay, FastChannelOvertakesSlowChannel) {
  ThreadBackend be(ThreadBackend::Options{2, 1});
  ArrivalActor a(be.exec()), c(be.exec()), b(be.exec());
  const NodeId na = be.add_node(&a, 0, nullptr);  // remote DC: 30ms away
  const NodeId nc = be.add_node(&c, 1, nullptr);  // same DC as b: 500us
  const NodeId nb = be.add_node(&b, 1, nullptr);
  LinkTransport lt(be.transport(), be.exec(), wan(30'000, /*jitter=*/0), {}, /*seed=*/7);

  lt.send(na, nb, heartbeat(111));  // sent first, arrives last
  lt.send(nc, nb, heartbeat(222));
  be.run_for(60'000);
  be.stop();

  ASSERT_EQ(b.values.size(), 2u);
  EXPECT_EQ(b.values[0], 222u);  // intra-DC message overtook the WAN one
  EXPECT_EQ(b.values[1], 111u);
  EXPECT_GE(b.at_us[1], b.at_us[0] + 20'000);
}

TEST(LinkDelay, JitterDrawsAreSeedDeterministicPerChannel) {
  ThreadBackend be(ThreadBackend::Options{1, 1});
  ArrivalActor a(be.exec()), b(be.exec());
  const NodeId na = be.add_node(&a, 0, nullptr);
  const NodeId nb = be.add_node(&b, 1, nullptr);

  LinkTransport t1(be.transport(), be.exec(), wan(20'000, 0.25), {}, /*seed=*/42);
  LinkTransport t2(be.transport(), be.exec(), wan(20'000, 0.25), {}, /*seed=*/42);
  LinkTransport t3(be.transport(), be.exec(), wan(20'000, 0.25), {}, /*seed=*/43);

  bool any_diff_seed43 = false;
  bool any_jitter = false;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t d1 = t1.sample_one_way_us(na, nb);
    EXPECT_EQ(d1, t2.sample_one_way_us(na, nb));  // same seed -> same sequence
    any_diff_seed43 |= d1 != t3.sample_one_way_us(na, nb);
    any_jitter |= d1 != 20'000;
    EXPECT_GE(d1, 15'000u);
    EXPECT_LE(d1, 25'000u);
  }
  EXPECT_TRUE(any_diff_seed43);  // different seed -> different draws
  EXPECT_TRUE(any_jitter);       // jitter actually applied
  be.stop();
}

TEST(LinkDelay, MatrixModeIsJitterFree) {
  ThreadBackend be(ThreadBackend::Options{1, 1});
  ArrivalActor a(be.exec()), b(be.exec());
  const NodeId na = be.add_node(&a, 0, nullptr);
  const NodeId nb = be.add_node(&b, 1, nullptr);
  LinkTransport lt(be.transport(), be.exec(), wan(20'000, /*jitter=*/0), {}, /*seed=*/5);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(lt.sample_one_way_us(na, nb), 20'000u);
  EXPECT_EQ(lt.sample_one_way_us(na, na), 500u);  // intra-DC
  be.stop();
}

// ---------------------------------------------------------------------------
// Composition: what one send gets from several episodes at once.
// ---------------------------------------------------------------------------

TEST(LinkComposition, EpisodesComposeInTheDocumentedOrder) {
  ThreadBackend be(ThreadBackend::Options{2, 1});
  ArrivalActor a(be.exec()), c(be.exec()), b(be.exec());
  const NodeId na = be.add_node(&a, 0, nullptr);
  const NodeId nc = be.add_node(&c, 0, nullptr);  // same DC as a
  const NodeId nb = be.add_node(&b, 1, nullptr);

  // Listed BEFORE the blackout on purpose: a send that reserved the pipe
  // episode by episode would queue the traffic the blackout then eats.
  LinkEpisode pipe = link01();
  pipe.bandwidth_bytes_per_us = 1;
  LinkEpisode ramp = link01();  // a WAN episode, both directions
  ramp.symmetric = true;
  ramp.extra_delay_start_us = ramp.extra_delay_end_us = 100'000;
  const LinkEpisode cut = LinkEpisode::partition(0, 1, false, 0, ~0ull);
  const LinkEpisode isolate = LinkEpisode::partition(0, 0, true, 0, ~0ull);
  LinkTransport lt(be.transport(), be.exec(), std::nullopt, {pipe, ramp, cut, isolate}, 3);

  // 1. Loss comes first: everything the blackout drops skips the pipe. One
  // send time for the whole burst, so a pipe reservation would queue it.
  const int kMsgs = 20;
  const std::uint64_t t0 = be.exec().now_us();
  for (int i = 0; i < kMsgs; ++i) lt.send_at(na, nb, heartbeat(static_cast<std::uint64_t>(i)), t0);
  LinkTransport::Stats st = lt.stats();
  EXPECT_EQ(st.dropped, static_cast<std::uint64_t>(kMsgs));
  EXPECT_EQ(st.bw_queued, 0u) << "dropped traffic waited in the pipe";
  EXPECT_EQ(st.bw_wait_us, 0u);

  // 2. Partition and WAN episodes select inter-DC links only.
  lt.send(na, nc, heartbeat(1000));
  lt.send(nc, na, heartbeat(1001));
  st = lt.stats();
  EXPECT_EQ(st.shaped, static_cast<std::uint64_t>(kMsgs)) << "intra-DC traffic was shaped";

  // 3. A whole-run chaos episode shapes every channel, intra-DC included.
  LinkEpisode chaos = LinkEpisode::chaos();
  chaos.stall_p = 1;
  chaos.stall_us = 30'000;
  LinkTransport lc(be.transport(), be.exec(), std::nullopt, {chaos}, 3);
  const std::uint64_t sent_at = be.exec().now_us();
  lc.send(nc, na, heartbeat(2000));
  be.run_for(150'000);
  be.stop();

  EXPECT_TRUE(b.values.empty()) << "a message crossed the blackout";
  ASSERT_EQ(c.values.size(), 1u);
  ASSERT_EQ(a.values.size(), 2u);
  EXPECT_EQ(a.values[1], 2000u);
  EXPECT_GE(a.at_us[1], sent_at + 30'000) << "the chaos stall skipped an intra-DC channel";
  EXPECT_EQ(lc.stats().shaped, 1u);
  EXPECT_EQ(lc.stats().stalled, 1u);
}

// The pipe is listed BEFORE the chaos episode in both cases: a send that
// applied its episodes one after another would reserve the pipe first.
TEST(LinkComposition, StallsAndDuplicatesComeBeforeThePipe) {
  ThreadBackend be(ThreadBackend::Options{2, 1});
  ArrivalActor a(be.exec()), b(be.exec());
  const NodeId na = be.add_node(&a, 0, nullptr);
  const NodeId nb = be.add_node(&b, 1, nullptr);
  LinkEpisode pipe = link01();
  pipe.bandwidth_bytes_per_us = 1;

  // A duplicate takes its own pipe slot, so it queues behind the original.
  LinkEpisode dup = LinkEpisode::chaos();
  dup.duplicate_p = 1;
  LinkTransport ld(be.transport(), be.exec(), std::nullopt, {pipe, dup}, 3);
  ld.send(na, nb, heartbeat(1));
  EXPECT_EQ(ld.stats().duplicated, 1u);
  EXPECT_EQ(ld.stats().bw_queued, 1u) << "the duplicate skipped the pipe";

  // A stalled message holds the pipe from its stalled departure on, so a
  // message sent after the stall window, but before the stall ends, queues
  // behind it.
  LinkEpisode stall = LinkEpisode::chaos();
  stall.stall_p = 1;
  stall.stall_us = 1'000'000;
  stall.end_us = be.exec().now_us() + 100'000;
  LinkTransport ls(be.transport(), be.exec(), std::nullopt, {pipe, stall}, 3);
  ls.send(na, nb, heartbeat(2));
  while (be.exec().now_us() < stall.end_us) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ls.send(na, nb, heartbeat(3));
  const LinkTransport::Stats st = ls.stats();
  EXPECT_EQ(st.stalled, 1u);
  EXPECT_EQ(st.bw_queued, 1u) << "the stalled message reserved the pipe before its stall";
  EXPECT_GE(st.bw_wait_us, 800'000u);
  be.stop();
}

// ---------------------------------------------------------------------------
// Chaos episodes end to end.
// ---------------------------------------------------------------------------

workload::ExperimentConfig small_threads_cluster(std::uint64_t seed) {
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
  cfg.warmup_us = 50'000;
  cfg.measure_us = 250'000;
  cfg.aws_latency = false;
  cfg.uniform_inter_dc_us = 2'000;  // small WAN so the test stays fast
  cfg.uniform_intra_dc_us = 150;
  cfg.latency_model = runtime::LatencyModelKind::kJitter;
  cfg.codec = sim::CodecMode::kBytes;
  cfg.check_consistency = true;
  cfg.seed = seed;
  return cfg;
}

/// Chaos reorder stalls random messages, reordering delivery ACROSS
/// channels while the backend's clamp preserves each channel's FIFO — the
/// paper's TCP assumption. Causal safety must therefore hold: the exactness
/// checker (extended with the no-future-read / no-phantom causal checks)
/// must stay green for both systems.
TEST(LinkChaos, ReorderStillPassesCausalChecker) {
  for (const auto sys : {proto::System::kParis, proto::System::kBpr}) {
    auto cfg = small_threads_cluster(21);
    cfg.system = sys;
    LinkEpisode chaos = LinkEpisode::chaos();
    chaos.stall_p = 0.3;
    chaos.stall_us = 5'000;
    cfg.link_episodes.push_back(chaos);

    const auto res = workload::run_experiment(cfg);
    SCOPED_TRACE(proto::system_name(sys));
    EXPECT_GT(res.committed, 0u);
    EXPECT_GT(res.link.stalled, 0u);  // chaos actually engaged
    EXPECT_EQ(res.link.dropped, 0u);
    for (const auto& v : res.violations) ADD_FAILURE() << v;
  }
}

/// Duplicated replication-layer messages must be absorbed: version vectors
/// merge by monotonic max and the store dedups (ut, tx, sr) re-applies.
TEST(LinkChaos, DuplicateReplicationIsIdempotent) {
  auto cfg = small_threads_cluster(22);
  LinkEpisode chaos = LinkEpisode::chaos();
  chaos.duplicate_p = 0.5;
  cfg.link_episodes.push_back(chaos);

  const auto res = workload::run_experiment(cfg);
  EXPECT_GT(res.committed, 0u);
  EXPECT_GT(res.link.duplicated, 0u);
  for (const auto& v : res.violations) ADD_FAILURE() << v;
}

/// Dropping ReplicateBatch breaks the version-clock promise (a later batch
/// or heartbeat advances `upto` past the lost writes), so the checker MUST
/// report stale reads: chaos drops are checker-visible, not silent.
TEST(LinkChaos, DropIsCheckerVisible) {
  auto cfg = small_threads_cluster(23);
  cfg.measure_us = 400'000;
  LinkEpisode chaos = LinkEpisode::chaos();  // replication-class loss
  chaos.loss_good = 0.9;
  cfg.link_episodes.push_back(chaos);

  const auto res = workload::run_experiment(cfg);
  EXPECT_GT(res.committed, 0u);
  EXPECT_GT(res.link.dropped, 0u);
  EXPECT_FALSE(res.violations.empty())
      << "90% replication drop produced no checker violation — drops are "
         "supposed to be visible to the exactness checker";
}

/// The same WAN-dominated deployment on the simulator and on real threads
/// with the link's base delay must agree on the latency distribution to
/// within scheduling tolerance: the median is set by the modeled RTTs, not
/// by the backend.
TEST(CrossRuntime, LatencyPercentilesMatchSimWithinTolerance) {
  workload::ExperimentConfig cfg;
  cfg.system = proto::System::kParis;
  cfg.num_dcs = 3;
  cfg.num_partitions = 3;
  cfg.replication = 1;  // R < M: remote partitions force WAN reads
  cfg.threads_per_process = 1;
  cfg.workload.ops_per_tx = 6;
  cfg.workload.writes_per_tx = 1;
  cfg.workload.partitions_per_tx = 2;
  cfg.workload.multi_dc_ratio = 1.0;  // every transaction crosses DCs
  cfg.workload.keys_per_partition = 100;
  cfg.warmup_us = 100'000;
  cfg.measure_us = 400'000;
  cfg.aws_latency = false;
  cfg.uniform_inter_dc_us = 10'000;
  cfg.uniform_intra_dc_us = 150;
  cfg.seed = 31;

  cfg.runtime = runtime::Kind::kSim;
  const auto sim_res = workload::run_experiment(cfg);

  cfg.runtime = runtime::Kind::kThreads;
  cfg.worker_threads = 2;
  cfg.latency_model = runtime::LatencyModelKind::kJitter;
  const auto thr_res = workload::run_experiment(cfg);

  ASSERT_GT(sim_res.committed, 20u);
  ASSERT_GT(thr_res.committed, 20u);
  // Both medians are WAN-bound: at least one modeled one-way hop.
  EXPECT_GE(sim_res.latency_us.p50, 10'000.0);
  EXPECT_GE(thr_res.latency_us.p50, 10'000.0);
  // And they agree within generous scheduling tolerance.
  EXPECT_GE(thr_res.latency_us.p50, 0.4 * sim_res.latency_us.p50);
  EXPECT_LE(thr_res.latency_us.p50, 2.5 * sim_res.latency_us.p50);
}

}  // namespace
}  // namespace paris::test
