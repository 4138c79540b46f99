// Fault-tolerance scenarios on the REAL thread runtime — the ports of
// test_failures.cc's simulator scenarios that the ReliableTransport +
// LinkTransport stack makes possible. The simulator buffers traffic
// across partitions (TCP connections surviving the outage); on threads a
// blackout drops packets and the at-least-once layer must recover them, so
// these tests exercise the full retransmission machinery end to end:
// island writes converge after heal, local traffic flows during a remote
// blackout, remote reads stall exactly as long as the partition, and the
// exactness + causal + session checkers stay green across heal cycles.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "proto/deployment.h"
#include "verify/history.h"
#include "workload/experiment.h"

namespace paris::test {
namespace {

using proto::Client;
using proto::Deployment;
using proto::DeploymentConfig;
using proto::System;
using runtime::LinkEpisode;
using wire::Item;
using wire::WriteKV;

/// Sanitizer builds run several times slower; every wall-clock window and
/// sleep below scales up so the scenarios keep their shape (the blackout
/// still covers setup + the in-blackout operations, heal still lands well
/// before the final assertions).
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

DeploymentConfig threads_config(System sys, std::uint32_t dcs, std::uint32_t partitions,
                                std::uint32_t replication, std::uint64_t seed) {
  DeploymentConfig cfg;
  cfg.system = sys;
  cfg.topo = {dcs, partitions, replication};
  cfg.runtime = runtime::Kind::kThreads;
  cfg.worker_threads = 2;
  cfg.aws_latency = false;
  cfg.codec = sim::CodecMode::kBytes;
  cfg.reliable = true;
  // RTO scales with the sanitizer slowdown so inflated queueing delay does
  // not read as loss (spurious-retransmission collapse).
  cfg.reliable_cfg.rto_us = 10'000 * kTimeScale;
  cfg.reliable_cfg.adaptive_rto = false;
  cfg.reliable_cfg.max_rto_us = 40'000 * kTimeScale;
  cfg.seed = seed;
  return cfg;
}

/// Blocking facade over the continuation-based client API for the thread
/// runtime: every operation is posted to the client's own worker and the
/// main thread polls for completion (the threads analogue of SyncClient,
/// which steps the simulator instead).
class ThreadSyncClient {
 public:
  ThreadSyncClient(Deployment& dep, Client& c) : dep_(dep), c_(c) {}

  Timestamp start(std::uint64_t timeout_ms = 5'000 * kTimeScale) {
    auto done = std::make_shared<std::atomic<bool>>(false);
    auto snap = std::make_shared<Timestamp>();
    dep_.exec().post(c_.node(), [this, done, snap] {
      c_.start_tx([done, snap](TxId, Timestamp s) {
        *snap = s;
        done->store(true, std::memory_order_release);
      });
    });
    wait(*done, timeout_ms, "start_tx");
    return *snap;
  }

  std::vector<Item> read(std::vector<Key> keys,
                         std::uint64_t timeout_ms = 5'000 * kTimeScale) {
    auto done = std::make_shared<std::atomic<bool>>(false);
    auto out = std::make_shared<std::vector<Item>>();
    dep_.exec().post(c_.node(), [this, keys = std::move(keys), done, out]() mutable {
      c_.read(std::move(keys), [done, out](std::vector<Item> items) {
        *out = std::move(items);
        done->store(true, std::memory_order_release);
      });
    });
    wait(*done, timeout_ms, "read");
    return *out;
  }

  void write(Key k, Value v) {
    auto done = std::make_shared<std::atomic<bool>>(false);
    dep_.exec().post(c_.node(), [this, k, v = std::move(v), done]() mutable {
      c_.write({WriteKV{k, std::move(v)}});
      done->store(true, std::memory_order_release);
    });
    wait(*done, 5'000 * kTimeScale, "write");
  }

  Timestamp commit(std::uint64_t timeout_ms = 5'000 * kTimeScale) {
    auto done = std::make_shared<std::atomic<bool>>(false);
    auto ct = std::make_shared<Timestamp>();
    dep_.exec().post(c_.node(), [this, done, ct] {
      c_.commit([done, ct](Timestamp t) {
        *ct = t;
        done->store(true, std::memory_order_release);
      });
    });
    wait(*done, timeout_ms, "commit");
    return *ct;
  }

  Timestamp put(Key k, Value v, std::uint64_t timeout_ms = 5'000 * kTimeScale) {
    start(timeout_ms);
    write(k, std::move(v));
    return commit(timeout_ms);
  }

 private:
  void wait(std::atomic<bool>& done, std::uint64_t timeout_ms, const char* what) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (!done.load(std::memory_order_acquire)) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << what << " did not complete within " << timeout_ms << " ms";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  Deployment& dep_;
  Client& c_;
};

void sleep_ms(std::uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

TEST(ThreadFailures, IslandWriteConvergesAfterHeal) {
  // DC2's replica of partition p is cut off from its peer while a client in
  // DC2 writes; the blackout eats every replication attempt, and after heal
  // the retransmission layer must deliver the write to DC0.
  auto cfg = threads_config(System::kParis, 3, 6, 2, /*seed=*/301);
  // Blackout 0 <-> 2 from construction (covers the write below) to 900ms —
  // long enough that setup + the put land inside it even under sanitizers.
  cfg.link_episodes.push_back(LinkEpisode::partition(0, 2, false, 0, 900'000 * kTimeScale));
  verify::HistoryRecorder history;
  Deployment dep(cfg, &history);
  dep.start();
  const auto& topo = dep.topo();
  const PartitionId p = 2;  // replicas {2, 0} (placement: p % M primary)
  ASSERT_TRUE(topo.dc_replicates(2, p));
  ASSERT_TRUE(topo.dc_replicates(0, p));
  const Key k = topo.make_key(p, 4);

  auto& wc = dep.add_client(2, p);
  auto& rc = dep.add_client(1, topo.partitions_at(1)[0]);
  dep.run_for(0);  // spawn workers; clients must already be registered

  ThreadSyncClient w(dep, wc);
  w.put(k, "island-write");  // commits locally at DC2 during the blackout

  sleep_ms(1'300 * kTimeScale);  // heal + retransmission + stabilization slack

  // It must become readable from a third DC through the resumed UST. An
  // absent read here is legitimate until stabilization re-covers the
  // write's commit timestamp (reads are exact at their snapshot), so poll:
  // the property is convergence, not a fixed deadline.
  ThreadSyncClient r(dep, rc);
  std::string got;
  for (int attempt = 0; attempt < 40 && got.empty(); ++attempt) {
    r.start();
    const auto items = r.read({k});
    r.commit();
    ASSERT_EQ(items.size(), 1u);
    if (!items[0].v.empty()) got = items[0].v;
    if (got.empty()) sleep_ms(100 * kTimeScale);
  }
  EXPECT_EQ(got, "island-write") << "island write never became readable after heal";

  dep.stop();
  const auto* v = dep.server(0, p).kvstore().latest(k);
  ASSERT_NE(v, nullptr) << "replication must resume after heal";
  EXPECT_EQ(v->v, "island-write");
  EXPECT_GT(dep.link_transport()->stats().dropped, 0u);
  EXPECT_GT(dep.reliable_transport()->stats().retransmits, 0u);
  for (const auto& viol : history.check()) ADD_FAILURE() << viol;
}

TEST(ThreadFailures, LocalTxsFlowWhileRemoteDcIsolated) {
  // DC2 fully isolated: a DC0 client touching only DC0-replicated
  // partitions keeps committing promptly (PaRiS local ops stay available,
  // §III-C), while the blackout is active.
  auto cfg = threads_config(System::kParis, 3, 6, 2, /*seed=*/303);
  cfg.link_episodes.push_back(
      LinkEpisode::partition(2, 0, true, 0, 1'500'000 * kTimeScale));
  Deployment dep(cfg);
  dep.start();
  const auto& topo = dep.topo();
  auto& c = dep.add_client(0, topo.partitions_at(0)[0]);
  dep.run_for(0);

  ThreadSyncClient sc(dep, c);
  const auto& locals = topo.partitions_at(0);
  for (int i = 0; i < 5; ++i) {
    // Generous per-op timeout, but far below the blackout length: if local
    // ops waited for the isolated DC, these would time out.
    sc.start(1'000 * kTimeScale);
    sc.write(topo.make_key(locals[i % locals.size()], i), "during-blackout");
    sc.commit(1'000 * kTimeScale);
  }
  dep.stop();
  EXPECT_GT(dep.link_transport()->stats().dropped, 0u)
      << "the isolation must actually have been active (heartbeats eaten)";
}

TEST(ThreadFailures, RemoteReadStallsUntilHealThenCompletes) {
  // R=1: partitions have a single replica, so a read of a partition owned
  // by a blacked-out DC has no alternative replica and must stall exactly
  // as long as the blackout (the at-least-once layer keeps retrying), then
  // complete — the thread-runtime port of ParisRemoteReadCompletesAfterHeal.
  auto cfg = threads_config(System::kParis, 3, 3, 1, /*seed=*/307);
  // Long blackout: sanitizer builds slow setup down, and the mid-blackout
  // assertion below must still land well inside the window.
  cfg.link_episodes.push_back(
      LinkEpisode::partition(0, 1, false, 0, 1'200'000 * kTimeScale));
  Deployment dep(cfg);
  dep.start();
  const auto& topo = dep.topo();

  PartitionId remote_p = topo.num_partitions();
  for (PartitionId p = 0; p < topo.num_partitions(); ++p) {
    if (!topo.dc_replicates(0, p) && topo.target_dc(0, p) == 1) {
      remote_p = p;
      break;
    }
  }
  ASSERT_LT(remote_p, topo.num_partitions());

  auto& c = dep.add_client(0, topo.partitions_at(0)[0]);
  dep.run_for(0);

  auto read_done = std::make_shared<std::atomic<bool>>(false);
  dep.exec().post(c.node(), [&c, &topo, remote_p, read_done] {
    c.start_tx([&c, &topo, remote_p, read_done](TxId, Timestamp) {
      c.read({topo.make_key(remote_p, 1)},
             [read_done](std::vector<Item>) { read_done->store(true); });
    });
  });

  sleep_ms(400 * kTimeScale);  // well inside the blackout
  EXPECT_FALSE(read_done->load()) << "remote read must stall while partitioned";

  sleep_ms(1'200 * kTimeScale);  // past heal + retransmission slack
  EXPECT_TRUE(read_done->load()) << "remote read must complete after heal";
  dep.stop();
}

TEST(ThreadFailures, ConsistencyHoldsAcrossPartitionHealCycles) {
  // Two blackout/heal cycles under workload traffic; every checker —
  // exactness, causal safety, per-session monotonic snapshots — must stay
  // green, for both systems.
  for (const auto sys : {System::kParis, System::kBpr}) {
    workload::ExperimentConfig cfg;
    cfg.system = sys;
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
    cfg.measure_us = 900'000 * kTimeScale;
    cfg.aws_latency = false;
    cfg.codec = sim::CodecMode::kBytes;
    cfg.check_consistency = true;
    cfg.reliable = true;
    cfg.reliable_cfg.rto_us = 10'000 * kTimeScale;
    cfg.reliable_cfg.adaptive_rto = false;
    cfg.reliable_cfg.max_rto_us = 40'000 * kTimeScale;
    cfg.link_episodes.push_back(
        LinkEpisode::partition(0, 1, false, 150'000 * kTimeScale, 350'000 * kTimeScale));
    cfg.link_episodes.push_back(
        LinkEpisode::partition(0, 2, false, 550'000 * kTimeScale, 750'000 * kTimeScale));
    cfg.seed = 311;

    const auto res = workload::run_experiment(cfg);
    SCOPED_TRACE(proto::system_name(sys));
    EXPECT_GT(res.committed, 0u);
    EXPECT_GT(res.link.dropped, 0u);
    EXPECT_GT(res.reliable.retransmits, 0u);
    for (const auto& v : res.violations) ADD_FAILURE() << v;
  }
}

}  // namespace
}  // namespace paris::test
