// Scenario-engine unit tests (DESIGN §13): generator determinism, corpus
// codec exactness, time scaling, greedy shrinker fixpoint, how a schedule
// folds onto link episodes, and the WAN episodes' statistical/ordering
// contracts (Gilbert–Elliott burstiness, bandwidth-pipe FIFO, directional
// shaping). No sockets here — this suite binds no ports and runs fully
// in-process.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/link_transport.h"
#include "runtime/thread_runtime.h"
#include "scenario/scenario.h"

namespace paris::test {
namespace {

using runtime::LinkEpisode;
using runtime::LinkTransport;
using runtime::ThreadBackend;
using scenario::Scenario;
using scenario::ScenarioEvent;
using scenario::ScenarioOptions;

ScenarioOptions socket_opts() {
  ScenarioOptions o;
  o.runtime = runtime::Kind::kSockets;
  return o;
}

// ---------------------------------------------------------------------------
// Generator.
// ---------------------------------------------------------------------------

TEST(ScenarioGenerator, DeterministicPerSeed) {
  const Scenario a = scenario::generate_scenario(7, socket_opts());
  const Scenario b = scenario::generate_scenario(7, socket_opts());
  EXPECT_EQ(scenario::encode_scenario(a), scenario::encode_scenario(b));

  // Different seeds draw different schedules (not for literally every pair,
  // but across a small window at least one must differ in the encoding).
  bool any_diff = false;
  for (std::uint64_t s = 8; s < 12 && !any_diff; ++s) {
    any_diff = scenario::encode_scenario(scenario::generate_scenario(s, socket_opts())) !=
               scenario::encode_scenario(a);
  }
  EXPECT_TRUE(any_diff);
}

TEST(ScenarioGenerator, KillsRequireSupervisedSockets) {
  ScenarioOptions threads;  // defaults: threads runtime
  ScenarioOptions no_kill = socket_opts();
  no_kill.allow_kill = false;
  bool socket_kill_seen = false;
  for (std::uint64_t s = 1; s <= 40; ++s) {
    EXPECT_FALSE(scenario::generate_scenario(s, threads).has_kill()) << "seed " << s;
    EXPECT_FALSE(scenario::generate_scenario(s, no_kill).has_kill()) << "seed " << s;
    socket_kill_seen |= scenario::generate_scenario(s, socket_opts()).has_kill();
  }
  EXPECT_TRUE(socket_kill_seen) << "40 socket seeds drew no kill at 35% each";
}

TEST(ScenarioGenerator, MembershipNeverCoexistsWithKillAndStaysRunnable) {
  ScenarioOptions no_memb = socket_opts();
  no_memb.allow_membership = false;
  bool join_seen = false, leave_seen = false;
  for (std::uint64_t s = 1; s <= 60; ++s) {
    EXPECT_FALSE(scenario::generate_scenario(s, no_memb).has_membership())
        << "seed " << s;
    for (const auto rt : {runtime::Kind::kThreads, runtime::Kind::kSockets}) {
      ScenarioOptions o;
      o.runtime = rt;
      const Scenario g = scenario::generate_scenario(s, o);
      // Supervised respawn and elastic membership are mutually exclusive in
      // the deployment; a generated schedule must always be runnable.
      EXPECT_FALSE(g.has_kill() && g.has_membership()) << "seed " << s;
      const std::uint32_t ranks =
          rt == runtime::Kind::kSockets ? g.socket_processes : g.num_dcs;
      for (const auto& e : g.events) {
        if (e.kind != ScenarioEvent::Kind::kJoin &&
            e.kind != ScenarioEvent::Kind::kLeave)
          continue;
        (e.kind == ScenarioEvent::Kind::kJoin ? join_seen : leave_seen) = true;
        // Rank 0 anchors the original view and donates state; the event must
        // land inside the run window.
        EXPECT_GE(e.memb_rank, 1u) << "seed " << s;
        EXPECT_LT(e.memb_rank, ranks) << "seed " << s;
        EXPECT_LT(e.memb_at_ms * 1000, g.warmup_us + g.measure_us) << "seed " << s;
      }
    }
  }
  EXPECT_TRUE(join_seen) << "60 seeds x 2 runtimes drew no join";
  EXPECT_TRUE(leave_seen) << "60 seeds x 2 runtimes drew no leave";
}

// ---------------------------------------------------------------------------
// Codec.
// ---------------------------------------------------------------------------

TEST(ScenarioCodec, RoundTripIsByteExact) {
  for (std::uint64_t s = 1; s <= 25; ++s) {
    for (const auto rt : {runtime::Kind::kThreads, runtime::Kind::kSockets}) {
      ScenarioOptions o;
      o.runtime = rt;
      o.system = (s % 2 != 0) ? proto::System::kParis : proto::System::kBpr;
      const Scenario orig = scenario::generate_scenario(s, o);
      const std::string text = scenario::encode_scenario(orig);
      Scenario back;
      ASSERT_TRUE(scenario::decode_scenario(text, back)) << text;
      EXPECT_EQ(scenario::encode_scenario(back), text) << "seed " << s;
      EXPECT_EQ(scenario::describe(back), scenario::describe(orig));
    }
  }
}

TEST(ScenarioCodec, RejectsUnknownKeysEventsAndValues) {
  Scenario s;
  EXPECT_TRUE(scenario::decode_scenario("seed 9\nsystem bpr\n# comment line\n", s));
  EXPECT_EQ(s.seed, 9u);
  EXPECT_EQ(s.system, proto::System::kBpr);

  // Version skew must fail loudly, not silently drop faults.
  EXPECT_FALSE(scenario::decode_scenario("bogus 1\n", s));
  EXPECT_FALSE(scenario::decode_scenario("event warp 1 2 3\n", s));
  EXPECT_FALSE(scenario::decode_scenario("system klingon\n", s));
  EXPECT_FALSE(scenario::decode_scenario("runtime fibers\n", s));
  EXPECT_FALSE(scenario::decode_scenario("event kill 1\n", s));  // truncated fields
}

// ---------------------------------------------------------------------------
// scale_time.
// ---------------------------------------------------------------------------

TEST(ScenarioScaleTime, StretchesWindowsAndLeavesRatesAlone) {
  Scenario s = scenario::generate_scenario(2, socket_opts());
  // Make sure the schedule exercises every scaled field.
  ScenarioEvent kill;
  kill.kind = ScenarioEvent::Kind::kKill;
  kill.kill_rank = 1;
  kill.kill_after_ms = 300;
  s.events.push_back(kill);

  Scenario scaled = s;
  scenario::scale_time(scaled, 5);
  EXPECT_EQ(scaled.warmup_us, s.warmup_us * 5);
  EXPECT_EQ(scaled.measure_us, s.measure_us * 5);
  EXPECT_EQ(scaled.rto_us, s.rto_us * 5);
  EXPECT_EQ(scaled.max_rto_us, s.max_rto_us * 5);
  ASSERT_EQ(scaled.events.size(), s.events.size());
  for (std::size_t i = 0; i < s.events.size(); ++i) {
    const ScenarioEvent& a = s.events[i];
    const ScenarioEvent& b = scaled.events[i];
    ASSERT_EQ(a.kind, b.kind);
    switch (a.kind) {
      case ScenarioEvent::Kind::kPartition:
      case ScenarioEvent::Kind::kWan:
        EXPECT_EQ(b.link.start_us, a.link.start_us * 5);
        EXPECT_EQ(b.link.end_us, a.link.end_us * 5);
        // Link character models the link, not the slowed execution.
        EXPECT_EQ(b.link.extra_delay_end_us, a.link.extra_delay_end_us);
        EXPECT_EQ(b.link.bandwidth_bytes_per_us, a.link.bandwidth_bytes_per_us);
        EXPECT_EQ(b.link.loss_bad, a.link.loss_bad);
        break;
      case ScenarioEvent::Kind::kKill:
        EXPECT_EQ(b.kill_after_ms, a.kill_after_ms * 5);
        break;
      default:
        break;  // chaos/fuzz/skew carry only rates — untouched by design
    }
  }

  Scenario ident = s;
  scenario::scale_time(ident, 1);
  EXPECT_EQ(scenario::encode_scenario(ident), scenario::encode_scenario(s));
}

// ---------------------------------------------------------------------------
// Shrinker.
// ---------------------------------------------------------------------------

TEST(ScenarioShrinker, GreedyDropReachesAMinimalFixpoint) {
  Scenario s;
  for (int i = 0; i < 3; ++i) {
    ScenarioEvent e;
    e.kind = ScenarioEvent::Kind::kWan;
    e.link.start_us = 1000u * static_cast<std::uint64_t>(i + 1);
    s.events.push_back(e);
  }
  ScenarioEvent part;
  part.kind = ScenarioEvent::Kind::kPartition;
  s.events.push_back(part);
  ScenarioEvent fz;
  fz.kind = ScenarioEvent::Kind::kFuzz;
  fz.fuzz_corrupt_p = 0.01;
  s.events.push_back(fz);

  // Synthetic oracle: the "violation" needs a partition AND a fuzz event —
  // a conjunction, so the shrinker must keep exactly one of each.
  const auto violates = [](const Scenario& c) {
    bool p = false, f = false;
    for (const auto& e : c.events) {
      p |= e.kind == ScenarioEvent::Kind::kPartition;
      f |= e.kind == ScenarioEvent::Kind::kFuzz;
    }
    return p && f;
  };

  std::uint32_t probes = 0;
  const Scenario shrunk = scenario::shrink_scenario(s, violates, &probes);
  ASSERT_EQ(shrunk.events.size(), 2u);
  EXPECT_TRUE(violates(shrunk)) << "shrunk schedule no longer violates";
  EXPECT_GT(probes, 0u);

  // Fixpoint: shrinking the shrunk schedule changes nothing, and every
  // probe fails (each remaining event is load-bearing).
  std::uint32_t probes2 = 0;
  const Scenario again = scenario::shrink_scenario(shrunk, violates, &probes2);
  EXPECT_EQ(scenario::encode_scenario(again), scenario::encode_scenario(shrunk));
  EXPECT_EQ(probes2, 2u);
}

// ---------------------------------------------------------------------------
// apply_scenario: every link fault becomes one episode.
// ---------------------------------------------------------------------------

TEST(ScenarioApply, FoldsLinkFaultsIntoEpisodes) {
  Scenario s;
  s.rto_us = 7'000;
  ScenarioEvent part;
  part.kind = ScenarioEvent::Kind::kPartition;
  part.link = LinkEpisode::partition(2, 0, true, 100, 200);
  ScenarioEvent wan;
  wan.kind = ScenarioEvent::Kind::kWan;
  wan.link.links = LinkEpisode::Links::kPair;
  wan.link.bandwidth_bytes_per_us = 4;
  ScenarioEvent c1, c2;
  c1.kind = c2.kind = ScenarioEvent::Kind::kChaos;
  c1.chaos_drop_p = 0.02;
  c2.chaos_reorder_p = 0.03;
  s.events = {part, c1, wan, c2};

  workload::ExperimentConfig cfg;
  scenario::apply_scenario(s, cfg);
  // Partition and WAN events map one to one, in order; the chaos events
  // fold into ONE whole-run, every-channel episode appended last.
  ASSERT_EQ(cfg.link_episodes.size(), 3u);
  const LinkEpisode& p = cfg.link_episodes[0];
  EXPECT_EQ(p.links, LinkEpisode::Links::kIsolate);
  EXPECT_EQ(p.loss_good, 1.0);
  EXPECT_EQ(p.drop_class, runtime::DropClass::kAll);
  EXPECT_EQ(cfg.link_episodes[1].bandwidth_bytes_per_us, 4u);
  const LinkEpisode& chaos = cfg.link_episodes[2];
  EXPECT_EQ(chaos.links, LinkEpisode::Links::kEvery);
  EXPECT_EQ(chaos.loss_good, 0.02);
  EXPECT_EQ(chaos.stall_p, 0.03);
  EXPECT_EQ(chaos.stall_us, s.rto_us);
  EXPECT_EQ(chaos.drop_class, runtime::DropClass::kAll);

  // Isolation selects every inter-DC link of DC 2, never an intra-DC one.
  EXPECT_TRUE(p.active(2, 1, 150));
  EXPECT_TRUE(p.active(0, 2, 150));
  EXPECT_FALSE(p.active(0, 1, 150));
  EXPECT_FALSE(p.active(2, 2, 150));
  EXPECT_FALSE(p.active(2, 1, 200));  // the heal deadline is exclusive

  // Chaos events merge into a chaos episode already configured (paris_sim's
  // --chaos-* knobs) by the max of each knob, never a second one on top.
  workload::ExperimentConfig cli;
  LinkEpisode knobs = LinkEpisode::chaos();
  knobs.loss_good = 0.01;
  knobs.stall_p = 0.05;
  knobs.duplicate_p = 0.2;
  cli.link_episodes.push_back(knobs);
  scenario::apply_scenario(s, cli);
  ASSERT_EQ(cli.link_episodes.size(), 3u);
  const LinkEpisode& merged = cli.link_episodes[0];
  EXPECT_EQ(merged.loss_good, 0.02);
  EXPECT_EQ(merged.stall_p, 0.05);
  EXPECT_EQ(merged.duplicate_p, 0.2);
  EXPECT_EQ(merged.stall_us, s.rto_us);
  EXPECT_EQ(merged.drop_class, runtime::DropClass::kAll);
}

// ---------------------------------------------------------------------------
// WAN episodes: Gilbert–Elliott chain statistics and determinism.
// ---------------------------------------------------------------------------

/// Records heartbeat payloads and arrival times on the backend clock.
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

/// An inter-DC episode on the directed link 0 -> 1, for the whole run.
LinkEpisode link01() {
  LinkEpisode e;
  e.links = LinkEpisode::Links::kPair;
  e.a = 0;
  e.b = 1;
  return e;
}


LinkEpisode ge_episode(double pgb, double pbg) {
  LinkEpisode e = link01();
  e.p_good_bad = pgb;
  e.p_bad_good = pbg;
  e.loss_bad = 0.5;
  return e;
}

TEST(LinkGilbertElliott, BurstinessMatchesChainParameters) {
  ThreadBackend be(ThreadBackend::Options{2, 1});
  LinkTransport lt(be.transport(), be.exec(), std::nullopt, {ge_episode(0.1, 0.5)}, 42);

  const int kSlots = 5000;
  int bad = 0, runs = 0, run_len_total = 0, cur = 0;
  for (int i = 0; i < kSlots; ++i) {
    if (lt.ge_bad(0, static_cast<std::uint64_t>(i) * LinkTransport::kGeSlotUs)) {
      ++bad;
      ++cur;
    } else if (cur > 0) {
      ++runs;
      run_len_total += cur;
      cur = 0;
    }
  }
  // Stationary bad fraction = pgb / (pgb + pbg) = 1/6; mean bad-run length
  // = 1 / p_bad_good = 2 slots. Wide tolerances: 5000 slots of a chain with
  // ~1.7-slot correlation time give a std error well under these bounds.
  const double frac = static_cast<double>(bad) / kSlots;
  EXPECT_NEAR(frac, 1.0 / 6.0, 0.05);
  ASSERT_GT(runs, 0);
  const double mean_run = static_cast<double>(run_len_total) / runs;
  EXPECT_GT(mean_run, 1.4);
  EXPECT_LT(mean_run, 2.8);
  be.stop();
}

TEST(LinkGilbertElliott, ChainIsSeedDeterministicAcrossInstances) {
  ThreadBackend be(ThreadBackend::Options{2, 1});
  const std::vector<LinkEpisode> eps{ge_episode(0.2, 0.4)};
  LinkTransport t1(be.transport(), be.exec(), std::nullopt, eps, 42);
  LinkTransport t2(be.transport(), be.exec(), std::nullopt, eps, 42);
  LinkTransport t3(be.transport(), be.exec(), std::nullopt, eps, 43);

  bool any_diff = false;
  for (int i = 0; i < 512; ++i) {
    const std::uint64_t now = static_cast<std::uint64_t>(i) * LinkTransport::kGeSlotUs;
    EXPECT_EQ(t1.ge_bad(0, now), t2.ge_bad(0, now)) << "slot " << i;
    any_diff |= t1.ge_bad(0, now) != t3.ge_bad(0, now);
  }
  EXPECT_TRUE(any_diff) << "different seed produced an identical 512-slot chain";
  be.stop();
}

// ---------------------------------------------------------------------------
// WAN episodes: bandwidth FIFO and directional shaping (thread backend).
// ---------------------------------------------------------------------------

TEST(LinkBandwidth, CapSerializesTheLinkFifo) {
  ThreadBackend be(ThreadBackend::Options{2, 1});
  ArrivalActor a(be.exec()), b(be.exec());
  const NodeId na = be.add_node(&a, 0, nullptr);
  const NodeId nb = be.add_node(&b, 1, nullptr);
  LinkEpisode ep = link01();
  ep.bandwidth_bytes_per_us = 1;  // 1 MB/s: every heartbeat costs >= 2us
  LinkTransport lt(be.transport(), be.exec(), std::nullopt, {ep}, 1);

  const int kMsgs = 40;
  // The whole burst enters at one send time, so it queues however slowly a
  // sanitizer build issues the sends.
  const std::uint64_t sent_at = be.exec().now_us();
  for (int i = 0; i < kMsgs; ++i) {
    lt.send_at(na, nb, heartbeat(static_cast<std::uint64_t>(i)), sent_at);
  }
  be.run_for(300'000);
  be.stop();

  ASSERT_EQ(b.values.size(), static_cast<std::size_t>(kMsgs));
  for (int i = 0; i < kMsgs; ++i) {
    EXPECT_EQ(b.values[i], static_cast<std::uint64_t>(i));  // FIFO through the pipe
    if (i > 0) {
      EXPECT_GE(b.at_us[i], b.at_us[i - 1]);
    }
  }
  // The pipe drains 1 byte/us and each encoded heartbeat is >= 2 bytes, so
  // the last departure is at least kMsgs * 2us after the burst went in
  // (scheduling can add lateness, never remove serialization delay).
  EXPECT_GE(b.at_us.back(), sent_at + static_cast<std::uint64_t>(kMsgs) * 2);
  const LinkTransport::Stats st = lt.stats();
  EXPECT_EQ(st.shaped, static_cast<std::uint64_t>(kMsgs));
  EXPECT_GT(st.bw_queued, 0u) << "a 40-message burst never waited behind the pipe";
}

TEST(LinkAsymmetry, ShapesOnlyTheNamedDirection) {
  ThreadBackend be(ThreadBackend::Options{2, 1});
  ArrivalActor a(be.exec()), b(be.exec());
  const NodeId na = be.add_node(&a, 0, nullptr);
  const NodeId nb = be.add_node(&b, 1, nullptr);
  LinkEpisode ep = link01();  // asymmetric: only 0 -> 1 is degraded
  ep.extra_delay_start_us = 50'000;
  ep.extra_delay_end_us = 50'000;
  LinkTransport lt(be.transport(), be.exec(), std::nullopt, {ep}, 1);

  const std::uint64_t sent_at = be.exec().now_us();
  lt.send(na, nb, heartbeat(1));
  lt.send(nb, na, heartbeat(2));
  be.run_for(200'000);
  be.stop();

  ASSERT_EQ(b.values.size(), 1u);
  ASSERT_EQ(a.values.size(), 1u);
  EXPECT_GE(b.at_us[0], sent_at + 50'000) << "degraded direction missed its extra delay";
  EXPECT_LT(a.at_us[0], b.at_us[0]) << "reverse direction was shaped too";
}

}  // namespace
}  // namespace paris::test
