// Scenario-engine end-to-end tests on the thread runtime: generated
// schedules run checker-clean for both systems (the engine's core promise —
// adversarial schedules must not produce consistency violations, only
// counter activity), and a dedicated channel-fuzzing run proves the
// mutate-then-drop machinery exercises every rejection path without
// crashing or corrupting the history. Socket scenarios live in
// test_scenario_corpus.cc (they need the re-exec main()).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "scenario/scenario.h"
#include "workload/experiment.h"

namespace paris::test {
namespace {

using scenario::Scenario;
using scenario::ScenarioEvent;
using scenario::ScenarioOptions;

/// Sanitizer builds run several times slower; generated schedules stretch
/// their windows via the generator's own time_scale so instrumentation
/// queueing never reads as message loss.
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

void run_generated(proto::System sys, std::uint64_t seed) {
  ScenarioOptions opts;
  opts.system = sys;
  opts.runtime = runtime::Kind::kThreads;
  opts.time_scale = kTimeScale;
  const Scenario s = scenario::generate_scenario(seed, opts);
  SCOPED_TRACE(scenario::describe(s));

  workload::ExperimentConfig cfg;
  scenario::apply_scenario(s, cfg);
  const workload::ExperimentResult res = workload::run_experiment(cfg);

  for (const auto& v : res.violations) ADD_FAILURE() << v;
  EXPECT_GT(res.committed, 0u) << "scenario starved the workload entirely";

  // The schedule must actually have injected faults, not run a quiet cluster.
  bool has_fuzz = false, has_wan_loss = false;
  for (const auto& e : s.events) {
    has_fuzz |= e.kind == ScenarioEvent::Kind::kFuzz;
    has_wan_loss |= e.kind == ScenarioEvent::Kind::kWan && e.link.has_loss();
  }
  if (has_fuzz) {
    EXPECT_GT(res.fuzz.mutated, 0u) << "fuzz event scheduled but no frame mutated";
    EXPECT_EQ(res.fuzz.rejected_validate + res.fuzz.accepted_validate, res.fuzz.mutated);
  }
  if (has_wan_loss) {
    // The link counts sends shaped by ANY episode; rerun the schedule with
    // its WAN events alone so no other fault can stand in for them.
    Scenario wan_s = s;
    std::erase_if(wan_s.events,
                  [](const ScenarioEvent& e) { return e.kind != ScenarioEvent::Kind::kWan; });
    workload::ExperimentConfig wan_only;
    scenario::apply_scenario(wan_s, wan_only);
    const workload::ExperimentResult wan_res = workload::run_experiment(wan_only);
    for (const auto& v : wan_res.violations) ADD_FAILURE() << v;
    EXPECT_GT(wan_res.link.shaped, 0u) << "lossy WAN episode scheduled but shaped nothing";
  }
  // Reliable delivery is always on under scenarios; anything the faults ate
  // must have been recovered, which shows up as retransmissions unless the
  // schedule happened to drop nothing.
  EXPECT_GT(res.reliable.frames_sent, 0u);
}

// Seed 2 is one of the pinned corpus seeds (partition + chaos + fuzz on
// threads); running it freshly-generated here keeps the generator and the
// committed corpus file honest about describing the same schedule.
TEST(ScenarioE2e, GeneratedScheduleIsCheckerCleanParis) {
  run_generated(proto::System::kParis, 2);
}

TEST(ScenarioE2e, GeneratedScheduleIsCheckerCleanBpr) {
  run_generated(proto::System::kBpr, 2);
}

// Seed 3 (a partition and two WAN episodes, one with Gilbert–Elliott loss)
// is the pinned threads seed that exercises the lossy-WAN check.
TEST(ScenarioE2e, GeneratedWanScheduleIsCheckerCleanParis) {
  run_generated(proto::System::kParis, 3);
}

// Direct channel-fuzzing run with deliberately hot rates: every mutant must
// be either refused by wire validation or parsed-and-discarded, originals
// are dropped (reliable retransmits them), and captured frames replay as
// duplicates the dedup layer absorbs — all without a checker violation.
TEST(ScenarioE2e, ChannelFuzzingExercisesEveryRejectionPath) {
  workload::ExperimentConfig cfg;
  cfg.system = proto::System::kParis;
  cfg.runtime = runtime::Kind::kThreads;
  cfg.worker_threads = 2;
  cfg.num_dcs = 3;
  cfg.num_partitions = 4;
  cfg.replication = 2;
  cfg.threads_per_process = 1;
  cfg.workload.ops_per_tx = 4;
  cfg.workload.writes_per_tx = 2;
  cfg.workload.keys_per_partition = 100;
  cfg.warmup_us = 50'000 * kTimeScale;
  cfg.measure_us = 600'000 * kTimeScale;
  cfg.aws_latency = false;
  cfg.codec = sim::CodecMode::kBytes;
  cfg.check_consistency = true;
  cfg.reliable = true;
  cfg.reliable_cfg.rto_us = 10'000 * kTimeScale;
  cfg.reliable_cfg.adaptive_rto = false;
  cfg.reliable_cfg.max_rto_us = 40'000 * kTimeScale;
  cfg.fuzz.corrupt_p = 0.03;
  cfg.fuzz.replay_p = 0.03;
  cfg.seed = 17;

  const workload::ExperimentResult res = workload::run_experiment(cfg);

  for (const auto& v : res.violations) ADD_FAILURE() << v;
  EXPECT_GT(res.committed, 0u);
  EXPECT_GT(res.fuzz.mutated, 0u);
  EXPECT_EQ(res.fuzz.rejected_validate + res.fuzz.accepted_validate, res.fuzz.mutated);
  EXPECT_GT(res.fuzz.captured, 0u);
  EXPECT_GT(res.fuzz.replays, 0u);
  // 3% of frames were eaten: the reliable layer must have been retransmitting.
  EXPECT_GT(res.reliable.retransmits, 0u);
}

}  // namespace
}  // namespace paris::test
