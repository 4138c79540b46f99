// Corpus-replay suite: every committed tests/corpus/*.scenario file — each
// one a schedule that either found a real bug (minimized repro) or pins a
// representative generated cell — must replay checker-clean forever. The
// files are pinned at real-time scale; sanitizer builds stretch them through
// scenario::scale_time so instrumentation slowdown never reads as loss.
//
// Socket scenarios re-exec this binary as children, so it defines its own
// main() with the maybe_run_socket_child() hook (same pattern as
// test_recovery.cc). Each socket scenario listens on loopback ports the
// kernel hands out (port 0 binds), so the suite holds no port registry row
// and cannot collide with another suite under `ctest -j`.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/endpoint.h"
#include "scenario/scenario.h"
#include "workload/experiment.h"
#include "workload/socket_runner.h"

namespace paris::test {
namespace {

namespace fs = std::filesystem;
using scenario::Scenario;

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

std::vector<fs::path> corpus_files() {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(PARIS_CORPUS_DIR)) {
    if (entry.path().extension() == ".scenario") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(ScenarioCorpus, EveryPinnedScheduleReplaysClean) {
  const std::vector<fs::path> files = corpus_files();
  // The acceptance floor: a thinned-out corpus is a silent loss of
  // regression coverage, so the suite fails rather than passing vacuously.
  ASSERT_GE(files.size(), 5u) << "corpus at " << PARIS_CORPUS_DIR << " lost files";

  for (const fs::path& path : files) {
    SCOPED_TRACE(path.filename().string());
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "unreadable corpus file";
    std::ostringstream text;
    text << in.rdbuf();

    Scenario s;
    ASSERT_TRUE(scenario::decode_scenario(text.str(), s))
        << "corpus file no longer decodes — codec/version skew";
    scenario::scale_time(s, kTimeScale);
    SCOPED_TRACE(scenario::describe(s));

    workload::ExperimentConfig cfg;
    scenario::apply_scenario(s, cfg);
    if (s.runtime == runtime::Kind::kSockets) {
      cfg.socket.hosts =
          runtime::free_loopback_host_list(cfg.socket.resolve_processes(cfg.num_dcs));
      ASSERT_FALSE(cfg.socket.hosts.empty()) << "no free loopback ports";
    }
    const workload::ExperimentResult res = workload::run_experiment(cfg);

    for (const auto& v : res.violations) ADD_FAILURE() << v;
    EXPECT_GT(res.committed, 0u) << "replay starved the workload";
    if (s.has_kill()) {
      EXPECT_GE(res.respawns, 1u) << "kill schedule replayed without a respawn";
    }
  }
}

}  // namespace
}  // namespace paris::test

// Socket scenarios re-exec this binary as children; the hook must intercept
// them before gtest parses argv (it exits in the child).
int main(int argc, char** argv) {
  paris::workload::maybe_run_socket_child(argc, argv);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
