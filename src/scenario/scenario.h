#pragma once
// Scenario engine (DESIGN.md §13): seeded adversarial fault schedules.
//
// A Scenario is a fully materialized run plan — cluster shape, run window,
// and a list of fault EVENTS (DC partitions, WAN link episodes, chaos
// knobs, live channel fuzzing, clock skew, rank kills) — drawn once from a
// seed by generate_scenario(). The same seed always yields the same
// schedule, and every event executes through deterministic machinery (the
// counter-hash link episodes and fuzzer, the launcher's timed kill), so a
// scenario reproduces per seed on both the thread backend and the
// multi-process socket backend.
//
// The flow the fuzz tooling builds on:
//
//   seed -> generate_scenario -> apply_scenario -> run_experiment
//        -> (violations?) -> shrink_scenario -> encode_scenario -> corpus
//
// Corpus files (tests/corpus/*.scenario) are the text encoding; they replay
// forever in CI via decode_scenario + run_experiment, so every schedule
// that ever found a bug keeps guarding against its return.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "workload/experiment.h"

namespace paris::scenario {

/// One fault event. A tagged struct rather than a class hierarchy: the
/// shrinker drops events wholesale and the codec writes them line-per-line,
/// both of which want flat value semantics.
struct ScenarioEvent {
  enum class Kind : std::uint8_t {
    kPartition,  ///< scheduled inter-DC blackout window
    kWan,        ///< WAN link episode (delay ramp / bandwidth / burst loss)
    kChaos,      ///< uniform reorder/drop/duplicate knobs, whole run
    kFuzz,       ///< live channel fuzzing (mutate-then-drop + replay)
    kSkew,       ///< NTP offset spread + clock drift across servers
    kKill,       ///< timed SIGKILL of a socket rank (supervised respawn)
    kJoin,       ///< elastic membership: a rank's DCs join mid-run
    kLeave,      ///< elastic membership: a rank's DCs drain and leave
  };
  Kind kind = Kind::kPartition;

  runtime::LinkEpisode link{};  // kPartition (a blackout) and kWan
  double chaos_reorder_p = 0;   // kChaos...
  double chaos_drop_p = 0;
  double chaos_duplicate_p = 0;
  double fuzz_corrupt_p = 0;  // kFuzz...
  double fuzz_replay_p = 0;
  std::int64_t skew_ntp_error_us = 0;  // kSkew...
  double skew_drift_ppm = 0;
  std::int32_t kill_rank = -1;  // kKill...
  std::uint64_t kill_after_ms = 0;
  std::uint32_t memb_rank = 0;  // kJoin/kLeave...
  std::uint64_t memb_at_ms = 0;
};

const char* scenario_event_kind_name(ScenarioEvent::Kind k);

/// A materialized fault schedule plus the base run it applies to.
struct Scenario {
  std::uint64_t seed = 0;  ///< generator identity (recorded in corpus files)
  proto::System system = proto::System::kParis;
  /// kThreads or kSockets (the launcher side; children spawn themselves).
  runtime::Kind runtime = runtime::Kind::kThreads;
  std::uint32_t num_dcs = 3;
  std::uint32_t num_partitions = 4;
  std::uint32_t replication = 2;
  std::uint32_t threads_per_process = 1;
  std::uint32_t socket_processes = 3;  ///< sockets only
  std::uint64_t warmup_us = 50'000;
  std::uint64_t measure_us = 700'000;
  /// Uniform inter-DC one-way delay; kNone leaves delivery instant and the
  /// WAN episodes as the only delay source.
  std::uint64_t inter_dc_us = 5'000;
  runtime::LatencyModelKind latency_model = runtime::LatencyModelKind::kNone;
  /// Reliable-layer RTO for this run; the generator scales it with
  /// time_scale so sanitizer queueing delay never reads as loss.
  std::uint64_t rto_us = 10'000;
  std::uint64_t max_rto_us = 40'000;
  std::vector<ScenarioEvent> events;

  bool has_kill() const {
    for (const auto& e : events)
      if (e.kind == ScenarioEvent::Kind::kKill) return true;
    return false;
  }
  bool has_membership() const {
    for (const auto& e : events)
      if (e.kind == ScenarioEvent::Kind::kJoin || e.kind == ScenarioEvent::Kind::kLeave)
        return true;
    return false;
  }
};

/// Generator knobs. `time_scale` stretches every window (sanitizer builds);
/// `allow_kill` gates rank kills (they need the supervised socket launcher,
/// so threads scenarios never draw them regardless).
struct ScenarioOptions {
  proto::System system = proto::System::kParis;
  runtime::Kind runtime = runtime::Kind::kThreads;
  bool allow_kill = true;
  /// Gates elastic join/leave draws. A scenario never carries BOTH a kill
  /// and a membership event: supervised respawn and elastic membership are
  /// mutually exclusive in the deployment, so the generator keeps them so.
  bool allow_membership = true;
  std::uint64_t time_scale = 1;
};

/// Draws a full fault schedule from the seed. Pure: same (seed, opts) ->
/// same Scenario, on every platform.
Scenario generate_scenario(std::uint64_t seed, const ScenarioOptions& opts);

/// Folds the scenario into a runnable ExperimentConfig: cluster shape, the
/// run window, reliable delivery + consistency checking always on (the
/// whole point is that the checker stays green), and every event mapped
/// onto its link episode / fuzz / launcher knob. Socket port/dir fields are
/// left for the caller.
void apply_scenario(const Scenario& s, workload::ExperimentConfig& cfg);

/// Multiplies every time field — run window, RTOs, event windows, the kill
/// delay — by k. Corpus files are pinned at real-time scale; sanitizer
/// builds replay them through scale_time so instrumentation slowdown never
/// reads as message loss. k=1 is the identity.
void scale_time(Scenario& s, std::uint64_t k);

/// Text codec (corpus files). Line-oriented, '#' comments, unknown keys
/// rejected so version skew fails loudly rather than silently dropping
/// faults. decode accepts what encode produces (round-trip exact).
std::string encode_scenario(const Scenario& s);
bool decode_scenario(const std::string& text, Scenario& out);

/// One-line human summary ("seed=42 paris/threads 3dc ev=[wan wan fuzz]").
std::string describe(const Scenario& s);

/// Greedy event-drop minimization: repeatedly tries removing each event,
/// keeping any removal after which `still_violates` holds, until a fixpoint
/// (no single removal preserves the violation). The predicate is injected
/// so tests can shrink without running experiments; the runner passes
/// run-and-check. Returns the shrunk scenario; `probes` (optional) counts
/// predicate invocations.
Scenario shrink_scenario(Scenario s, const std::function<bool(const Scenario&)>& still_violates,
                         std::uint32_t* probes = nullptr);

}  // namespace paris::scenario
