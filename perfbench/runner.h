#pragma once
// The benchmark's own single-process experiment runner (sim and threads
// runtimes). It wires a proto::Deployment the way workload::run_experiment
// does — same client layout, same session and engine seeds, hence the same
// transactions and the same open-loop workload digest — but it owns the
// phases, so it can
//   * time set-up (cluster build, schedule pre-draw, worker start) on its own,
//   * sample CPU, wire bytes and backend events exactly at the window edges,
//   * install its own proto::Tracer, and in a traced run drive the clients
//     through instrumented copies of the closed-loop session and the
//     open-loop engine, which time every protocol phase.

#include <cstdint>
#include <memory>
#include <vector>

#include "proto/server_base.h"
#include "stats/histogram.h"
#include "workload/experiment.h"

namespace perfbench {

using paris::workload::ExperimentConfig;

/// Exact-sample latency series (whole µs) of one phase of the traced run.
struct Series {
  std::vector<double> v;
  double pct(double q) const;  ///< quantile interpolated within a µs; 0 when empty
};

/// Inputs for the storage replay: what the traced run wrote and read.
struct ReplayWrite {
  paris::Timestamp ct;
  paris::TxId tx;
  paris::DcId sr = 0;
  paris::wire::WriteKV kv;
};
struct ReplaySlice {
  paris::Timestamp snapshot;
  std::uint8_t mode = 0;
  std::vector<paris::Key> keys;
};

/// Per-phase observations of a traced run (all windowed to the measurement
/// window; µs of runtime time — modeled on the sim, wall on threads).
struct PhaseData {
  Series start_us;      ///< Client::start_tx -> StartCb
  Series read_us;       ///< Client::read -> ReadCb
  Series commit_us;     ///< Client::commit -> CommitCb
  Series prepare_us;    ///< on_commit_writes -> on_commit_decided (coordinator)
  Series apply_us;      ///< decided -> on_applied in the origin DC
  Series replicate_us;  ///< decided -> on_replica_commit in a remote DC
  Series ust_gate_us;   ///< on_applied -> on_visible at the same replica
  Series ust_lag_us;    ///< now - UST at every on_ust_advance
  Series req_leg_us;    ///< read issued -> slice served (per slice)
  Series resp_leg_us;   ///< last slice served -> ReadCb
  std::uint64_t slices = 0;
  std::uint64_t remote_slices = 0;  ///< served outside the client's DC
  std::vector<ReplayWrite> writes;
  std::vector<ReplaySlice> reads;
};

struct RunOutput {
  double setup_s = 0;   ///< deployment build .. first due arrival (wall)
  double window_s = 0;  ///< measurement window length (runtime seconds)
  double run_s = 0;     ///< warmup + window + drain (runtime seconds)
  std::uint64_t committed = 0;  ///< transactions finished inside the window
  // Open loop only.
  std::uint64_t scheduled = 0;  ///< arrivals scheduled inside the window
  std::uint64_t overdue = 0;
  std::uint64_t max_backlog = 0;
  std::uint64_t arrivals = 0;    ///< every arrival of the run, warmup included
  std::uint64_t unfinished = 0;  ///< arrivals not finished when the drain ends
  std::uint64_t digest = 0;      ///< XOR of the engines' schedule digests
  paris::stats::Histogram latency;  ///< µs; open loop: intended latency
  paris::stats::Histogram service;  ///< µs; open loop only
  paris::stats::Histogram visibility;  ///< µs, commit -> visible per replica
  double cpu_s = 0;             ///< process CPU (user + sys) inside the window
  std::uint64_t bytes = 0;      ///< transport bytes inside the window
  std::uint64_t events = 0;     ///< backend events inside the window
  std::uint64_t keys_read = 0;  ///< whole run, client stats
  std::uint64_t local_hits = 0;
  paris::proto::ServerBase::Stats server;  ///< whole run
  std::unique_ptr<PhaseData> phases;       ///< traced runs only
};

/// Runs one experiment (cfg.runtime must be kSim or kThreads). `traced`
/// installs the per-phase tracer and the instrumented drivers. After the
/// window the run goes on for `drain_us`, so updates committed late in the
/// window still become visible everywhere and count in the visibility
/// histogram, and open-loop arrivals still in flight can finish; nothing
/// else is measured during the drain.
RunOutput run_local(const ExperimentConfig& cfg, bool traced, std::uint64_t drain_us);

/// Micro-costs of the storage layer, from replaying writes and reads into a
/// benchmark-owned store::MvStore.
struct StorageCost {
  double read_ns_per_key = 0;
  double apply_ns_per_write = 0;
  double versions_per_key = 0;
  double gc_ns_per_version = 0;
};
StorageCost replay_storage(std::vector<ReplayWrite> writes, const std::vector<ReplaySlice>& reads);

/// Process CPU time (user + system) of this process so far, seconds.
double self_cpu_s();
/// CPU time of reaped child processes so far, seconds.
double children_cpu_s();

}  // namespace perfbench
