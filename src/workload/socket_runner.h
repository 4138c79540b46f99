#pragma once
// Multi-process experiment orchestration for the socket runtime.
//
// A socket experiment is the SAME run_experiment() call, but the launcher
// side never builds a deployment: it serializes the ExperimentConfig to a
// file, re-executes its own binary once per process rank
// (`/proc/self/exe --paris-socket-child CFGFILE RANK OUTFILE`, stdout and
// stderr redirected to per-child log files), waits for the group, merges
// every child's stats/histograms, and — with check_consistency on — runs
// the exactness/causal/session checkers over the MERGED history: children
// record the events they host (commits at the origin coordinator, slices at
// the serving replica, session starts at the client) and ship them in the
// result file, so the launcher sees the complete cross-process execution.
//
// Any binary that can run --runtime=sockets must call
// maybe_run_socket_child() FIRST THING in main(): that is the hook the
// re-exec'd children are caught by. Binaries that never use sockets are
// unaffected (the call is a no-op without the marker argv).

#include <cstdint>
#include <string>
#include <vector>

#include "workload/experiment.h"

namespace paris::workload {

/// Child-process hook; see above. Never returns in a child (runs the
/// child's share of the experiment, writes the result file, exits).
void maybe_run_socket_child(int argc, char** argv);

namespace detail {

/// The single-process experiment body (sim, threads, or one socket child).
/// With `history_out` non-null the recorded history is serialized into it
/// and the offline checkers are NOT run here (the launcher checks the
/// merged history instead).
ExperimentResult run_local_experiment(const ExperimentConfig& cfg,
                                      std::vector<std::uint8_t>* history_out);

/// Launcher side: spawn children, wait, merge. Aborts via PARIS_CHECK on
/// plumbing failures; child crashes/timeouts surface as `violations`
/// entries (with the child log tails echoed to stderr) so callers fail
/// loudly without wedging.
ExperimentResult run_socket_parent(const ExperimentConfig& cfg);

/// Line-based (key value) config codec covering every field a socket run
/// can reach from the CLI/bench surface. The first line is a `cfgver N`
/// header; decode rejects a config from a different build with an error
/// naming both versions (mixed-version launcher/child), and still rejects
/// unknown keys within a matching version: a config silently dropping a
/// field would make children run a DIFFERENT experiment than the launcher
/// believes. `err` (optional) receives the human-readable reason.
std::string encode_experiment_config(const ExperimentConfig& cfg);
bool decode_experiment_config(const std::string& text, ExperimentConfig& cfg,
                              std::string* err = nullptr);

/// Binary child-result codec (wire::Encoder framing): every field of
/// ExperimentResult::fields, in list order, then the serialized history
/// blob. Decode returns false (never aborts) on a truncated file or a
/// foreign magic, e.g. a child built from another version.
void encode_child_result(const ExperimentResult& res,
                         const std::vector<std::uint8_t>& history,
                         std::vector<std::uint8_t>& out);
bool decode_child_result(const std::vector<std::uint8_t>& in, ExperimentResult& res,
                         std::vector<std::uint8_t>& history);

/// The launcher's view of a run: the children's results merged field by
/// field under each field's rule, then the derived values (rates,
/// summaries, avg_block_ms, local_hit_rate) computed from the merged ones.
ExperimentResult merge_child_results(const std::vector<ExperimentResult>& parts,
                                     const ExperimentConfig& cfg);

}  // namespace detail
}  // namespace paris::workload
