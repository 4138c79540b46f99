#include "workload/socket_runner.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "common/assert.h"
#include "runtime/endpoint.h"
#include "runtime/process_group.h"
#include "verify/history.h"
#include "wire/buffer.h"

namespace paris::workload {
namespace detail {

namespace {

// ---------------------------------------------------------------------------
// Config codec (key value lines).
// ---------------------------------------------------------------------------

/// Codec version, the FIRST line of every encoded config (`cfgver N`). A
/// launcher and a child from different builds disagree loudly — "config is
/// cfgver X, this binary speaks Y" — instead of the old behavior where the
/// decoder's unknown-key rejection produced an unexplained failure (or,
/// worse, an OLDER child silently ignoring a key would run a different
/// experiment than the launcher believes). Bump on ANY codec change: new
/// key, removed key, or changed value semantics.
///   v1: unversioned historical format (no cfgver line).
///   v2: cfgver header; socket_hosts; membership_event lines.
///   v3: link_episode lines replace the chaos_* keys, partition_window,
///       wan_episode and the seeds; socket_pump and socket_batch_io gone.
///   v4: socket_base_port and fuzz_seed gone.
constexpr std::uint64_t kConfigCodecVersion = 4;

/// Every single-token key of the config file, in file order, with the
/// member it carries. Encode and decode both walk this list; the repeated
/// membership_event and link_episode lines follow it.
template <class F, class C>
void config_fields(F&& f, C& c) {
  f("system", c.system);
  f("worker_threads", c.worker_threads);
  f("num_dcs", c.num_dcs);
  f("num_partitions", c.num_partitions);
  f("replication", c.replication);
  f("ops_per_tx", c.workload.ops_per_tx);
  f("writes_per_tx", c.workload.writes_per_tx);
  f("partitions_per_tx", c.workload.partitions_per_tx);
  f("multi_dc_ratio", c.workload.multi_dc_ratio);
  f("keys_per_partition", c.workload.keys_per_partition);
  f("zipf_theta", c.workload.zipf_theta);
  f("value_size", c.workload.value_size);
  f("key_dist", c.workload.key_dist);
  f("hot_key_frac", c.workload.hot_key_frac);
  f("hot_access_frac", c.workload.hot_access_frac);
  f("openloop_enabled", c.openloop.enabled);
  f("arrival_rate", c.openloop.arrival_rate);
  f("openloop_sessions", c.openloop.sessions);
  f("rate_profile", c.openloop.profile);
  f("diurnal_amp", c.openloop.diurnal_amp);
  f("diurnal_period_us", c.openloop.diurnal_period_us);
  f("flash_mult", c.openloop.flash_mult);
  f("flash_at_us", c.openloop.flash_at_us);
  f("flash_len_us", c.openloop.flash_len_us);
  f("trace_path", c.openloop.trace_path);
  f("threads_per_process", c.threads_per_process);
  f("warmup_us", c.warmup_us);
  f("measure_us", c.measure_us);
  f("seed", c.seed);
  f("check_consistency", c.check_consistency);
  f("measure_visibility", c.measure_visibility);
  f("visibility_sample_shift", c.visibility_sample_shift);
  f("delta_r_us", c.protocol.delta_r_us);
  f("delta_g_us", c.protocol.delta_g_us);
  f("delta_u_us", c.protocol.delta_u_us);
  f("gc_interval_us", c.protocol.gc_interval_us);
  f("tree_fanout", c.protocol.tree_fanout);
  f("ntp_error_us", c.protocol.ntp_error_us);
  f("drift_ppm", c.protocol.drift_ppm);
  f("bpr_gc_retention_us", c.protocol.bpr_gc_retention_us);
  f("tx_context_timeout_us", c.protocol.tx_context_timeout_us);
  f("placement_policy", c.protocol.placement_policy);
  f("sketch_capacity", c.protocol.sketch_capacity);
  f("sketch_report_period_us", c.protocol.sketch_report_period_us);
  f("migrate_top_k", c.protocol.migrate_top_k);
  f("migrate_at_us", c.protocol.migrate_at_us);
  f("migrate_fault_skip_copy", c.protocol.migrate_fault_skip_copy);
  f("aws_latency", c.aws_latency);
  f("uniform_inter_dc_us", c.uniform_inter_dc_us);
  f("uniform_intra_dc_us", c.uniform_intra_dc_us);
  f("latency_model", c.latency_model);
  f("reliable", c.reliable);
  f("rto_us", c.reliable_cfg.rto_us);
  f("max_rto_us", c.reliable_cfg.max_rto_us);
  f("scan_period_us", c.reliable_cfg.scan_period_us);
  f("fast_retx_guard_us", c.reliable_cfg.fast_retx_guard_us);
  f("max_in_flight", c.reliable_cfg.max_in_flight);
  f("max_ooo_buffered", c.reliable_cfg.max_ooo_buffered);
  f("sack", c.reliable_cfg.sack);
  f("max_sack_ranges", c.reliable_cfg.max_sack_ranges);
  f("adaptive_rto", c.reliable_cfg.adaptive_rto);
  f("min_rto_us", c.reliable_cfg.min_rto_us);
  f("codec", c.codec);
  f("socket_processes", c.socket.processes);
  f("socket_hosts", c.socket.hosts);
  f("socket_connect_timeout_ms", c.socket.connect_timeout_ms);
  f("socket_mesh_token", c.socket.mesh_token);
  f("socket_supervise", c.socket.supervise);
  f("socket_max_respawns", c.socket.max_respawns);
  f("socket_kill_rank", c.socket.kill_rank);
  f("socket_kill_after_ms", c.socket.kill_after_ms);
  f("socket_outbound_budget", c.socket.outbound_budget);
  f("socket_stall_rank", c.socket.stall_rank);
  f("socket_stall_peer", c.socket.stall_peer);
  f("socket_stall_at_ms", c.socket.stall_at_ms);
  f("socket_stall_len_ms", c.socket.stall_len_ms);
  f("fuzz_corrupt_p", c.fuzz.corrupt_p);
  f("fuzz_replay_p", c.fuzz.replay_p);
  f("fuzz_max_capture_bytes", c.fuzz.max_capture_bytes);
}

using HostList = std::vector<runtime::Endpoint>;

/// One `key value` line. Integers travel as unsigned decimal (a negative
/// value such as kill_rank -1 wraps, and get() wraps it back), doubles as
/// %.17g so they round-trip exactly. An empty trace path or host list is
/// left out; neither can contain whitespace (the CLI rejects such trace
/// paths, and "h1:p1,h2:p2" has none by construction).
template <class T>
void put(std::ostringstream& o, const char* k, const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    if (!v.empty()) o << k << ' ' << v << '\n';
  } else if constexpr (std::is_same_v<T, HostList>) {
    if (!v.empty()) o << k << ' ' << runtime::format_host_list(v) << '\n';
  } else if constexpr (std::is_floating_point_v<T>) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    o << k << ' ' << buf << '\n';
  } else if constexpr (std::is_signed_v<T>) {
    o << k << ' ' << static_cast<std::uint64_t>(static_cast<std::int64_t>(v)) << '\n';
  } else {
    o << k << ' ' << static_cast<std::uint64_t>(v) << '\n';
  }
}

template <class T>
bool get(const std::string& val, T& m, std::string* err) {
  const std::uint64_t u = std::strtoull(val.c_str(), nullptr, 10);
  if constexpr (std::is_same_v<T, std::string>) {
    m = val;
  } else if constexpr (std::is_same_v<T, HostList>) {
    return runtime::parse_host_list(val, &m, err);
  } else if constexpr (std::is_floating_point_v<T>) {
    m = std::atof(val.c_str());
  } else if constexpr (std::is_same_v<T, bool>) {
    m = u != 0;
  } else if constexpr (std::is_signed_v<T>) {
    m = static_cast<T>(static_cast<std::int64_t>(u));
  } else {
    m = static_cast<T>(u);
  }
  return true;
}

}  // namespace

std::string encode_experiment_config(const ExperimentConfig& c) {
  std::ostringstream o;
  put(o, "cfgver", kConfigCodecVersion);  // must stay the first line
  config_fields([&o](const char* k, const auto& v) { put(o, k, v); }, c);
  for (const proto::MembershipEvent& ev : c.membership.events) {
    o << "membership_event " << (ev.join ? 1 : 0) << ' ' << ev.rank << ' ' << ev.at_ms
      << '\n';
  }
  for (const auto& e : c.link_episodes) {
    char fp[160];
    std::snprintf(fp, sizeof(fp), "%.17g %.17g %.17g %.17g %.17g %.17g", e.loss_good,
                  e.loss_bad, e.p_good_bad, e.p_bad_good, e.duplicate_p, e.stall_p);
    o << "link_episode " << static_cast<unsigned>(e.links) << ' ' << e.a << ' ' << e.b << ' '
      << (e.symmetric ? 1 : 0) << ' ' << e.start_us << ' ' << e.end_us << ' ' << fp << ' '
      << static_cast<unsigned>(e.drop_class) << ' ' << e.stall_us << ' '
      << e.bandwidth_bytes_per_us << ' ' << e.extra_delay_start_us << ' '
      << e.extra_delay_end_us << '\n';
  }
  return o.str();
}

bool decode_experiment_config(const std::string& text, ExperimentConfig& c,
                              std::string* err) {
  std::istringstream in(text);
  std::string key;
  // The version gate comes before everything else: a config written by a
  // different build must fail on the HEADER, with a message naming both
  // versions, not on whichever key happens to differ first.
  {
    std::string ver;
    if (!(in >> key >> ver) || key != "cfgver") {
      if (err != nullptr) {
        *err = "config file has no 'cfgver' header: the launcher binary is older "
               "than this child (it speaks codec v" +
               std::to_string(kConfigCodecVersion) + ") — rebuild so both sides match";
      }
      return false;
    }
    const std::uint64_t v = std::strtoull(ver.c_str(), nullptr, 10);
    if (v != kConfigCodecVersion) {
      if (err != nullptr) {
        *err = "config file is codec v" + std::to_string(v) +
               " but this binary speaks v" + std::to_string(kConfigCodecVersion) +
               ": launcher/child version skew — rebuild so both sides match";
      }
      return false;
    }
  }
  while (in >> key) {
    if (key == "membership_event") {
      proto::MembershipEvent ev;
      std::uint32_t join = 0;
      if (!(in >> join >> ev.rank >> ev.at_ms)) {
        if (err != nullptr) *err = "truncated membership_event line";
        return false;
      }
      ev.join = join != 0;
      c.membership.events.push_back(ev);
      continue;
    }
    if (key == "link_episode") {
      runtime::LinkEpisode e;
      std::uint32_t links = 0, sym = 0, cls = 0;
      if (!(in >> links >> e.a >> e.b >> sym >> e.start_us >> e.end_us >> e.loss_good >>
            e.loss_bad >> e.p_good_bad >> e.p_bad_good >> e.duplicate_p >> e.stall_p >> cls >>
            e.stall_us >> e.bandwidth_bytes_per_us >> e.extra_delay_start_us >>
            e.extra_delay_end_us)) {
        if (err != nullptr) *err = "truncated link_episode line";
        return false;
      }
      e.links = static_cast<runtime::LinkEpisode::Links>(links);
      e.symmetric = sym != 0;
      e.drop_class = static_cast<runtime::DropClass>(cls);
      c.link_episodes.push_back(e);
      continue;
    }
    std::string val;
    if (!(in >> val)) {
      if (err != nullptr) *err = "config key '" + key + "' has no value (truncated file?)";
      return false;
    }
    bool known = false, ok = true;
    config_fields(
        [&](const char* k, auto& m) {
          if (known || key != k) return;
          known = true;
          ok = get(val, m, err);
        },
        c);
    if (!ok) return false;
    if (!known) {
      // Same cfgver should mean the same key set, so reaching here suggests
      // a forgotten version bump — still refuse, a silently-dropped field
      // would make this child run a DIFFERENT experiment than the launcher.
      if (err != nullptr) {
        *err = "unknown config key '" + key +
               "' despite matching cfgver: the codec changed without a version bump";
      }
      return false;
    }
  }
  c.runtime = runtime::Kind::kSockets;
  return true;
}

// ---------------------------------------------------------------------------
// Child-result codec.
// ---------------------------------------------------------------------------

namespace {

/// Bump with any change to ExperimentResult::fields (a field added, removed
/// or reordered, or a type changed): a child from another build then fails
/// the magic check instead of misparsing.
constexpr std::uint32_t kResultMagic = 0x50534b32;  // "PSK2"
/// Literal end-of-file marker: a truncated result file (partial flush,
/// child killed mid-write) loses it, so decode can reject gracefully
/// instead of tripping the Decoder's abort-on-truncation checks mid-blob.
constexpr std::uint8_t kResultTrailer[4] = {'P', 'S', 'K', '$'};

/// One listed result field: counters as varints, doubles by their bits,
/// histograms as their raw buckets.
template <class T>
void put_field(wire::Encoder& e, const T& v) {
  if constexpr (std::is_same_v<T, stats::Histogram>) {
    const auto r = v.raw();
    e.put_varint(r.count);
    e.put_varint(r.sum);
    e.put_varint(r.min);
    e.put_varint(r.max);
    e.put_varint(r.buckets.size());
    for (const auto& [idx, n] : r.buckets) {
      e.put_varint(idx);
      e.put_varint(n);
    }
  } else if constexpr (std::is_floating_point_v<T>) {
    e.put_varint(std::bit_cast<std::uint64_t>(v));
  } else {
    e.put_varint(v);
  }
}

template <class T>
void get_field(wire::Decoder& d, T& v) {
  if constexpr (std::is_same_v<T, stats::Histogram>) {
    stats::Histogram::Raw r;
    r.count = d.get_varint();
    r.sum = d.get_varint();
    r.min = d.get_varint();
    r.max = d.get_varint();
    for (std::uint64_t i = 0, n = d.get_varint(); i < n; ++i) {
      const auto idx = static_cast<std::uint32_t>(d.get_varint());
      r.buckets.emplace_back(idx, d.get_varint());
    }
    v = stats::Histogram();
    v.merge_raw(r);
  } else if constexpr (std::is_floating_point_v<T>) {
    v = std::bit_cast<T>(d.get_varint());
  } else {
    v = static_cast<T>(d.get_varint());
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool write_file(const std::string& path, const void* data, std::size_t n) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  out.flush();
  return out.good();
}

void dump_log_tail(const std::string& path) {
  const std::string log = read_file(path);
  const std::size_t tail = 4000;
  const std::size_t from = log.size() > tail ? log.size() - tail : 0;
  std::fprintf(stderr, "---- %s%s ----\n%s\n", path.c_str(),
               from != 0 ? " (tail)" : "", log.c_str() + from);
}

}  // namespace

void encode_child_result(const ExperimentResult& res,
                         const std::vector<std::uint8_t>& history,
                         std::vector<std::uint8_t>& out) {
  wire::Encoder e(out);
  e.put_varint(kResultMagic);
  ExperimentResult::fields([&e](const char*, Merge, const auto& v) { put_field(e, v); }, res);
  e.put_blob(history);
  out.insert(out.end(), kResultTrailer, kResultTrailer + sizeof(kResultTrailer));
}

bool decode_child_result(const std::vector<std::uint8_t>& in, ExperimentResult& res,
                         std::vector<std::uint8_t>& history) {
  // Integrity gate first: magic needs a 5-byte varint, and the trailer must
  // close the file — any truncation loses it, keeping the Decoder's
  // abort-on-malformed checks out of reach for the common corruption case.
  if (in.size() < 5 + sizeof(kResultTrailer) ||
      std::memcmp(in.data() + in.size() - sizeof(kResultTrailer), kResultTrailer,
                  sizeof(kResultTrailer)) != 0) {
    return false;
  }
  wire::Decoder d(in.data(), in.size() - sizeof(kResultTrailer));
  if (d.get_varint() != kResultMagic) return false;
  ExperimentResult::fields([&d](const char*, Merge, auto& v) { get_field(d, v); }, res);
  d.get_blob_into(history);
  return d.done();
}

ExperimentResult merge_child_results(const std::vector<ExperimentResult>& parts,
                                     const ExperimentConfig& cfg) {
  ExperimentResult res;
  for (const ExperimentResult& part : parts) merge_fields(res, part);
  const double window_s = static_cast<double>(cfg.measure_us) / 1e6;
  res.throughput_tx_s =
      window_s > 0 ? static_cast<double>(res.committed) / window_s : 0.0;
  res.latency_us = stats::Summary::of(res.latency_hist);
  if (cfg.openloop.enabled) {
    res.intended_rate_tx_s =
        window_s > 0 ? static_cast<double>(res.scheduled) / window_s : 0.0;
    res.achieved_rate_tx_s = res.throughput_tx_s;
    res.intended_us = stats::Summary::of(res.intended_hist);
    res.service_us = stats::Summary::of(res.service_hist);
  }
  res.avg_block_ms = res.blocked_reads != 0
                         ? static_cast<double>(res.blocked_time_us) /
                               static_cast<double>(res.blocked_reads) / 1000.0
                         : 0.0;
  res.local_hit_rate =
      res.keys_read != 0
          ? static_cast<double>(res.local_hits) / static_cast<double>(res.keys_read)
          : 0.0;
  return res;
}

// ---------------------------------------------------------------------------
// Launcher.
// ---------------------------------------------------------------------------

ExperimentResult run_socket_parent(const ExperimentConfig& cfg) {
  // Fork-bomb guard: a child process re-running the launcher path means
  // some binary used --runtime=sockets without routing its argv through
  // maybe_run_socket_child() first — each generation would spawn N more.
  PARIS_CHECK_MSG(std::getenv("PARIS_SOCKET_CHILD") == nullptr,
                  "socket launcher invoked INSIDE a socket child: the binary "
                  "did not call workload::maybe_run_socket_child() at the top "
                  "of main()");
  const auto wall_start = std::chrono::steady_clock::now();
  const std::uint32_t nprocs = cfg.socket.resolve_processes(cfg.num_dcs);
  PARIS_CHECK_MSG(nprocs >= 1 && nprocs <= cfg.num_dcs,
                  "sockets: --processes must be in [1, dcs] (ownership is dc %% processes)");
  // Every mesh gets a distinct hello token so two concurrent runs sharing
  // a port range reject each other's connections instead of silently
  // cross-wiring their clusters. Without a host list, each rank listens on
  // a free loopback port, chosen here once: children (and respawns) read
  // the list from the config file.
  ExperimentConfig child_cfg = cfg;
  if (child_cfg.socket.mesh_token == 0) {
    child_cfg.socket.mesh_token =
        (static_cast<std::uint64_t>(getpid()) << 32) ^ splitmix64(cfg.seed + 1);
  }
  std::vector<runtime::Endpoint>& hosts = child_cfg.socket.hosts;
  if (hosts.empty()) {
    hosts = runtime::free_loopback_host_list(nprocs);
    PARIS_CHECK_MSG(!hosts.empty(), "sockets: no free loopback ports for the children");
  }
  std::string host_err;
  PARIS_CHECK_MSG(runtime::validate_host_list(hosts, nprocs, &host_err), host_err.c_str());

  std::string dir = cfg.socket.dir;
  if (dir.empty()) {
    char tmpl[] = "/tmp/paris-sockets-XXXXXX";
    PARIS_CHECK_MSG(mkdtemp(tmpl) != nullptr, "mkdtemp failed");
    dir = tmpl;
  } else {
    // mkdir -p: the CI jobs nest per-scenario dirs (socklogs/paris).
    for (std::size_t slash = dir.find('/', 1); slash != std::string::npos;
         slash = dir.find('/', slash + 1)) {
      (void)::mkdir(dir.substr(0, slash).c_str(), 0755);
    }
    (void)::mkdir(dir.c_str(), 0755);  // fine if any component already exists
  }

  const std::string cfgfile = dir + "/experiment.cfg";
  const std::string cfgtext = encode_experiment_config(child_cfg);
  PARIS_CHECK_MSG(write_file(cfgfile, cfgtext.data(), cfgtext.size()),
                  "cannot write the child config file");

  runtime::ProcessGroup pg;
  std::vector<std::string> outfiles;
  for (std::uint32_t r = 0; r < nprocs; ++r) {
    outfiles.push_back(dir + "/result-" + std::to_string(r) + ".bin");
    const std::string log = dir + "/child-" + std::to_string(r) + ".log";
    PARIS_CHECK_MSG(pg.spawn(r,
                             {"--paris-socket-child", cfgfile, std::to_string(r),
                              outfiles.back(), "0"},
                             log),
                    "fork/exec of a socket child failed");
  }
  std::printf("sockets: %u child processes on %s%s, artifacts in %s\n", nprocs,
              runtime::format_host_list(hosts).c_str(),
              cfg.socket.supervise ? ", supervised" : "", dir.c_str());
  std::fflush(stdout);

  const std::uint64_t run_ms = (cfg.warmup_us + cfg.measure_us) / 1000;
  std::string err;
  // Generous deadline: mesh setup + 3x the run (sanitizer builds crawl) +
  // slack — a wedged child is killed instead of eating the CI job limit.
  // A respawned incarnation restarts its whole warmup+measure window after
  // the kill point, so supervised runs extend the budget accordingly.
  const std::uint64_t deadline_ms =
      cfg.socket.connect_timeout_ms + run_ms * 3 + 60'000 +
      (cfg.socket.supervise ? run_ms * 3 + cfg.socket.kill_after_ms : 0);
  bool ok;
  std::uint64_t respawns = 0;
  if (cfg.socket.supervise) {
    runtime::ProcessGroup::SuperviseOptions sup;
    sup.max_respawns = cfg.socket.max_respawns;
    sup.respawn = [&dir, &cfgfile, &outfiles](std::uint32_t rank, std::uint32_t incarnation,
                                              std::string& log) {
      log = dir + "/child-" + std::to_string(rank) + ".r" + std::to_string(incarnation) +
            ".log";
      return std::vector<std::string>{"--paris-socket-child", cfgfile,
                                      std::to_string(rank), outfiles[rank],
                                      std::to_string(incarnation)};
    };
    std::vector<runtime::ProcessGroup::KillEvent> kills;
    if (cfg.socket.kill_rank >= 0) {
      PARIS_CHECK_MSG(static_cast<std::uint32_t>(cfg.socket.kill_rank) < nprocs,
                      "sockets: --kill-rank out of range");
      kills.push_back(
          {static_cast<std::uint32_t>(cfg.socket.kill_rank), cfg.socket.kill_after_ms, false});
    }
    ok = pg.wait_supervised(deadline_ms, sup, kills, err);
    respawns = pg.respawns();
  } else {
    ok = pg.wait_all(deadline_ms, err);
  }
  if (!ok) {
    std::fprintf(stderr, "socket launcher: %s\n", err.c_str());
    for (const auto& c : pg.children()) dump_log_tail(c.log_path);
    ExperimentResult res;
    res.respawns = respawns;
    res.violations.push_back("socket run failed: " + err);
    return res;
  }

  verify::HistoryRecorder merged;
  std::vector<ExperimentResult> parts(outfiles.size());
  for (std::size_t r = 0; r < outfiles.size(); ++r) {
    const std::string bytes = read_file(outfiles[r]);
    std::vector<std::uint8_t> buf(bytes.begin(), bytes.end());
    std::vector<std::uint8_t> history;
    PARIS_CHECK_MSG(decode_child_result(buf, parts[r], history),
                    "corrupt child result file (version skew?)");
    if (cfg.check_consistency && !history.empty()) {
      merged.merge_serialized(history.data(), history.size());
    }
  }
  ExperimentResult res = merge_child_results(parts, cfg);
  res.respawns = respawns;
  if (cfg.check_consistency) {
    res.violations = merged.check();
    // A scheduled join whose DCs never served a single read slice means the
    // new replica sets were installed on paper only — fail the run even
    // though the (empty) history is trivially consistent.
    for (const proto::MembershipEvent& ev : cfg.membership.events) {
      if (!ev.join) continue;
      for (DcId d = 0; d < cfg.num_dcs; ++d) {
        if (d % nprocs != ev.rank) continue;
        if (merged.slices_at_dc(d) == 0) {
          res.violations.push_back("membership: joined DC " + std::to_string(d) +
                                   " (rank " + std::to_string(ev.rank) +
                                   ") served no read slices after its join");
        }
      }
    }
  }
  res.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  return res;
}

}  // namespace detail

void maybe_run_socket_child(int argc, char** argv) {
  if (argc != 6 || std::strcmp(argv[1], "--paris-socket-child") != 0) return;
  ExperimentConfig cfg;
  const std::string text = detail::read_file(argv[2]);
  PARIS_CHECK_MSG(!text.empty(), "socket child: unreadable or empty config file");
  std::string codec_err;
  PARIS_CHECK_MSG(detail::decode_experiment_config(text, cfg, &codec_err),
                  ("socket child: " + codec_err).c_str());
  cfg.socket.rank = std::atoi(argv[3]);
  // The incarnation epoch rides argv, not the shared config file: every
  // respawn of a rank gets a bumped value while the siblings keep theirs.
  cfg.socket.epoch = static_cast<std::uint32_t>(std::strtoul(argv[5], nullptr, 10));
  const std::uint32_t nprocs = cfg.socket.resolve_processes(cfg.num_dcs);
  const std::vector<runtime::Endpoint>& hosts = cfg.socket.hosts;
  PARIS_CHECK_MSG(static_cast<std::size_t>(cfg.socket.rank) < hosts.size(),
                  "socket child: rank outside the host list");
  std::printf("socket child: rank %d/%u epoch %u pid %d system=%s listen=%s\n",
              cfg.socket.rank, nprocs, cfg.socket.epoch, static_cast<int>(getpid()),
              proto::system_name(cfg.system),
              hosts[static_cast<std::size_t>(cfg.socket.rank)].str().c_str());
  std::fflush(stdout);

  std::vector<std::uint8_t> history;
  const ExperimentResult res = detail::run_local_experiment(
      cfg, cfg.check_consistency ? &history : nullptr);

  std::vector<std::uint8_t> out;
  detail::encode_child_result(res, history, out);
  PARIS_CHECK_MSG(detail::write_file(argv[4], out.data(), out.size()),
                  "socket child: cannot write the result file");
  std::printf(
      "socket child: done — %" PRIu64 " committed, %" PRIu64 " frames out / %" PRIu64
      " in, %" PRIu64 " retransmits, %" PRIu64 " redials (%" PRIu64 " giveups), %" PRIu64
      " stale-epoch fenced, %" PRIu64 " malformed, %" PRIu64 " snapshots / %" PRIu64
      " catchups served\n",
      res.committed, res.socket.frames_out, res.socket.frames_in,
      res.reliable.retransmits, res.socket.redial_attempts, res.socket.redial_giveups,
      res.socket.fenced_stale_epoch, res.socket.malformed_frames, res.snapshots_served,
      res.catchups_served);
  std::exit(0);
}

}  // namespace paris::workload
