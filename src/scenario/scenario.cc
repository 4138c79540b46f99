#include "scenario/scenario.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/rng.h"

namespace paris::scenario {

const char* scenario_event_kind_name(ScenarioEvent::Kind k) {
  switch (k) {
    case ScenarioEvent::Kind::kPartition:
      return "partition";
    case ScenarioEvent::Kind::kWan:
      return "wan";
    case ScenarioEvent::Kind::kChaos:
      return "chaos";
    case ScenarioEvent::Kind::kFuzz:
      return "fuzz";
    case ScenarioEvent::Kind::kSkew:
      return "skew";
    case ScenarioEvent::Kind::kKill:
      return "kill";
    case ScenarioEvent::Kind::kJoin:
      return "join";
    case ScenarioEvent::Kind::kLeave:
      return "leave";
  }
  return "?";
}

namespace {

/// Distinct DC pair, order-sensitive (WAN episodes are directional).
void draw_dc_pair(Rng& rng, std::uint32_t dcs, DcId& a, DcId& b) {
  a = static_cast<DcId>(rng.next_below(dcs));
  b = static_cast<DcId>(rng.next_below(dcs - 1));
  if (b >= a) ++b;
}

std::uint64_t ms(std::uint64_t v) { return v * 1000; }

}  // namespace

Scenario generate_scenario(std::uint64_t seed, const ScenarioOptions& opts) {
  // The Rng seed is salted so scenario draws never correlate with the
  // experiment seed the scenario itself carries.
  Rng rng(splitmix64(seed ^ 0x7363656e6172696full));  // "scenario"
  const std::uint64_t ts = opts.time_scale != 0 ? opts.time_scale : 1;

  Scenario s;
  s.seed = seed;
  s.system = opts.system;
  s.runtime = opts.runtime;
  s.num_dcs = 3;
  s.num_partitions = static_cast<std::uint32_t>(rng.range(4, 6));
  s.replication = 2;
  s.threads_per_process = 1;
  s.socket_processes = 3;
  s.warmup_us = ms(50) * ts;
  s.measure_us = ms(rng.range(600, 900)) * ts;
  s.latency_model = rng.chance(0.5) ? runtime::LatencyModelKind::kJitter
                                    : runtime::LatencyModelKind::kNone;
  s.inter_dc_us = ms(rng.range(2, 8));
  s.rto_us = ms(10) * ts;
  s.max_rto_us = ms(40) * ts;

  // Fault windows live in [150ms, ~70% of measure] (scaled): everything
  // heals with a clean tail, so the checker sees convergence, not a run
  // that ended mid-blackout.
  const std::uint64_t lo = s.warmup_us + ms(100) * ts;
  const std::uint64_t hi = s.warmup_us + s.measure_us * 7 / 10;

  const std::uint64_t partitions = rng.range(0, 2);
  for (std::uint64_t i = 0; i < partitions; ++i) {
    ScenarioEvent e;
    e.kind = ScenarioEvent::Kind::kPartition;
    DcId a = 0, b = 0;
    draw_dc_pair(rng, s.num_dcs, a, b);
    if (a > b) std::swap(a, b);
    const bool isolate = rng.chance(0.2);
    const std::uint64_t start = rng.range(lo, hi - ms(150) * ts);
    e.link = runtime::LinkEpisode::partition(a, b, isolate, start,
                                             start + ms(rng.range(80, 150)) * ts);
    s.events.push_back(e);
  }

  const std::uint64_t wans = rng.range(0, 3);
  for (std::uint64_t i = 0; i < wans; ++i) {
    ScenarioEvent e;
    e.kind = ScenarioEvent::Kind::kWan;
    e.link.links = runtime::LinkEpisode::Links::kPair;
    draw_dc_pair(rng, s.num_dcs, e.link.a, e.link.b);
    e.link.symmetric = rng.chance(0.4);
    e.link.start_us = rng.range(lo, hi - ms(200) * ts);
    e.link.end_us = e.link.start_us + ms(rng.range(150, 300)) * ts;
    // Mid-run degradation: delay ramps from near the healthy baseline up to
    // a visibly degraded one-way time (asymmetric unless symmetric drawn).
    e.link.extra_delay_start_us = ms(rng.range(0, 3));
    e.link.extra_delay_end_us = ms(rng.range(5, 20));
    // Bandwidth cap >= 4 bytes/us (4 MB/s): tight enough to queue bursts,
    // loose enough that the pipe drains within the episode.
    e.link.bandwidth_bytes_per_us =
        rng.chance(0.5) ? static_cast<std::uint32_t>(rng.range(4, 16)) : 0;
    if (rng.chance(0.6)) {  // Gilbert–Elliott burst loss
      e.link.p_good_bad = 0.05 + rng.next_double() * 0.25;
      e.link.p_bad_good = 0.3 + rng.next_double() * 0.5;
      e.link.loss_good = rng.next_double() * 0.02;
      e.link.loss_bad = 0.2 + rng.next_double() * 0.5;
    }
    if (rng.chance(0.3)) e.link.duplicate_p = rng.next_double() * 0.2;
    s.events.push_back(e);
  }

  if (rng.chance(0.5)) {
    ScenarioEvent e;
    e.kind = ScenarioEvent::Kind::kChaos;
    e.chaos_reorder_p = rng.next_double() * 0.05;
    e.chaos_drop_p = rng.next_double() * 0.04;
    e.chaos_duplicate_p = rng.next_double() * 0.1;
    s.events.push_back(e);
  }

  if (rng.chance(0.6)) {
    ScenarioEvent e;
    e.kind = ScenarioEvent::Kind::kFuzz;
    e.fuzz_corrupt_p = 0.002 + rng.next_double() * 0.018;
    e.fuzz_replay_p = 0.002 + rng.next_double() * 0.018;
    s.events.push_back(e);
  }

  if (rng.chance(0.5)) {
    ScenarioEvent e;
    e.kind = ScenarioEvent::Kind::kSkew;
    e.skew_ntp_error_us = static_cast<std::int64_t>(rng.range(500, 5'000));
    e.skew_drift_ppm = static_cast<double>(rng.range(0, 200));
    s.events.push_back(e);
  }

  bool drew_kill = false;
  if (opts.runtime == runtime::Kind::kSockets && opts.allow_kill && rng.chance(0.35)) {
    ScenarioEvent e;
    e.kind = ScenarioEvent::Kind::kKill;
    // Never rank 0 (it hosts DC 0's coordinator share of most traffic and
    // killing it exercises nothing the other ranks don't); the kill lands
    // mid-measurement so the respawn rejoins under load.
    e.kill_rank = static_cast<std::int32_t>(rng.range(1, s.socket_processes - 1));
    e.kill_after_ms = rng.range(200, 500) * ts;
    s.events.push_back(e);
    drew_kill = true;
  }

  // Elastic membership: only when no kill was drawn — supervised respawn
  // and elastic membership are mutually exclusive in the deployment, and a
  // generated schedule must always be runnable. "Rank" addresses a socket
  // process on sockets and a DC directly on threads; never rank 0 (it
  // always stays to anchor the original view and donate state).
  if (opts.allow_membership && !drew_kill && rng.chance(0.3)) {
    const std::uint32_t ranks = opts.runtime == runtime::Kind::kSockets
                                    ? s.socket_processes
                                    : s.num_dcs;
    ScenarioEvent e;
    e.memb_rank = static_cast<std::uint32_t>(rng.range(1, ranks - 1));
    if (rng.chance(0.6)) {
      // Join early enough that the joined DC serves a long measured tail.
      e.kind = ScenarioEvent::Kind::kJoin;
      e.memb_at_ms = rng.range(150, 400) * ts;
    } else {
      // Leave late enough that the leaver first contributes real history.
      e.kind = ScenarioEvent::Kind::kLeave;
      e.memb_at_ms = rng.range(400, 600) * ts;
    }
    s.events.push_back(e);
  }
  return s;
}

void apply_scenario(const Scenario& s, workload::ExperimentConfig& cfg) {
  cfg.system = s.system;
  cfg.runtime = s.runtime;
  cfg.worker_threads = 2;
  cfg.num_dcs = s.num_dcs;
  cfg.num_partitions = s.num_partitions;
  cfg.replication = s.replication;
  cfg.threads_per_process = s.threads_per_process;
  cfg.workload.ops_per_tx = 8;
  cfg.workload.writes_per_tx = 2;
  cfg.workload.keys_per_partition = 100;
  cfg.warmup_us = s.warmup_us;
  cfg.measure_us = s.measure_us;
  cfg.seed = s.seed;
  cfg.check_consistency = true;
  cfg.aws_latency = false;
  cfg.uniform_inter_dc_us = s.inter_dc_us;
  cfg.latency_model = s.latency_model;
  cfg.codec = sim::CodecMode::kBytes;
  // The scenario contract: ANY schedule must converge checker-clean, which
  // needs at-least-once delivery under the fault load.
  cfg.reliable = true;
  // A schedule pins its own fixed RTO, so a corpus replay keeps the
  // retransmission timing its schedule was minimized under.
  cfg.reliable_cfg.rto_us = s.rto_us;
  cfg.reliable_cfg.adaptive_rto = false;
  cfg.reliable_cfg.max_rto_us = s.max_rto_us;
  if (s.runtime == runtime::Kind::kSockets) {
    cfg.socket.processes = s.socket_processes;
  }
  // Chaos events fold into one whole-run episode (the max of each knob).
  runtime::LinkEpisode chaos;
  for (const auto& e : s.events) {
    switch (e.kind) {
      case ScenarioEvent::Kind::kPartition:
      case ScenarioEvent::Kind::kWan:
        cfg.link_episodes.push_back(e.link);
        break;
      case ScenarioEvent::Kind::kChaos:
        chaos.stall_p = std::max(chaos.stall_p, e.chaos_reorder_p);
        chaos.loss_good = std::max(chaos.loss_good, e.chaos_drop_p);
        chaos.duplicate_p = std::max(chaos.duplicate_p, e.chaos_duplicate_p);
        break;
      case ScenarioEvent::Kind::kFuzz:
        cfg.fuzz.corrupt_p = std::max(cfg.fuzz.corrupt_p, e.fuzz_corrupt_p);
        cfg.fuzz.replay_p = std::max(cfg.fuzz.replay_p, e.fuzz_replay_p);
        break;
      case ScenarioEvent::Kind::kSkew:
        cfg.protocol.ntp_error_us = e.skew_ntp_error_us;
        cfg.protocol.drift_ppm = e.skew_drift_ppm;
        break;
      case ScenarioEvent::Kind::kKill:
        cfg.socket.supervise = true;
        cfg.socket.kill_rank = e.kill_rank;
        cfg.socket.kill_after_ms = e.kill_after_ms;
        // DESIGN §11: a SIGKILL can separate a multi-DC transaction's
        // coordinator from its replicated writes mid-2PC; kill schedules run
        // single-DC transactions so every commit is atomic w.r.t. the crash
        // (same constraint as the recovery acceptance tests).
        cfg.workload.multi_dc_ratio = 0.0;
        break;
      case ScenarioEvent::Kind::kJoin:
      case ScenarioEvent::Kind::kLeave: {
        // Exclusive with kKill by construction (the generator never draws
        // both; the deployment rejects membership + supervise).
        proto::MembershipEvent ev;
        ev.join = e.kind == ScenarioEvent::Kind::kJoin;
        ev.rank = e.memb_rank;
        ev.at_ms = e.memb_at_ms;
        cfg.membership.events.push_back(ev);
        break;
      }
    }
  }
  if (chaos.inert()) return;
  // Merged into the every-channel episode --chaos-* may already have added,
  // so the two never compound.
  auto it = std::find_if(cfg.link_episodes.begin(), cfg.link_episodes.end(),
                         [](const runtime::LinkEpisode& e) {
                           return e.links == runtime::LinkEpisode::Links::kEvery;
                         });
  runtime::LinkEpisode& c =
      it != cfg.link_episodes.end() ? *it : cfg.link_episodes.emplace_back();
  c.stall_p = std::max(c.stall_p, chaos.stall_p);
  c.stall_us = s.rto_us;
  c.loss_good = std::max(c.loss_good, chaos.loss_good);
  c.duplicate_p = std::max(c.duplicate_p, chaos.duplicate_p);
  c.drop_class = runtime::DropClass::kAll;  // reliable is on
}

void scale_time(Scenario& s, std::uint64_t k) {
  if (k <= 1) return;
  s.warmup_us *= k;
  s.measure_us *= k;
  s.rto_us *= k;
  s.max_rto_us *= k;
  for (auto& e : s.events) {
    switch (e.kind) {
      case ScenarioEvent::Kind::kPartition:
      case ScenarioEvent::Kind::kWan:
        // Window scales; delay magnitudes and bandwidth stay — they model
        // the link, not the (slowed) execution.
        e.link.start_us *= k;
        e.link.end_us *= k;
        break;
      case ScenarioEvent::Kind::kKill:
        e.kill_after_ms *= k;
        break;
      case ScenarioEvent::Kind::kJoin:
      case ScenarioEvent::Kind::kLeave:
        e.memb_at_ms *= k;
        break;
      case ScenarioEvent::Kind::kChaos:
      case ScenarioEvent::Kind::kFuzz:
      case ScenarioEvent::Kind::kSkew:
        break;  // probabilities and clock error are time-free
    }
  }
}

namespace {
void put_f(std::ostringstream& o, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  o << buf;
}
}  // namespace

std::string encode_scenario(const Scenario& s) {
  std::ostringstream o;
  o << "# paris scenario v1\n";
  o << "seed " << s.seed << '\n';
  o << "system " << (s.system == proto::System::kBpr ? "bpr" : "paris") << '\n';
  o << "runtime " << (s.runtime == runtime::Kind::kSockets ? "sockets" : "threads")
    << '\n';
  o << "dcs " << s.num_dcs << '\n';
  o << "partitions " << s.num_partitions << '\n';
  o << "replication " << s.replication << '\n';
  o << "threads_per_process " << s.threads_per_process << '\n';
  o << "socket_processes " << s.socket_processes << '\n';
  o << "warmup_us " << s.warmup_us << '\n';
  o << "measure_us " << s.measure_us << '\n';
  o << "inter_dc_us " << s.inter_dc_us << '\n';
  o << "latency_model " << static_cast<std::uint32_t>(s.latency_model) << '\n';
  o << "rto_us " << s.rto_us << '\n';
  o << "max_rto_us " << s.max_rto_us << '\n';
  for (const auto& e : s.events) {
    o << "event " << scenario_event_kind_name(e.kind);
    switch (e.kind) {
      case ScenarioEvent::Kind::kPartition:
        o << ' ' << e.link.a << ' ' << e.link.b << ' '
          << (e.link.links == runtime::LinkEpisode::Links::kIsolate ? 1 : 0) << ' '
          << e.link.start_us << ' ' << e.link.end_us;
        break;
      case ScenarioEvent::Kind::kWan:
        o << ' ' << e.link.a << ' ' << e.link.b << ' ' << (e.link.symmetric ? 1 : 0) << ' '
          << e.link.start_us << ' ' << e.link.end_us << ' ' << e.link.extra_delay_start_us
          << ' ' << e.link.extra_delay_end_us << ' ' << e.link.bandwidth_bytes_per_us;
        for (const double v : {e.link.p_good_bad, e.link.p_bad_good, e.link.loss_good,
                               e.link.loss_bad, e.link.duplicate_p}) {
          o << ' ';
          put_f(o, v);
        }
        break;
      case ScenarioEvent::Kind::kChaos:
        for (const double v : {e.chaos_reorder_p, e.chaos_drop_p, e.chaos_duplicate_p}) {
          o << ' ';
          put_f(o, v);
        }
        break;
      case ScenarioEvent::Kind::kFuzz:
        for (const double v : {e.fuzz_corrupt_p, e.fuzz_replay_p}) {
          o << ' ';
          put_f(o, v);
        }
        break;
      case ScenarioEvent::Kind::kSkew:
        o << ' ' << e.skew_ntp_error_us << ' ';
        put_f(o, e.skew_drift_ppm);
        break;
      case ScenarioEvent::Kind::kKill:
        o << ' ' << e.kill_rank << ' ' << e.kill_after_ms;
        break;
      case ScenarioEvent::Kind::kJoin:
      case ScenarioEvent::Kind::kLeave:
        o << ' ' << e.memb_rank << ' ' << e.memb_at_ms;
        break;
    }
    o << '\n';
  }
  return o.str();
}

bool decode_scenario(const std::string& text, Scenario& out) {
  Scenario s;
  std::istringstream in(text);
  std::string key;
  while (in >> key) {
    if (key[0] == '#') {  // comment: eat the rest of the line
      std::string rest;
      std::getline(in, rest);
      continue;
    }
    if (key == "event") {
      std::string kind;
      if (!(in >> kind)) return false;
      ScenarioEvent e;
      if (kind == "partition") {
        e.kind = ScenarioEvent::Kind::kPartition;
        DcId a = 0, b = 0;
        std::uint32_t iso = 0;
        std::uint64_t start = 0, end = 0;
        if (!(in >> a >> b >> iso >> start >> end)) return false;
        e.link = runtime::LinkEpisode::partition(a, b, iso != 0, start, end);
      } else if (kind == "wan") {
        e.kind = ScenarioEvent::Kind::kWan;
        e.link.links = runtime::LinkEpisode::Links::kPair;
        std::uint32_t sym = 0;
        if (!(in >> e.link.a >> e.link.b >> sym >> e.link.start_us >> e.link.end_us >>
              e.link.extra_delay_start_us >> e.link.extra_delay_end_us >>
              e.link.bandwidth_bytes_per_us >> e.link.p_good_bad >> e.link.p_bad_good >>
              e.link.loss_good >> e.link.loss_bad >> e.link.duplicate_p)) {
          return false;
        }
        e.link.symmetric = sym != 0;
      } else if (kind == "chaos") {
        e.kind = ScenarioEvent::Kind::kChaos;
        if (!(in >> e.chaos_reorder_p >> e.chaos_drop_p >> e.chaos_duplicate_p)) {
          return false;
        }
      } else if (kind == "fuzz") {
        e.kind = ScenarioEvent::Kind::kFuzz;
        if (!(in >> e.fuzz_corrupt_p >> e.fuzz_replay_p)) return false;
      } else if (kind == "skew") {
        e.kind = ScenarioEvent::Kind::kSkew;
        if (!(in >> e.skew_ntp_error_us >> e.skew_drift_ppm)) return false;
      } else if (kind == "kill") {
        e.kind = ScenarioEvent::Kind::kKill;
        if (!(in >> e.kill_rank >> e.kill_after_ms)) return false;
      } else if (kind == "join" || kind == "leave") {
        e.kind = kind == "join" ? ScenarioEvent::Kind::kJoin
                                : ScenarioEvent::Kind::kLeave;
        if (!(in >> e.memb_rank >> e.memb_at_ms)) return false;
      } else {
        return false;  // unknown event kind: version skew, fail loudly
      }
      s.events.push_back(e);
      continue;
    }
    std::string val;
    if (!(in >> val)) return false;
    const std::uint64_t u = std::strtoull(val.c_str(), nullptr, 10);
    if (key == "seed") {
      s.seed = u;
    } else if (key == "system") {
      if (val != "paris" && val != "bpr") return false;
      s.system = val == "bpr" ? proto::System::kBpr : proto::System::kParis;
    } else if (key == "runtime") {
      if (val != "threads" && val != "sockets") return false;
      s.runtime = val == "sockets" ? runtime::Kind::kSockets : runtime::Kind::kThreads;
    } else if (key == "dcs") {
      s.num_dcs = static_cast<std::uint32_t>(u);
    } else if (key == "partitions") {
      s.num_partitions = static_cast<std::uint32_t>(u);
    } else if (key == "replication") {
      s.replication = static_cast<std::uint32_t>(u);
    } else if (key == "threads_per_process") {
      s.threads_per_process = static_cast<std::uint32_t>(u);
    } else if (key == "socket_processes") {
      s.socket_processes = static_cast<std::uint32_t>(u);
    } else if (key == "warmup_us") {
      s.warmup_us = u;
    } else if (key == "measure_us") {
      s.measure_us = u;
    } else if (key == "inter_dc_us") {
      s.inter_dc_us = u;
    } else if (key == "latency_model") {
      s.latency_model = static_cast<runtime::LatencyModelKind>(u);
    } else if (key == "rto_us") {
      s.rto_us = u;
    } else if (key == "max_rto_us") {
      s.max_rto_us = u;
    } else {
      return false;  // unknown key: reject rather than silently drop faults
    }
  }
  out = std::move(s);
  return true;
}

std::string describe(const Scenario& s) {
  std::ostringstream o;
  o << "seed=" << s.seed << ' ' << (s.system == proto::System::kBpr ? "bpr" : "paris")
    << '/' << (s.runtime == runtime::Kind::kSockets ? "sockets" : "threads") << ' '
    << s.num_dcs << "dc/" << s.num_partitions << "p run="
    << (s.warmup_us + s.measure_us) / 1000 << "ms events=[";
  for (std::size_t i = 0; i < s.events.size(); ++i) {
    if (i != 0) o << ' ';
    o << scenario_event_kind_name(s.events[i].kind);
  }
  o << ']';
  return o.str();
}

Scenario shrink_scenario(Scenario s, const std::function<bool(const Scenario&)>& still_violates,
                         std::uint32_t* probes) {
  std::uint32_t n = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < s.events.size();) {
      Scenario cand = s;
      cand.events.erase(cand.events.begin() + static_cast<std::ptrdiff_t>(i));
      ++n;
      if (still_violates(cand)) {
        // The event was irrelevant to the violation: drop it for good and
        // retry the same index (the next event shifted into it).
        s = std::move(cand);
        changed = true;
      } else {
        ++i;
      }
    }
  }
  if (probes != nullptr) *probes = n;
  return s;
}

}  // namespace paris::scenario
