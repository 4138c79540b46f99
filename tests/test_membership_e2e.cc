// Elastic membership end to end (DESIGN §11): a DC scheduled to join
// mid-run starts outside every replica set, state-transfers from a donor
// replica once its view change fires, then serves in the new replica sets —
// and the whole history (including the cross-process merge on sockets) stays
// checker-clean. A scheduled leave drains without violations. Both systems
// are covered on real worker threads and on 3 real OS processes over TCP;
// the socket launcher additionally fails the run if a joined DC never served
// a read slice, so "join happened on paper only" cannot pass silently.
//
// Also covered here: the cross-host addressing surface (--hosts) driving a
// 2-process cluster across two DISTINCT loopback IPs, and the versioned
// launcher/child config codec (cfgver header, clear mixed-version errors).
//
// This binary defines its own main(): the socket tests re-exec it as socket
// children, which maybe_run_socket_child() intercepts before gtest runs.

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "runtime/endpoint.h"
#include "wire/buffer.h"
#include "workload/experiment.h"
#include "workload/socket_runner.h"

namespace paris::workload {
namespace {

ExperimentConfig memb_config(proto::System sys, runtime::Kind rt, std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.system = sys;
  cfg.runtime = rt;
  cfg.num_dcs = 3;
  cfg.num_partitions = 4;
  cfg.replication = 2;
  cfg.threads_per_process = 2;
  cfg.workload = WorkloadSpec::read_heavy();
  cfg.workload.keys_per_partition = 500;
  cfg.warmup_us = 200'000;
  // Sockets crawl under sanitizers; give the joiner a longer serving tail.
  cfg.measure_us = rt == runtime::Kind::kSockets ? 1'600'000 : 1'000'000;
  cfg.seed = seed;
  cfg.aws_latency = false;
  cfg.check_consistency = true;
  cfg.codec = sim::CodecMode::kBytes;
  if (rt == runtime::Kind::kSockets) {
    cfg.socket.processes = 3;
    cfg.socket.hosts = runtime::free_loopback_host_list(3);
    cfg.reliable = true;  // beacons converge views; retransmission heals data
  }
  return cfg;
}

// On threads rank R IS the DC; on 3-process sockets rank R owns exactly DC R
// (dc mod 3 == R), so the same event means the same DC everywhere here.
void schedule_join(ExperimentConfig& cfg, std::uint32_t rank, std::uint64_t at_ms) {
  proto::MembershipEvent ev;
  ev.join = true;
  ev.rank = rank;
  ev.at_ms = at_ms;
  cfg.membership.events.push_back(ev);
}

void schedule_leave(ExperimentConfig& cfg, std::uint32_t rank, std::uint64_t at_ms) {
  proto::MembershipEvent ev;
  ev.join = false;
  ev.rank = rank;
  ev.at_ms = at_ms;
  cfg.membership.events.push_back(ev);
}

void expect_clean(const ExperimentResult& res) {
  for (const auto& v : res.violations) ADD_FAILURE() << v;
  EXPECT_GT(res.committed, 100u);
}

// ---------------------------------------------------------------------------
// Threads: join under load, leave under load, both systems.
// ---------------------------------------------------------------------------

TEST(MembershipE2E, ParisJoinOnThreadsIsCheckerClean) {
  auto cfg = memb_config(proto::System::kParis, runtime::Kind::kThreads, 101);
  schedule_join(cfg, 2, 400);
  expect_clean(run_experiment(cfg));
}

TEST(MembershipE2E, BprJoinOnThreadsIsCheckerClean) {
  auto cfg = memb_config(proto::System::kBpr, runtime::Kind::kThreads, 102);
  schedule_join(cfg, 2, 400);
  expect_clean(run_experiment(cfg));
}

TEST(MembershipE2E, ParisLeaveOnThreadsDrainsCleanly) {
  auto cfg = memb_config(proto::System::kParis, runtime::Kind::kThreads, 103);
  schedule_leave(cfg, 1, 700);
  expect_clean(run_experiment(cfg));
}

TEST(MembershipE2E, BprLeaveOnThreadsDrainsCleanly) {
  auto cfg = memb_config(proto::System::kBpr, runtime::Kind::kThreads, 104);
  schedule_leave(cfg, 1, 700);
  expect_clean(run_experiment(cfg));
}

// ---------------------------------------------------------------------------
// Sockets: the same schedules across 3 real processes. The launcher merges
// every child's history, runs the exactness checker on the union, and
// asserts the joined DC actually served slices.
// ---------------------------------------------------------------------------

TEST(MembershipE2E, ParisJoinAcrossThreeProcessesIsCheckerClean) {
  auto cfg = memb_config(proto::System::kParis, runtime::Kind::kSockets, 105);
  schedule_join(cfg, 2, 500);
  expect_clean(run_experiment(cfg));
}

TEST(MembershipE2E, BprJoinAcrossThreeProcessesIsCheckerClean) {
  auto cfg = memb_config(proto::System::kBpr, runtime::Kind::kSockets, 106);
  schedule_join(cfg, 2, 500);
  expect_clean(run_experiment(cfg));
}

TEST(MembershipE2E, ParisLeaveAcrossThreeProcessesDrainsCleanly) {
  auto cfg = memb_config(proto::System::kParis, runtime::Kind::kSockets, 107);
  schedule_leave(cfg, 1, 1000);
  expect_clean(run_experiment(cfg));
}

// ---------------------------------------------------------------------------
// Cross-host addressing: an explicit host list drives a 2-process cluster
// across two DISTINCT loopback IPs — no base_port + rank arithmetic anywhere
// in the path.
// ---------------------------------------------------------------------------

TEST(MembershipE2E, HostListSpansTwoLoopbackIPs) {
  ExperimentConfig cfg;
  cfg.system = proto::System::kParis;
  cfg.runtime = runtime::Kind::kSockets;
  cfg.num_dcs = 2;
  cfg.num_partitions = 4;
  cfg.replication = 2;
  cfg.threads_per_process = 2;
  cfg.workload = WorkloadSpec::read_heavy();
  cfg.workload.keys_per_partition = 500;
  cfg.warmup_us = 200'000;
  cfg.measure_us = 800'000;
  cfg.seed = 108;
  cfg.aws_latency = false;
  cfg.check_consistency = true;
  cfg.reliable = true;
  cfg.socket.processes = 2;
  std::string err;
  ASSERT_TRUE(runtime::parse_host_list("127.0.0.1:7981,127.0.0.2:7981",
                                       &cfg.socket.hosts, &err))
      << err;
  expect_clean(run_experiment(cfg));
}

// ---------------------------------------------------------------------------
// Versioned launcher/child config codec.
// ---------------------------------------------------------------------------

TEST(ConfigCodec, RoundtripsHostsAndMembershipSchedule) {
  auto cfg = memb_config(proto::System::kBpr, runtime::Kind::kSockets, 42);
  schedule_join(cfg, 2, 500);
  schedule_leave(cfg, 1, 900);
  std::string err;
  ASSERT_TRUE(runtime::parse_host_list("127.0.0.1:9001,10.0.0.2:9002,hostc:9003",
                                       &cfg.socket.hosts, &err))
      << err;

  const std::string text = detail::encode_experiment_config(cfg);
  EXPECT_EQ(text.rfind("cfgver ", 0), 0u) << "cfgver must be the first line";

  ExperimentConfig out;
  ASSERT_TRUE(detail::decode_experiment_config(text, out, &err)) << err;
  ASSERT_EQ(out.socket.hosts.size(), 3u);
  EXPECT_EQ(out.socket.hosts[1].host, "10.0.0.2");
  EXPECT_EQ(out.socket.hosts[1].port, 9002);
  EXPECT_EQ(out.socket.hosts[2].str(), "hostc:9003");
  ASSERT_EQ(out.membership.events.size(), 2u);
  EXPECT_TRUE(out.membership.events[0].join);
  EXPECT_EQ(out.membership.events[0].rank, 2u);
  EXPECT_EQ(out.membership.events[0].at_ms, 500u);
  EXPECT_FALSE(out.membership.events[1].join);
  EXPECT_EQ(out.membership.events[1].rank, 1u);
  EXPECT_EQ(out.membership.events[1].at_ms, 900u);
}

TEST(ConfigCodec, RoundtripsLinkEpisodes) {
  auto cfg = memb_config(proto::System::kParis, runtime::Kind::kSockets, 1);
  runtime::LinkEpisode wan;
  wan.links = runtime::LinkEpisode::Links::kPair;
  wan.a = 2;
  wan.b = 1;
  wan.start_us = 100;
  wan.end_us = 900;
  wan.loss_good = 0.125;
  wan.loss_bad = 0.7;
  wan.p_good_bad = 0.1;
  wan.p_bad_good = 1.0 / 3.0;
  wan.duplicate_p = 0.05;
  wan.bandwidth_bytes_per_us = 12;
  wan.extra_delay_start_us = 1'000;
  wan.extra_delay_end_us = 9'000;
  runtime::LinkEpisode chaos = runtime::LinkEpisode::chaos();
  ASSERT_TRUE(runtime::parse_chaos_knob("drop", "requests:0.2", chaos));
  ASSERT_TRUE(runtime::parse_chaos_knob("reorder", "0.01", chaos));
  cfg.link_episodes = {runtime::LinkEpisode::partition(0, 2, true, 5, 6), wan, chaos};

  const std::string text = detail::encode_experiment_config(cfg);
  ExperimentConfig out;
  std::string err;
  ASSERT_TRUE(detail::decode_experiment_config(text, out, &err)) << err;
  ASSERT_EQ(out.link_episodes.size(), 3u);
  EXPECT_EQ(out.link_episodes[0].links, runtime::LinkEpisode::Links::kIsolate);
  EXPECT_EQ(out.link_episodes[0].loss_good, 1.0);
  const runtime::LinkEpisode& w = out.link_episodes[1];
  EXPECT_EQ(w.links, runtime::LinkEpisode::Links::kPair);
  EXPECT_FALSE(w.symmetric);
  EXPECT_EQ(w.a, 2u);
  EXPECT_EQ(w.end_us, 900u);
  EXPECT_EQ(w.p_bad_good, 1.0 / 3.0);  // %.17g round-trips doubles exactly
  EXPECT_EQ(w.bandwidth_bytes_per_us, 12u);
  EXPECT_EQ(w.extra_delay_end_us, 9'000u);
  const runtime::LinkEpisode& c = out.link_episodes[2];
  EXPECT_EQ(c.links, runtime::LinkEpisode::Links::kEvery);
  EXPECT_EQ(c.end_us, ~0ull);
  EXPECT_EQ(c.drop_class, runtime::DropClass::kRequests);
  EXPECT_EQ(c.stall_us, 10'000u);
  EXPECT_EQ(detail::encode_experiment_config(out), text);
}

TEST(ConfigCodec, MissingHeaderFailsWithClearMessage) {
  const auto cfg = memb_config(proto::System::kParis, runtime::Kind::kSockets, 1);
  std::string text = detail::encode_experiment_config(cfg);
  text = text.substr(text.find('\n') + 1);  // strip the cfgver line

  ExperimentConfig out;
  std::string err;
  EXPECT_FALSE(detail::decode_experiment_config(text, out, &err));
  EXPECT_NE(err.find("cfgver"), std::string::npos) << err;
  EXPECT_NE(err.find("older"), std::string::npos) << err;
}

TEST(ConfigCodec, VersionSkewNamesBothVersions) {
  const auto cfg = memb_config(proto::System::kParis, runtime::Kind::kSockets, 1);
  std::string text = detail::encode_experiment_config(cfg);
  const std::size_t eol = text.find('\n');
  text = "cfgver 999\n" + text.substr(eol + 1);

  ExperimentConfig out;
  std::string err;
  EXPECT_FALSE(detail::decode_experiment_config(text, out, &err));
  EXPECT_NE(err.find("v999"), std::string::npos) << err;
  EXPECT_NE(err.find("version skew"), std::string::npos) << err;
}

TEST(ConfigCodec, UnknownKeyWithinMatchingVersionStillFails) {
  const auto cfg = memb_config(proto::System::kParis, runtime::Kind::kSockets, 1);
  const std::string text =
      detail::encode_experiment_config(cfg) + "some_future_knob 7\n";

  ExperimentConfig out;
  std::string err;
  EXPECT_FALSE(detail::decode_experiment_config(text, out, &err));
  EXPECT_NE(err.find("some_future_knob"), std::string::npos) << err;
}

/// Every single-token config key set away from its default.
ExperimentConfig every_key_config() {
  ExperimentConfig c;
  c.system = proto::System::kBpr;
  c.worker_threads = 3;
  c.num_dcs = 4;
  c.num_partitions = 8;
  c.replication = 3;
  c.workload.ops_per_tx = 7;
  c.workload.writes_per_tx = 5;
  c.workload.partitions_per_tx = 3;
  c.workload.multi_dc_ratio = 0.1;
  c.workload.keys_per_partition = 777;
  c.workload.zipf_theta = 0.8;
  c.workload.value_size = 16;
  c.workload.key_dist = KeyDistKind::kHotspot;
  c.workload.hot_key_frac = 0.02;
  c.workload.hot_access_frac = 0.5;
  c.openloop.enabled = true;
  c.openloop.arrival_rate = 1234.5;
  c.openloop.sessions = 64;
  c.openloop.profile = RateProfile::kFlash;
  c.openloop.diurnal_amp = 0.25;
  c.openloop.diurnal_period_us = 500'000;
  c.openloop.flash_mult = 2.5;
  c.openloop.flash_at_us = 100'000;
  c.openloop.flash_len_us = 50'000;
  c.openloop.trace_path = "/traces/a.txt";
  c.threads_per_process = 9;
  c.warmup_us = 123'000;
  c.measure_us = 456'000;
  c.seed = 99;
  c.check_consistency = true;
  c.measure_visibility = true;
  c.visibility_sample_shift = 2;
  c.protocol.delta_r_us = 1'100;
  c.protocol.delta_g_us = 5'100;
  c.protocol.delta_u_us = 5'200;
  c.protocol.gc_interval_us = 40'000;
  c.protocol.tree_fanout = 4;
  c.protocol.ntp_error_us = -250;  // signed: must survive the unsigned line
  c.protocol.drift_ppm = 1.0 / 3.0;
  c.protocol.bpr_gc_retention_us = 1'000'000;
  c.protocol.tx_context_timeout_us = 9'000'000;
  c.protocol.placement_policy = 2;
  c.protocol.sketch_capacity = 128;
  c.protocol.sketch_report_period_us = 150'000;
  c.protocol.migrate_top_k = 6;
  c.protocol.migrate_at_us = 300'000;
  c.protocol.migrate_fault_skip_copy = true;
  c.aws_latency = false;
  c.uniform_inter_dc_us = 30'000;
  c.uniform_intra_dc_us = 200;
  c.latency_model = runtime::LatencyModelKind::kJitter;
  c.reliable = true;
  c.reliable_cfg.rto_us = 90'000;
  c.reliable_cfg.max_rto_us = 1'500'000;
  c.reliable_cfg.scan_period_us = 7'000;
  c.reliable_cfg.fast_retx_guard_us = 3'000;
  c.reliable_cfg.max_in_flight = 256;
  c.reliable_cfg.max_ooo_buffered = 512;
  c.reliable_cfg.sack = false;
  c.reliable_cfg.max_sack_ranges = 4;
  c.reliable_cfg.adaptive_rto = false;
  c.reliable_cfg.min_rto_us = 6'000;
  c.codec = sim::CodecMode::kBytes;
  c.socket.processes = 2;
  std::string err;
  EXPECT_TRUE(runtime::parse_host_list("127.0.0.1:9001,hostb:9002", &c.socket.hosts, &err))
      << err;
  c.socket.connect_timeout_ms = 20'000;
  c.socket.mesh_token = 0xfedcba9876543210ull;  // above 2^63
  c.socket.supervise = true;
  c.socket.max_respawns = 5;
  c.socket.kill_rank = 1;
  c.socket.kill_after_ms = 700;
  c.socket.outbound_budget = 1u << 16;
  c.socket.stall_rank = 0;
  c.socket.stall_peer = 1;
  c.socket.stall_at_ms = 300;
  c.socket.stall_len_ms = 400;
  c.fuzz.corrupt_p = 0.03;
  c.fuzz.replay_p = 0.04;
  c.fuzz.max_capture_bytes = 4096;
  return c;
}

TEST(ConfigCodec, RoundtripsEveryScalarKey) {
  const ExperimentConfig def;
  const ExperimentConfig cfg = every_key_config();
  const std::string text = detail::encode_experiment_config(cfg);
  ExperimentConfig out;
  std::string err;
  ASSERT_TRUE(detail::decode_experiment_config(text, out, &err)) << err;
  // Each member must arrive with the non-default value it was given.
#define EXPECT_KEY(m)                        \
  EXPECT_NE(cfg.m, def.m) << #m " is unset"; \
  EXPECT_EQ(out.m, cfg.m) << #m
  EXPECT_KEY(system);
  EXPECT_KEY(worker_threads);
  EXPECT_KEY(num_dcs);
  EXPECT_KEY(num_partitions);
  EXPECT_KEY(replication);
  EXPECT_KEY(workload.ops_per_tx);
  EXPECT_KEY(workload.writes_per_tx);
  EXPECT_KEY(workload.partitions_per_tx);
  EXPECT_KEY(workload.multi_dc_ratio);
  EXPECT_KEY(workload.keys_per_partition);
  EXPECT_KEY(workload.zipf_theta);
  EXPECT_KEY(workload.value_size);
  EXPECT_KEY(workload.key_dist);
  EXPECT_KEY(workload.hot_key_frac);
  EXPECT_KEY(workload.hot_access_frac);
  EXPECT_KEY(openloop.enabled);
  EXPECT_KEY(openloop.arrival_rate);
  EXPECT_KEY(openloop.sessions);
  EXPECT_KEY(openloop.profile);
  EXPECT_KEY(openloop.diurnal_amp);
  EXPECT_KEY(openloop.diurnal_period_us);
  EXPECT_KEY(openloop.flash_mult);
  EXPECT_KEY(openloop.flash_at_us);
  EXPECT_KEY(openloop.flash_len_us);
  EXPECT_KEY(openloop.trace_path);
  EXPECT_KEY(threads_per_process);
  EXPECT_KEY(warmup_us);
  EXPECT_KEY(measure_us);
  EXPECT_KEY(seed);
  EXPECT_KEY(check_consistency);
  EXPECT_KEY(measure_visibility);
  EXPECT_KEY(visibility_sample_shift);
  EXPECT_KEY(protocol.delta_r_us);
  EXPECT_KEY(protocol.delta_g_us);
  EXPECT_KEY(protocol.delta_u_us);
  EXPECT_KEY(protocol.gc_interval_us);
  EXPECT_KEY(protocol.tree_fanout);
  EXPECT_KEY(protocol.ntp_error_us);
  EXPECT_KEY(protocol.drift_ppm);
  EXPECT_KEY(protocol.bpr_gc_retention_us);
  EXPECT_KEY(protocol.tx_context_timeout_us);
  EXPECT_KEY(protocol.placement_policy);
  EXPECT_KEY(protocol.sketch_capacity);
  EXPECT_KEY(protocol.sketch_report_period_us);
  EXPECT_KEY(protocol.migrate_top_k);
  EXPECT_KEY(protocol.migrate_at_us);
  EXPECT_KEY(protocol.migrate_fault_skip_copy);
  EXPECT_KEY(aws_latency);
  EXPECT_KEY(uniform_inter_dc_us);
  EXPECT_KEY(uniform_intra_dc_us);
  EXPECT_KEY(latency_model);
  EXPECT_KEY(reliable);
  EXPECT_KEY(reliable_cfg.rto_us);
  EXPECT_KEY(reliable_cfg.max_rto_us);
  EXPECT_KEY(reliable_cfg.scan_period_us);
  EXPECT_KEY(reliable_cfg.fast_retx_guard_us);
  EXPECT_KEY(reliable_cfg.max_in_flight);
  EXPECT_KEY(reliable_cfg.max_ooo_buffered);
  EXPECT_KEY(reliable_cfg.sack);
  EXPECT_KEY(reliable_cfg.max_sack_ranges);
  EXPECT_KEY(reliable_cfg.adaptive_rto);
  EXPECT_KEY(reliable_cfg.min_rto_us);
  EXPECT_KEY(codec);
  EXPECT_KEY(socket.processes);
  EXPECT_KEY(socket.hosts);
  EXPECT_KEY(socket.connect_timeout_ms);
  EXPECT_KEY(socket.mesh_token);
  EXPECT_KEY(socket.supervise);
  EXPECT_KEY(socket.max_respawns);
  EXPECT_KEY(socket.kill_rank);
  EXPECT_KEY(socket.kill_after_ms);
  EXPECT_KEY(socket.outbound_budget);
  EXPECT_KEY(socket.stall_rank);
  EXPECT_KEY(socket.stall_peer);
  EXPECT_KEY(socket.stall_at_ms);
  EXPECT_KEY(socket.stall_len_ms);
  EXPECT_KEY(fuzz.corrupt_p);
  EXPECT_KEY(fuzz.replay_p);
  EXPECT_KEY(fuzz.max_capture_bytes);
#undef EXPECT_KEY
  EXPECT_EQ(detail::encode_experiment_config(out), text);
}

// ---------------------------------------------------------------------------
// Child-result codec and the launcher's merge.
// ---------------------------------------------------------------------------

stats::Histogram hist_of(std::initializer_list<std::uint64_t> values) {
  stats::Histogram h;
  for (const std::uint64_t v : values) h.record(v);
  return h;
}

void expect_same_hist(const stats::Histogram& a, const stats::Histogram& b, const char* what) {
  const auto ra = a.raw(), rb = b.raw();
  EXPECT_EQ(ra.count, rb.count) << what;
  EXPECT_EQ(ra.sum, rb.sum) << what;
  EXPECT_EQ(ra.min, rb.min) << what;
  EXPECT_EQ(ra.max, rb.max) << what;
  EXPECT_EQ(ra.buckets, rb.buckets) << what;
}

/// A distinct non-zero value in every field a child ships.
ExperimentResult every_field_result() {
  ExperimentResult r;
  r.committed = 1001;
  r.latency_hist = hist_of({10, 20, 30});
  r.latency_local_hist = hist_of({11});
  r.latency_multi_hist = hist_of({40'000, 90'000});
  r.visibility_hist = hist_of({5'000, 7'000, 250'000});
  r.blocked_reads = 1002;
  r.blocked_time_us = 1003;
  r.gossip_msgs = 1004;
  r.keys_read = 1005;
  r.local_hits = 1006;
  r.max_client_cache = 1007;
  r.sim_events = 1008;
  r.bytes_sent = 1009;
  r.link.shaped = 1010;
  r.link.dropped = 1011;
  r.link.duplicated = 1012;
  r.link.stalled = 1013;
  r.link.bw_queued = 1014;
  r.link.bw_wait_us = 1015;
  r.reliable.frames_sent = 1016;
  r.reliable.retransmits = 1017;
  r.reliable.fast_retransmits = 1018;
  r.reliable.acks_sent = 1019;
  r.reliable.dup_frames = 1020;
  r.reliable.ooo_frames = 1021;
  r.reliable.stale_acks = 1022;
  r.reliable.coalesced = 1023;
  r.reliable.sacked_skips = 1024;
  r.reliable.malformed_acks = 1025;
  r.reliable.rtt_samples = 1026;
  r.reliable.channel_resets = 1027;
  r.reliable.fenced_frames = 1028;
  r.fuzz.mutated = 1029;
  r.fuzz.flips = 1030;
  r.fuzz.truncations = 1031;
  r.fuzz.splices = 1032;
  r.fuzz.rejected_validate = 1033;
  r.fuzz.accepted_validate = 1034;
  r.fuzz.replays = 1035;
  r.fuzz.captured = 1036;
  r.socket.frames_out = 1037;
  r.socket.frames_in = 1038;
  r.socket.bytes_out = 1039;
  r.socket.bytes_in = 1040;
  r.socket.partial_reads = 1041;
  r.socket.short_writes = 1042;
  r.socket.reconnects = 1043;
  r.socket.dropped_dead = 1044;
  r.socket.redial_attempts = 1045;
  r.socket.redial_giveups = 1046;
  r.socket.fenced_stale_epoch = 1047;
  r.socket.malformed_frames = 1048;
  r.socket.read_syscalls = 1049;
  r.socket.write_syscalls = 1050;
  r.socket.flushes = 1051;
  r.socket.backpressure_stalls = 1052;
  r.socket.backpressure_drops = 1053;
  r.snapshots_served = 1054;
  r.catchups_served = 1055;
  r.prepared_fenced = 1056;
  r.recovery_ms = 1057;
  r.scheduled = 1058;
  r.overdue = 1059;
  r.max_backlog = 1060;
  r.intended_hist = hist_of({1'500, 2'500});
  r.service_hist = hist_of({900});
  r.workload_digest = 0xdeadbeefcafef00dull;
  r.replicate_factor_before = 1.75;
  r.replicate_factor_after = 1.0 / 3.0;
  r.load_rel_stddev_before = 0.625;
  r.load_rel_stddev_after = 0.1;
  r.keys_migrated = 1061;
  r.migrate_parked = 1062;
  r.migrate_chains_sent = 1063;
  r.migrate_chains_installed = 1064;
  r.sketch_reports = 1065;
  return r;
}

TEST(ChildResult, RoundTripsEveryField) {
  const ExperimentResult in = every_field_result();
  const std::vector<std::uint8_t> history = {1, 2, 3, 250, 0, 7};
  std::vector<std::uint8_t> blob;
  detail::encode_child_result(in, history, blob);

  ExperimentResult out;
  std::vector<std::uint8_t> history_out;
  ASSERT_TRUE(detail::decode_child_result(blob, out, history_out));
  EXPECT_EQ(history_out, history);
#define EXPECT_FIELD(m) EXPECT_EQ(out.m, in.m) << #m
  EXPECT_FIELD(committed);
  EXPECT_FIELD(blocked_reads);
  EXPECT_FIELD(blocked_time_us);
  EXPECT_FIELD(gossip_msgs);
  EXPECT_FIELD(keys_read);
  EXPECT_FIELD(local_hits);
  EXPECT_FIELD(max_client_cache);
  EXPECT_FIELD(sim_events);
  EXPECT_FIELD(bytes_sent);
  EXPECT_FIELD(link.shaped);
  EXPECT_FIELD(link.dropped);
  EXPECT_FIELD(link.duplicated);
  EXPECT_FIELD(link.stalled);
  EXPECT_FIELD(link.bw_queued);
  EXPECT_FIELD(link.bw_wait_us);
  EXPECT_FIELD(reliable.frames_sent);
  EXPECT_FIELD(reliable.retransmits);
  EXPECT_FIELD(reliable.fast_retransmits);
  EXPECT_FIELD(reliable.acks_sent);
  EXPECT_FIELD(reliable.dup_frames);
  EXPECT_FIELD(reliable.ooo_frames);
  EXPECT_FIELD(reliable.stale_acks);
  EXPECT_FIELD(reliable.coalesced);
  EXPECT_FIELD(reliable.sacked_skips);
  EXPECT_FIELD(reliable.malformed_acks);
  EXPECT_FIELD(reliable.rtt_samples);
  EXPECT_FIELD(reliable.channel_resets);
  EXPECT_FIELD(reliable.fenced_frames);
  EXPECT_FIELD(fuzz.mutated);
  EXPECT_FIELD(fuzz.flips);
  EXPECT_FIELD(fuzz.truncations);
  EXPECT_FIELD(fuzz.splices);
  EXPECT_FIELD(fuzz.rejected_validate);
  EXPECT_FIELD(fuzz.accepted_validate);
  EXPECT_FIELD(fuzz.replays);
  EXPECT_FIELD(fuzz.captured);
  EXPECT_FIELD(socket.frames_out);
  EXPECT_FIELD(socket.frames_in);
  EXPECT_FIELD(socket.bytes_out);
  EXPECT_FIELD(socket.bytes_in);
  EXPECT_FIELD(socket.partial_reads);
  EXPECT_FIELD(socket.short_writes);
  EXPECT_FIELD(socket.reconnects);
  EXPECT_FIELD(socket.dropped_dead);
  EXPECT_FIELD(socket.redial_attempts);
  EXPECT_FIELD(socket.redial_giveups);
  EXPECT_FIELD(socket.fenced_stale_epoch);
  EXPECT_FIELD(socket.malformed_frames);
  EXPECT_FIELD(socket.read_syscalls);
  EXPECT_FIELD(socket.write_syscalls);
  EXPECT_FIELD(socket.flushes);
  EXPECT_FIELD(socket.backpressure_stalls);
  EXPECT_FIELD(socket.backpressure_drops);
  EXPECT_FIELD(snapshots_served);
  EXPECT_FIELD(catchups_served);
  EXPECT_FIELD(prepared_fenced);
  EXPECT_FIELD(recovery_ms);
  EXPECT_FIELD(scheduled);
  EXPECT_FIELD(overdue);
  EXPECT_FIELD(max_backlog);
  EXPECT_FIELD(workload_digest);
  EXPECT_FIELD(replicate_factor_before);  // doubles travel bit-exact
  EXPECT_FIELD(replicate_factor_after);
  EXPECT_FIELD(load_rel_stddev_before);
  EXPECT_FIELD(load_rel_stddev_after);
  EXPECT_FIELD(keys_migrated);
  EXPECT_FIELD(migrate_parked);
  EXPECT_FIELD(migrate_chains_sent);
  EXPECT_FIELD(migrate_chains_installed);
  EXPECT_FIELD(sketch_reports);
#undef EXPECT_FIELD
  expect_same_hist(out.latency_hist, in.latency_hist, "latency_hist");
  expect_same_hist(out.latency_local_hist, in.latency_local_hist, "latency_local_hist");
  expect_same_hist(out.latency_multi_hist, in.latency_multi_hist, "latency_multi_hist");
  expect_same_hist(out.visibility_hist, in.visibility_hist, "visibility_hist");
  expect_same_hist(out.intended_hist, in.intended_hist, "intended_hist");
  expect_same_hist(out.service_hist, in.service_hist, "service_hist");
}

TEST(ChildResult, MergeFollowsEachFieldsRule) {
  ExperimentResult a, b;
  a.scheduled = 10;
  b.scheduled = 32;
  a.committed = 9;
  b.committed = 30;
  a.overdue = 1;
  b.overdue = 2;
  a.reliable.retransmits = 5;
  b.reliable.retransmits = 7;
  a.socket.frames_out = 100;
  b.socket.frames_out = 250;
  a.link.dropped = 3;
  b.link.dropped = 4;
  a.fuzz.mutated = 6;
  b.fuzz.mutated = 8;
  a.keys_read = 30;
  b.keys_read = 10;
  a.local_hits = 12;
  b.local_hits = 8;
  a.max_backlog = 17;
  b.max_backlog = 4;
  a.recovery_ms = 3;
  b.recovery_ms = 250;
  a.max_client_cache = 40;
  b.max_client_cache = 41;
  a.replicate_factor_before = 1.5;  // controller-only: the other child has 0
  b.load_rel_stddev_after = 0.25;
  a.workload_digest = 0b1100;
  b.workload_digest = 0b1010;
  a.blocked_reads = 2;  // 1 ms each
  a.blocked_time_us = 2'000;
  b.blocked_reads = 6;  // 3 ms each
  b.blocked_time_us = 18'000;
  a.latency_hist = hist_of({100});
  b.latency_hist = hist_of({300, 500});
  a.intended_hist = hist_of({1'000});

  ExperimentConfig cfg;
  cfg.measure_us = 2'000'000;
  cfg.openloop.enabled = true;
  const ExperimentResult m = detail::merge_child_results({a, b}, cfg);

  EXPECT_EQ(m.scheduled, 42u);
  EXPECT_EQ(m.committed, 39u);
  EXPECT_EQ(m.overdue, 3u);
  EXPECT_EQ(m.reliable.retransmits, 12u);
  EXPECT_EQ(m.socket.frames_out, 350u);
  EXPECT_EQ(m.link.dropped, 7u);
  EXPECT_EQ(m.fuzz.mutated, 14u);
  EXPECT_EQ(m.max_backlog, 17u);
  EXPECT_EQ(m.recovery_ms, 250u);
  EXPECT_EQ(m.max_client_cache, 41u);
  EXPECT_EQ(m.replicate_factor_before, 1.5);
  EXPECT_EQ(m.load_rel_stddev_after, 0.25);
  EXPECT_EQ(m.workload_digest, 0b0110u);
  EXPECT_EQ(m.blocked_reads, 8u);
  EXPECT_DOUBLE_EQ(m.avg_block_ms, 2.5);  // weighted by each child's reads
  EXPECT_EQ(m.latency_hist.count(), 3u);
  EXPECT_EQ(m.latency_hist.min(), 100u);
  EXPECT_EQ(m.latency_hist.max(), 500u);
  EXPECT_EQ(m.intended_hist.count(), 1u);
  // Derived after the merge, from the merged counts.
  EXPECT_DOUBLE_EQ(m.throughput_tx_s, 19.5);
  EXPECT_DOUBLE_EQ(m.achieved_rate_tx_s, 19.5);
  EXPECT_DOUBLE_EQ(m.intended_rate_tx_s, 21.0);
  EXPECT_DOUBLE_EQ(m.local_hit_rate, 0.5);
  EXPECT_EQ(m.intended_us.count, 1u);
}

TEST(ChildResult, RejectsTruncatedOrForeignBlob) {
  std::vector<std::uint8_t> blob;
  detail::encode_child_result(every_field_result(), {9, 9}, blob);
  ExperimentResult out;
  std::vector<std::uint8_t> history;
  ASSERT_TRUE(detail::decode_child_result(blob, out, history));

  std::vector<std::uint8_t> truncated(blob.begin(), blob.end() - 1);
  EXPECT_FALSE(detail::decode_child_result(truncated, out, history));

  // A child of another build: same framing, different magic ("PSK1").
  std::vector<std::uint8_t> foreign = blob;
  foreign[0] ^= 0x01;
  EXPECT_FALSE(detail::decode_child_result(foreign, out, history));
  std::vector<std::uint8_t> old;
  wire::Encoder e(old);
  e.put_varint(0x50534b31);
  e.put_varint(7);
  old.insert(old.end(), {'P', 'S', 'K', '$'});
  EXPECT_FALSE(detail::decode_child_result(old, out, history));
}

}  // namespace
}  // namespace paris::workload

// The socket tests re-exec this binary as children; the hook must intercept
// them before gtest parses argv (it exits in the child).
int main(int argc, char** argv) {
  paris::workload::maybe_run_socket_child(argc, argv);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
