#include "runner.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <functional>
#include <mutex>
#include <unordered_map>

#include "common/assert.h"
#include "common/rng.h"
#include "proto/deployment.h"
#include "stats/latency_recorder.h"
#include "storage/mv_store.h"
#include "workload/driver.h"
#include "workload/openloop.h"

namespace perfbench {

using namespace paris;

double Series::pct(double q) const {
  if (v.empty()) return 0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  // Samples are whole microseconds: each stands for the interval
  // [x - 0.5, x + 0.5), and the quantile is interpolated inside the
  // microsecond it falls in, so it still moves with the distribution when
  // most samples share a value.
  const double target = q * static_cast<double>(s.size());
  const std::size_t i = std::min(static_cast<std::size_t>(target), s.size() - 1);
  const auto lo = std::lower_bound(s.begin(), s.end(), s[i]);
  const auto hi = std::upper_bound(s.begin(), s.end(), s[i]);
  return s[i] - 0.5 + (target - static_cast<double>(lo - s.begin())) /
                          static_cast<double>(hi - lo);
}

namespace {

double rusage_cpu_s(int who) {
  rusage ru{};
  getrusage(who, &ru);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// Caps on what a traced run keeps for the storage replay and the UST-lag
/// series; enough for stable per-key costs, bounded memory.
constexpr std::size_t kMaxReplayWrites = 400'000;
constexpr std::size_t kMaxReplayReads = 200'000;
constexpr std::size_t kMaxLagSamples = 1'000'000;
/// Read results land here so the replayed reads cannot be optimized away.
volatile std::uint64_t g_sink = 0;
/// Same release period as the library's open-loop engine.
constexpr std::uint64_t kPumpPeriodUs = 200;

/// The benchmark's proto::Tracer. Untraced runs use it only for sampled
/// update visibility (what run_experiment's own tracer does); traced runs
/// also time every protocol phase and keep the storage replay inputs.
/// Hooks fire on every worker of a thread backend, so all state is guarded
/// by one mutex — its cost is part of the tracing overhead the benchmark
/// reports.
class PhaseTracer final : public proto::Tracer {
 public:
  explicit PhaseTracer(bool full) : full_(full) {
    if (full_) data_ = std::make_unique<PhaseData>();
  }

  void set_exec(runtime::Executor& exec) { exec_ = &exec; }

  void set_window(std::uint64_t begin, std::uint64_t end) {
    begin_ = begin;
    end_ = end;
  }

  // --- driver-side spans (instrumented sessions/engines) ---

  void span(Series PhaseData::*s, std::uint64_t from, std::uint64_t to) {
    if (!in_window(to)) return;
    std::lock_guard<std::mutex> lk(mu_);
    ((*data_).*s).v.push_back(static_cast<double>(to - from));
  }

  void begin_read(TxId tx, DcId client_dc, std::uint64_t now) {
    std::lock_guard<std::mutex> lk(mu_);
    reads_[tx] = OpenRead{now, 0, client_dc};
  }

  void end_read(TxId tx, std::uint64_t now) {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = reads_.find(tx);
    if (it == reads_.end()) return;
    if (it->second.last_served != 0 && in_window(now)) {
      data_->resp_leg_us.v.push_back(static_cast<double>(now - it->second.last_served));
    }
    reads_.erase(it);
  }

  // --- proto::Tracer ---

  bool want_visibility(TxId tx) const override { return sampled(tx); }

  void on_commit_writes(TxId tx, DcId, const std::vector<wire::WriteKV>& writes) override {
    if (!full_) return;
    const std::uint64_t now = exec_->now_us();
    std::lock_guard<std::mutex> lk(mu_);
    PendingCommit& p = commits_[tx];
    p.at = now;
    if (in_window(now) && data_->writes.size() < kMaxReplayWrites) p.writes = writes;
  }

  void on_commit_decided(TxId tx, Timestamp ct, DcId origin, sim::SimTime now) override {
    if (!full_ && !sampled(tx)) return;
    std::lock_guard<std::mutex> lk(mu_);
    if (full_) {
      const auto it = commits_.find(tx);
      if (it != commits_.end()) {
        if (in_window(now)) data_->prepare_us.v.push_back(static_cast<double>(now - it->second.at));
        for (auto& w : it->second.writes) {
          data_->writes.push_back(ReplayWrite{ct, tx, origin, std::move(w)});
        }
        commits_.erase(it);
      }
    }
    if (sampled(tx) && in_window(now)) decided_[tx] = Decided{now, origin};
  }

  void on_applied(DcId dc, PartitionId p, TxId tx, Timestamp, sim::SimTime now) override {
    if (!full_ || !sampled(tx)) return;
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = decided_.find(tx);
    if (it == decided_.end()) return;
    if (dc == it->second.origin) {
      data_->apply_us.v.push_back(static_cast<double>(now - it->second.at));
    }
    applied_[ReplicaTx{tx.raw, dc, p}] = now;
  }

  void on_replica_commit(TxId tx, Timestamp, DcId, const wire::ReplicateTxn&) override {
    if (!full_ || !sampled(tx)) return;
    const std::uint64_t now = exec_->now_us();
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = decided_.find(tx);
    if (it != decided_.end()) {
      data_->replicate_us.v.push_back(static_cast<double>(now - it->second.at));
    }
  }

  void on_visible(DcId dc, PartitionId p, TxId tx, Timestamp, sim::SimTime now) override {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = decided_.find(tx);
    if (it == decided_.end()) return;  // committed outside the window
    visibility_.record(now >= it->second.at ? now - it->second.at : 0);
    if (!full_) return;
    const auto ap = applied_.find(ReplicaTx{tx.raw, dc, p});
    if (ap == applied_.end()) return;
    data_->ust_gate_us.v.push_back(static_cast<double>(now - ap->second));
    applied_.erase(ap);
  }

  void on_slice_served(DcId server_dc, PartitionId, TxId tx, Timestamp snapshot,
                       std::uint8_t mode, const std::vector<wire::Item>& items,
                       sim::SimTime now) override {
    if (!full_ || !in_window(now)) return;
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = reads_.find(tx);
    if (it != reads_.end()) {
      data_->req_leg_us.v.push_back(static_cast<double>(now - it->second.issued));
      it->second.last_served = std::max(it->second.last_served, now);
      ++data_->slices;
      if (server_dc != it->second.client_dc) ++data_->remote_slices;
    }
    if (data_->reads.size() < kMaxReplayReads) {
      ReplaySlice s{snapshot, mode, {}};
      s.keys.reserve(items.size());
      for (const auto& item : items) s.keys.push_back(item.k);
      data_->reads.push_back(std::move(s));
    }
  }

  void on_ust_advance(DcId, PartitionId, Timestamp ust, sim::SimTime now) override {
    if (!full_ || !in_window(now)) return;
    const std::uint64_t phys = ust.physical_us();
    std::lock_guard<std::mutex> lk(mu_);
    if (data_->ust_lag_us.v.size() < kMaxLagSamples) {
      data_->ust_lag_us.v.push_back(now > phys ? static_cast<double>(now - phys) : 0.0);
    }
  }

  const stats::Histogram& visibility() const { return visibility_; }
  std::unique_ptr<PhaseData> take_data() { return std::move(data_); }

 private:
  struct OpenRead {
    std::uint64_t issued = 0;
    std::uint64_t last_served = 0;
    DcId client_dc = 0;
  };
  struct PendingCommit {
    std::uint64_t at = 0;
    std::vector<wire::WriteKV> writes;
  };
  struct Decided {
    std::uint64_t at = 0;
    DcId origin = 0;
  };
  struct ReplicaTx {
    std::uint64_t tx;
    DcId dc;
    PartitionId p;
    bool operator==(const ReplicaTx&) const = default;
  };
  struct ReplicaTxHash {
    std::size_t operator()(const ReplicaTx& r) const {
      return splitmix64(r.tx ^ (static_cast<std::uint64_t>(r.dc) << 48) ^
                        (static_cast<std::uint64_t>(r.p) << 32));
    }
  };

  /// 1 in 16 transactions, the run_experiment default sampling.
  static bool sampled(TxId tx) { return (splitmix64(tx.raw) & 15) == 0; }
  bool in_window(std::uint64_t t) const { return t >= begin_ && t < end_; }

  const bool full_;
  runtime::Executor* exec_ = nullptr;
  std::uint64_t begin_ = 0, end_ = 0;
  std::mutex mu_;
  std::unique_ptr<PhaseData> data_;
  std::unordered_map<TxId, OpenRead> reads_;
  std::unordered_map<TxId, PendingCommit> commits_;
  std::unordered_map<TxId, Decided> decided_;
  std::unordered_map<ReplicaTx, std::uint64_t, ReplicaTxHash> applied_;
  stats::Histogram visibility_;
};

/// One transaction of `plan` on `c` with client-side phase spans: the
/// instrumented twin of the body of workload::Session / OpenLoopEngine.
/// `plan` must outlive the transaction.
void traced_tx(runtime::Executor& exec, PhaseTracer& tr, proto::Client& c,
               const workload::TxPlan& plan, std::function<void()> done) {
  const std::uint64_t t_start = exec.now_us();
  c.start_tx([&exec, &tr, &c, &plan, t_start, done = std::move(done)](TxId tx, Timestamp) {
    const std::uint64_t t_read = exec.now_us();
    tr.span(&PhaseData::start_us, t_start, t_read);
    auto commit = [&exec, &tr, &c, &plan, done] {
      if (!plan.writes.empty()) c.write(plan.writes);
      const std::uint64_t t_commit = exec.now_us();
      c.commit([&exec, &tr, t_commit, done](Timestamp) {
        tr.span(&PhaseData::commit_us, t_commit, exec.now_us());
        done();
      });
    };
    if (plan.reads.empty()) {
      commit();
      return;
    }
    tr.begin_read(tx, c.dc(), t_read);
    c.read(plan.reads, [&exec, &tr, tx, t_read, commit](std::vector<wire::Item>) {
      const std::uint64_t now = exec.now_us();
      tr.span(&PhaseData::read_us, t_read, now);
      tr.end_read(tx, now);
      commit();
    });
  });
}

/// Instrumented closed-loop session (workload::Session's loop).
class TracedSession {
 public:
  TracedSession(runtime::Executor& exec, PhaseTracer& tr, proto::Client& c,
                workload::TxGenerator gen, workload::Collector& col)
      : exec_(exec), tr_(tr), c_(c), gen_(std::move(gen)), col_(col) {}

  void run() {
    tx_start_ = exec_.now_us();
    plan_ = gen_.next();
    traced_tx(exec_, tr_, c_, plan_, [this] {
      col_.record_tx(tx_start_, exec_.now_us(), plan_.multi_dc);
      run();
    });
  }

 private:
  runtime::Executor& exec_;
  PhaseTracer& tr_;
  proto::Client& c_;
  workload::TxGenerator gen_;
  workload::Collector& col_;
  workload::TxPlan plan_;
  std::uint64_t tx_start_ = 0;
};

/// Instrumented open-loop engine: releases the library engine's pre-drawn
/// schedule with the same pump period and FIFO backlog discipline.
class TracedEngine {
 public:
  TracedEngine(const workload::OpenLoopEngine& src, PhaseTracer& tr,
               std::vector<proto::Client*> clients)
      : sched_(src.schedule()), tr_(tr), clients_(std::move(clients)) {}

  void start(runtime::Executor& exec, std::uint64_t t0, std::uint64_t begin,
             std::uint64_t end) {
    exec_ = &exec;
    t0_ = t0;
    rec_.set_window(begin, end);
    for (std::size_t i = 0; i < clients_.size(); ++i) idle_.push_back(i);
    timer_ = exec.every(clients_[0]->node(), kPumpPeriodUs, kPumpPeriodUs, [this] { pump(); });
  }

  /// Counts never-released arrivals as scheduled, like the library engine.
  void finalize() {
    timer_.cancel();
    std::lock_guard<std::mutex> lk(mu_);
    for (; next_ < sched_.size(); ++next_) rec_.note_scheduled(t0_ + sched_[next_].at_us);
  }

  const stats::LatencyRecorder& recorder() const { return rec_; }

 private:
  void pump() {
    const std::uint64_t now = exec_->now_us();
    std::lock_guard<std::mutex> lk(mu_);
    for (; next_ < sched_.size() && t0_ + sched_[next_].at_us <= now; ++next_) {
      rec_.note_scheduled(t0_ + sched_[next_].at_us);
      backlog_.push_back(next_);
    }
    rec_.note_backlog(backlog_.size());
    while (!backlog_.empty() && !idle_.empty()) {
      const std::size_t ci = idle_.back();
      idle_.pop_back();
      const std::size_t ai = backlog_.front();
      backlog_.pop_front();
      exec_->post(clients_[ci]->node(), [this, ci, ai] { run_tx(ci, ai); });
    }
  }

  void run_tx(std::size_t ci, std::size_t ai) {
    const std::uint64_t started = exec_->now_us();
    traced_tx(*exec_, tr_, *clients_[ci], sched_[ai].plan, [this, ci, ai, started] {
      std::size_t next_ai = static_cast<std::size_t>(-1);
      {
        std::lock_guard<std::mutex> lk(mu_);
        rec_.record(t0_ + sched_[ai].at_us, started, exec_->now_us());
        if (!backlog_.empty()) {
          next_ai = backlog_.front();
          backlog_.pop_front();
        } else {
          idle_.push_back(ci);
        }
      }
      if (next_ai != static_cast<std::size_t>(-1)) run_tx(ci, next_ai);
    });
  }

  const std::vector<workload::OpenLoopEngine::Arrival>& sched_;
  PhaseTracer& tr_;
  std::vector<proto::Client*> clients_;
  runtime::Executor* exec_ = nullptr;
  runtime::TimerHandle timer_;
  std::uint64_t t0_ = 0;
  std::mutex mu_;
  std::size_t next_ = 0;
  std::deque<std::size_t> backlog_;
  std::vector<std::size_t> idle_;
  stats::LatencyRecorder rec_;
};

}  // namespace

double self_cpu_s() { return rusage_cpu_s(RUSAGE_SELF); }
double children_cpu_s() { return rusage_cpu_s(RUSAGE_CHILDREN); }

RunOutput run_local(const ExperimentConfig& cfg, bool traced, std::uint64_t drain_us) {
  PARIS_CHECK_MSG(cfg.runtime != runtime::Kind::kSockets, "run_local: sim or threads only");
  const auto setup_start = std::chrono::steady_clock::now();

  proto::DeploymentConfig dc;
  dc.system = cfg.system;
  dc.runtime = cfg.runtime;
  dc.worker_threads = cfg.worker_threads;
  dc.topo = {cfg.num_dcs, cfg.num_partitions, cfg.replication};
  dc.protocol = cfg.protocol;
  dc.cost = cfg.cost;
  dc.codec = cfg.codec;
  dc.aws_latency = cfg.aws_latency;
  dc.uniform_inter_dc_us = cfg.uniform_inter_dc_us;
  dc.uniform_intra_dc_us = cfg.uniform_intra_dc_us;
  dc.latency_model = cfg.latency_model;
  dc.reliable = cfg.reliable;
  dc.reliable_cfg = cfg.reliable_cfg;
  dc.seed = cfg.seed;

  // Hooks only fire once the deployment runs; the executor they read the
  // time from is the deployment's own, attached right after construction.
  PhaseTracer tracer(traced);
  proto::Deployment dep(dc, &tracer);
  tracer.set_exec(dep.exec());
  dep.start();

  // Client layout and seeds exactly as in run_experiment: one client process
  // per (DC, partition replicated there), threads_per_process sessions (or
  // an engine with that many clients), in (d, p) enumeration order.
  const bool open_loop = cfg.openloop.enabled;
  const std::uint64_t horizon_us = cfg.warmup_us + cfg.measure_us;
  const std::uint32_t num_engines = cfg.num_partitions * cfg.replication;
  workload::Collector collector;
  std::vector<std::unique_ptr<workload::Session>> sessions;
  std::vector<std::unique_ptr<TracedSession>> traced_sessions;
  std::vector<NodeId> session_nodes;
  std::vector<std::unique_ptr<workload::OpenLoopEngine>> engines;
  std::vector<std::unique_ptr<TracedEngine>> traced_engines;
  RunOutput out;
  std::uint32_t engine_index = 0;
  for (DcId d = 0; d < dep.topo().num_dcs(); ++d) {
    for (PartitionId p : dep.topo().partitions_at(d)) {
      std::vector<proto::Client*> pool;
      for (std::uint32_t t = 0; t < cfg.threads_per_process; ++t) {
        proto::Client& client = dep.add_client(d, p);
        if (open_loop) {
          pool.push_back(&client);
          continue;
        }
        const std::uint64_t seed =
            splitmix64(cfg.seed ^ (static_cast<std::uint64_t>(d) << 40) ^
                       (static_cast<std::uint64_t>(p) << 20) ^ t);
        workload::TxGenerator gen(dep.topo(), cfg.workload, d, seed);
        if (traced) {
          traced_sessions.push_back(std::make_unique<TracedSession>(
              dep.exec(), tracer, client, std::move(gen), collector));
        } else {
          sessions.push_back(
              std::make_unique<workload::Session>(dep.exec(), client, std::move(gen), collector));
        }
        session_nodes.push_back(client.node());
      }
      if (!open_loop) continue;
      const std::uint64_t eseed = splitmix64(cfg.seed ^ (static_cast<std::uint64_t>(d) << 40) ^
                                             (static_cast<std::uint64_t>(p) << 20) ^ 0xA5A5ULL);
      auto eng = std::make_unique<workload::OpenLoopEngine>(
          dep.topo(), cfg.workload, cfg.openloop, d, p, engine_index++, num_engines,
          horizon_us, eseed, nullptr);
      out.digest ^= eng->digest();
      out.arrivals += eng->schedule_size();
      if (traced) {
        traced_engines.push_back(std::make_unique<TracedEngine>(*eng, tracer, pool));
      } else {
        for (proto::Client* c : pool) eng->add_client(c);
      }
      engines.push_back(std::move(eng));
    }
  }

  const std::uint64_t t0 = dep.exec().now_us();
  const std::uint64_t win_begin = t0 + cfg.warmup_us;
  const std::uint64_t win_end = win_begin + cfg.measure_us;
  collector.set_window(win_begin, win_end);
  tracer.set_window(win_begin, win_end);
  if (traced) {
    for (auto& eng : traced_engines) eng->start(dep.exec(), t0, win_begin, win_end);
    for (std::size_t i = 0; i < traced_sessions.size(); ++i) {
      TracedSession* s = traced_sessions[i].get();
      dep.exec().post(session_nodes[i], [s] { s->run(); });
    }
  } else {
    for (auto& eng : engines) {
      eng->recorder().set_window(win_begin, win_end);
      eng->start(dep.exec(), t0);
    }
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      workload::Session* s = sessions[i].get();
      dep.exec().post(session_nodes[i], [s] { s->run(); });
    }
  }
  out.setup_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - setup_start).count();

  dep.run_for(cfg.warmup_us);
  const double cpu0 = self_cpu_s();
  const std::uint64_t bytes0 = dep.transport().total_bytes_sent();
  const std::uint64_t events0 = dep.backend().events_executed();
  dep.run_for(cfg.measure_us);
  out.cpu_s = self_cpu_s() - cpu0;
  out.bytes = dep.transport().total_bytes_sent() - bytes0;
  out.events = dep.backend().events_executed() - events0;
  dep.run_for(drain_us);
  dep.stop();

  out.window_s = static_cast<double>(cfg.measure_us) / 1e6;
  out.run_s = static_cast<double>(horizon_us + drain_us) / 1e6;
  if (open_loop) {
    stats::LatencyRecorder rec;
    if (traced) {
      for (auto& eng : traced_engines) {
        eng->finalize();
        rec.merge(eng->recorder());
      }
    } else {
      for (auto& eng : engines) {
        eng->finalize();
        rec.merge(eng->recorder());
      }
    }
    out.committed = rec.completed();
    out.scheduled = rec.scheduled();
    out.overdue = rec.overdue();
    out.max_backlog = rec.max_backlog();
    out.latency = rec.intended();
    out.service = rec.service();
  } else {
    out.committed = collector.committed();
    out.latency = collector.latency();
  }
  out.visibility = tracer.visibility();
  out.server = dep.total_server_stats();
  std::uint64_t finished = 0;
  for (const auto& c : dep.clients()) {
    out.keys_read += c->stats().keys_read;
    out.local_hits += c->stats().local_hits;
    finished += c->stats().txs_committed + c->stats().read_only_txs;
  }
  if (open_loop) {
    // Every arrival of the schedule has been released by the end of the
    // drain unless the run fell behind; whatever is still queued or in
    // flight then never finished.
    PARIS_CHECK_MSG(finished <= out.arrivals, "run_local: more finished transactions than arrivals");
    out.unfinished = out.arrivals - finished;
  }
  out.phases = tracer.take_data();
  return out;
}

StorageCost replay_storage(std::vector<ReplayWrite> writes, const std::vector<ReplaySlice>& reads) {
  using clock = std::chrono::steady_clock;
  const auto ns_since = [](clock::time_point t) {
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - t).count());
  };
  // Versions are installed in commit order, as a replica's apply loop does.
  std::stable_sort(writes.begin(), writes.end(),
                   [](const ReplayWrite& a, const ReplayWrite& b) { return a.ct < b.ct; });
  store::MvStore st;
  StorageCost cost;
  auto t = clock::now();
  for (const ReplayWrite& w : writes) {
    st.apply(w.kv.k, w.kv.v, w.kv.kind != 0 ? w.kv.delta() : 0, w.ct, w.tx, w.sr, w.kv.kind);
  }
  if (!writes.empty()) cost.apply_ns_per_write = ns_since(t) / static_cast<double>(writes.size());
  if (st.num_keys() != 0) {
    cost.versions_per_key =
        static_cast<double>(st.num_versions()) / static_cast<double>(st.num_keys());
  }

  std::uint64_t keys = 0;
  std::uint64_t sink = 0;  // keeps the reads observable
  t = clock::now();
  for (const ReplaySlice& s : reads) {
    for (Key k : s.keys) {
      if (s.mode == static_cast<std::uint8_t>(wire::ReadMode::kCounter)) {
        sink += static_cast<std::uint64_t>(st.read_counter(k, s.snapshot).first);
      } else if (const store::Version* v = st.read(k, s.snapshot)) {
        sink += v->ut.raw;
      }
      ++keys;
    }
  }
  if (keys != 0) cost.read_ns_per_key = ns_since(t) / static_cast<double>(keys);
  g_sink = sink;

  // GC at the newest snapshot the reads used: once they are done, no older
  // snapshot is active, so that is the watermark a replica would collect to.
  if (!reads.empty()) {
    Timestamp watermark;
    for (const ReplaySlice& s : reads) watermark = std::max(watermark, s.snapshot);
    t = clock::now();
    const std::size_t removed = st.gc(watermark);
    if (removed != 0) cost.gc_ns_per_version = ns_since(t) / static_cast<double>(removed);
  }
  return cost;
}

}  // namespace perfbench
