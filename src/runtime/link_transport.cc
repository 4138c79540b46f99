#include "runtime/link_transport.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace paris::runtime {

const char* latency_model_name(LatencyModelKind k) {
  switch (k) {
    case LatencyModelKind::kNone:
      return "none";
    case LatencyModelKind::kMatrix:
      return "matrix";
    case LatencyModelKind::kJitter:
      return "jitter";
  }
  return "?";
}

const char* drop_class_name(DropClass c) {
  switch (c) {
    case DropClass::kReplication:
      return "replication";
    case DropClass::kRequests:
      return "requests";
    case DropClass::kAll:
      return "all";
  }
  return "?";
}

bool idempotent_message_class(const wire::Message& m) {
  wire::MsgType t = m.type();
  if (t == wire::MsgType::kReliableAck) return false;
  if (t == wire::MsgType::kReliableFrame) {
    t = static_cast<wire::MsgType>(static_cast<const wire::ReliableFrame&>(m).inner_type);
  }
  return t == wire::MsgType::kReplicateBatch || t == wire::MsgType::kHeartbeat;
}

namespace {

bool in_drop_class(const wire::Message& m, DropClass c) {
  switch (c) {
    case DropClass::kReplication:
      return idempotent_message_class(m);
    case DropClass::kRequests:
      return m.type() != wire::MsgType::kReliableAck && !idempotent_message_class(m);
    case DropClass::kAll:
      return true;
  }
  return false;
}

/// Parses a non-negative decimal; advances *p past it. Returns false if no
/// digits were consumed or the value overflows (strtoull alone would wrap
/// "-1" to a huge value instead of rejecting it).
bool parse_u64(const char*& p, std::uint64_t& out) {
  if (*p < '0' || *p > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(p, &end, 10);
  if (end == p || errno == ERANGE) return false;
  out = v;
  p = end;
  return true;
}

bool parse_probability(const std::string& s, double& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (*end != '\0' || !(v >= 0.0 && v <= 1.0)) return false;  // rejects NaN too
  out = v;
  return true;
}

bool parse_window(const char*& p, LinkEpisode& e) {
  std::uint64_t a = 0, b = 0, start_ms = 0, end_ms = 0;
  bool isolate = true;
  if (!parse_u64(p, a)) return false;
  if (*p == '-') {
    ++p;
    if (!parse_u64(p, b)) return false;
    isolate = false;
  }
  if (*p != ':') return false;
  ++p;
  if (!parse_u64(p, start_ms)) return false;
  if (*p != ':') return false;
  ++p;
  if (!parse_u64(p, end_ms)) return false;
  if (end_ms <= start_ms || end_ms > ~0ull / 1000) return false;
  e = LinkEpisode::partition(static_cast<DcId>(a), static_cast<DcId>(b), isolate,
                             start_ms * 1000, end_ms * 1000);
  return true;
}

}  // namespace

LinkEpisode LinkEpisode::partition(DcId a, DcId b, bool isolate, std::uint64_t start_us,
                                   std::uint64_t end_us) {
  LinkEpisode e;
  e.links = isolate ? Links::kIsolate : Links::kPair;
  e.a = a;
  e.b = b;
  e.symmetric = true;
  e.start_us = start_us;
  e.end_us = end_us;
  e.loss_good = 1;
  return e;
}

LinkEpisode LinkEpisode::chaos() {
  LinkEpisode e;
  e.stall_us = 10'000;
  e.drop_class = DropClass::kReplication;
  return e;
}

bool LinkEpisode::active(DcId from, DcId to, std::uint64_t now) const {
  if (now < start_us || now >= end_us) return false;
  if (links == Links::kEvery) return true;
  if (from == to) return false;  // DC selectors never shape intra-DC traffic
  if (links == Links::kIsolate) return from == a || to == a;
  return (from == a && to == b) || (symmetric && from == b && to == a);
}

bool parse_partition_spec(const std::string& s, std::vector<LinkEpisode>& out) {
  std::vector<LinkEpisode> spec;
  const char* p = s.c_str();
  while (true) {
    LinkEpisode e;
    if (!parse_window(p, e)) return false;
    spec.push_back(e);
    if (*p == '\0') break;
    if (*p != ',') return false;
    ++p;
  }
  out.insert(out.end(), spec.begin(), spec.end());
  return true;
}

bool parse_chaos_knob(const std::string& knob, const std::string& value, LinkEpisode& ep) {
  if (knob == "reorder") return parse_probability(value, ep.stall_p);
  if (knob == "duplicate") return parse_probability(value, ep.duplicate_p);
  if (knob == "stall-ms") {
    const char* p = value.c_str();
    std::uint64_t ms = 0;
    if (!parse_u64(p, ms) || *p != '\0' || ms > ~0ull / 1000) return false;
    ep.stall_us = ms * 1000;
    return true;
  }
  if (knob != "drop") return false;
  DropClass cls = DropClass::kReplication;
  std::string p = value;
  if (const auto colon = value.find(':'); colon != std::string::npos) {
    const std::string name = value.substr(0, colon);
    if (name == "replication") {
      cls = DropClass::kReplication;
    } else if (name == "requests") {
      cls = DropClass::kRequests;
    } else if (name == "all") {
      cls = DropClass::kAll;
    } else {
      return false;
    }
    p = value.substr(colon + 1);
  }
  if (!parse_probability(p, ep.loss_good)) return false;
  ep.drop_class = cls;
  return true;
}

LinkTransport::LinkTransport(Transport& inner, Executor& exec,
                             std::optional<sim::LatencyModel> delay,
                             std::vector<LinkEpisode> episodes, std::uint64_t seed)
    : TransportDecorator(inner),
      exec_(exec),
      delay_(std::move(delay)),
      episodes_(std::move(episodes)),
      seed_(seed),
      draws_(splitmix64(seed ^ 0x6c696e6b54505854ull)),  // salt: "linkTPXT"
      ge_(episodes_.size()) {}

std::uint64_t LinkTransport::sample_one_way_us(NodeId from, NodeId to) {
  if (!delay_) return 0;
  const std::uint64_t mean = inner_.colocated(from, to)
                                 ? delay_->loopback_us()
                                 : delay_->mean_one_way_us(dc_of(from), dc_of(to));
  if (delay_->jitter() <= 0) return mean;
  // mean * U[1-j, 1+j], matching sim::LatencyModel::sample_one_way_us.
  const double u = draws_.next(from, to);
  const double factor = 1.0 + (u * 2.0 - 1.0) * delay_->jitter();
  const auto v = static_cast<std::uint64_t>(static_cast<double>(mean) * factor);
  return v == 0 ? 1 : v;
}

bool LinkTransport::ge_bad(std::size_t ep, std::uint64_t now) {
  const LinkEpisode& e = episodes_[ep];
  if (e.p_good_bad <= 0) return false;  // chains start good and never leave
  const std::uint64_t slot = now >= e.start_us ? (now - e.start_us) / kGeSlotUs : 0;
  std::lock_guard<std::mutex> lk(ge_mu_);
  std::vector<bool>& chain = ge_[ep];
  while (chain.size() <= slot) {
    const std::uint64_t k = chain.size();
    const bool prev = k != 0 && chain[k - 1];
    // Transition draw: a pure function of (seed, episode, slot), so every
    // thread and process extending this chain computes identical states.
    const std::uint64_t h =
        splitmix64(splitmix64(seed_ ^ 0x4745636861696eull ^ ep) ^ k);  // "GEchain"
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    chain.push_back(prev ? (u >= e.p_bad_good) : (u < e.p_good_bad));
  }
  return chain[slot];
}

std::uint64_t LinkTransport::through_pipe(DcId from, DcId to, std::uint32_t bytes_per_us,
                                          std::uint64_t bytes, std::uint64_t at_us) {
  const std::uint64_t ser_us = (bytes + bytes_per_us - 1) / bytes_per_us;
  const std::uint64_t key = (static_cast<std::uint64_t>(from) << 32) | to;
  std::uint64_t start;
  {
    std::lock_guard<std::mutex> lk(pipe_mu_);
    std::uint64_t& free_at = pipe_free_at_[key];
    start = free_at > at_us ? free_at : at_us;
    free_at = start + ser_us;
  }
  if (start > at_us) {
    stats_.add(&Stats::bw_queued);
    stats_.add(&Stats::bw_wait_us, start - at_us);
  }
  return start + ser_us;
}

void LinkTransport::shape(NodeId from, NodeId to, wire::MessagePtr msg, std::uint64_t at_us) {
  const DcId da = dc_of(from), db = dc_of(to);
  const std::uint64_t now = exec_.now_us();
  bool any = false;
  // 1. Loss first: a message any episode drops pays nothing else.
  for (std::size_t i = 0; i < episodes_.size(); ++i) {
    const LinkEpisode& e = episodes_[i];
    if (!e.active(da, db, now)) continue;
    any = true;
    if (!e.has_loss() || !in_drop_class(*msg, e.drop_class)) continue;
    const double p = ge_bad(i, now) ? e.loss_bad : e.loss_good;
    if (p >= 1 || (p > 0 && draws_.next(from, to) < p)) {
      stats_.add(&Stats::shaped);
      stats_.add(&Stats::dropped);
      return;  // msg released, never delivered
    }
  }
  if (!any) {
    inner_.send_at(from, to, std::move(msg), at_us + sample_one_way_us(from, to));
    return;
  }
  stats_.add(&Stats::shaped);
  // 2-3. Duplication and stall from every active episode ...
  std::uint32_t copies = 0;
  for (const LinkEpisode& e : episodes_) {
    if (!e.active(da, db, now)) continue;
    if (e.duplicate_p > 0 && idempotent_message_class(*msg) &&
        draws_.next(from, to) < e.duplicate_p) {
      ++copies;
    }
    if (e.stall_p > 0 && draws_.next(from, to) < e.stall_p) {
      at_us += e.stall_us;  // a TCP stall: later channels overtake this one
      stats_.add(&Stats::stalled);
    }
  }
  if (copies != 0) stats_.add(&Stats::duplicated, copies);
  // 4-6. ... then every copy takes its own pipe slot, the ramps and the base
  // delay, as if it had been sent twice.
  for (std::uint32_t n = 0; n <= copies; ++n) {
    std::uint64_t t = at_us;
    for (const LinkEpisode& e : episodes_) {
      if (e.bandwidth_bytes_per_us > 0 && e.active(da, db, now)) {
        t = through_pipe(da, db, e.bandwidth_bytes_per_us, msg->wire_size() + 1, t);
      }
    }
    for (const LinkEpisode& e : episodes_) {
      if ((e.extra_delay_start_us == 0 && e.extra_delay_end_us == 0) || !e.active(da, db, now)) {
        continue;
      }
      const double span = static_cast<double>(e.end_us - e.start_us);
      const double frac = static_cast<double>(now - e.start_us) / span;
      t += static_cast<std::uint64_t>(
          static_cast<double>(e.extra_delay_start_us) +
          frac * (static_cast<double>(e.extra_delay_end_us) -
                  static_cast<double>(e.extra_delay_start_us)));
    }
    t += sample_one_way_us(from, to);
    if (n == copies) {
      inner_.send_at(from, to, std::move(msg), t);
    } else {
      inner_.send_at(from, to, msg, t);  // same payload
    }
  }
}

}  // namespace paris::runtime
