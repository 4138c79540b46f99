#include "verify/history.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace paris::verify {

using wire::Item;
using wire::WriteKV;

void HistoryRecorder::on_tx_started(NodeId client, TxId tx, Timestamp snapshot,
                                    sim::SimTime /*now*/) {
  std::lock_guard<std::mutex> lk(mu_);
  sessions_[client].push_back(SessionStart{tx, snapshot});
}

void HistoryRecorder::on_commit_writes(TxId tx, DcId origin,
                                       const std::vector<WriteKV>& writes) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& rec = txs_[tx];
  rec.origin = origin;
  rec.writes = writes;
}

void HistoryRecorder::on_commit_decided(TxId tx, Timestamp ct, DcId origin,
                                        sim::SimTime /*now*/) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& rec = txs_[tx];
  rec.ct = ct;
  rec.origin = origin;
  ++decided_;
}

void HistoryRecorder::on_replica_commit(TxId tx, Timestamp ct, DcId origin,
                                        const wire::ReplicateTxn& txn) {
  // A replica's view of a remote commit: authoritative iff the coordinator's
  // own record is missing (its process was killed before harvest). Only this
  // partition's writes are visible here; other partitions' replicas complete
  // the record via the same union. decided_ is NOT bumped — it counts
  // coordinator decisions.
  std::lock_guard<std::mutex> lk(mu_);
  auto& rec = txs_[tx];
  if (rec.ct.is_zero()) {
    rec.ct = ct;
    rec.origin = origin;
  }
  for (const auto& w : txn.writes) {
    bool known = false;
    for (const auto& have : rec.writes) {
      if (have.k == w.k) {
        known = true;
        break;
      }
    }
    if (!known) rec.writes.push_back(w);
  }
}

void HistoryRecorder::on_slice_served(DcId server_dc, PartitionId partition, TxId tx,
                                      Timestamp snapshot, std::uint8_t mode,
                                      const std::vector<Item>& items, sim::SimTime now) {
  if (!opt_.record_slices) return;
  std::lock_guard<std::mutex> lk(mu_);
  slices_.push_back(SliceRecord{server_dc, partition, tx, snapshot, mode, items, now});
}

void HistoryRecorder::serialize(std::vector<std::uint8_t>& out) const {
  std::lock_guard<std::mutex> lk(mu_);
  wire::Encoder e(out);
  wire::detail::WireWriter w{e};
  e.put_varint(txs_.size());
  for (const auto& [tx, rec] : txs_) {
    e.put_varint(tx.raw);
    e.put_varint(rec.ct.raw);
    e.put_varint(rec.origin);
    w(rec.writes);
  }
  e.put_varint(slices_.size());
  for (const auto& s : slices_) {
    e.put_varint(s.dc);
    e.put_varint(s.partition);
    e.put_varint(s.reader.raw);
    e.put_varint(s.snapshot.raw);
    e.put_u8(s.mode);
    w(s.items);
    e.put_varint(s.at);
  }
  e.put_varint(sessions_.size());
  for (const auto& [node, starts] : sessions_) {
    e.put_varint(node);
    e.put_varint(starts.size());
    for (const auto& st : starts) {
      e.put_varint(st.tx.raw);
      e.put_varint(st.snapshot.raw);
    }
  }
  e.put_varint(decided_);
}

void HistoryRecorder::merge_serialized(const std::uint8_t* data, std::size_t n) {
  std::lock_guard<std::mutex> lk(mu_);
  wire::Decoder d(data, n);
  wire::detail::WireReader r{d};
  for (std::uint64_t i = 0, ntx = d.get_varint(); i < ntx; ++i) {
    const TxId tx{d.get_varint()};
    const Timestamp ct{d.get_varint()};
    const DcId origin = static_cast<DcId>(d.get_varint());
    std::vector<WriteKV> writes;
    r(writes);
    // Union, not overwrite: after a mid-run kill the same tx can appear in
    // several children's blobs — the dead coordinator's partial record and
    // the surviving replicas' per-partition views.
    TxRecord& rec = txs_[tx];
    if (rec.ct.is_zero() && !ct.is_zero()) {
      rec.ct = ct;
      rec.origin = origin;
    }
    if (rec.writes.empty()) {
      rec.writes = std::move(writes);
    } else {
      for (auto& w : writes) {
        bool known = false;
        for (const auto& have : rec.writes) {
          if (have.k == w.k) {
            known = true;
            break;
          }
        }
        if (!known) rec.writes.push_back(std::move(w));
      }
    }
  }
  for (std::uint64_t i = 0, ns = d.get_varint(); i < ns; ++i) {
    SliceRecord s;
    s.dc = static_cast<DcId>(d.get_varint());
    s.partition = static_cast<PartitionId>(d.get_varint());
    s.reader = TxId{d.get_varint()};
    s.snapshot = Timestamp{d.get_varint()};
    s.mode = d.get_u8();
    r(s.items);
    s.at = d.get_varint();
    slices_.push_back(std::move(s));
  }
  for (std::uint64_t i = 0, nc = d.get_varint(); i < nc; ++i) {
    const NodeId node = static_cast<NodeId>(d.get_varint());
    auto& starts = sessions_[node];
    for (std::uint64_t j = 0, ns = d.get_varint(); j < ns; ++j) {
      SessionStart st;
      st.tx = TxId{d.get_varint()};
      st.snapshot = Timestamp{d.get_varint()};
      starts.push_back(st);
    }
  }
  decided_ += d.get_varint();
  PARIS_CHECK_MSG(d.done(), "history blob has trailing bytes");
}

Timestamp HistoryRecorder::commit_ts(TxId tx) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = txs_.find(tx);
  return it == txs_.end() ? kTsZero : it->second.ct;
}

namespace {

/// One committed write, in the system's total version order.
struct WriteVersion {
  Timestamp ct;
  TxId tx;
  DcId sr;
  const Value* v;
  std::int64_t num;  ///< binary counter delta (kind != 0)
  std::uint8_t kind;

  friend bool operator<(const WriteVersion& a, const WriteVersion& b) {
    if (a.ct != b.ct) return a.ct < b.ct;
    if (a.tx != b.tx) return a.tx < b.tx;
    return a.sr < b.sr;
  }
};

std::int64_t parse_i64(const Value& v) {
  return v.empty() ? 0 : std::strtoll(v.c_str(), nullptr, 10);
}

/// Expected counter value at `snapshot`: fold the sorted versions from the
/// last register base (its numeric value seeds the sum) through the
/// snapshot — mirrors MvStore::read_counter over the committed history.
std::int64_t expected_counter(const std::vector<WriteVersion>& versions, Timestamp snapshot) {
  std::int64_t sum = 0;
  for (const auto& v : versions) {
    if (v.ct > snapshot) break;
    if (v.kind == 0) {
      sum = parse_i64(*v.v);  // register base resets
    } else {
      sum += v.num;
    }
  }
  return sum;
}

std::string fmt(const char* f, auto... args) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), f, args...);
  return buf;
}

}  // namespace

std::vector<std::string> HistoryRecorder::check() const {
  std::lock_guard<std::mutex> lk(mu_);  // run after the deployment stopped
  std::vector<std::string> violations;

  // Per-session monotonic snapshots: within one client session, assigned
  // snapshots never move backwards (order-independent across sessions; each
  // session's stream was recorded in its own sequential order). Shares the
  // flood cap with the slice checks below: a systemic regression must not
  // drown the output.
  for (const auto& [client, starts] : sessions_) {
    for (std::size_t i = 1; i < starts.size(); ++i) {
      if (starts[i].snapshot < starts[i - 1].snapshot) {
        violations.push_back(fmt(
            "client=%u tx=%llu: SESSION violation — snapshot %s moved backwards "
            "(previous tx %llu had %s)",
            client, (unsigned long long)starts[i].tx.raw,
            to_string(starts[i].snapshot).c_str(),
            (unsigned long long)starts[i - 1].tx.raw,
            to_string(starts[i - 1].snapshot).c_str()));
        if (violations.size() > 50) {
          violations.push_back("... further violations suppressed");
          return violations;
        }
      }
    }
  }

  // Index committed writes per key, sorted by the total version order.
  std::unordered_map<Key, std::vector<WriteVersion>> by_key;
  std::unordered_map<Key, bool> has_delta;
  for (const auto& [tx, rec] : txs_) {
    if (rec.ct.is_zero()) continue;  // never decided (in flight at end of run)
    for (const auto& w : rec.writes) {
      by_key[w.k].push_back(
          WriteVersion{rec.ct, tx, rec.origin, &w.v, w.kind != 0 ? w.delta() : 0, w.kind});
      if (w.kind != 0) has_delta[w.k] = true;
    }
  }
  for (auto& [k, versions] : by_key) std::sort(versions.begin(), versions.end());

  // Exactness: every slice item is the LWW winner within the snapshot.
  // Two causal-safety assertions are checked first; they must hold under
  // ANY delivery schedule the transport produces — including the injected
  // cross-channel reorder of a link stall episode — because they depend
  // only on commit timestamps, never on arrival order:
  //  * no read from the future: a slice never returns a version committed
  //    after its snapshot (atomic-visibility / snapshot isolation);
  //  * no phantom version: every returned (ut, tx) pair matches a commit
  //    that actually happened (catches duplicated/diverged applies).
  for (const auto& s : slices_) {
    for (const auto& item : s.items) {
      if (!item.ut.is_zero()) {
        if (item.ut > s.snapshot) {
          violations.push_back(
              fmt("slice@%llu dc=%u p=%u key=%llu snap=%s: CAUSAL violation — returned "
                  "version from the future (ut=%s > snapshot)",
                  (unsigned long long)s.at, s.dc, s.partition, (unsigned long long)item.k,
                  to_string(s.snapshot).c_str(), to_string(item.ut).c_str()));
        }
        const auto txit = txs_.find(item.tx);
        if (txit == txs_.end() || txit->second.ct.is_zero() || txit->second.ct != item.ut) {
          violations.push_back(
              fmt("slice@%llu dc=%u p=%u key=%llu: PHANTOM version — returned (ut=%s "
                  "tx=%llu) but no such commit exists",
                  (unsigned long long)s.at, s.dc, s.partition, (unsigned long long)item.k,
                  to_string(item.ut).c_str(), (unsigned long long)item.tx.raw));
        }
      }
      const WriteVersion* winner = nullptr;
      if (const auto it = by_key.find(item.k); it != by_key.end()) {
        for (const auto& v : it->second) {
          if (v.ct > s.snapshot) break;
          winner = &v;
        }
      }
      if (winner == nullptr) {
        if (!item.ut.is_zero()) {
          violations.push_back(
              fmt("slice@%llu dc=%u p=%u key=%llu snap=%s: returned version ut=%s but no "
                  "committed write <= snapshot exists",
                  (unsigned long long)s.at, s.dc, s.partition, (unsigned long long)item.k,
                  to_string(s.snapshot).c_str(), to_string(item.ut).c_str()));
        }
        continue;
      }
      if (item.ut.is_zero()) {
        violations.push_back(
            fmt("slice@%llu dc=%u p=%u key=%llu snap=%s: returned ABSENT but tx %llu "
                "committed ct=%s <= snapshot (stale/lost write)",
                (unsigned long long)s.at, s.dc, s.partition, (unsigned long long)item.k,
                to_string(s.snapshot).c_str(), (unsigned long long)winner->tx.raw,
                to_string(winner->ct).c_str()));
        continue;
      }
      // Note: sr is not compared. The version-order tuple is (ut, tx, sr)
      // but TxIds are globally unique, so sr never disambiguates; stores
      // stamp sr with the DC of the preparing cohort, which can legally
      // differ from the coordinator's DC for multi-DC write sets.
      if (item.ut != winner->ct || item.tx != winner->tx) {
        violations.push_back(
            fmt("slice@%llu dc=%u p=%u key=%llu snap=%s: returned (ut=%s tx=%llu) "
                "but LWW winner is (ct=%s tx=%llu)",
                (unsigned long long)s.at, s.dc, s.partition, (unsigned long long)item.k,
                to_string(s.snapshot).c_str(), to_string(item.ut).c_str(),
                (unsigned long long)item.tx.raw, to_string(winner->ct).c_str(),
                (unsigned long long)winner->tx.raw));
        continue;
      }
      if (s.mode == static_cast<std::uint8_t>(wire::ReadMode::kCounter)) {
        // Counter reads return the merged sum (binary, item.num), not the
        // newest raw value.
        const std::int64_t expect = expected_counter(by_key[item.k], s.snapshot);
        if (item.num != expect) {
          violations.push_back(
              fmt("slice@%llu key=%llu: counter sum %lld but expected %lld "
                  "(lost/duplicated delta)",
                  (unsigned long long)s.at, (unsigned long long)item.k,
                  static_cast<long long>(item.num), static_cast<long long>(expect)));
        }
      } else if (!has_delta[item.k] && item.v != *winner->v) {
        // Value comparison only for pure-register keys: GC legitimately
        // folds counter histories into synthetic base values.
        violations.push_back(fmt("slice@%llu key=%llu: version matches but value differs",
                                 (unsigned long long)s.at, (unsigned long long)item.k));
      }
    }
    if (violations.size() > 50) {
      violations.push_back("... further violations suppressed");
      break;
    }
  }
  return violations;
}

}  // namespace paris::verify
