#pragma once
// Field lists for counter structs (DESIGN §10, "Counters across processes").
//
// A counter struct declares each member once and lists it once, in
//
//   template <class F, class... S> static void fields(F&& f, S&... s) {
//     f("frames_sent", Merge::kSum, s.frames_sent...);
//     ...
//   }
//
// which hands the visitor one reference per struct passed in, so one walk
// can read a live struct into a snapshot, fold one process's numbers into
// another's, or encode and decode a struct. This is the idiom wire/messages.h
// uses for message fields. Snapshots, merges and the child-result codec walk
// the list; nothing else names a counter a second time.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <type_traits>

namespace paris {

/// How two members' values of one field combine: two servers of one process
/// (Deployment::total_server_stats) or two socket children (the launcher).
enum class Merge : std::uint8_t {
  kSum,   ///< counts and totals
  kMax,   ///< high-water marks, and values only one member reports
  kXor,   ///< order-free digests
  kHist,  ///< histograms: bucket-wise merge
};

/// `into` op= `part` for one field under `rule`.
template <class T>
void merge_value(Merge rule, T& into, const T& part) {
  if constexpr (std::is_arithmetic_v<T>) {
    switch (rule) {
      case Merge::kSum: into += part; break;
      case Merge::kMax: into = std::max(into, part); break;
      case Merge::kXor:
        if constexpr (std::is_integral_v<T>) into ^= part;
        break;
      case Merge::kHist: break;
    }
  } else {
    into.merge(part);  // histograms, the one non-scalar field type
  }
}

/// Folds every listed field of `part` into `into` by its rule.
template <class S>
void merge_fields(S& into, const S& part) {
  S::fields([](const char*, Merge rule, auto& a, const auto& b) { merge_value(rule, a, b); },
            into, part);
}

/// A component's live counters: one field-listed struct S of std::uint64_t
/// members. Any thread bumps a member with one relaxed atomic add on the
/// member itself (std::atomic_ref, no lock); snapshot() reads every listed
/// member the same way. Cache-line aligned and padded so no other
/// component's data shares a line with them.
template <class S>
class alignas(64) Counters {
 public:
  void add(std::uint64_t S::*field, std::uint64_t n = 1) {
    std::atomic_ref<std::uint64_t>(live_.*field).fetch_add(n, std::memory_order_relaxed);
  }

  S snapshot() const {
    S out;
    S::fields(
        [](const char*, Merge, std::uint64_t& o, std::uint64_t& live) {
          o = std::atomic_ref<std::uint64_t>(live).load(std::memory_order_relaxed);
        },
        out, live_);
    return out;
  }

 private:
  /// Mutable because atomic_ref needs a non-const referent even to load.
  mutable S live_;
};

}  // namespace paris
