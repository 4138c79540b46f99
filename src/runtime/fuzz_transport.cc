#include "runtime/fuzz_transport.h"

#include "wire/messages.h"

namespace paris::runtime {

namespace {
/// Frames the fuzzer may corrupt (= drop) or replay. With the reliable layer
/// on this is every message (frames + acks: retransmission covers loss,
/// sequence dedup covers replay). Without it only the idempotent replication
/// layer is touched — corrupting anything else would wedge transactions
/// instead of testing robustness (same contract as DropClass).
bool fuzz_eligible(const wire::Message& m) {
  const wire::MsgType t = m.type();
  return t == wire::MsgType::kReliableFrame || t == wire::MsgType::kReliableAck ||
         idempotent_message_class(m);
}

std::uint64_t channel_key(NodeId from, NodeId to) {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}
}  // namespace

FuzzTransport::FuzzTransport(Transport& inner, Executor& exec, FuzzConfig cfg,
                             std::uint64_t seed)
    : TransportDecorator(inner),
      exec_(exec),
      cfg_(cfg),
      draws_(splitmix64(seed ^ 0x66757a7a54505854ull)) {}  // salt: "fuzzTPXT"

int FuzzTransport::mutate(std::vector<std::uint8_t>& buf,
                          const std::vector<std::uint8_t>* partner, std::uint64_t h) {
  const auto pick = [&h](std::uint64_t bound) {
    h = splitmix64(h);
    return bound == 0 ? 0 : h % bound;
  };
  int kind = static_cast<int>(pick(3));
  if (kind == 2 && (partner == nullptr || partner->empty())) kind = static_cast<int>(pick(2));
  switch (kind) {
    case 0: {  // single bit flip
      const std::size_t i = pick(buf.size());
      buf[i] ^= static_cast<std::uint8_t>(1u << pick(8));
      break;
    }
    case 1: {  // truncation (possibly to nothing)
      buf.resize(pick(buf.size()));
      break;
    }
    default: {  // splice: our prefix + an earlier frame's suffix
      const std::size_t i = pick(buf.size() + 1);
      const std::size_t j = pick(partner->size() + 1);
      buf.resize(i);
      buf.insert(buf.end(), partner->begin() + static_cast<std::ptrdiff_t>(j),
                 partner->end());
      break;
    }
  }
  return kind;
}

void FuzzTransport::send_at(NodeId from, NodeId to, wire::MessagePtr msg,
                            std::uint64_t at_us) {
  const bool eligible = fuzz_eligible(*msg);
  if (!eligible) {
    inner_.send_at(from, to, std::move(msg), at_us);
    return;
  }
  const std::uint64_t key = channel_key(from, to);
  Shard& sh = shards_[from % kShards];

  // Replay: re-deliver an earlier captured frame on this channel, out of
  // phase with the live stream. The receiver's dedup must absorb it.
  if (cfg_.replay_p > 0 && draws_.next(from, to) < cfg_.replay_p) {
    std::vector<std::uint8_t> old;
    {
      std::lock_guard<std::mutex> lk(sh.mu);
      auto it = sh.stash.find(key);
      if (it != sh.stash.end() && it->second.count > 0) {
        const auto pickd = draws_.next(from, to);
        const auto idx = static_cast<std::uint32_t>(
            pickd * static_cast<double>(it->second.count));
        old = it->second.frames[idx % it->second.count];  // copy: map may rehash
      }
    }
    if (!old.empty()) {
      wire::Decoder d(old.data(), old.size());
      wire::MessagePtr dup = wire::decode_message_pooled(d, inner_.msg_pool(from));
      inner_.send_at(from, to, std::move(dup), at_us);
      stats_.add(&Stats::replays);
    }
  }

  // Capture + corruption both need the encoded bytes; encode once.
  std::vector<std::uint8_t> scratch;
  wire::encode_message(*msg, scratch);
  if (scratch.size() <= cfg_.max_capture_bytes) {
    std::lock_guard<std::mutex> lk(sh.mu);
    Stash& st = sh.stash[key];
    st.frames[st.next] = scratch;
    st.next = (st.next + 1) % kStashDepth;
    if (st.count < kStashDepth) ++st.count;
    stats_.add(&Stats::captured);
  }

  if (cfg_.corrupt_p > 0 && draws_.next(from, to) < cfg_.corrupt_p) {
    // A corrupted frame is mutated bytes on the wire: the parsing stack must
    // survive them (validate rejects, or validate accepts and decode copes),
    // and the frame itself is LOST — checksummed transports never deliver
    // corrupted payloads, so the original is dropped and the layer above
    // must recover.
    std::vector<std::uint8_t> partner;
    {
      std::lock_guard<std::mutex> lk(sh.mu);
      auto it = sh.stash.find(key);
      if (it != sh.stash.end() && it->second.count > 1) {
        // frames[next] is the OLDEST entry once the ring wrapped — the most
        // interesting splice partner (greatest state skew vs the live frame).
        const Stash& st = it->second;
        partner = st.frames[st.count == kStashDepth ? st.next : 0];
      }
    }
    const std::uint64_t h = splitmix64(
        static_cast<std::uint64_t>(draws_.next(from, to) * 0x1.0p53));
    const int kind = mutate(scratch, partner.empty() ? nullptr : &partner, h);
    const bool ok = wire::validate_encoded_message(scratch.data(), scratch.size());
    if (ok) {
      // Validation accepted the mutant: the decoder must also cope. The
      // result is discarded, never delivered — a checksummed wire cannot
      // surface bytes nobody sent.
      wire::Decoder d(scratch.data(), scratch.size());
      wire::MessagePtr m = wire::decode_message_pooled(d, inner_.msg_pool(from));
      (void)m;
    }
    stats_.add(&Stats::mutated);
    stats_.add(kind == 0 ? &Stats::flips : kind == 1 ? &Stats::truncations : &Stats::splices);
    stats_.add(ok ? &Stats::accepted_validate : &Stats::rejected_validate);
    return;  // msg released, never delivered: corruption is loss
  }

  inner_.send_at(from, to, std::move(msg), at_us);
}

}  // namespace paris::runtime
