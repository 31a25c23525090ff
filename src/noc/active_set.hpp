// Active-set scheduling primitives shared by Network, Channel and the NIs.
//
// The simulator's hot loop used to step every router and NI every cycle,
// even the power-gated and empty ones — exactly the population FLOV
// maximizes. Instead, each steppable component carries a liveness flag in a
// WakeList; anything that can hand it new work (a channel send, a packet
// enqueue, a mode switch) re-arms the flag, and Network::step skips
// components whose flag is clear. A component may only clear its flag when
// stepping it would be a provable no-op (see docs/PERFORMANCE.md for the
// per-component invariants).
//
// FabricCounters are the incrementally maintained aggregates that replace
// the per-cycle O(n) in_network_flits()/idle() walks; the NIs update them
// at every injection/ejection event and Network exposes O(1) getters that
// FLOV_DCHECK against a full recount in debug builds.
#pragma once

#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace flov {

/// Destructive-interference granularity used to keep per-domain shards
/// (counter cells, staged wake lists, tracer rings) off each other's cache
/// lines. A fixed 64 rather than std::hardware_destructive_interference_size:
/// the library constant is an ABI-affecting compile-time guess that GCC
/// warns about, and 64 is correct for every x86-64 / AArch64 target this
/// runs on (on the few 128-byte-line parts, two shards per line is a perf
/// wobble, not a correctness issue).
inline constexpr std::size_t kCacheLine = 64;

/// Per-component liveness flags. Marking is idempotent and cheap (one store)
/// so producers call it unconditionally on every send.
///
/// Storage is cache-line aligned and padded to a line multiple: each
/// per-domain staged WakeList owns whole lines, so two domains' stages (or
/// a stage and an unrelated heap neighbor) never false-share during the
/// parallel phase.
class WakeList {
 public:
  void init(int n, bool live = true) {
    size_ = n;
    const std::size_t bytes = round_up(static_cast<std::size_t>(n));
    buf_.reset(bytes != 0
                   ? new (std::align_val_t{kCacheLine}) std::uint8_t[bytes]
                   : nullptr);
    for (int i = 0; i < n; ++i) buf_[i] = live ? 1 : 0;
  }
  void mark(int i) { buf_[static_cast<std::size_t>(i)] = 1; }
  void clear(int i) { buf_[static_cast<std::size_t>(i)] = 0; }
  bool live(int i) const { return buf_[static_cast<std::size_t>(i)] != 0; }
  int size() const { return size_; }

  /// ORs the set flags among `ids` into `dst` and clears them. Used at the
  /// domain-parallel barrier to merge a domain's staged wake marks into the
  /// real liveness list; `ids` must hold every index anything can mark in
  /// this list (marks are idempotent, so merge order is free).
  void drain_into(WakeList& dst, const std::vector<std::int32_t>& ids) {
    for (const std::int32_t i : ids) {
      const auto k = static_cast<std::size_t>(i);
      if (buf_[k]) {
        dst.buf_[k] = 1;
        buf_[k] = 0;
      }
    }
  }

 private:
  static std::size_t round_up(std::size_t n) {
    return (n + kCacheLine - 1) / kCacheLine * kCacheLine;
  }
  struct AlignedDelete {
    void operator()(std::uint8_t* p) const {
      ::operator delete[](p, std::align_val_t{kCacheLine});
    }
  };
  std::unique_ptr<std::uint8_t[], AlignedDelete> buf_;
  int size_ = 0;
};

/// Network-wide flit/packet aggregates, maintained by the NIs (and the
/// fault-drop hook) instead of being recounted by walking every component.
struct FabricCounters {
  std::uint64_t injected_flits = 0;  ///< NI -> local channel sends
  std::uint64_t ejected_flits = 0;   ///< NI consumptions
  std::uint64_t dropped_flits = 0;   ///< fault-injected drops on the wire
  std::uint64_t queued_packets = 0;  ///< descriptors waiting in NI queues
  std::uint64_t open_streams = 0;    ///< packets mid-injection (tail unsent)

  /// Flits currently inside the fabric (buffers + latches + channels).
  std::uint64_t in_network() const {
    return injected_flits - ejected_flits - dropped_flits;
  }
};

/// One domain's FabricCounters cell, padded to its own cache line(s):
/// adjacent domains' workers bump their counters every injection/ejection,
/// and FabricCounters itself is 40 bytes — unpadded, two shards share a
/// line and ping-pong it.
struct alignas(kCacheLine) CounterShard {
  FabricCounters c;
};

}  // namespace flov
