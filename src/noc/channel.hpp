// Fixed-latency pipelined channel.
//
// Models a wire/link: items sent during cycle t become visible to the
// receiver at t + latency. Because receivers only ever poll items with
// arrival <= current cycle and senders always tag arrival >= current+1,
// the per-cycle component update order does not affect results. That same
// >= 1-cycle lookahead is what makes domain-parallel stepping bit-identical
// to serial (docs/PERFORMANCE.md, "The lookahead invariant"): a channel
// crossing a domain boundary runs in staging mode, where sends land in a
// sender-private buffer that the barrier merges into the visible queue
// before any receiver could legally observe them.
#pragma once

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/ring_buffer.hpp"
#include "common/types.hpp"
#include "noc/active_set.hpp"

namespace flov {

template <typename T>
class Channel {
 public:
  explicit Channel(Cycle latency = 1) : latency_(latency) {
    FLOV_CHECK(latency >= 1, "channel latency must be >= 1");
  }

  Cycle latency() const { return latency_; }

  /// Fault hook (fault-injection subsystem): consulted once per send with
  /// the send cycle; returns the extra delivery delay, or nullopt to drop
  /// the item on the wire. The item is mutable so soft-error models can
  /// flip payload bits in transit (the channel has already taken its copy —
  /// the sender's original is untouched). Unset on fault-free channels,
  /// keeping send() hook-free and cheap.
  using FaultHook = std::function<std::optional<Cycle>(Cycle, T&)>;
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }

  /// Active-set hook: every send re-arms the receiving component's liveness
  /// flag so Network::step knows it has (future) work. A single store per
  /// send; unset channels (unit tests) skip it. For boundary channels the
  /// list is the sending domain's private wake stage, so the mark itself
  /// never races.
  void set_wake_target(WakeList* list, int index) {
    wake_list_ = list;
    wake_index_ = index;
  }

  /// Staging mode (domain-parallel stepping): sends append to a
  /// sender-private buffer instead of the receiver-visible queue;
  /// merge_staged() publishes them at the barrier. Only the single sender
  /// touches staged_ during the parallel phase, so no locks are needed.
  void set_staging(bool on) { staging_ = on; }

  /// Moves staged sends into the visible queue (barrier only; single
  /// sender means staged order == serial send order).
  void merge_staged() {
    for (auto& e : staged_) queue_.push_back(std::move(e));
    staged_.clear();
  }

  /// Enqueues an item during cycle `now`; it arrives at now + latency.
  void send(Cycle now, T item) {
    if (wake_list_) wake_list_->mark(wake_index_);
    Cycle arrival = now + latency_;
    if (fault_hook_) {
      const std::optional<Cycle> fate = fault_hook_(now, item);
      if (!fate.has_value()) return;  // dropped on the wire
      arrival += *fate;
      // A delayed item must not reorder the wire or let two items become
      // deliverable on the same cycle (single-recv consumers — the FLOV
      // bypass latches — rely on >= 1-cycle spacing). The clamp keys off
      // the last *sent* arrival, not the queue back: with staging on, the
      // most recent send may still be in staged_, and a consumed item can
      // never clamp anyway (consumers only pop arrivals <= now < arrival).
      if (have_sent_ && arrival <= last_arrival_) {
        arrival = last_arrival_ + 1;
      }
    }
    FLOV_DCHECK(!have_sent_ || last_arrival_ <= arrival,
                "channel send out of order");
    last_arrival_ = arrival;
    have_sent_ = true;
    if (staging_) {
      staged_.emplace_back(arrival, std::move(item));
    } else {
      queue_.emplace_back(arrival, std::move(item));
    }
  }

  /// Pops the oldest item arriving at or before `now`, if any. Receivers
  /// that may see several items per cycle (credit channels during relay
  /// bursts) drain in place with `while (auto x = ch.recv(now))`.
  std::optional<T> recv(Cycle now) {
    if (queue_.empty() || queue_.front().first > now) return std::nullopt;
    T item = std::move(queue_.front().second);
    queue_.pop_front();
    return item;
  }

  // Receiver-side views: deliberately queue-only. During the parallel
  // phase staged_ belongs to the sender's worker (reading it here would
  // race AND make a receiver's quiescent check depend on worker timing);
  // outside the parallel phase staged_ is always empty (merged at the
  // barrier), so external walks see exactly what serial runs see.
  bool empty() const { return queue_.empty(); }
  std::size_t in_flight() const { return queue_.size(); }

  /// Drops everything in flight (used by the credit-ownership handover at
  /// FLOV power-state transitions; see flov/ documentation). Production
  /// code only clears CREDIT channels: clearing a flit channel would desync
  /// the cached in-network flit counters (tests that simulate unaccounted
  /// loss this way must not touch the cached getters afterwards).
  void clear() {
    queue_.clear();
    staged_.clear();
    have_sent_ = false;
  }

  /// Visits every in-flight item (read-only); used by the FLOV credit
  /// handover to account for flits still on the wire. Control-plane only
  /// (runs between barriers, when staged_ is empty).
  template <typename F>
  void for_each_in_flight(F&& f) const {
    for (const auto& [cycle, item] : queue_) f(item);
  }

 private:
  Cycle latency_;
  RingBuffer<std::pair<Cycle, T>> queue_;
  std::vector<std::pair<Cycle, T>> staged_;  ///< sender-private (parallel)
  FaultHook fault_hook_;
  WakeList* wake_list_ = nullptr;
  int wake_index_ = -1;
  Cycle last_arrival_ = 0;   ///< arrival tag of the most recent send
  bool have_sent_ = false;
  bool staging_ = false;
};

}  // namespace flov
