#include "flov/signal_fabric.hpp"

#include "common/log.hpp"
#include "fault/fault_injector.hpp"
#include "telemetry/trace.hpp"

namespace flov {

const char* to_string(HsType t) {
  switch (t) {
    case HsType::kDrainReq: return "DrainReq";
    case HsType::kDrainAbort: return "DrainAbort";
    case HsType::kDrainDone: return "DrainDone";
    case HsType::kSleepNotify: return "SleepNotify";
    case HsType::kWakeupNotify: return "WakeupNotify";
    case HsType::kActiveNotify: return "ActiveNotify";
    case HsType::kWakeupTrigger: return "WakeupTrigger";
  }
  return "?";
}

void SignalFabric::enqueue_hop(Cycle now, NodeId next, const HsMessage& msg) {
  if (power_) power_->count(EnergyEvent::kHandshakeSignal);
  if (fault_) {
    if (fault_->drop_signal(msg)) {
      FLOV_TRACE(telemetry::kTraceFault,
                 telemetry::TraceEventType::kFaultSignalDrop, now, msg.from,
                 static_cast<std::uint64_t>(msg.type), msg.target);
      return;
    }
    // Soft error on this wire segment: the PSR payload that arrives is not
    // the one that was sent. The hop still delivers (drop is a separate
    // fault class); duplicates carry the same corrupted copy — they model
    // one glitched transmission echoing, not two independent sends.
    HsMessage hop = msg;
    if (fault_->corrupt_signal(hop, now)) {
      FLOV_TRACE(telemetry::kTraceFault,
                 telemetry::TraceEventType::kFaultPsrFlip, now, hop.from,
                 static_cast<std::uint64_t>(hop.type),
                 hop.type == HsType::kWakeupTrigger
                     ? static_cast<std::uint64_t>(hop.target)
                     : static_cast<std::uint64_t>(hop.logical_beyond));
    }
    const Cycle delay = fault_->signal_extra_delay();
    if (delay > 0) {
      FLOV_TRACE(telemetry::kTraceFault,
                 telemetry::TraceEventType::kFaultSignalDelay, now, hop.from,
                 delay, static_cast<std::uint64_t>(hop.type));
    }
    queue_.push_back(InFlight{now + 1 + delay, next, hop});
    if (fault_->duplicate_signal(hop)) {
      FLOV_TRACE(telemetry::kTraceFault,
                 telemetry::TraceEventType::kFaultSignalDup, now, hop.from,
                 static_cast<std::uint64_t>(hop.type), hop.target);
      queue_.push_back(InFlight{now + 1, next, hop});
    }
    return;
  }
  queue_.push_back(InFlight{now + 1, next, msg});
}

void SignalFabric::send(Cycle now, const HsMessage& msg) {
  const NodeId next = geom_.neighbor(msg.from, msg.travel);
  if (next == kInvalidNode) return;  // signaling off the mesh edge is a no-op
  enqueue_hop(now, next, msg);
}

void SignalFabric::step(Cycle now) {
  FLOV_CHECK(handler_ != nullptr, "signal fabric without handler");
  // Split the due signals off in queue order and compact the rest in
  // place. Deliveries may enqueue forwarded copies (deliver_at = now + 1)
  // onto queue_, which must not be processed this cycle.
  due_.clear();
  std::size_t kept = 0;
  for (const InFlight& f : queue_) {
    if (f.deliver_at <= now) {
      due_.push_back(f);
    } else {
      queue_[kept++] = f;
    }
  }
  queue_.resize(kept);
  for (const InFlight& f : due_) {
    const bool absorbed = handler_(f.next, f.msg);
    if (absorbed) continue;
    const NodeId next = geom_.neighbor(f.next, f.msg.travel);
    if (next == kInvalidNode) continue;  // ran off the edge: signal dies
    enqueue_hop(now, next, f.msg);
  }
}

}  // namespace flov
