#include "telemetry/trace.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/config.hpp"
#include "common/log.hpp"
#include "telemetry/json.hpp"

namespace flov::telemetry {

namespace {

struct EventMeta {
  const char* name;
  TraceCategory category;
  const char* arg0;
  const char* arg1;
};

constexpr int kNumTypes = static_cast<int>(TraceEventType::kNumTraceEventTypes);

const EventMeta kEventMeta[kNumTypes] = {
    {"packet_gen", kTraceFlit, "dest", "size_flits"},
    {"packet_inject", kTraceFlit, "packet_id", "dest"},
    {"vc_alloc", kTraceFlit, "packet_id", "out_vc"},
    {"switch_grant", kTraceFlit, "packet_id", "in_port"},
    {"switch_traversal", kTraceFlit, "packet_id", "out_port"},
    {"flov_latch", kTraceFlit, "packet_id", "out_port"},
    {"packet_eject", kTraceFlit, "packet_id", "latency"},
    {"escape_divert", kTraceFlit, "packet_id", "waited_cycles"},
    {"hs_drain_begin", kTraceHandshake, "epoch", "partners"},
    {"hs_wake_begin", kTraceHandshake, "epoch", "partners"},
    {"hs_retry", kTraceHandshake, "partner", "resends"},
    {"hs_drain_abort", kTraceHandshake, "epoch", "aborts"},
    {"hs_sleep_enter", kTraceHandshake, "epoch", "drain_cycles"},
    {"hs_wake_complete", kTraceHandshake, "epoch", "wake_cycles"},
    {"power_mode", kTracePower, "mode", "prev_mode"},
    {"epoch_begin", kTraceEpoch, "reconfig", "unused"},
    {"epoch_apply", kTraceEpoch, "parked", "purged"},
    {"epoch_complete", kTraceEpoch, "reconfig", "duration"},
    {"watchdog_stall", kTraceRecovery, "stalled_cycles", "unused"},
    {"recovery_attempt", kTraceRecovery, "recovered", "unused"},
    {"fault_signal_drop", kTraceFault, "signal_type", "from"},
    {"fault_signal_delay", kTraceFault, "delay", "unused"},
    {"fault_signal_dup", kTraceFault, "signal_type", "from"},
    {"fault_flit_drop", kTraceFault, "packet_id", "unused"},
    {"fault_flit_delay", kTraceFault, "packet_id", "delay"},
    {"fault_spurious_wake", kTraceFault, "target", "unused"},
    {"fault_payload_flip", kTraceFault, "packet_id", "flit_index"},
    {"fault_psr_flip", kTraceFault, "type", "corrupted_value"},
    {"verify_violation", kTraceVerify, "check", "unused"},
};

const EventMeta& meta(TraceEventType t) {
  const int i = static_cast<int>(t);
  FLOV_CHECK(i >= 0 && i < kNumTypes, "bad trace event type");
  return kEventMeta[i];
}

}  // namespace

const char* trace_event_name(TraceEventType t) { return meta(t).name; }
TraceCategory trace_event_category(TraceEventType t) {
  return meta(t).category;
}
const char* trace_event_arg0(TraceEventType t) { return meta(t).arg0; }
const char* trace_event_arg1(TraceEventType t) { return meta(t).arg1; }

const char* trace_category_name(TraceCategory c) {
  switch (c) {
    case kTraceFlit: return "flit";
    case kTraceHandshake: return "handshake";
    case kTracePower: return "power";
    case kTraceEpoch: return "epoch";
    case kTraceRecovery: return "recovery";
    case kTraceFault: return "fault";
    case kTraceVerify: return "verify";
    default: return "?";
  }
}

std::uint32_t trace_mask_from_string(const std::string& spec) {
  if (spec.empty() || spec == "none") return 0;
  if (spec == "all") return kTraceAll;
  if (std::isdigit(static_cast<unsigned char>(spec[0]))) {
    return static_cast<std::uint32_t>(std::strtoul(spec.c_str(), nullptr, 0));
  }
  std::uint32_t mask = 0;
  std::istringstream is(spec);
  for (std::string tok; std::getline(is, tok, ',');) {
    if (tok == "flit") mask |= kTraceFlit;
    else if (tok == "handshake") mask |= kTraceHandshake;
    else if (tok == "power") mask |= kTracePower;
    else if (tok == "epoch") mask |= kTraceEpoch;
    else if (tok == "recovery") mask |= kTraceRecovery;
    else if (tok == "fault") mask |= kTraceFault;
    else if (tok == "verify") mask |= kTraceVerify;
    else throw ConfigError("config key telemetry.trace: bad category " + tok);
  }
  return mask;
}

Tracer::Tracer(std::uint32_t mask, std::size_t capacity) : mask_(mask) {
  FLOV_CHECK(capacity > 0, "tracer needs a non-empty ring");
  ring_.resize(capacity);
}

void Tracer::append_own(std::vector<TraceEvent>& out) const {
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  out.reserve(size());
  for (const auto& s : shards_) s->append_own(out);
  append_own(out);
  if (!shards_.empty()) {
    // Shard rings interleave by cycle; a stable sort restores global cycle
    // order while keeping the deterministic [shard 0 .. shard n-1, parent]
    // intra-cycle order. Unsharded tracers keep raw record order (tests
    // record synthetic events with arbitrary cycles).
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                       return a.cycle < b.cycle;
                     });
  }
  return out;
}

std::size_t Tracer::size() const {
  std::size_t n = size_;
  for (const auto& s : shards_) n += s->size_;
  return n;
}

std::uint64_t Tracer::overwritten() const {
  std::uint64_t n = overwritten_;
  for (const auto& s : shards_) n += s->overwritten_;
  return n;
}

void Tracer::ensure_shards(int n) {
  if (static_cast<int>(shards_.size()) == n) return;
  FLOV_CHECK(shards_.empty(), "tracer shard count cannot change mid-run");
  const std::size_t cap =
      std::max<std::size_t>(1024, ring_.size() / static_cast<std::size_t>(n));
  shards_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Tracer>(mask_, cap));
  }
}

std::string Tracer::chrome_trace_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (const TraceEvent& e : events()) {
    const EventMeta& m = meta(e.type);
    // Every event as a thread-scoped instant event (ph "i"); ts is the
    // simulation cycle interpreted as microseconds, tid is the node.
    w.begin_object();
    w.kv("name", m.name);
    w.kv("cat", trace_category_name(m.category));
    w.kv("ph", "i");
    w.kv("s", "t");
    w.kv("ts", static_cast<std::uint64_t>(e.cycle));
    w.kv("pid", 0);
    w.kv("tid", static_cast<std::int64_t>(e.node));
    w.key("args");
    w.begin_object();
    w.kv(m.arg0, e.a);
    w.kv(m.arg1, e.b);
    w.end_object();
    w.end_object();
    // Handshake episodes additionally as async spans so Perfetto renders
    // drain/wake episodes as bars per router (id = node).
    const bool span_begin = e.type == TraceEventType::kHsDrainBegin ||
                            e.type == TraceEventType::kHsWakeBegin;
    const bool span_end = e.type == TraceEventType::kHsDrainAbort ||
                          e.type == TraceEventType::kHsSleepEnter ||
                          e.type == TraceEventType::kHsWakeComplete;
    if (span_begin || span_end) {
      const bool drain = e.type == TraceEventType::kHsDrainBegin ||
                         e.type == TraceEventType::kHsDrainAbort ||
                         e.type == TraceEventType::kHsSleepEnter;
      w.begin_object();
      w.kv("name", drain ? "drain_episode" : "wake_episode");
      w.kv("cat", "handshake");
      w.kv("ph", span_begin ? "b" : "e");
      w.kv("ts", static_cast<std::uint64_t>(e.cycle));
      w.kv("pid", 0);
      w.kv("tid", static_cast<std::int64_t>(e.node));
      w.kv("id", static_cast<std::int64_t>(e.node));
      w.end_object();
    }
  }
  w.end_array();
  w.key("otherData");
  w.begin_object();
  w.kv("tool", "flyover");
  w.kv("mask", static_cast<std::uint64_t>(mask_));
  w.kv("overwritten", overwritten());
  w.end_object();
  w.kv("displayTimeUnit", "ms");
  w.end_object();
  return w.take();
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  FLOV_CHECK(f != nullptr, "cannot open trace file " + path);
  const std::string json = chrome_trace_json();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
}

std::vector<TraceEvent> Tracer::parse_chrome_trace(const std::string& json) {
  const JsonValue doc = JsonValue::parse(json);
  FLOV_CHECK(doc.is_object() && doc.has("traceEvents"),
             "not a chrome trace document");
  std::vector<TraceEvent> out;
  for (const JsonValue& ev : doc.at("traceEvents").arr) {
    if (ev.at("ph").str != "i") continue;  // async span mirrors are derived
    const std::string& name = ev.at("name").str;
    int type = -1;
    for (int i = 0; i < kNumTypes; ++i) {
      if (name == kEventMeta[i].name) {
        type = i;
        break;
      }
    }
    FLOV_CHECK(type >= 0, "unknown trace event name: " + name);
    const TraceEventType t = static_cast<TraceEventType>(type);
    TraceEvent e;
    e.type = t;
    e.cycle = static_cast<Cycle>(ev.at("ts").num);
    e.node = static_cast<std::int32_t>(ev.at("tid").num);
    e.a = static_cast<std::uint64_t>(ev.at("args").at(meta(t).arg0).num);
    e.b = static_cast<std::uint64_t>(ev.at("args").at(meta(t).arg1).num);
    out.push_back(e);
  }
  return out;
}

ThreadTraceState& thread_trace_state() {
  thread_local ThreadTraceState state;
  return state;
}

TraceScope::TraceScope(Tracer* t) {
  ThreadTraceState& s = thread_trace_state();
  prev_ = s;
  s.tracer = t;
  s.mask = t ? t->mask() : 0;
}

TraceScope::~TraceScope() { thread_trace_state() = prev_; }

}  // namespace flov::telemetry
