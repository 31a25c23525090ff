#include "sim/checkpoint.hpp"

#include <bit>
#include <cstdio>
#include <cstdint>

#include "common/rng.hpp"

namespace flov {

namespace {

using telemetry::JsonValue;
using telemetry::JsonWriter;

std::uint64_t mix_d(std::uint64_t h, double v) {
  return hash_mix(h, std::bit_cast<std::uint64_t>(v));
}

std::uint64_t mix_s(std::uint64_t h, const std::string& s) {
  h = hash_mix(h, s.size());
  for (char c : s) h = hash_mix(h, static_cast<unsigned char>(c));
  return h;
}

std::uint64_t u64_of(const JsonValue& v) {
  return static_cast<std::uint64_t>(v.number_or(0.0));
}

}  // namespace

std::uint64_t sweep_point_fingerprint(const SyntheticExperimentConfig& cfg) {
  std::uint64_t h = 0x464c4f56u;  // "FLOV"
  h = hash_mix(h, static_cast<std::uint64_t>(cfg.scheme));
  h = mix_s(h, cfg.pattern);
  h = mix_d(h, cfg.inj_rate_flits);
  h = mix_d(h, cfg.gated_fraction);
  h = hash_mix(h, cfg.warmup);
  h = hash_mix(h, cfg.measure);
  h = hash_mix(h, cfg.seed);
  h = hash_mix(h, cfg.gating_changes.size());
  for (Cycle c : cfg.gating_changes) h = hash_mix(h, c);
  h = hash_mix(h, cfg.timeline_window);
  h = hash_mix(h, cfg.watchdog);
  h = hash_mix(h, cfg.drain_max);
  h = hash_mix(h, cfg.max_cycles_hard);
  h = hash_mix(h, cfg.verify ? 1 : 0);
  h = hash_mix(h, cfg.verifier.check_interval);
  h = hash_mix(h, cfg.verifier.settle_window);
  h = hash_mix(h, (cfg.verifier.check_conservation ? 1 : 0) |
                      (cfg.verifier.check_credits ? 2 : 0) |
                      (cfg.verifier.check_psr ? 4 : 0) |
                      (cfg.verifier.fatal ? 8 : 0));
  h = hash_mix(h, cfg.telemetry.metrics_window);

  // step_threads and step_tiles_x/y excluded: volatile knobs — any tiling
  // or threading is bit-identical to serial, so a checkpoint taken at
  // threads=8 must resume cleanly at threads=1 (and any tiles=).
  const NocParams& n = cfg.noc;
  h = hash_mix(h, static_cast<std::uint64_t>(n.width));
  h = hash_mix(h, static_cast<std::uint64_t>(n.height));
  h = hash_mix(h, static_cast<std::uint64_t>(n.num_vnets));
  h = hash_mix(h, static_cast<std::uint64_t>(n.vcs_per_vnet));
  h = hash_mix(h, static_cast<std::uint64_t>(n.escape_vc + 1));
  h = hash_mix(h, static_cast<std::uint64_t>(n.buffer_depth));
  h = hash_mix(h, static_cast<std::uint64_t>(n.packet_size));
  h = hash_mix(h, n.link_latency);
  h = hash_mix(h, n.deadlock_timeout);
  h = hash_mix(h, n.enable_escape_diversion ? 1 : 0);
  h = hash_mix(h, n.wakeup_latency);
  h = hash_mix(h, n.drain_idle_threshold);
  h = hash_mix(h, n.drain_abort_timeout);
  h = hash_mix(h, n.hs_retry_timeout);
  h = hash_mix(h, static_cast<std::uint64_t>(n.hs_retry_limit));
  h = hash_mix(h, n.trigger_retry_timeout);
  h = hash_mix(h, n.sleep_reannounce_interval);
  h = hash_mix(h, n.psr_block_timeout);
  h = hash_mix(h, n.latency_hist_max);
  h = hash_mix(h, n.reliable ? 1 : 0);
  h = hash_mix(h, n.retx_timeout);
  h = hash_mix(h, static_cast<std::uint64_t>(n.retx_backoff_cap));
  h = hash_mix(h, static_cast<std::uint64_t>(n.retx_limit));
  h = hash_mix(h, n.ack_delay);

  const FaultParams& f = cfg.faults;
  h = mix_d(h, f.signal_drop_rate);
  h = mix_d(h, f.signal_delay_rate);
  h = hash_mix(h, f.signal_delay_max);
  h = mix_d(h, f.signal_dup_rate);
  h = mix_d(h, f.flit_drop_rate);
  h = mix_d(h, f.flit_delay_rate);
  h = hash_mix(h, f.flit_delay_max);
  h = mix_d(h, f.spurious_wakeup_rate);
  h = mix_d(h, f.soft_flit_flip_rate);
  h = mix_d(h, f.soft_psr_flip_rate);
  h = mix_d(h, f.hard_router_pct);
  h = mix_d(h, f.hard_link_pct);
  h = hash_mix(h, f.hard_at_cycle);
  h = hash_mix(h, f.seed);

  const EnergyParams& e = cfg.energy;
  h = mix_d(h, e.buffer_write_pj);
  h = mix_d(h, e.buffer_read_pj);
  h = mix_d(h, e.vc_arb_pj);
  h = mix_d(h, e.sw_arb_pj);
  h = mix_d(h, e.crossbar_pj);
  h = mix_d(h, e.link_pj);
  h = mix_d(h, e.flov_latch_pj);
  h = mix_d(h, e.credit_relay_pj);
  h = mix_d(h, e.handshake_pj);
  h = mix_d(h, e.pg_transition_pj);
  h = mix_d(h, e.router_leak_mw);
  h = mix_d(h, e.link_leak_mw);
  h = mix_d(h, e.flov_sleep_leak_fraction);
  h = mix_d(h, e.rp_park_leak_fraction);
  h = mix_d(h, e.flov_active_overhead_fraction);
  h = mix_d(h, e.clock_freq_ghz);
  return h;
}

void write_registry_lossless(JsonWriter& w,
                             const telemetry::MetricsRegistry& reg) {
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, v] : reg.counters()) w.kv(name, v);
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, v] : reg.gauges()) w.kv(name, v);
  w.end_object();
  // Stats as the raw Welford tuple, NOT the derived mean/stddev the
  // manifest shows: [count, sum, min, max, running_mean, m2].
  w.key("stats");
  w.begin_object();
  for (const auto& [name, a] : reg.stats()) {
    w.key(name);
    w.begin_array();
    w.value(a.count());
    w.value(a.sum());
    w.value(a.min());
    w.value(a.max());
    w.value(a.welford_mean());
    w.value(a.m2());
    w.end_array();
  }
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, hist] : reg.histograms()) {
    w.key(name);
    w.begin_object();
    w.kv("lo", hist.lo());
    w.kv("hi", hist.hi());
    w.kv("nbins", hist.num_bins());
    w.kv("total", hist.count());
    w.kv("clamped_low", hist.clamped_low());
    w.kv("clamped_high", hist.clamped_high());
    w.key("bins");
    w.begin_array();
    // Sparse [index, count] pairs; empty bins reconstruct as zero.
    for (std::size_t i = 0; i < hist.bins().size(); ++i) {
      if (hist.bins()[i] == 0) continue;
      w.begin_array();
      w.value(static_cast<std::uint64_t>(i));
      w.value(hist.bins()[i]);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.key("series");
  w.begin_object();
  for (const auto& [name, ts] : reg.all_series()) {
    w.key(name);
    w.begin_object();
    w.kv("window", static_cast<std::uint64_t>(ts.window()));
    w.key("buckets");
    w.begin_array();
    for (const auto& [idx, acc] : ts.buckets()) {
      w.begin_array();
      w.value(idx);
      w.value(acc.count());
      w.value(acc.sum());
      w.value(acc.min());
      w.value(acc.max());
      w.value(acc.welford_mean());
      w.value(acc.m2());
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

namespace {

bool restore_acc(const JsonValue& a, StatAccumulator* out) {
  if (!a.is_array() || a.arr.size() != 6) return false;
  *out = StatAccumulator::restore(u64_of(a.arr[0]), a.arr[1].number_or(0.0),
                                  a.arr[2].number_or(0.0),
                                  a.arr[3].number_or(0.0),
                                  a.arr[4].number_or(0.0),
                                  a.arr[5].number_or(0.0));
  return true;
}

}  // namespace

bool restore_registry_lossless(const JsonValue& v,
                               telemetry::MetricsRegistry* out) {
  if (!v.is_object() || !v.has("counters") || !v.has("gauges") ||
      !v.has("stats") || !v.has("histograms") || !v.has("series")) {
    return false;
  }
  for (const auto& [name, c] : v.at("counters").obj) {
    out->counter(name) = u64_of(c);
  }
  for (const auto& [name, g] : v.at("gauges").obj) {
    out->gauge(name) = g.number_or(0.0);
  }
  for (const auto& [name, a] : v.at("stats").obj) {
    if (!restore_acc(a, &out->stat(name))) return false;
  }
  for (const auto& [name, hv] : v.at("histograms").obj) {
    if (!hv.is_object() || !hv.has("lo") || !hv.has("hi") ||
        !hv.has("nbins") || !hv.has("bins")) {
      return false;
    }
    const int nbins = static_cast<int>(hv.at("nbins").number_or(0.0));
    if (nbins <= 0) return false;
    std::vector<std::uint64_t> bins(static_cast<std::size_t>(nbins), 0);
    for (const JsonValue& pair : hv.at("bins").arr) {
      if (!pair.is_array() || pair.arr.size() != 2) return false;
      const std::uint64_t i = u64_of(pair.arr[0]);
      if (i >= bins.size()) return false;
      bins[i] = u64_of(pair.arr[1]);
    }
    const double lo = hv.at("lo").number_or(0.0);
    const double hi = hv.at("hi").number_or(0.0);
    if (!(hi > lo)) return false;
    out->histogram(name, lo, hi, nbins) = Histogram::restore(
        lo, hi, std::move(bins), u64_of(hv.at("total")),
        u64_of(hv.at("clamped_low")), u64_of(hv.at("clamped_high")));
  }
  for (const auto& [name, sv] : v.at("series").obj) {
    if (!sv.is_object() || !sv.has("window") || !sv.has("buckets")) {
      return false;
    }
    const Cycle window = u64_of(sv.at("window"));
    if (window == 0) return false;
    TimeSeries& ts = out->series(name, window);
    std::uint64_t prev = 0;
    bool first = true;
    for (const JsonValue& b : sv.at("buckets").arr) {
      if (!b.is_array() || b.arr.size() != 7) return false;
      const std::uint64_t idx = u64_of(b.arr[0]);
      if (!first && idx <= prev) return false;  // must be strictly sorted
      StatAccumulator acc = StatAccumulator::restore(
          u64_of(b.arr[1]), b.arr[2].number_or(0.0), b.arr[3].number_or(0.0),
          b.arr[4].number_or(0.0), b.arr[5].number_or(0.0),
          b.arr[6].number_or(0.0));
      ts.restore_bucket(idx, acc);
      prev = idx;
      first = false;
    }
  }
  return true;
}

namespace {

constexpr const char* kCheckpointSchema = "flyover-sweep-checkpoint-v1";

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool parse_hex16(const std::string& s, std::uint64_t* out) {
  if (s.size() != 16) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    int d;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
    else return false;
    v = (v << 4) | static_cast<std::uint64_t>(d);
  }
  *out = v;
  return true;
}

void write_breakdown(JsonWriter& w, const LatencyBreakdown& b) {
  w.begin_array();
  w.value(b.router);
  w.value(b.link);
  w.value(b.serialization);
  w.value(b.flov);
  w.value(b.contention);
  w.end_array();
}

bool read_breakdown(const JsonValue& v, LatencyBreakdown* b) {
  if (!v.is_array() || v.arr.size() != 5) return false;
  b->router = v.arr[0].number_or(0.0);
  b->link = v.arr[1].number_or(0.0);
  b->serialization = v.arr[2].number_or(0.0);
  b->flov = v.arr[3].number_or(0.0);
  b->contention = v.arr[4].number_or(0.0);
  return true;
}

}  // namespace

std::string encode_sweep_checkpoint_line(int index,
                                         const SyntheticExperimentConfig& cfg,
                                         const RunResult& r) {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", kCheckpointSchema);
  w.kv("index", index);
  w.kv("fp", hex16(sweep_point_fingerprint(cfg)));
  w.key("result");
  w.begin_object();
  w.kv("scheme", r.scheme);
  w.kv("avg_latency", r.avg_latency);
  w.kv("p50_latency", r.p50_latency);
  w.kv("p99_latency", r.p99_latency);
  w.key("breakdown");
  write_breakdown(w, r.breakdown);
  w.key("power");
  w.begin_array();
  w.value(static_cast<std::uint64_t>(r.power.cycles));
  w.value(r.power.static_mw);
  w.value(r.power.dynamic_mw);
  w.value(r.power.total_mw);
  w.value(r.power.static_energy_pj);
  w.value(r.power.dynamic_energy_pj);
  w.value(r.power.total_energy_pj);
  w.end_array();
  w.kv("packets_measured", r.packets_measured);
  w.kv("packets_generated", r.packets_generated);
  w.kv("injected_flits", r.injected_flits);
  w.kv("ejected_flits", r.ejected_flits);
  w.kv("escape_packets", r.escape_packets);
  w.kv("gated_routers_end", r.gated_routers_end);
  w.kv("avg_gated_routers", r.avg_gated_routers);
  w.kv("protocol_sleeps", r.protocol_sleeps);
  w.kv("protocol_wakeups", r.protocol_wakeups);
  w.kv("watchdog_recoveries", r.watchdog_recoveries);
  w.kv("verifier_violations", r.verifier_violations);
  w.kv("verifier_checks", r.verifier_checks);
  w.kv("hs_resends", r.hs_resends);
  w.kv("trigger_resends", r.trigger_resends);
  w.kv("self_captures", r.self_captures);
  w.kv("flits_dropped_by_faults", r.flits_dropped_by_faults);
  w.kv("packets_acked", r.packets_acked);
  w.kv("packets_dead", r.packets_dead);
  w.kv("packets_purged", r.packets_purged);
  w.kv("killed_at_source", r.killed_at_source);
  w.kv("retransmits", r.retransmits);
  w.kv("dup_packets", r.dup_packets);
  w.kv("packets_corrupted", r.packets_corrupted);
  w.kv("payload_flips", r.payload_flips);
  w.kv("psr_flips", r.psr_flips);
  w.kv("dead_routers", r.dead_routers);
  w.kv("dead_links", r.dead_links);
  w.kv("wake_requests_dropped", r.wake_requests_dropped);
  w.kv("aborted", r.aborted);
  w.kv("cycles_run", static_cast<std::uint64_t>(r.cycles_run));
  w.key("timeline");
  w.begin_array();
  for (const TimeSeries::Point& p : r.timeline) {
    w.begin_array();
    w.value(static_cast<std::uint64_t>(p.window_start));
    w.value(p.mean);
    w.value(p.count);
    w.end_array();
  }
  w.end_array();
  w.key("metrics");
  if (r.metrics) {
    write_registry_lossless(w, *r.metrics);
  } else {
    w.null();
  }
  // Incidents ride as STRING values (escaped), not spliced objects: the
  // decode path can then recover each record byte-for-byte from the string
  // instead of re-serializing a parsed tree (which would reorder keys and
  // break the resumed manifest's byte-identity).
  w.key("incidents");
  w.begin_array();
  if (r.incidents) {
    for (const std::string& rec : r.incidents->records()) w.value(rec);
  }
  w.end_array();
  w.end_object();
  w.end_object();
  return w.take();
}

bool decode_sweep_checkpoint_line(const std::string& line, int* index,
                                  std::uint64_t* fingerprint, RunResult* out) {
  JsonValue v;
  if (!JsonValue::try_parse(line, &v)) return false;
  if (!v.is_object() || !v.has("schema") || !v.has("index") ||
      !v.has("fp") || !v.has("result")) {
    return false;
  }
  if (v.at("schema").str != kCheckpointSchema) return false;
  if (!parse_hex16(v.at("fp").str, fingerprint)) return false;
  const JsonValue& res = v.at("result");
  if (!res.is_object()) return false;

  // Every field below must be present: a missing key means the line was
  // written by an incompatible build and the point should just re-run.
  static const char* kRequired[] = {
      "scheme", "avg_latency", "p50_latency", "p99_latency", "breakdown",
      "power", "packets_measured", "packets_generated", "injected_flits",
      "ejected_flits", "escape_packets", "gated_routers_end",
      "avg_gated_routers", "protocol_sleeps", "protocol_wakeups",
      "watchdog_recoveries", "verifier_violations", "verifier_checks",
      "hs_resends", "trigger_resends", "self_captures",
      "flits_dropped_by_faults", "packets_acked", "packets_dead",
      "packets_purged", "killed_at_source", "retransmits", "dup_packets",
      "packets_corrupted", "payload_flips", "psr_flips",
      "dead_routers", "dead_links", "wake_requests_dropped", "aborted",
      "cycles_run", "timeline", "metrics", "incidents"};
  for (const char* k : kRequired) {
    if (!res.has(k)) return false;
  }

  RunResult r;
  r.scheme = res.at("scheme").str;
  r.avg_latency = res.at("avg_latency").number_or(0.0);
  r.p50_latency = res.at("p50_latency").number_or(0.0);
  r.p99_latency = res.at("p99_latency").number_or(0.0);
  if (!read_breakdown(res.at("breakdown"), &r.breakdown)) return false;
  const JsonValue& pw = res.at("power");
  if (!pw.is_array() || pw.arr.size() != 7) return false;
  r.power.cycles = u64_of(pw.arr[0]);
  r.power.static_mw = pw.arr[1].number_or(0.0);
  r.power.dynamic_mw = pw.arr[2].number_or(0.0);
  r.power.total_mw = pw.arr[3].number_or(0.0);
  r.power.static_energy_pj = pw.arr[4].number_or(0.0);
  r.power.dynamic_energy_pj = pw.arr[5].number_or(0.0);
  r.power.total_energy_pj = pw.arr[6].number_or(0.0);
  r.packets_measured = u64_of(res.at("packets_measured"));
  r.packets_generated = u64_of(res.at("packets_generated"));
  r.injected_flits = u64_of(res.at("injected_flits"));
  r.ejected_flits = u64_of(res.at("ejected_flits"));
  r.escape_packets = u64_of(res.at("escape_packets"));
  r.gated_routers_end = static_cast<int>(res.at("gated_routers_end").num);
  r.avg_gated_routers = res.at("avg_gated_routers").number_or(0.0);
  r.protocol_sleeps = u64_of(res.at("protocol_sleeps"));
  r.protocol_wakeups = u64_of(res.at("protocol_wakeups"));
  r.watchdog_recoveries = u64_of(res.at("watchdog_recoveries"));
  r.verifier_violations = u64_of(res.at("verifier_violations"));
  r.verifier_checks = u64_of(res.at("verifier_checks"));
  r.hs_resends = u64_of(res.at("hs_resends"));
  r.trigger_resends = u64_of(res.at("trigger_resends"));
  r.self_captures = u64_of(res.at("self_captures"));
  r.flits_dropped_by_faults = u64_of(res.at("flits_dropped_by_faults"));
  r.packets_acked = u64_of(res.at("packets_acked"));
  r.packets_dead = u64_of(res.at("packets_dead"));
  r.packets_purged = u64_of(res.at("packets_purged"));
  r.killed_at_source = u64_of(res.at("killed_at_source"));
  r.retransmits = u64_of(res.at("retransmits"));
  r.dup_packets = u64_of(res.at("dup_packets"));
  r.packets_corrupted = u64_of(res.at("packets_corrupted"));
  r.payload_flips = u64_of(res.at("payload_flips"));
  r.psr_flips = u64_of(res.at("psr_flips"));
  r.dead_routers = static_cast<int>(res.at("dead_routers").num);
  r.dead_links = static_cast<int>(res.at("dead_links").num);
  r.wake_requests_dropped = u64_of(res.at("wake_requests_dropped"));
  r.aborted = res.at("aborted").b;
  r.cycles_run = u64_of(res.at("cycles_run"));
  for (const JsonValue& p : res.at("timeline").arr) {
    if (!p.is_array() || p.arr.size() != 3) return false;
    TimeSeries::Point pt;
    pt.window_start = u64_of(p.arr[0]);
    pt.mean = p.arr[1].number_or(0.0);
    pt.count = u64_of(p.arr[2]);
    r.timeline.push_back(pt);
  }
  const JsonValue& mv = res.at("metrics");
  if (mv.kind != JsonValue::Kind::kNull) {
    auto reg = std::make_shared<telemetry::MetricsRegistry>();
    if (!restore_registry_lossless(mv, reg.get())) return false;
    r.metrics = std::move(reg);
  }
  auto sink = std::make_shared<telemetry::StructuredSink>();
  for (const JsonValue& inc : res.at("incidents").arr) {
    if (inc.kind != JsonValue::Kind::kString) return false;
    sink->add(inc.str);
  }
  r.incidents = std::move(sink);

  *index = static_cast<int>(v.at("index").num);
  *out = std::move(r);
  return true;
}

int load_sweep_checkpoint(const std::string& path,
                          const std::vector<SyntheticExperimentConfig>& points,
                          std::vector<RunResult>* results,
                          std::vector<char>* have) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return 0;
  std::string content;
  char buf[1 << 16];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, got);
  }
  std::fclose(f);

  int restored = 0;
  std::size_t pos = 0;
  while (pos < content.size()) {
    std::size_t nl = content.find('\n', pos);
    const bool last = nl == std::string::npos;
    const std::string line =
        content.substr(pos, last ? std::string::npos : nl - pos);
    pos = last ? content.size() : nl + 1;
    if (line.empty()) continue;
    int index = -1;
    std::uint64_t fp = 0;
    RunResult r;
    if (!decode_sweep_checkpoint_line(line, &index, &fp, &r)) continue;
    if (index < 0 || index >= static_cast<int>(points.size())) continue;
    const std::size_t i = static_cast<std::size_t>(index);
    if ((*have)[i]) continue;  // first intact line wins
    if (fp != sweep_point_fingerprint(points[i])) continue;  // stale config
    (*results)[i] = std::move(r);
    (*have)[i] = 1;
    restored++;
  }
  return restored;
}

}  // namespace flov
