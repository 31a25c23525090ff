#include "telemetry/ops/profile.hpp"

#include <algorithm>

#include "telemetry/json.hpp"

namespace flov::telemetry {

const char* profile_phase_name(ProfilePhase p) {
  switch (p) {
    case ProfilePhase::kRoute:
      return "route";
    case ProfilePhase::kVcAlloc:
      return "vc_alloc";
    case ProfilePhase::kSwitchAlloc:
      return "switch_alloc";
    case ProfilePhase::kLink:
      return "link";
    case ProfilePhase::kNi:
      return "ni";
    case ProfilePhase::kPower:
      return "power";
    case ProfilePhase::kBarrier:
      return "barrier";
    case ProfilePhase::kMerge:
      return "merge";
    case ProfilePhase::kOther:
      return "other";
    case ProfilePhase::kNumPhases:
      break;
  }
  return "?";
}

void PhaseProfiler::ensure_domains(int n) {
  while (static_cast<int>(slots_.size()) < n) {
    slots_.push_back(std::make_unique<Slot>());
  }
}

ThreadProfileState& thread_profile_state() {
  thread_local ThreadProfileState state;
  return state;
}

ProfileScope::ProfileScope(PhaseProfiler* p, int domain) {
  ThreadProfileState& s = thread_profile_state();
  prev_ = s;
  s.profiler = p;
  s.domain = domain;
}

ProfileScope::~ProfileScope() { thread_profile_state() = prev_; }

double PhaseProfiler::Report::busy_imbalance() const {
  std::uint64_t max_busy = 0;
  std::uint64_t min_busy = 0;
  bool any = false;
  for (const DomainReport& d : domains) {
    const std::uint64_t b = d.busy_ns();
    if (b == 0) continue;
    if (!any) {
      max_busy = min_busy = b;
      any = true;
    } else {
      max_busy = std::max(max_busy, b);
      min_busy = std::min(min_busy, b);
    }
  }
  if (!any || min_busy == 0) return 1.0;
  return static_cast<double>(max_busy) / static_cast<double>(min_busy);
}

PhaseProfiler::Report PhaseProfiler::report() const {
  Report r;
  r.domains.resize(slots_.size());
  for (std::size_t d = 0; d < slots_.size(); ++d) {
    const Slot& s = *slots_[d];
    r.domains[d].ns = s.ns;
    r.domains[d].calls = s.calls;
    for (int p = 0; p < static_cast<int>(ProfilePhase::kNumPhases); ++p) {
      r.merged.ns[p] += s.ns[p];
      r.merged.calls[p] += s.calls[p];
    }
  }
  return r;
}

namespace {

void write_domain_report(JsonWriter& w, const PhaseProfiler::DomainReport& d) {
  w.begin_object();
  for (int p = 0; p < static_cast<int>(ProfilePhase::kNumPhases); ++p) {
    if (d.calls[p] == 0) continue;
    w.key(profile_phase_name(static_cast<ProfilePhase>(p)));
    JsonWriter pw;
    pw.begin_object();
    pw.kv("ns", d.ns[p]);
    pw.kv("calls", d.calls[p]);
    pw.end_object();
    w.raw(pw.take());
  }
  w.key("busy_ns");
  w.raw(std::to_string(d.busy_ns()));
  w.end_object();
}

}  // namespace

std::string PhaseProfiler::report_json() const {
  const Report r = report();
  JsonWriter w;
  w.begin_object();
  w.kv("schema", "flyover-profile-v1");
  w.kv("num_domains", static_cast<std::uint64_t>(r.domains.size()));
  w.kv("busy_imbalance", r.busy_imbalance());
  w.key("merged");
  {
    JsonWriter mw;
    write_domain_report(mw, r.merged);
    w.raw(mw.take());
  }
  w.key("domains");
  {
    std::string arr = "[";
    for (std::size_t d = 0; d < r.domains.size(); ++d) {
      if (d != 0) arr += ",";
      JsonWriter dw;
      write_domain_report(dw, r.domains[d]);
      arr += dw.take();
    }
    arr += "]";
    w.raw(arr);
  }
  w.end_object();
  return w.take();
}

void PhaseProfiler::print(std::FILE* f) const {
  const Report r = report();
  const std::uint64_t total = r.merged.total_ns();
  std::fprintf(f, "[profile] phase breakdown (%d domain%s)\n",
               static_cast<int>(r.domains.size()),
               r.domains.size() == 1 ? "" : "s");
  std::fprintf(f, "[profile] %-14s %12s %12s %7s\n", "phase", "ms", "calls",
               "share");
  for (int p = 0; p < static_cast<int>(ProfilePhase::kNumPhases); ++p) {
    if (r.merged.calls[p] == 0) continue;
    const double ms = static_cast<double>(r.merged.ns[p]) / 1e6;
    const double share =
        total == 0 ? 0.0
                   : static_cast<double>(r.merged.ns[p]) /
                         static_cast<double>(total) * 100.0;
    std::fprintf(f, "[profile] %-14s %12.3f %12llu %6.1f%%\n",
                 profile_phase_name(static_cast<ProfilePhase>(p)), ms,
                 static_cast<unsigned long long>(r.merged.calls[p]), share);
  }
  if (r.domains.size() > 1) {
    std::fprintf(f, "[profile] per-domain busy ms:");
    for (const DomainReport& d : r.domains) {
      std::fprintf(f, " %.3f", static_cast<double>(d.busy_ns()) / 1e6);
    }
    std::fprintf(f, "  (imbalance %.2fx)\n", r.busy_imbalance());
  }
}

}  // namespace flov::telemetry
