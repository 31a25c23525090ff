// Wall-clock phase profiler for the cycle loop (the ops plane's answer to
// "where does the stepping time actually go?").
//
// FLOV_PROFILE(phase) opens an RAII scope that attributes its wall-clock
// duration to (current domain, phase). Scopes are placed at the pipeline
// phases of Router::step (route / VC allocation / switch allocation /
// link+switch traversal), the NI loop, the FLOV power/handshake machinery,
// and the step-pool barrier wait — so a profile report shows, per tile
// domain, how stepping time splits across phases and how long the control
// thread waited at the barrier (the tiles= imbalance signal).
//
// Cost model (same ladder as the event tracer, docs/OBSERVABILITY.md):
//   * compiled out (FLYOVER_PROFILING=0, the Release default): every
//     FLOV_PROFILE site is an empty statement — no code, no data. CI's
//     bench gate runs the Release build, so the benchmark configuration
//     never pays for profiling.
//   * compiled in, no profiler bound: one thread-local load + one branch.
//   * bound (profile=1): two steady_clock reads + one add per scope.
//
// Unlike everything else in the telemetry layer, the numbers here are
// WALL-CLOCK and therefore volatile by definition: a profile report is
// never embedded in a manifest — it goes to stderr and/or its own
// flyover-profile-v1 JSON document (profile_out=).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

namespace flov::telemetry {

/// Phases the cycle loop is attributed to. Leaf scopes only: two phases
/// never nest, so per-domain phase times add up without double counting.
enum class ProfilePhase : std::uint8_t {
  kRoute = 0,      ///< Router route computation
  kVcAlloc,        ///< Router VC allocation
  kSwitchAlloc,    ///< Router switch allocation
  kLink,           ///< switch/link traversal + flit acceptance
  kNi,             ///< NetworkInterface stepping
  kPower,          ///< scheme power machinery (HSCs, signal fabric, RP mgr)
  kBarrier,        ///< control thread waiting on the step-pool barrier
  kMerge,          ///< barrier-side merges (channels, wakes, ejections)
  kOther,          ///< anything else a caller chooses to scope
  kNumPhases,
};

const char* profile_phase_name(ProfilePhase p);

inline std::uint64_t profile_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Per-domain, per-phase wall-clock accumulators. Each domain worker
/// writes only its own cache-line-padded slot (bound via ProfileScope),
/// so domain-parallel stepping profiles without synchronization.
class PhaseProfiler {
 public:
  PhaseProfiler() { ensure_domains(1); }

  /// Lazily grows the per-domain slot table to `n` rows. Must be called
  /// from the control thread while no workers are running (Network::step
  /// does this before releasing the pool each cycle).
  void ensure_domains(int n);
  int num_domains() const { return static_cast<int>(slots_.size()); }

  void add(int domain, ProfilePhase phase, std::uint64_t ns) {
    Slot& s = *slots_[static_cast<std::size_t>(domain)];
    s.ns[static_cast<int>(phase)] += ns;
    s.calls[static_cast<int>(phase)] += 1;
  }

  struct DomainReport {
    std::array<std::uint64_t, static_cast<int>(ProfilePhase::kNumPhases)> ns{};
    std::array<std::uint64_t, static_cast<int>(ProfilePhase::kNumPhases)>
        calls{};
    std::uint64_t total_ns() const {
      std::uint64_t t = 0;
      for (std::uint64_t v : ns) t += v;
      return t;
    }
    /// Stepping work only — the barrier/merge phases are control-thread
    /// bookkeeping, not per-domain busy time.
    std::uint64_t busy_ns() const {
      return total_ns() - ns[static_cast<int>(ProfilePhase::kBarrier)] -
             ns[static_cast<int>(ProfilePhase::kMerge)];
    }
  };

  struct Report {
    std::vector<DomainReport> domains;
    DomainReport merged;  ///< fold of every domain
    /// max/min per-domain busy_ns over domains that did any work — the
    /// barrier-wait imbalance signal guiding the tiles= auto policy
    /// (1.0 = perfectly balanced; 0 domains busy reports 1.0).
    double busy_imbalance() const;
  };

  Report report() const;

  /// {"schema":"flyover-profile-v1", ...}: per-domain and merged phase
  /// nanoseconds/calls plus the imbalance ratio. Written by profile_out=.
  std::string report_json() const;

  /// Human-readable table (stderr at end of a profile=1 run).
  void print(std::FILE* f) const;

 private:
  struct alignas(64) Slot {
    std::array<std::uint64_t, static_cast<int>(ProfilePhase::kNumPhases)> ns{};
    std::array<std::uint64_t, static_cast<int>(ProfilePhase::kNumPhases)>
        calls{};
  };
  /// unique_ptr rows: growing the table must not move slots a bound
  /// ProfileScope already points at.
  std::vector<std::unique_ptr<Slot>> slots_;
};

/// Thread-local profiler binding (mirrors ThreadTraceState): `profiler` is
/// null whenever profiling is off, so the FLOV_PROFILE fast path is one
/// thread-local load + branch.
struct ThreadProfileState {
  PhaseProfiler* profiler = nullptr;
  int domain = 0;
};
ThreadProfileState& thread_profile_state();

/// RAII binder: installs (profiler, domain) as the calling thread's
/// attribution target for the scope. Pass null to unbind.
class ProfileScope {
 public:
  ProfileScope(PhaseProfiler* p, int domain);
  ~ProfileScope();
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  ThreadProfileState prev_;
};

/// The RAII timer behind FLOV_PROFILE. Usable directly from code that is
/// always compiled (tests), independent of the macro gating.
class PhaseTimer {
 public:
  explicit PhaseTimer(ProfilePhase phase) : phase_(phase) {
    const ThreadProfileState& s = thread_trace_profile_state_();
    profiler_ = s.profiler;
    domain_ = s.domain;
    if (profiler_ != nullptr) start_ns_ = profile_now_ns();
  }
  ~PhaseTimer() {
    if (profiler_ != nullptr) {
      profiler_->add(domain_, phase_, profile_now_ns() - start_ns_);
    }
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  static const ThreadProfileState& thread_trace_profile_state_() {
    return thread_profile_state();
  }
  PhaseProfiler* profiler_;
  int domain_;
  ProfilePhase phase_;
  std::uint64_t start_ns_ = 0;
};

}  // namespace flov::telemetry

// Phase-scope macro. Compiled to nothing unless the build defines
// FLYOVER_PROFILING=1 (CMake option; mirrors FLYOVER_TRACING: ON outside
// Release, OFF in Release so benches never pay).
#if defined(FLYOVER_PROFILING) && FLYOVER_PROFILING
#define FLOV_PROFILE_CAT2(a, b) a##b
#define FLOV_PROFILE_CAT(a, b) FLOV_PROFILE_CAT2(a, b)
#define FLOV_PROFILE(phase)                       \
  ::flov::telemetry::PhaseTimer FLOV_PROFILE_CAT( \
      _flov_profile_scope_, __LINE__)(::flov::telemetry::ProfilePhase::phase)
#else
#define FLOV_PROFILE(phase) \
  do {                      \
  } while (0)
#endif
