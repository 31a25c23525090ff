#include "sim/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>

#include "common/backoff.hpp"
#include "common/log.hpp"
#include "sim/checkpoint.hpp"

namespace flov {

int resolve_jobs(int jobs) {
  if (jobs > 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int resolve_jobs(int jobs, int threads_per_job) {
  if (threads_per_job < 1) threads_per_job = 1;
  const int hw = resolve_jobs(0);
  if (jobs > 0) {
    // An explicit jobs= is always respected, but jobs x threads beyond the
    // core count silently serializes the domain barriers — worth a
    // warning, not an override.
    if (jobs * threads_per_job > hw) {
      std::fprintf(stderr,
                   "[sweep] warning: jobs=%d x threads=%d oversubscribes "
                   "hardware_concurrency=%d; expect barrier stalls (drop "
                   "jobs= or threads=)\n",
                   jobs, threads_per_job, hw);
    }
    return jobs;
  }
  const int budget = hw / threads_per_job;
  return budget < 1 ? 1 : budget;
}

void parallel_run(int n, int jobs, const std::function<void(int)>& fn) {
  FLOV_CHECK(n >= 0, "parallel_run with negative point count");
  if (n == 0) return;
  jobs = resolve_jobs(jobs);
  if (jobs == 1 || n == 1) {
    // Serial reference path: same thread, same order, no pool machinery.
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  if (jobs > n) jobs = n;

  std::atomic<int> next{0};
  std::mutex err_mu;
  std::exception_ptr first_error;
  int first_error_index = n;

  auto worker = [&] {
    while (true) {
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        // Keep going (other points are independent) but remember the
        // failure with the smallest index, so which error surfaces does
        // not depend on thread timing.
        std::lock_guard<std::mutex> lock(err_mu);
        if (i < first_error_index) {
          first_error_index = i;
          first_error = std::current_exception();
        }
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(jobs));
  for (int t = 0; t < jobs; ++t) pool.emplace_back(worker);
  for (auto& th : pool) th.join();
  if (first_error) std::rethrow_exception(first_error);
}

std::vector<RunResult> run_sweep(
    const std::vector<SyntheticExperimentConfig>& points,
    const SweepOptions& opts) {
  std::vector<RunResult> results(points.size());
  std::vector<char> have(points.size(), 0);
  const int n = static_cast<int>(points.size());

  // Resume: restore every intact checkpointed point whose fingerprint still
  // matches its config; only the remainder runs.
  int restored = 0;
  if (opts.resume && !opts.checkpoint_path.empty()) {
    restored =
        load_sweep_checkpoint(opts.checkpoint_path, points, &results, &have);
  }
  std::vector<int> pending;
  pending.reserve(points.size());
  for (int i = 0; i < n; ++i) {
    if (!have[static_cast<std::size_t>(i)]) pending.push_back(i);
  }

  // Checkpoint writer: append (resume keeps the restored lines' file) and
  // flush per line, so a kill -9 loses at most the in-flight points.
  std::FILE* ck = nullptr;
  std::mutex ck_mu;
  if (!opts.checkpoint_path.empty()) {
    ck = std::fopen(
        opts.checkpoint_path.c_str(),
        opts.checkpoint_append || (opts.resume && restored > 0) ? "ab" : "wb");
    FLOV_CHECK(ck != nullptr,
               "cannot open sweep checkpoint " + opts.checkpoint_path);
  }

  // Budget jobs against the intra-run parallelism of the points themselves:
  // a sweep of points that each step on 4 domain workers should not also
  // spawn hardware_concurrency sweep workers.
  int max_step_threads = 1;
  for (const auto& p : points) {
    max_step_threads = std::max(max_step_threads, p.noc.step_threads);
  }
  const int jobs = resolve_jobs(opts.jobs, max_step_threads);
  std::mutex progress_mu;
  std::atomic<int> done{restored};
  auto body = [&](int k) {
    const std::size_t i =
        static_cast<std::size_t>(pending[static_cast<std::size_t>(k)]);
    for (int attempt = 0;; ++attempt) {
      try {
        results[i] = run_synthetic(points[i]);
        break;
      } catch (const std::exception&) {
        if (attempt >= opts.retries) throw;
        if (opts.retry_backoff_ms > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(
              backoff_shift(static_cast<std::uint64_t>(opts.retry_backoff_ms),
                            attempt, 10)));
        }
      }
    }
    if (ck) {
      const std::string line = encode_sweep_checkpoint_line(
          static_cast<int>(i), points[i], results[i]);
      std::lock_guard<std::mutex> lock(ck_mu);
      std::fwrite(line.data(), 1, line.size(), ck);
      std::fputc('\n', ck);
      std::fflush(ck);
    }
    const int d = done.fetch_add(1, std::memory_order_relaxed) + 1;
    if (opts.progress) {
      std::lock_guard<std::mutex> lock(progress_mu);
      opts.progress(d, n);
    }
  };
  try {
    parallel_run(static_cast<int>(pending.size()), jobs, body);
  } catch (...) {
    // Completed points are already checkpointed; close the file so the
    // caller can resume past them.
    if (ck) std::fclose(ck);
    throw;
  }
  if (ck) std::fclose(ck);
  return results;
}

telemetry::MetricsRegistry merge_sweep_metrics(
    const std::vector<RunResult>& results) {
  telemetry::MetricsRegistry merged;
  for (const RunResult& r : results) {
    if (r.metrics) merged.merge(*r.metrics);
  }
  return merged;
}

}  // namespace flov
