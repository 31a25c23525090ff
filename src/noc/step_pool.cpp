#include "noc/step_pool.hpp"

#include "common/log.hpp"

namespace flov {

namespace {
/// Spin iterations before falling back to yield while waiting for an
/// epoch/done transition. Cycles are short (tens of microseconds), so the
/// fast path should never leave the spin; yield only matters when the
/// machine is oversubscribed.
constexpr int kSpinBeforeYield = 4096;
}  // namespace

StepPool::StepPool(int workers, std::function<void(int, Cycle)> job)
    : job_(std::move(job)), done_(new DoneSlot[workers > 0 ? workers : 1]) {
  FLOV_CHECK(workers >= 1, "StepPool needs at least one worker");
  threads_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

StepPool::~StepPool() {
  stop_.store(true, std::memory_order_relaxed);
  // Bump the epoch so parked workers re-check stop_.
  epoch_.fetch_add(1, std::memory_order_release);
  for (auto& t : threads_) t.join();
}

void StepPool::wait_done(std::size_t i, std::uint64_t epoch) {
  int spins = 0;
  while (done_[i].done.load(std::memory_order_acquire) < epoch) {
    if (++spins > kSpinBeforeYield) {
      std::this_thread::yield();
      spins = 0;
    }
  }
}

void StepPool::worker_loop(int index) {
  std::uint64_t seen = 0;
  for (;;) {
    int spins = 0;
    while (epoch_.load(std::memory_order_acquire) == seen) {
      if (++spins > kSpinBeforeYield) {
        std::this_thread::yield();
        spins = 0;
      }
    }
    ++seen;
    if (stop_.load(std::memory_order_relaxed)) return;
    job_(index, now_);
    done_[index].done.store(seen, std::memory_order_release);
  }
}

}  // namespace flov
