#include "scenario/trial_runner.hpp"

#include <algorithm>

namespace cb::scenario {

TrialRunner::TrialRunner(unsigned threads) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

TrialRunner::~TrialRunner() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void TrialRunner::submit(std::function<void()> task, Batch& batch) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back([task = std::move(task), &batch] {
      task();
      // Notify under the lock: once wait() sees the last increment, map()
      // returns and destroys the Batch, so the worker must be done with
      // batch.cv before it releases batch.mu.
      std::lock_guard<std::mutex> lock(batch.mu);
      ++batch.done;
      batch.cv.notify_one();
    });
  }
  cv_.notify_one();
}

void TrialRunner::wait(Batch& batch, std::size_t n) {
  std::unique_lock<std::mutex> lock(batch.mu);
  batch.cv.wait(lock, [&] { return batch.done == n; });
}

void TrialRunner::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

}  // namespace cb::scenario
