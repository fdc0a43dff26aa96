// A single-server FIFO service queue: models the serial processing capacity
// of a control-plane component (MME, HSS, broker). Used both to inject the
// calibrated per-message processing delays of Fig.7 and to produce queueing
// behaviour under attach storms (the scale benchmark).
#pragma once

#include <functional>

#include "common/time.hpp"
#include "sim/simulator.hpp"

namespace cb::sim {

class ServiceQueue {
 public:
  explicit ServiceQueue(Simulator& sim) : sim_(sim) {}

  /// Run `fn` once all previously submitted work is done plus
  /// `service_time` of processing for this item.
  void submit(Duration service_time, std::function<void()> fn) {
    const TimePoint start = std::max(sim_.now(), busy_until_);
    busy_until_ = start + service_time;
    busy_total_ += service_time;
    ++jobs_;
    sim_.schedule_at(busy_until_, std::move(fn));
  }

  /// Cumulative processing time consumed (the "proc" bars of Fig.7).
  Duration busy_time() const { return busy_total_; }
  std::uint64_t jobs() const { return jobs_; }
  /// Queueing delay a job submitted now would experience before service.
  Duration backlog() const {
    return busy_until_ > sim_.now() ? busy_until_ - sim_.now() : Duration::zero();
  }

 private:
  Simulator& sim_;
  TimePoint busy_until_;
  Duration busy_total_ = Duration::zero();
  std::uint64_t jobs_ = 0;
};

}  // namespace cb::sim
