#include <time.h>

#include <chrono>
#include <cstdio>

#include "harness.hpp"
#include "obs/metrics.hpp"

namespace cbbench {

std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<std::uint64_t> Tracer::read_counters() const {
  std::vector<std::uint64_t> out(counter_names_.size(), 0);
  if (const cb::obs::Registry* reg = cb::obs::active()) {
    for (std::size_t i = 0; i < counter_names_.size(); ++i) {
      if (const cb::obs::Counter* c = reg->find_counter(counter_names_[i])) out[i] = c->value();
    }
  }
  return out;
}

int Tracer::begin(const char* name) {
  Span s;
  s.name = name;
  s.run = run_;
  s.parent = stack_.empty() ? -1 : stack_.back();
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(s));
  stack_.push_back(id);
  open_counts_.push_back(read_counters());
  // Last, so the counter reads above are not charged to the span.
  spans_.back().start_ns = cpu_ns();
  return id;
}

void Tracer::end(int id) {
  const std::int64_t now = cpu_ns();
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = now;
  const std::vector<std::uint64_t> after = read_counters();
  const std::vector<std::uint64_t>& before = open_counts_.back();
  for (std::size_t i = 0; i < after.size(); ++i) {
    if (after[i] != before[i]) s.counters.emplace_back(counter_names_[i], after[i] - before[i]);
  }
  open_counts_.pop_back();
  stack_.pop_back();
}

double Tracer::total_ms(const std::string& name, int run) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.run == run && s.name == name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) / 1e6;
}

double Tracer::self_ms(const std::string& name, int run) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::int64_t ns = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.run == run && s.name == name) ns += s.end_ns - s.start_ns - child_ns[i];
  }
  return static_cast<double>(ns) / 1e6;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"run\": %d, \"parent\": %d, "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"counters\": {",
                 i, s.name.c_str(), s.run, s.parent, static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0));
    for (std::size_t j = 0; j < s.counters.size(); ++j) {
      std::fprintf(f, "%s\"%s\": %llu", j ? ", " : "", s.counters[j].first.c_str(),
                   static_cast<unsigned long long>(s.counters[j].second));
    }
    std::fprintf(f, "}}%s\n", i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace cbbench
