// Shared types of the benchmark harness: the span recorder used by the
// traced run, one workload repetition's result, and the workload table.
//
// The harness measures each layer from outside: it times the calls it makes
// into the simulator's public functions and reads counters the program
// already holds (the obs Registry, result structs, read-only accessors).
// Nothing here is visible to the simulation, so a traced repetition must
// reproduce the untraced one bit for bit.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cbbench {

/// CPU time of the whole process (every thread) in nanoseconds. Host costs
/// are measured with it rather than with wall time: on a shared virtual
/// machine, wall time also counts the time the hypervisor hands this vCPU
/// to other guests (steal), which swung repetitions of identical work by up
/// to 2x. CPU time excludes it.
std::int64_t cpu_ns();
/// Steady wall clock in nanoseconds: the run budget, and display only.
std::int64_t wall_ns();

/// In-memory span recorder for the traced run. Spans nest by call order
/// (single-threaded harness); at each span's begin and end the recorder
/// reads a fixed list of registry counters, so every span carries the
/// counts of the work done inside it. Spans are written out at exit.
class Tracer {
 public:
  struct Span {
    std::string name;
    int run = 0;
    int parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    /// Registry counter deltas over the span (nonzero ones only).
    std::vector<std::pair<std::string, std::uint64_t>> counters;
  };

  explicit Tracer(std::vector<std::string> counter_names)
      : counter_names_(std::move(counter_names)) {}

  /// Spans recorded after this call carry `run` as their run id.
  void set_run(int run) { run_ = run; }
  int run() const { return run_; }
  int begin(const char* name);
  void end(int id);

  /// Summed duration / self time (duration minus child spans) of the spans
  /// called `name` in run `run`, in host milliseconds.
  double total_ms(const std::string& name, int run) const;
  double self_ms(const std::string& name, int run) const;

  std::size_t size() const { return spans_.size(); }
  bool write_json(const std::string& path) const;

 private:
  std::vector<std::uint64_t> read_counters() const;

  std::vector<std::string> counter_names_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::vector<std::vector<std::uint64_t>> open_counts_;  // parallel to stack_
  int run_ = 0;
};

/// RAII span; a no-op when no tracer is installed (the untraced run).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->begin(name) : -1) {}
  ~Scope() {
    if (tracer_) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Test hook: corrupt one result before the gates see it, to show each
/// gate can fail (see test_gates.py).
enum class Doctor { None, LostVerdict, UnfinishedFlow, Violation, Fingerprint };

/// One named metric with its unit; `note` carries the percentile and
/// sample count of a tail.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

/// One repetition of a workload: build, run, verify.
struct RepResult {
  double setup_s = 0.0;     // CPU s: build, up to the first simulated event
  double run_s = 0.0;       // CPU s: first simulated event to verified results
  double run_wall_s = 0.0;  // the same interval in wall time
  std::uint64_t fingerprint = 0;
  std::vector<Metric> sim;              // sim-time outputs, bit-deterministic
  std::vector<std::string> failures;    // correctness gates that failed
  std::map<std::string, double> layer;  // per-layer metrics (traced only)

  void gate(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

struct RunContext {
  std::uint64_t seed = 1;
  Tracer* tracer = nullptr;  // non-null in the traced repetition
  Doctor doctor = Doctor::None;
};

struct Workload {
  const char* name;
  const char* why;
  RepResult (*run)(const RunContext& ctx);
};

const std::vector<Workload>& workloads();

/// Per-layer metric names and units, in output order.
const std::vector<std::pair<std::string, std::string>>& layer_metrics();

/// Registry counters the tracer reads at span boundaries.
std::vector<std::string> traced_counters();

}  // namespace cbbench
