// Shared pieces of the end-to-end benchmark: arguments, clocks, the span
// recorder used by traced runs, sample statistics, the host record, and the
// metric catalogue every workload reports against.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Tiny inputs and few operations, for the benchmark's own self-test.
  bool tiny = false;
  /// Test hook: perturbs one expected answer so the run must fail.
  bool inject_wrong_answer = false;
  /// Directory for the span file written at exit ("" = none).
  std::string out_dir;
};

// ---- Spans ----------------------------------------------------------------
//
// Traced runs wrap the benchmark's own calls into each module in spans
// (name, start, end, parent, operation id). Spans stay in memory and are
// written out once at exit; a span's self time is its duration minus its
// children's. The program's own obs::TraceScope is never installed: tracing
// inside ExecuteCube adds a cardinality scan, so it would time another
// program.

class Tracer {
 public:
  struct SpanRecord {
    std::string name;
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t op = 0;
    double start_ms = 0;
    double end_ms = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}
  bool enabled() const { return enabled_; }

  /// Opens a span under the calling thread's innermost open span.
  uint64_t Begin(const std::string& name, uint64_t op);
  void End(uint64_t id);

  /// Durations (ms) of every closed span called `name`, in start order.
  std::vector<double> Durations(const std::string& name) const;
  /// Writes every span plus per-name totals and self times as JSON.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_; index = id - 1
};

/// RAII span; a no-op when the tracer is disabled.
class Span {
 public:
  Span(Tracer& tracer, const std::string& name, uint64_t op = 0)
      : tracer_(tracer), id_(tracer.enabled() ? tracer.Begin(name, op) : 0) {}
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void End() {
    if (id_ != 0) tracer_.End(id_);
    id_ = 0;
  }

 private:
  Tracer& tracer_;
  uint64_t id_;
};

// ---- Statistics -------------------------------------------------------------

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// ---- Metrics ----------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics: every workload reports every one, untraced.
const std::vector<MetricDef>& EndToEndMetrics();
/// The per-layer metrics: every workload reports every one in a traced run;
/// a layer the workload bypasses reports 0 (no work).
const std::vector<MetricDef>& PerLayerMetrics();

/// What one workload run produced.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// False when an answer check failed or setup could not complete.
  bool correct = true;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  /// Work counts that must repeat exactly for a seed (requests per class,
  /// cells, probes, ...); printed on their own line, never gated.
  std::map<std::string, double> counts;
  /// Timings a reader may want beside the metrics (per-class medians and
  /// the like); printed on their own line, never gated.
  std::map<std::string, double> info;
  /// First answer-check failures, for the log.
  std::vector<std::string> errors;

  void Fail(const std::string& what) {
    ++failed;
    correct = false;
    if (errors.size() < 8) errors.push_back(what);
  }
};

/// Median of `reps` set-ups, each timed by `setup_once` (which returns ms).
template <typename Fn>
double MedianSetupSeconds(int reps, Fn&& setup_once) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) ms.push_back(setup_once());
  return Median(ms) / 1000.0;
}

inline constexpr int kSetupReps = 3;
/// Throughputs are reported as the median over this many equal slices of a
/// run's timed work.
inline constexpr int kSlices = 10;

/// Peak resident set of this process, in MB.
double PeakRssMb();
/// CPU time consumed by this process so far, in ms.
double ProcessCpuMs();

/// Moves the calling thread round-robin over the CPUs the process may use,
/// one step per Next(); the destructor restores the full set. On the
/// reference host one vCPU at a time ran memory-heavy code ~40% slower
/// (which one changed over time), so a single-threaded run that stayed on
/// one vCPU measured that vCPU. Rotating spreads every run over all of
/// them, and per-slice medians drop the slow one. Threads the program
/// starts meanwhile inherit the pin, so only serial loops rotate.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void Next();

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

// ---- Host record -----------------------------------------------------------

/// Time of a fixed single-threaded reference loop, in ms.
double ReferenceLoopMs();
/// nproc plus the effective parallelism of a 1/2/4-thread spin probe.
std::map<std::string, double> HostProbe();

// ---- Workloads --------------------------------------------------------------

RunResult RunOlapCube(const Args& args, Tracer& tracer);
RunResult RunServeMix(const Args& args, Tracer& tracer);
RunResult RunStreamIngest(const Args& args, Tracer& tracer);

/// A JSON number with all its digits (NaN and infinities print as 0).
std::string JsonNumber(double v);
std::string JsonEscape(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
