#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <thread>

namespace perfbench {

namespace {
thread_local std::vector<uint64_t> open_spans;
}  // namespace

uint64_t Tracer::Begin(const std::string& name, uint64_t op) {
  double now = std::chrono::duration<double, std::milli>(Clock::now() - t0_)
                   .count();
  uint64_t parent = open_spans.empty() ? 0 : open_spans.back();
  uint64_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = spans_.size() + 1;
    spans_.push_back(SpanRecord{name, id, parent, op, now, now});
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::End(uint64_t id) {
  double now = std::chrono::duration<double, std::milli>(Clock::now() - t0_)
                   .count();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end_ms = now;
  }
  auto it = std::find(open_spans.rbegin(), open_spans.rend(), id);
  if (it != open_spans.rend()) open_spans.erase(std::next(it).base());
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.name == name) out.push_back(s.end_ms - s.start_ms);
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_ms(spans_.size() + 1, 0.0);
  for (const SpanRecord& s : spans_) {
    if (s.parent != 0) child_ms[s.parent] += s.end_ms - s.start_ms;
  }
  struct Totals {
    uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, Totals> by_name;
  for (const SpanRecord& s : spans_) {
    Totals& t = by_name[s.name];
    ++t.count;
    t.total_ms += s.end_ms - s.start_ms;
    t.self_ms += s.end_ms - s.start_ms - child_ms[s.id];
  }
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"layers\":{";
  bool first = true;
  for (const auto& [name, t] : by_name) {
    out << (first ? "" : ",") << "\"" << JsonEscape(name)
        << "\":{\"count\":" << t.count
        << ",\"total_ms\":" << JsonNumber(t.total_ms)
        << ",\"self_ms\":" << JsonNumber(t.self_ms) << "}";
    first = false;
  }
  out << "},\n\"spans\":[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << JsonEscape(s.name)
        << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << ",\"start_ms\":" << JsonNumber(s.start_ms)
        << ",\"end_ms\":" << JsonNumber(s.end_ms) << "}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"success_ratio", "ratio"},
      {"rows_per_s", "1/s"},
      {"qps", "1/s"},
      {"query_p50_ms", "ms"},
      {"query_p99_ms", "ms"},
  };
  return kMetrics;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"sql.parse_ms", "ms"},
      {"sql.execute_ms.cube3", "ms"},
      {"sql.execute_ms.cube3_where", "ms"},
      {"sql.execute_ms.rollup3", "ms"},
      {"sql.execute_ms.cube5_wide", "ms"},
      {"sql.execute_ms.where_groupby", "ms"},
      {"sql.execute_ms.full_cube", "ms"},
      {"sql.execute_ms.full_rollup", "ms"},
      {"sql.execute_ms.pruned_cube", "ms"},
      {"sql.project_ms", "ms"},
      {"sql.overhead_share", "ratio"},
      {"sql.unaccounted_share.cube3", "ratio"},
      {"sql.unaccounted_share.cube3_where", "ratio"},
      {"sql.unaccounted_share.rollup3", "ratio"},
      {"sql.unaccounted_share.cube5_wide", "ratio"},
      {"table.source_copy_ms", "ms"},
      {"table.filter_rows_ms", "ms"},
      {"table.csv_write_ms", "ms"},
      {"table.csv_bytes", "bytes"},
      {"expr.where_eval_ms", "ms"},
      {"expr.where_selectivity", "ratio"},
      {"cube.bind_ms", "ms"},
      {"cube.encode_ms", "ms"},
      {"cube.execute_ms", "ms"},
      {"cube.output_cells", "count"},
      {"cube.hash_probes_per_row", "probes/row"},
      {"cube.iter_calls_per_row", "calls/row"},
      {"cube.arena_bytes", "bytes"},
      {"cube.scan_ms", "ms"},
      {"cube.merge_ms", "ms"},
      {"cube.cascade_ms", "ms"},
      {"cube.cpu_ms", "ms"},
      {"cube.serial_fraction", "ratio"},
      {"cube.partial_query_ms", "ms"},
      {"cube.ingest_batch_p50_ms", "ms"},
      {"cube.ingest_batch_p99_ms", "ms"},
      {"cube.late_row_share", "ratio"},
      {"cube.cells_updated_per_row", "cells/row"},
      {"cube.compact_ms", "ms"},
      {"cube.windows_compacted", "count"},
      {"cube.compaction_aborts", "count"},
      {"cube.windows_dropped", "count"},
      {"cube.merged_read_ms", "ms"},
      {"cube.merged_read_p90_ms", "ms"},
      {"cube.deltas_per_read", "deltas/read"},
      {"cube.unchanged_window_share", "ratio"},
      {"cube.pruned_scan_ms", "ms"},
      {"cube.prune_ratio", "ratio"},
      {"obs.http_connect_ms", "ms"},
      {"server.ttfb_ms", "ms"},
      {"server.overhead_ms", "ms"},
      {"server.shed_ratio", "ratio"},
  };
  return kMetrics;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus_) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

void CpuRotation::Next() {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_++ % cpus_.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);
}

namespace {

// A fixed amount of dependent integer work the compiler cannot fold away.
uint64_t Spin(uint64_t iters, uint64_t seed) {
  uint64_t x = seed | 1;
  for (uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

constexpr uint64_t kSpinIters = 20'000'000;

double SpinThreadsMs(int threads) {
  std::vector<uint64_t> sink(static_cast<size_t>(threads));
  auto t0 = Clock::now();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&sink, t] {
      sink[static_cast<size_t>(t)] =
          Spin(kSpinIters, static_cast<uint64_t>(t) + 7);
    });
  }
  for (std::thread& th : pool) th.join();
  double ms = MsSince(t0);
  uint64_t x = 0;
  for (uint64_t s : sink) x ^= s;
  // Keep the result observable so the loop stays in the binary.
  if (x == 42) std::fprintf(stderr, "spin sink %llu\n",
                            static_cast<unsigned long long>(x));
  return ms;
}

}  // namespace

double ReferenceLoopMs() { return SpinThreadsMs(1); }

std::map<std::string, double> HostProbe() {
  double t1 = SpinThreadsMs(1);
  double t2 = SpinThreadsMs(2);
  double t4 = SpinThreadsMs(4);
  return {
      {"nproc", static_cast<double>(std::thread::hardware_concurrency())},
      {"spin_1t_ms", t1},
      {"spin_2t_ms", t2},
      {"spin_4t_ms", t4},
      {"effective_parallelism_2t", 2.0 * t1 / t2},
      {"effective_parallelism_4t", 4.0 * t1 / t4},
  };
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace perfbench
