// The repository's end-to-end benchmark binary. One process runs one
// workload with a fixed, seeded amount of work and prints, as its last
// stdout line, {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics untraced (--trace 0) or the per-layer metrics from a
// traced run (--trace 1). Usually started through perfbench/run.py, which
// builds this binary first.
//
//   perfbench --workload olap_cube|serve_mix|stream_ingest --seed N
//             --seconds S --trace 0|1 [--tiny] [--inject-wrong-answer]
//             [--out DIR]
#include <malloc.h>
#include <sys/personality.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "harness.h"

namespace {

using namespace perfbench;

void PrintJsonLine(const char* tag, const std::map<std::string, double>& m) {
  std::string line = std::string(tag) + " {";
  bool first = true;
  for (const auto& [k, v] : m) {
    line += (first ? "\"" : ",\"") + JsonEscape(k) + "\":" + JsonNumber(v);
    first = false;
  }
  std::printf("%s}\n", line.c_str());
}

std::string MetricsJson(const std::vector<MetricDef>& defs,
                        const std::map<std::string, double>& values) {
  std::string out = "{";
  for (size_t i = 0; i < defs.size(); ++i) {
    auto it = values.find(defs[i].name);
    double v = it == values.end() ? 0.0 : it->second;
    out += (i == 0 ? "\"" : ",\"") + std::string(defs[i].name) +
           "\":{\"value\":" + JsonNumber(v) + ",\"unit\":\"" + defs[i].unit +
           "\"}";
  }
  return out + "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload olap_cube|serve_mix|stream_ingest "
               "--seed N --seconds S --trace 0|1 [--tiny] "
               "[--inject-wrong-answer] [--out DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* a = argv[i];
    const char* v = nullptr;
    if (std::strcmp(a, "--tiny") == 0) {
      args.tiny = true;
    } else if (std::strcmp(a, "--inject-wrong-answer") == 0) {
      args.inject_wrong_answer = true;
    } else if ((v = value()) == nullptr) {
      return Usage();
    } else if (std::strcmp(a, "--workload") == 0) {
      args.workload = v;
    } else if (std::strcmp(a, "--seed") == 0) {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(a, "--seconds") == 0) {
      args.seconds = std::atoi(v);
    } else if (std::strcmp(a, "--trace") == 0) {
      args.trace = std::strcmp(v, "1") == 0;
    } else if (std::strcmp(a, "--out") == 0) {
      args.out_dir = v;
    } else {
      return Usage();
    }
  }
  if (args.seconds < 1) return Usage();

  // Run with a fixed address-space layout: under randomization the same
  // query's per-process median moved by up to 35% between processes (and
  // by 11% without it), which would drown the differences between commits.
  const int persona = personality(0xffffffff);
  if (persona != -1 && !(persona & ADDR_NO_RANDOMIZE) &&
      personality(static_cast<unsigned long>(persona) | ADDR_NO_RANDOMIZE) !=
          -1) {
    execv("/proc/self/exe", argv);  // returns only on failure: run as is
  }

  // Serve every allocation from the heap and never trim it. With glibc's
  // defaults, whether a query's large buffers are recycled heap or fresh
  // zeroed pages depends on the allocation history (the dynamic mmap
  // threshold), so identical queries took 215-345 ms in one process and the
  // page-fault cost swung with host load. Fixed settings time the program's
  // own work; peak RSS is still the high-water mark, heap fragmentation
  // included.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());

  RunResult (*run)(const Args&, Tracer&) = nullptr;
  if (args.workload == "olap_cube") run = RunOlapCube;
  if (args.workload == "serve_mix") run = RunServeMix;
  if (args.workload == "stream_ingest") run = RunStreamIngest;
  if (run == nullptr) return Usage();

  // Host record, never gated: lets a reader tell a slow host from a slow
  // commit.
  std::map<std::string, double> host = HostProbe();
  host["reference_loop_start_ms"] = host["spin_1t_ms"];

  Tracer tracer(args.trace);
  RunResult res = run(args, tracer);
  res.end_to_end["peak_rss_mb"] = PeakRssMb();
  res.end_to_end["success_ratio"] =
      res.attempted > 0 ? 1.0 - static_cast<double>(res.failed) /
                                    static_cast<double>(res.attempted)
                        : 0.0;
  host["reference_loop_end_ms"] = ReferenceLoopMs();

  PrintJsonLine("host", host);
  PrintJsonLine("counts", res.counts);
  PrintJsonLine("info", res.info);
  if (args.trace) {
    // The traced run's own end-to-end figures: run.py subtracts the
    // untraced run's to report the tracing overhead.
    PrintJsonLine("traced_end_to_end", res.end_to_end);
    if (!args.out_dir.empty()) {
      std::string path = args.out_dir + "/spans-" + args.workload + "-seed" +
                         std::to_string(args.seed) + ".json";
      if (!tracer.WriteJson(path)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      }
    }
  }
  for (const std::string& e : res.errors) {
    std::fprintf(stderr, "perfbench: answer check failed: %s\n", e.c_str());
  }

  const auto& defs = args.trace ? PerLayerMetrics() : EndToEndMetrics();
  const auto& values = args.trace ? res.per_layer : res.end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              res.correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed),
              MetricsJson(defs, values).c_str());
  std::fflush(stdout);
  return res.correct ? 0 : 1;
}
