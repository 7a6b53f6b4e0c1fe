// cubed — the long-lived data cube server.
//
// Boots a CubeServer (mini-SQL over HTTP + bare line protocol, admission
// control, per-query deadlines, snapshot-swapped catalog, stats endpoints
// on the same listener), preloads the paper's Table 3 sales data plus a
// larger synthetic table so clients have something to query, mounts a
// time-partitioned Events store for streaming ingest, prints the listen
// URL, and serves until interrupted. Usage:
//
//   cubed [--port N] [--host H] [--max-concurrent N] [--deadline-ms N]
//         [--threads N] [--window N] [--retention N] [--once]
//
// --port (or DATACUBE_CUBED_PORT) picks the port; default 0 = ephemeral.
// --max-concurrent bounds concurrently executing queries (503 beyond it).
// --deadline-ms applies a default per-query deadline when the client sends
// none. --threads sets per-query cube parallelism. --window sets the
// Events store's partition width in ts units; --retention keeps only the
// newest N windows (0 = unlimited). --once exits right after booting
// (config smoke). Example session:
//
//   $ cubed --port 8080 &
//   $ Q='SELECT+Model,SUM(Units)+FROM+Sales+GROUP+BY+CUBE+Model'
//   $ curl "localhost:8080/query?q=$Q"
//   $ echo 'SELECT Model, SUM(Units) FROM Sales GROUP BY CUBE Model' |
//       nc localhost 8080
//   $ curl -d 4096,web,click,3 'localhost:8080/ingest?table=Events&header=0'
//   $ echo 'INGEST Events 4097,app,view,1' | nc localhost 8080

#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "datacube/cube/partitioned_cube.h"
#include "datacube/expr/expr.h"
#include "datacube/server/cube_server.h"
#include "datacube/workload/sales.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

int Fail(const datacube::Status& status) {
  std::cerr << "error: " << status.ToString() << "\n";
  return 1;
}

/// The streaming-ingest demo store: events windowed by an INT64 ts column,
/// pre-seeded with a few rows across three windows so /partitions and
/// pruned queries show something before the first /ingest.
datacube::Result<std::shared_ptr<datacube::PartitionedCube>> MakeEventsStore(
    int64_t window_width, int64_t retention_windows) {
  using namespace datacube;
  Schema schema{{{"ts", DataType::kInt64},
                 {"source", DataType::kString},
                 {"kind", DataType::kString},
                 {"units", DataType::kInt64}}};
  CubeSpec spec;
  spec.cube.push_back(GroupExpr{Expr::Column("source"), "source"});
  spec.cube.push_back(GroupExpr{Expr::Column("kind"), "kind"});
  AggregateSpec count;
  count.function = "count_star";
  count.output_name = "events";
  spec.aggregates.push_back(count);
  AggregateSpec sum;
  sum.function = "sum";
  sum.args.push_back(Expr::Column("units"));
  sum.output_name = "units";
  spec.aggregates.push_back(sum);

  PartitionedCubeOptions popts;
  popts.partition_column = "ts";
  popts.window_width = window_width;
  popts.retention_windows = retention_windows;
  DATACUBE_ASSIGN_OR_RETURN(std::unique_ptr<PartitionedCube> store,
                            PartitionedCube::Create(schema, spec, popts));

  Table seed{schema};
  int64_t w = window_width;
  const struct {
    int64_t ts;
    const char* source;
    const char* kind;
    int64_t units;
  } rows[] = {
      {0 * w, "web", "view", 3},  {0 * w + w / 2, "app", "view", 1},
      {1 * w, "web", "click", 2}, {1 * w + w / 2, "app", "click", 5},
      {2 * w, "web", "view", 4},  {2 * w + w / 2, "api", "call", 7},
  };
  for (const auto& r : rows) {
    DATACUBE_RETURN_IF_ERROR(
        seed.AppendRow({Value::Int64(r.ts), Value::String(r.source),
                        Value::String(r.kind), Value::Int64(r.units)}));
  }
  DATACUBE_RETURN_IF_ERROR(store->IngestRows(seed));
  return std::shared_ptr<PartitionedCube>(std::move(store));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace datacube;

  server::CubeServer::Options options;
  bool once = false;
  int64_t window_width = 1000;
  int64_t retention_windows = 0;
  if (const char* env = std::getenv("DATACUBE_CUBED_PORT");
      env != nullptr && env[0] != '\0') {
    options.port = std::atoi(env);
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      options.port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--host") == 0 && i + 1 < argc) {
      options.host = argv[++i];
    } else if (std::strcmp(argv[i], "--max-concurrent") == 0 && i + 1 < argc) {
      options.max_concurrent_queries = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0 && i + 1 < argc) {
      options.default_deadline_ms = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      options.query_threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--window") == 0 && i + 1 < argc) {
      window_width = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--retention") == 0 && i + 1 < argc) {
      retention_windows = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--once") == 0) {
      once = true;
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--port N] [--host H] [--max-concurrent N]"
                   " [--deadline-ms N] [--threads N] [--window N]"
                   " [--retention N] [--once]\n";
      return 2;
    }
  }

  Result<std::unique_ptr<server::CubeServer>> server =
      server::CubeServer::Start(options);
  if (!server.ok()) return Fail(server.status());

  // Preload: the paper's Table 3 cars, and a synthetic table big enough for
  // parallel execution and visible deadlines.
  Result<Table> sales = Table3SalesTable();
  if (!sales.ok()) return Fail(sales.status());
  Result<Table> big = GenerateSales({.num_rows = 50000});
  if (!big.ok()) return Fail(big.status());
  if (Status st = (*server)->RegisterTable("Sales", std::move(*sales));
      !st.ok()) {
    return Fail(st);
  }
  if (Status st = (*server)->RegisterTable("BigSales", std::move(*big));
      !st.ok()) {
    return Fail(st);
  }
  if (window_width <= 0) {
    return Fail(Status::InvalidArgument("--window must be positive"));
  }
  Result<std::shared_ptr<PartitionedCube>> events =
      MakeEventsStore(window_width, retention_windows);
  if (!events.ok()) return Fail(events.status());
  if (Status st = (*server)->RegisterPartitioned("Events", *events);
      !st.ok()) {
    return Fail(st);
  }

  // The smoke script scrapes this exact line for the URL.
  std::cout << "listening on " << (*server)->url() << "\n";
  std::cout.flush();

  if (once) return 0;

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop.load()) usleep(100 * 1000);
  std::cout << "shutting down\n";
  (*server)->Stop();
  return 0;
}
