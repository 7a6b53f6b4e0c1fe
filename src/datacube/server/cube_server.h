#ifndef DATACUBE_SERVER_CUBE_SERVER_H_
#define DATACUBE_SERVER_CUBE_SERVER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "datacube/common/exec_control.h"
#include "datacube/common/result.h"
#include "datacube/cube/partitioned_cube.h"
#include "datacube/cube/thread_pool.h"
#include "datacube/obs/http_server.h"
#include "datacube/server/admission.h"
#include "datacube/server/snapshot.h"
#include "datacube/table/table.h"

// The cube serving layer: mini-SQL over HTTP (or the bare line protocol)
// against atomically swapped catalog snapshots, with admission control,
// per-query deadlines, cooperative cancellation, and the stats endpoints
// mounted on the same listener. The transport split: HttpServer owns
// sockets and framing; CubeServer owns routing, sessions, and execution.
//
// Endpoints:
//
//   GET/POST /query       SQL via ?q= or the request body; ?deadline_ms=
//                         bounds execution. Result rows as text/csv.
//   POST     /register    ?name=<table>, CSV body → registers the table
//                         (replace with ?replace=1, which unmounts the
//                         cubes built from the old rows).
//   POST     /drop        ?name=<table> (and the cubes built from it)
//   GET      /tables      registered tables with row counts (JSON)
//   POST     /materialize ?name=<cube>&table=<t>&keys=a,b&aggs=sum(x)
//                         [&budget_bytes=N] → a stored MaterializedCube:
//                         the core alone, or the budget's view selection;
//                         /query answers usable GROUP BYs over the table
//                         from it (aggregate navigation)
//   GET      /cube        ?name=<cube>[&set=a,b] → answers GROUP BY over
//                         the listed key subset from the stored cube
//   POST     /ingest      ?table=<t>, CSV body → appends rows to a
//                         partitioned store (headerless with ?header=0);
//                         visible to readers without a snapshot swap
//   POST     /retention   ?table=<t>&windows=N → set + apply the retention
//                         horizon (0 = unlimited)
//   POST     /compact     ?table=<t> → synchronous compaction pass
//   GET      /partitions  per-store partition lifecycle state (JSON)
//   GET      /queries     in-flight queries (JSON; id, sql, elapsed)
//   POST     /cancel      ?id=N → cooperative cancel of an in-flight query
//   GET      /healthz     liveness + snapshot version
//   GET      /metrics /varz /queryz /tracez   the stats-server endpoints
//
// Line protocol: a bare "<sql>\n" on a fresh connection executes the query
// and returns raw CSV (or "ERROR: ..."), so `nc` works as a client;
// "INGEST <table> <csv row>\n" appends one headerless row the same way.

namespace datacube::server {

class CubeServer {
 public:
  struct Options {
    /// Interface to bind; loopback by default — the server has no auth.
    std::string host = "127.0.0.1";
    /// TCP port; 0 picks an ephemeral port (read it back via port()).
    int port = 0;
    /// Admission gate: queries beyond this execute-concurrency are shed
    /// with 503 (after `admission_wait_ms`, if set). <= 0 = unlimited.
    int max_concurrent_queries = 8;
    /// How long an over-capacity query may wait for a slot before 503.
    int admission_wait_ms = 0;
    /// Deadline applied when the client sends no ?deadline_ms=. 0 = none.
    int64_t default_deadline_ms = 0;
    /// Threads per cube execution (CubeOptions::num_threads); 1 = serial.
    int query_threads = 1;
    /// Stalled-connection window for the transport (408 past it).
    int head_timeout_ms = 2000;
    /// Accept bare one-line SQL over TCP in addition to HTTP.
    bool enable_line_protocol = true;
    /// Dispatch connection handling onto the shared cube ThreadPool
    /// instead of a thread per request.
    bool use_thread_pool = true;
  };

  /// Binds, listens, and serves. The returned server is live; it stops and
  /// joins cleanly on destruction.
  static Result<std::unique_ptr<CubeServer>> Start(const Options& options);

  ~CubeServer();
  CubeServer(const CubeServer&) = delete;
  CubeServer& operator=(const CubeServer&) = delete;

  /// Idempotent; drains in-flight requests (cancelling their controls) and
  /// stops the transport.
  void Stop();

  int port() const;
  std::string url() const;

  /// Programmatic registration (same copy-edit-publish path as /register).
  /// Replacing a table unmounts the cubes built from it.
  Status RegisterTable(const std::string& name, Table table,
                       bool replace = false);

  /// Mounts a partitioned store under `name`. The store itself is shared
  /// and internally synchronized, so /ingest mutates it without a snapshot
  /// republish; the binding (name → store) still goes through the
  /// copy-edit-publish cycle like any catalog change.
  Status RegisterPartitioned(const std::string& name,
                             std::shared_ptr<PartitionedCube> store,
                             bool replace = false);

  /// Current snapshot (for tests and embedding processes).
  std::shared_ptr<const ServerSnapshot> snapshot() const {
    return snapshots_.Get();
  }

  int queries_in_flight() const { return gate_.in_flight(); }

 private:
  explicit CubeServer(const Options& options);

  /// One in-flight query visible to /queries and /cancel.
  struct LiveQuery {
    uint64_t id = 0;
    std::string sql;
    std::chrono::steady_clock::time_point start;
    std::shared_ptr<ExecControl> control;
  };

  obs::HttpResponse Handle(const obs::HttpRequest& request);
  obs::HttpResponse HandleQuery(const obs::HttpRequest& request);
  obs::HttpResponse HandleRegister(const obs::HttpRequest& request);
  obs::HttpResponse HandleDrop(const obs::HttpRequest& request);
  obs::HttpResponse HandleTables() const;
  obs::HttpResponse HandleMaterialize(const obs::HttpRequest& request);
  obs::HttpResponse HandleCubeQuery(const obs::HttpRequest& request);
  obs::HttpResponse HandleQueries() const;
  obs::HttpResponse HandleCancel(const obs::HttpRequest& request);
  obs::HttpResponse HandleIngest(const obs::HttpRequest& request);
  obs::HttpResponse HandleRetention(const obs::HttpRequest& request);
  obs::HttpResponse HandleCompact(const obs::HttpRequest& request);
  obs::HttpResponse HandlePartitions() const;

  /// Runs one SQL text under admission/deadline/cancellation; the CSV (or
  /// error) response is protocol-independent.
  obs::HttpResponse RunSql(const std::string& sql, int64_t deadline_ms);

  uint64_t RegisterLive(const std::string& sql,
                        std::shared_ptr<ExecControl> control);
  void UnregisterLive(uint64_t id);

  const Options options_;
  SnapshotHolder snapshots_;
  mutable AdmissionGate gate_;

  mutable std::mutex live_mu_;
  std::vector<LiveQuery> live_;
  uint64_t next_query_id_ = 1;

  /// Fire-and-forget carrier for connection handling on the shared cube
  /// ThreadPool (Options::use_thread_pool). Outstanding tasks are drained
  /// by http_->Stop() (its in-flight counter) before this group's Wait.
  std::unique_ptr<cube_internal::TaskGroup> pool_group_;
  std::unique_ptr<obs::HttpServer> http_;
};

}  // namespace datacube::server

#endif  // DATACUBE_SERVER_CUBE_SERVER_H_
