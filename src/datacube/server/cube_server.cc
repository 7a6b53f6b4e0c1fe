#include "datacube/server/cube_server.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "datacube/common/str_util.h"
#include "datacube/cube/thread_pool.h"
#include "datacube/expr/expr.h"
#include "datacube/obs/json_util.h"
#include "datacube/obs/metrics.h"
#include "datacube/obs/stats_server.h"
#include "datacube/sql/engine.h"
#include "datacube/table/csv.h"

namespace datacube::server {

namespace {

using obs::HttpRequest;
using obs::HttpResponse;

/// Maps an execution Status to the HTTP code the client sees.
int HttpStatusFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kCancelled:
      return 499;  // client closed / cancelled the request
    case StatusCode::kDeadlineExceeded:
      return 504;
    case StatusCode::kUnavailable:
      return 503;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kAlreadyExists:
      return 409;
    case StatusCode::kParseError:
    case StatusCode::kInvalidArgument:
    case StatusCode::kTypeError:
    case StatusCode::kOutOfRange:
      return 400;
    case StatusCode::kNotImplemented:
      return 501;
    default:
      return 500;
  }
}

HttpResponse ErrorResponse(const Status& status) {
  HttpResponse resp;
  resp.status = HttpStatusFor(status);
  resp.content_type = "text/plain; charset=utf-8";
  resp.body = std::string(StatusCodeName(status.code())) + ": " +
              status.message() + "\n";
  return resp;
}

HttpResponse TextResponse(int status, std::string body) {
  HttpResponse resp;
  resp.status = status;
  resp.content_type = "text/plain; charset=utf-8";
  resp.body = std::move(body);
  return resp;
}

HttpResponse JsonResponse(std::string body) {
  HttpResponse resp;
  resp.content_type = "application/json";
  resp.body = std::move(body);
  return resp;
}

HttpResponse CsvResponse(const Table& table) {
  HttpResponse resp;
  resp.content_type = "text/csv; charset=utf-8";
  resp.body = WriteCsvString(table);
  return resp;
}

void CountQuery(int http_status) {
  obs::MetricsRegistry::Global()
      .GetCounter("datacube_server_queries_total",
                  "SQL queries served by cubed, by HTTP status",
                  {{"code", std::to_string(http_status)}})
      .Inc();
}

bool MethodIs(const HttpRequest& r, const char* a, const char* b = nullptr) {
  return r.method == a || (b != nullptr && r.method == b);
}

/// GET with HEAD served identically (the transport strips HEAD bodies).
bool IsRead(const HttpRequest& r) { return MethodIs(r, "GET", "HEAD"); }

std::vector<std::string> SplitCsvList(const std::string& s) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos <= s.size()) {
    size_t end = s.find(',', pos);
    if (end == std::string::npos) end = s.size();
    std::string item = s.substr(pos, end - pos);
    // trim spaces
    while (!item.empty() && item.front() == ' ') item.erase(item.begin());
    while (!item.empty() && item.back() == ' ') item.pop_back();
    if (!item.empty()) out.push_back(std::move(item));
    pos = end + 1;
  }
  return out;
}

/// Parses "fn(col)", "fn(*)", or "fn" into an AggregateSpec. count(*) and
/// bare count map to count_star.
Result<AggregateSpec> ParseAggSpec(const std::string& text) {
  AggregateSpec spec;
  size_t open = text.find('(');
  std::string fn = open == std::string::npos ? text : text.substr(0, open);
  std::string arg;
  if (open != std::string::npos) {
    size_t close = text.rfind(')');
    if (close == std::string::npos || close < open) {
      return Status::InvalidArgument("bad aggregate: " + text);
    }
    arg = text.substr(open + 1, close - open - 1);
    while (!arg.empty() && arg.front() == ' ') arg.erase(arg.begin());
    while (!arg.empty() && arg.back() == ' ') arg.pop_back();
  }
  if (fn.empty()) return Status::InvalidArgument("bad aggregate: " + text);
  if (EqualsIgnoreCase(fn, "count") && (arg.empty() || arg == "*")) {
    spec.function = "count_star";
  } else {
    spec.function = fn;
    if (arg.empty() || arg == "*") {
      return Status::InvalidArgument("aggregate needs a column: " + text);
    }
    spec.args.push_back(Expr::Column(arg));
  }
  spec.output_name = text;
  return spec;
}

int64_t ParseInt64(const std::string& s, int64_t fallback) {
  if (s.empty()) return fallback;
  char* end = nullptr;
  long long v = std::strtoll(s.c_str(), &end, 10);
  return (end == nullptr || *end != '\0') ? fallback : v;
}

/// Parses ingest CSV against the target table's schema: cells come in as
/// text and are cast per declared column type, so "5" lands as INT64 or
/// FLOAT64 according to the schema instead of whatever inference guesses.
/// Columns are positional and must match the base schema's count.
Result<Table> ParseIngestRows(const Schema& schema, const std::string& text,
                              bool has_header) {
  CsvReadOptions csv;
  csv.has_header = has_header;
  csv.infer_types = false;  // schema-directed casts below
  Result<Table> raw = ReadCsvString(text, csv);
  if (!raw.ok()) return raw.status();
  if (raw.value().num_columns() != schema.num_fields()) {
    return Status::InvalidArgument(
        "ingest rows have " + std::to_string(raw.value().num_columns()) +
        " columns; table has " + std::to_string(schema.num_fields()));
  }
  Table out{schema};
  std::vector<Value> row(schema.num_fields());
  for (size_t r = 0; r < raw.value().num_rows(); ++r) {
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      Result<Value> cast =
          raw.value().GetValue(r, c).CastTo(schema.field(c).type);
      if (!cast.ok()) return cast.status();
      row[c] = std::move(cast).value();
    }
    DATACUBE_RETURN_IF_ERROR(out.AppendRow(row));
  }
  return out;
}

/// Unmounts every cube built from table `name`: its /cube entry and its
/// catalog binding, so neither /cube nor /query reads it again.
void UnmountCubesOf(ServerSnapshot& snap, const std::string& name) {
  auto stale = [&](const MaterializedCubeEntry& e) {
    return EqualsIgnoreCase(e.table, name);
  };
  for (const MaterializedCubeEntry& e : snap.cubes) {
    if (stale(e)) snap.catalog.UnbindCube(e.name);
  }
  snap.cubes.erase(std::remove_if(snap.cubes.begin(), snap.cubes.end(), stale),
                   snap.cubes.end());
}

}  // namespace

Result<std::unique_ptr<CubeServer>> CubeServer::Start(const Options& options) {
  std::unique_ptr<CubeServer> server(new CubeServer(options));

  obs::HttpServer::Options http_options;
  http_options.host = options.host;
  http_options.port = options.port;
  http_options.head_timeout_ms = options.head_timeout_ms;
  http_options.enable_line_protocol = options.enable_line_protocol;
  if (options.use_thread_pool) {
    // Connection handling shares the cube execution pool: the event loop
    // fire-and-forgets each complete request into a long-lived TaskGroup
    // (Spawn is thread-safe and never blocks the loop). Handlers that run
    // parallel cubes nest their own TaskGroup::Wait, which is help-first,
    // so this stays deadlock-free even on a 1-worker pool. Detached-thread
    // fallback stays available via Options::use_thread_pool = false.
    server->pool_group_ = std::make_unique<cube_internal::TaskGroup>(
        cube_internal::ThreadPool::Global());
    cube_internal::TaskGroup* group = server->pool_group_.get();
    http_options.dispatcher = [group](std::function<void()> work) {
      group->Spawn(std::move(work));
    };
  }

  CubeServer* raw = server.get();
  DATACUBE_ASSIGN_OR_RETURN(
      server->http_,
      obs::HttpServer::Start(http_options, [raw](const HttpRequest& request) {
        return raw->Handle(request);
      }));
  return server;
}

CubeServer::CubeServer(const Options& options)
    : options_(options),
      gate_(options.max_concurrent_queries, options.admission_wait_ms) {}

CubeServer::~CubeServer() { Stop(); }

void CubeServer::Stop() {
  if (http_ == nullptr) return;
  // Cancel whatever is still executing so the transport's drain is bounded
  // by a few morsel boundaries, not by the slowest in-flight cube.
  {
    std::lock_guard<std::mutex> lock(live_mu_);
    for (LiveQuery& q : live_) q.control->Cancel();
  }
  // Transport first (its in-flight wait covers every dispatched handler),
  // then the pool group's own drain, then members may die.
  http_->Stop();
  if (pool_group_ != nullptr) pool_group_->Wait();
}

int CubeServer::port() const { return http_ == nullptr ? 0 : http_->port(); }

std::string CubeServer::url() const {
  return http_ == nullptr ? "" : http_->url();
}

Status CubeServer::RegisterTable(const std::string& name, Table table,
                                 bool replace) {
  auto shared = std::make_shared<const Table>(std::move(table));
  return snapshots_.Update([&](ServerSnapshot& snap) {
    if (replace) {
      // Cubes built from the old rows would keep answering /cube, and no
      // longer match what /query reads.
      snap.catalog.PutShared(name, shared);
      UnmountCubesOf(snap, name);
      return Status::OK();
    }
    return snap.catalog.RegisterShared(name, shared);
  });
}

Status CubeServer::RegisterPartitioned(const std::string& name,
                                       std::shared_ptr<PartitionedCube> store,
                                       bool replace) {
  if (store == nullptr) {
    return Status::InvalidArgument("null partitioned store: " + name);
  }
  return snapshots_.Update([&](ServerSnapshot& snap) {
    if (!replace && snap.catalog.GetPartitioned(name) != nullptr) {
      return Status::AlreadyExists("partitioned store already registered: " +
                                   name);
    }
    snap.catalog.PutPartitioned(name, store);
    return Status::OK();
  });
}

uint64_t CubeServer::RegisterLive(const std::string& sql,
                                  std::shared_ptr<ExecControl> control) {
  std::lock_guard<std::mutex> lock(live_mu_);
  LiveQuery q;
  q.id = next_query_id_++;
  q.sql = sql;
  q.start = std::chrono::steady_clock::now();
  q.control = std::move(control);
  live_.push_back(std::move(q));
  return live_.back().id;
}

void CubeServer::UnregisterLive(uint64_t id) {
  std::lock_guard<std::mutex> lock(live_mu_);
  live_.erase(std::remove_if(live_.begin(), live_.end(),
                             [id](const LiveQuery& q) { return q.id == id; }),
              live_.end());
}

obs::HttpResponse CubeServer::RunSql(const std::string& sql,
                                     int64_t deadline_ms) {
  if (sql.empty()) {
    CountQuery(400);
    return TextResponse(400, "empty query (pass ?q= or a request body)\n");
  }

  Result<AdmissionGate::Ticket> ticket = gate_.Admit();
  if (!ticket.ok()) {
    CountQuery(503);
    return ErrorResponse(ticket.status());
  }

  auto control = std::make_shared<ExecControl>();
  if (deadline_ms > 0) control->set_deadline_after_ms(deadline_ms);
  uint64_t id = RegisterLive(sql, control);

  // The snapshot pin: this query sees exactly one catalog version, and its
  // shared_ptr keeps that version's tables alive across any concurrent swap.
  std::shared_ptr<const ServerSnapshot> snap = snapshots_.Pin();

  sql::EngineOptions engine_options;
  engine_options.cube.control = control.get();
  engine_options.cube.num_threads = options_.query_threads;
  Result<Table> result = sql::ExecuteSql(sql, snap->catalog, engine_options);

  UnregisterLive(id);
  if (!result.ok()) {
    CountQuery(HttpStatusFor(result.status()));
    return ErrorResponse(result.status());
  }
  CountQuery(200);
  return CsvResponse(result.value());
}

obs::HttpResponse CubeServer::HandleQuery(const HttpRequest& request) {
  std::string sql = request.QueryParam("q");
  if (sql.empty()) sql = request.body;
  int64_t deadline_ms = ParseInt64(request.QueryParam("deadline_ms"),
                                   options_.default_deadline_ms);
  return RunSql(sql, deadline_ms);
}

obs::HttpResponse CubeServer::HandleRegister(const HttpRequest& request) {
  std::string name = request.QueryParam("name");
  if (name.empty()) return TextResponse(400, "missing ?name=\n");
  if (request.body.empty()) return TextResponse(400, "missing CSV body\n");
  Result<Table> table = ReadCsvString(request.body);
  if (!table.ok()) return ErrorResponse(table.status());
  bool replace = request.QueryParam("replace") == "1";
  size_t rows = table.value().num_rows();
  Status st = RegisterTable(name, std::move(table).value(), replace);
  if (!st.ok()) return ErrorResponse(st);
  return TextResponse(
      200, "registered " + name + " (" + std::to_string(rows) + " rows)\n");
}

obs::HttpResponse CubeServer::HandleDrop(const HttpRequest& request) {
  std::string name = request.QueryParam("name");
  if (name.empty()) return TextResponse(400, "missing ?name=\n");
  bool dropped = false;
  Status st = snapshots_.Update([&](ServerSnapshot& snap) {
    dropped = snap.catalog.Drop(name);
    // Partitioned stores share the table namespace; in-flight ingests keep
    // the store alive through their own shared_ptr pins.
    dropped = snap.catalog.DropPartitioned(name) || dropped;
    // Cubes built from the table go with it.
    UnmountCubesOf(snap, name);
    return Status::OK();
  });
  if (!st.ok()) return ErrorResponse(st);
  if (!dropped) return TextResponse(404, "no table named " + name + "\n");
  return TextResponse(200, "dropped " + name + "\n");
}

obs::HttpResponse CubeServer::HandleTables() const {
  std::shared_ptr<const ServerSnapshot> snap = snapshots_.Pin();
  std::string json = "{\"version\":" + std::to_string(snap->version) +
                     ",\"tables\":[";
  bool first = true;
  for (const std::string& name : snap->catalog.Names()) {
    Result<const Table*> table = snap->catalog.Get(name);
    if (!table.ok()) continue;
    if (!first) json += ",";
    first = false;
    json += "{\"name\":\"" + obs::JsonEscape(name) +
            "\",\"rows\":" + std::to_string(table.value()->num_rows()) + "}";
  }
  json += "],\"partitioned\":[";
  first = true;
  for (const std::string& name : snap->catalog.PartitionedNames()) {
    std::shared_ptr<PartitionedCube> store = snap->catalog.GetPartitioned(name);
    if (store == nullptr) continue;
    if (!first) json += ",";
    first = false;
    json += "{\"name\":\"" + obs::JsonEscape(name) +
            "\",\"rows\":" + std::to_string(store->num_base_rows()) +
            ",\"partitions\":" + std::to_string(store->num_partitions()) +
            ",\"window_width\":" +
            std::to_string(store->options().window_width) +
            ",\"retention_windows\":" + std::to_string(store->retention()) +
            "}";
  }
  json += "],\"cubes\":[";
  first = true;
  for (const MaterializedCubeEntry& e : snap->cubes) {
    if (!first) json += ",";
    first = false;
    json += "{\"name\":\"" + obs::JsonEscape(e.name) + "\",\"table\":\"" +
            obs::JsonEscape(e.table) +
            "\",\"views\":" + std::to_string(e.cube->views().size()) +
            ",\"cells\":" + std::to_string(e.cube->materialized_cells()) +
            ",\"budget_bytes\":" + std::to_string(e.cube->budget_bytes()) +
            "}";
  }
  json += "]}";
  return JsonResponse(std::move(json));
}

obs::HttpResponse CubeServer::HandleMaterialize(const HttpRequest& request) {
  std::string name = request.QueryParam("name");
  std::string table_name = request.QueryParam("table");
  std::vector<std::string> keys = SplitCsvList(request.QueryParam("keys"));
  std::vector<std::string> aggs = SplitCsvList(request.QueryParam("aggs"));
  if (name.empty() || table_name.empty() || keys.empty() || aggs.empty()) {
    return TextResponse(400,
                        "need ?name=, ?table=, ?keys=a,b and ?aggs=sum(x)\n");
  }
  size_t budget_bytes = static_cast<size_t>(
      std::max<int64_t>(0, ParseInt64(request.QueryParam("budget_bytes"), 0)));

  std::shared_ptr<const ServerSnapshot> snap = snapshots_.Pin();
  Result<std::shared_ptr<const Table>> table =
      snap->catalog.GetShared(table_name);
  if (!table.ok()) return ErrorResponse(table.status());

  CubeSpec spec;
  for (const std::string& k : keys) {
    spec.cube.push_back(GroupExpr{Expr::Column(k), k});
  }
  for (const std::string& a : aggs) {
    Result<AggregateSpec> agg = ParseAggSpec(a);
    if (!agg.ok()) return ErrorResponse(agg.status());
    spec.aggregates.push_back(std::move(agg).value());
  }

  // Re-materialization feedback: when a same-name cube over the same table
  // is being replaced, its observed per-view cell counts supersede the
  // cost model's cardinality-product estimates.
  MaterializedCube::ObservedCellCounts observed;
  const MaterializedCube::ObservedCellCounts* observed_ptr = nullptr;
  const MaterializedCubeEntry* prior = snap->FindCube(name);
  if (prior != nullptr && budget_bytes > 0 &&
      EqualsIgnoreCase(prior->table, table_name)) {
    std::lock_guard<std::mutex> lock(*prior->mu);
    observed = prior->cube->ObservedCells();
    observed_ptr = &observed;
  }

  Result<std::unique_ptr<MaterializedCube>> cube =
      budget_bytes > 0
          ? MaterializedCube::BuildWithBudget(*table.value(), spec,
                                              budget_bytes, observed_ptr)
          : MaterializedCube::BuildViews(*table.value(), spec, /*views=*/{});
  if (!cube.ok()) return ErrorResponse(cube.status());

  MaterializedCubeEntry entry;
  entry.name = name;
  entry.table = table_name;
  entry.keys = keys;
  entry.cube = std::shared_ptr<MaterializedCube>(std::move(cube).value());
  entry.mu = std::make_shared<std::mutex>();
  size_t views = entry.cube->views().size();
  size_t cells = entry.cube->materialized_cells();

  Status st = snapshots_.Update([&](ServerSnapshot& s) {
    // The build above ran against a pinned (possibly stale) snapshot.
    // Re-check the source table object in the snapshot being published: if
    // a concurrent /drop removed it, or /register?replace=1 swapped in other
    // rows, the cube would answer for rows the table no longer has. 409 and
    // let the client retry.
    Result<std::shared_ptr<const Table>> current =
        s.catalog.GetShared(table_name);
    if (!current.ok() || current.value() != table.value()) {
      return Status::AlreadyExists("source table " + table_name +
                                   " was dropped or replaced while "
                                   "materializing " + name + "; not mounted");
    }
    s.cubes.erase(std::remove_if(s.cubes.begin(), s.cubes.end(),
                                 [&](const MaterializedCubeEntry& e) {
                                   return e.name == name;
                                 }),
                  s.cubes.end());
    s.cubes.push_back(entry);
    // Aggregate navigation: /query over this exact table object now reads
    // the cube's cells wherever it can.
    s.catalog.BindCube({name, table.value(), entry.cube});
    return Status::OK();
  });
  if (!st.ok()) return ErrorResponse(st);
  return TextResponse(200, "materialized " + name + " (" +
                               std::to_string(views) + " views, " +
                               std::to_string(cells) + " cells)\n");
}

obs::HttpResponse CubeServer::HandleCubeQuery(const HttpRequest& request) {
  std::string name = request.QueryParam("name");
  if (name.empty()) return TextResponse(400, "missing ?name=\n");
  std::shared_ptr<const ServerSnapshot> snap = snapshots_.Pin();
  const MaterializedCubeEntry* entry = snap->FindCube(name);
  if (entry == nullptr) {
    return TextResponse(404, "no cube named " + name + "\n");
  }
  GroupingSet target = 0;
  for (const std::string& k : SplitCsvList(request.QueryParam("set"))) {
    auto it = std::find_if(
        entry->keys.begin(), entry->keys.end(),
        [&](const std::string& key) { return EqualsIgnoreCase(key, k); });
    if (it == entry->keys.end()) {
      return TextResponse(400, "cube " + name + " has no key " + k + "\n");
    }
    target |= GroupingSet{1}
              << static_cast<size_t>(it - entry->keys.begin());
  }
  // MaterializedCube::Query mutates its per-query stats; readers of one cube
  // serialize here while the snapshot itself stays lock-free.
  std::lock_guard<std::mutex> lock(*entry->mu);
  Result<Table> result = entry->cube->Query(target);
  if (!result.ok()) return ErrorResponse(result.status());
  return CsvResponse(result.value());
}

obs::HttpResponse CubeServer::HandleQueries() const {
  std::string json = "[";
  std::lock_guard<std::mutex> lock(live_mu_);
  auto now = std::chrono::steady_clock::now();
  bool first = true;
  for (const LiveQuery& q : live_) {
    if (!first) json += ",";
    first = false;
    double elapsed_ms =
        std::chrono::duration<double, std::milli>(now - q.start).count();
    json += "{\"id\":" + std::to_string(q.id) + ",\"sql\":\"" +
            obs::JsonEscape(q.sql) +
            "\",\"elapsed_ms\":" + std::to_string(elapsed_ms) +
            ",\"cancel_requested\":" +
            (q.control->cancel_requested() ? "true" : "false") + "}";
  }
  json += "]";
  return JsonResponse(std::move(json));
}

obs::HttpResponse CubeServer::HandleCancel(const HttpRequest& request) {
  uint64_t id =
      static_cast<uint64_t>(ParseInt64(request.QueryParam("id"), 0));
  if (id == 0) return TextResponse(400, "missing ?id=\n");
  std::lock_guard<std::mutex> lock(live_mu_);
  for (LiveQuery& q : live_) {
    if (q.id == id) {
      q.control->Cancel();
      return TextResponse(200, "cancel requested for query " +
                                   std::to_string(id) + "\n");
    }
  }
  return TextResponse(404, "no in-flight query " + std::to_string(id) + "\n");
}

obs::HttpResponse CubeServer::HandleIngest(const HttpRequest& request) {
  std::string table = request.QueryParam("table");
  if (table.empty()) return TextResponse(400, "missing ?table=\n");
  if (request.body.empty()) return TextResponse(400, "missing CSV body\n");
  std::shared_ptr<const ServerSnapshot> snap = snapshots_.Pin();
  std::shared_ptr<PartitionedCube> store = snap->catalog.GetPartitioned(table);
  if (store == nullptr) {
    return TextResponse(404, "no partitioned table named " + table + "\n");
  }
  // The store is shared and internally synchronized: rows become visible
  // to concurrent queries without a snapshot republish.
  bool has_header = request.QueryParam("header") != "0";
  Result<Table> rows =
      ParseIngestRows(store->base_schema(), request.body, has_header);
  if (!rows.ok()) return ErrorResponse(rows.status());
  size_t n = rows.value().num_rows();
  Status st = store->IngestRows(rows.value());
  if (!st.ok()) return ErrorResponse(st);
  return TextResponse(200, "ingested " + std::to_string(n) + " rows into " +
                               table + "\n");
}

obs::HttpResponse CubeServer::HandleRetention(const HttpRequest& request) {
  std::string table = request.QueryParam("table");
  if (table.empty()) return TextResponse(400, "missing ?table=\n");
  int64_t windows = ParseInt64(request.QueryParam("windows"), -1);
  if (windows < 0) {
    return TextResponse(400, "missing or bad ?windows=N (0 = unlimited)\n");
  }
  std::shared_ptr<const ServerSnapshot> snap = snapshots_.Pin();
  std::shared_ptr<PartitionedCube> store = snap->catalog.GetPartitioned(table);
  if (store == nullptr) {
    return TextResponse(404, "no partitioned table named " + table + "\n");
  }
  store->SetRetention(windows);
  size_t dropped = store->ApplyRetention();
  return TextResponse(200, "retention for " + table + " set to " +
                               std::to_string(windows) +
                               " windows; dropped " +
                               std::to_string(dropped) + "\n");
}

obs::HttpResponse CubeServer::HandleCompact(const HttpRequest& request) {
  std::string table = request.QueryParam("table");
  if (table.empty()) return TextResponse(400, "missing ?table=\n");
  std::shared_ptr<const ServerSnapshot> snap = snapshots_.Pin();
  std::shared_ptr<PartitionedCube> store = snap->catalog.GetPartitioned(table);
  if (store == nullptr) {
    return TextResponse(404, "no partitioned table named " + table + "\n");
  }
  size_t rebuilt = store->CompactNow();
  return TextResponse(200, "compacted " + table + ": " +
                               std::to_string(rebuilt) +
                               " windows rebuilt\n");
}

obs::HttpResponse CubeServer::HandlePartitions() const {
  std::shared_ptr<const ServerSnapshot> snap = snapshots_.Pin();
  std::string json = "{\"stores\":[";
  bool first_store = true;
  for (const std::string& name : snap->catalog.PartitionedNames()) {
    std::shared_ptr<PartitionedCube> store = snap->catalog.GetPartitioned(name);
    if (store == nullptr) continue;
    if (!first_store) json += ",";
    first_store = false;
    json += "{\"name\":\"" + obs::JsonEscape(name) +
            "\",\"partition_column\":\"" +
            obs::JsonEscape(store->options().partition_column) +
            "\",\"window_width\":" +
            std::to_string(store->options().window_width) +
            ",\"retention_windows\":" + std::to_string(store->retention()) +
            ",\"rows\":" + std::to_string(store->num_base_rows()) +
            ",\"partitions\":[";
    bool first_part = true;
    for (const PartitionedCube::PartitionInfo& p : store->Partitions()) {
      if (!first_part) json += ",";
      first_part = false;
      json += "{\"window\":" +
              (p.null_window ? std::string("null")
                             : std::to_string(p.window_id)) +
              ",\"state\":\"" + p.state +
              "\",\"deltas\":" + std::to_string(p.deltas) +
              ",\"rows\":" + std::to_string(p.rows) + "}";
    }
    json += "]}";
  }
  json += "]}";
  return JsonResponse(std::move(json));
}

obs::HttpResponse CubeServer::Handle(const HttpRequest& request) {
  const std::string& path = request.path;
  if (request.method == "LINE") {
    // "INGEST <table> v1,v2,..." appends headerless CSV rows; anything
    // else is bare one-line SQL. Raw CSV back, or a one-line error.
    const std::string& line = request.path;
    if (line.size() > 7 && EqualsIgnoreCase(line.substr(0, 7), "INGEST ")) {
      size_t name_start = line.find_first_not_of(' ', 7);
      size_t name_end = line.find(' ', name_start);
      if (name_start == std::string::npos || name_end == std::string::npos) {
        return TextResponse(400, "ERROR: usage: INGEST <table> <csv row>\n");
      }
      HttpRequest ingest;
      ingest.method = "POST";
      ingest.path = "/ingest";
      ingest.query = "table=" + line.substr(name_start, name_end - name_start) +
                     "&header=0";
      ingest.body = line.substr(name_end + 1);
      HttpResponse resp = HandleIngest(ingest);
      if (resp.status != 200) resp.body = "ERROR: " + resp.body;
      return resp;
    }
    HttpResponse resp = RunSql(line, options_.default_deadline_ms);
    if (resp.status != 200) {
      resp.body = "ERROR: " + resp.body;
    }
    return resp;
  }

  if (path == "/query") {
    if (!MethodIs(request, "GET", "POST") && request.method != "HEAD") {
      return TextResponse(405, "use GET or POST\n");
    }
    return HandleQuery(request);
  }
  if (path == "/register") {
    if (!MethodIs(request, "POST")) return TextResponse(405, "use POST\n");
    return HandleRegister(request);
  }
  if (path == "/drop") {
    if (!MethodIs(request, "POST")) return TextResponse(405, "use POST\n");
    return HandleDrop(request);
  }
  if (path == "/materialize") {
    if (!MethodIs(request, "POST")) return TextResponse(405, "use POST\n");
    return HandleMaterialize(request);
  }
  if (path == "/cancel") {
    if (!MethodIs(request, "POST")) return TextResponse(405, "use POST\n");
    return HandleCancel(request);
  }
  if (path == "/ingest") {
    if (!MethodIs(request, "POST")) return TextResponse(405, "use POST\n");
    return HandleIngest(request);
  }
  if (path == "/retention") {
    if (!MethodIs(request, "POST")) return TextResponse(405, "use POST\n");
    return HandleRetention(request);
  }
  if (path == "/compact") {
    if (!MethodIs(request, "POST")) return TextResponse(405, "use POST\n");
    return HandleCompact(request);
  }
  if (path == "/partitions") {
    if (!IsRead(request)) return TextResponse(405, "use GET\n");
    return HandlePartitions();
  }
  if (path == "/tables") {
    if (!IsRead(request)) return TextResponse(405, "use GET\n");
    return HandleTables();
  }
  if (path == "/cube") {
    if (!IsRead(request)) return TextResponse(405, "use GET\n");
    return HandleCubeQuery(request);
  }
  if (path == "/queries") {
    if (!IsRead(request)) return TextResponse(405, "use GET\n");
    return HandleQueries();
  }
  if (path == "/healthz") {
    if (!IsRead(request)) return TextResponse(405, "use GET\n");
    std::shared_ptr<const ServerSnapshot> snap = snapshots_.Pin();
    return JsonResponse("{\"ok\":true,\"version\":" +
                        std::to_string(snap->version) + ",\"in_flight\":" +
                        std::to_string(gate_.in_flight()) + "}");
  }
  if (path == "/metrics" || path == "/varz" || path == "/queryz" ||
      path == "/tracez") {
    // The stats endpoints, mounted on this listener (one port for queries
    // and observability).
    return obs::StatsServer::HandleHttp(request);
  }
  if (path == "/") {
    if (!IsRead(request)) return TextResponse(405, "use GET\n");
    return TextResponse(
        200,
        "cubed — data cube server\n"
        "  /query?q=<sql>[&deadline_ms=N]   run mini-SQL (GET or POST body)\n"
        "  /register?name=<t> (POST CSV)    register a table\n"
        "  /drop?name=<t> (POST)            drop a table\n"
        "  /tables                          list tables and cubes\n"
        "  /materialize?name=&table=&keys=&aggs=[&budget_bytes=] (POST)\n"
        "  /cube?name=<c>[&set=a,b]         query a materialized cube\n"
        "  /ingest?table=<t> (POST CSV)     append rows to a partitioned "
        "table\n"
        "  /retention?table=<t>&windows=N (POST)  set + apply retention\n"
        "  /compact?table=<t> (POST)        force a compaction pass\n"
        "  /partitions                      partitioned-store state (JSON)\n"
        "  /queries                         in-flight queries\n"
        "  /cancel?id=N (POST)              cancel an in-flight query\n"
        "  /healthz                         liveness\n"
        "  /metrics /varz /queryz /tracez   observability\n"
        "or send one line of SQL over a raw TCP connection\n"
        "(\"INGEST <table> <csv row>\" appends over the same socket).\n");
  }
  return TextResponse(404, "not found\n");
}

}  // namespace datacube::server
