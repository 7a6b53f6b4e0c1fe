// serve_mix: an in-process CubeServer on loopback, set up as cubed does
// (Start, RegisterTable, POST /materialize), driven by a closed loop of
// kClients connections. The Sales table fits in cache and most requests are
// small, so transport, admission, parse, CSV serialization and ancestor
// folding dominate; nothing is written.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "datacube/server/cube_server.h"
#include "datacube/sql/engine.h"
#include "datacube/sql/parser.h"
#include "datacube/table/csv.h"
#include "datacube/workload/sales.h"
#include "harness.h"

namespace perfbench {
namespace {

using datacube::Table;
using datacube::server::CubeServer;

// Two connections: with four, the server's demand exceeded the cores the
// host delivered at times (effective parallelism 2.5-4.5 between runs) and
// qps and p50 moved by 17-21% between runs of identical code.
constexpr int kClients = 2;
// One schedule period: 16 /cube reads, 22 equality-WHERE GROUP BYs and 2
// full-table CUBE/ROLLUPs. The cheap 95% puts p50 at the WHERE GROUP BYs'
// 18th percentile; the heavy 5% puts p99 at the full ROLLUP's 60th. Neither
// sits on the boundary between two classes. p50 is not placed among the
// /cube reads: their latency is bimodal (0.1-0.5 ms, or several ms when a
// thread hand-off waits for a busy host), even with a single client.
constexpr int kPeriod = 40;
constexpr double kRequestsPerSecond = 130;

enum Class { kCubeSet, kWhereGroupBy, kFullCube, kFullRollup, kNumClasses };
const char* const kClassNames[] = {"cube_set", "where_groupby", "full_cube",
                                   "full_rollup"};

Class SlotClass(int slot) {
  if (slot == 19) return kFullCube;
  if (slot == 39) return kFullRollup;
  return slot % 5 == 0 || slot % 5 == 2 ? kCubeSet : kWhereGroupBy;
}

struct Shape {
  size_t rows;
  size_t dealers;
  size_t budget_bytes;
  int requests;
};

Shape ShapeFor(const Args& args) {
  if (args.tiny) return Shape{4'000, 6, 6'000, 120};
  // Whole schedule periods, at least one per throughput slice.
  int periods = std::max(
      kSlices, static_cast<int>(std::lround(args.seconds * kRequestsPerSecond /
                                            kPeriod)));
  int n = periods * kPeriod;
  return Shape{100'000, 20, 3'200'000, n};
}

const char* const kKeys[] = {"Model", "Year", "Color", "Dealer"};

std::string UrlEncode(const std::string& s) {
  static const char* kHex = "0123456789ABCDEF";
  std::string out;
  for (unsigned char c : s) {
    if (std::isalnum(c) || c == '-' || c == '_' || c == '.' || c == '~') {
      out += static_cast<char>(c);
    } else {
      out += '%';
      out += kHex[c >> 4];
      out += kHex[c & 15];
    }
  }
  return out;
}

struct HttpResult {
  bool io_ok = false;
  int status = 0;
  std::string body;
  size_t body_bytes = 0;
  bool body_ok = false;  // 200 with the expected body
  double connect_ms = 0;
  double ttfb_ms = 0;  // request sent -> first response byte
  double total_ms = 0;
  double start_ms = 0;  // since the timed loop started
};

// One request on its own connection (the transport closes after each
// response), read to EOF.
HttpResult HttpCall(int port, const std::string& method,
                    const std::string& target, Tracer& tracer, uint64_t op) {
  HttpResult r;
  auto t0 = Clock::now();
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return r;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  bool connected;
  {
    Span s(tracer, "obs.http_connect", op);
    connected =
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  r.connect_ms = MsSince(t0);
  std::string raw;
  if (connected) {
    std::string req = method + " " + target +
                      " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n"
                      "Content-Length: 0\r\n\r\n";
    Span s(tracer, "server.ttfb", op);
    auto t_sent = Clock::now();
    size_t off = 0;
    while (off < req.size()) {
      ssize_t n = ::send(fd, req.data() + off, req.size() - off, MSG_NOSIGNAL);
      if (n <= 0) break;
      off += static_cast<size_t>(n);
    }
    char buf[16384];
    bool first = true;
    for (;;) {
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) {
        r.io_ok = n == 0 && off == req.size();
        break;
      }
      if (first) {
        r.ttfb_ms = MsSince(t_sent);
        s.End();
        first = false;
      }
      raw.append(buf, static_cast<size_t>(n));
    }
  }
  ::close(fd);
  r.total_ms = MsSince(t0);
  size_t head_end = raw.find("\r\n\r\n");
  if (!r.io_ok || raw.compare(0, 9, "HTTP/1.1 ") != 0 ||
      head_end == std::string::npos) {
    r.io_ok = false;
    return r;
  }
  r.status = std::atoi(raw.c_str() + 9);
  r.body = raw.substr(head_end + 4);
  return r;
}

// One distinct request: its target and the answer computed in-process.
struct Request {
  Class cls;
  std::string target;
  std::string sql;      // empty for /cube
  datacube::GroupingSet set = 0;
  std::string expected_body;
  double rows_read = 0;  // base rows scanned or stored cells folded
};

struct Served {
  std::unique_ptr<CubeServer> server;
  std::vector<Request> requests;
  std::vector<std::vector<size_t>> by_class;  // request indices per class
};

std::vector<Request> MakeRequests() {
  std::vector<Request> reqs;
  for (datacube::GroupingSet s = 0; s < 16; ++s) {
    std::string keys;
    for (int k = 0; k < 4; ++k) {
      if (s & (1u << k)) keys += (keys.empty() ? "" : ",") + std::string(kKeys[k]);
    }
    reqs.push_back({kCubeSet, "/cube?name=SalesCube&set=" + UrlEncode(keys),
                    "", s, "", 0});
  }
  const char* group_cols[] = {"Color", "Year", "Dealer"};
  for (int m = 0; m < 4; ++m) {
    for (const char* g : group_cols) {
      std::string sql = std::string("SELECT ") + g +
                        ", COUNT(*), SUM(Units) FROM Sales WHERE Model = "
                        "'model" + std::to_string(m) + "' GROUP BY " + g;
      reqs.push_back({kWhereGroupBy, "", sql, 0, "", 0});
    }
  }
  reqs.push_back({kFullCube, "",
                  "SELECT Model, Year, Color, SUM(Units), AVG(Price) FROM Sales "
                  "GROUP BY CUBE Model, Year, Color",
                  0, "", 0});
  reqs.push_back({kFullRollup, "",
                  "SELECT Model, Year, Color, Dealer, COUNT(*), SUM(Units) "
                  "FROM Sales GROUP BY ROLLUP Model, Year, Color, Dealer",
                  0, "", 0});
  for (Request& r : reqs) {
    if (!r.sql.empty()) r.target = "/query?q=" + UrlEncode(r.sql);
  }
  return reqs;
}

std::string MaterializeTarget(const Shape& shape) {
  return "/materialize?name=SalesCube&table=Sales&keys=" +
         UrlEncode("Model,Year,Color,Dealer") + "&aggs=" +
         UrlEncode("count(*),sum(Units)") +
         "&budget_bytes=" + std::to_string(shape.budget_bytes);
}

// Generates Sales, starts the server, registers the table, materializes the
// budgeted cube over HTTP and sends one warm-up request of every kind.
// Returns its wall time in ms (0 on failure, with `error` set).
double SetupOnce(const Shape& shape, uint64_t seed, Served* out,
                 Tracer& tracer, std::string* error) {
  auto t0 = Clock::now();
  datacube::SalesGenOptions gen;
  gen.num_rows = shape.rows;
  gen.num_dealers = shape.dealers;
  gen.skew = 1.0;
  gen.seed = seed;
  auto sales = datacube::GenerateSales(gen);
  auto server = CubeServer::Start(CubeServer::Options{});
  if (!sales.ok() || !server.ok()) {
    *error = "serve_mix setup: generate or start failed";
    return 0;
  }
  out->server = std::move(server).value();
  if (!out->server->RegisterTable("Sales", std::move(sales).value()).ok()) {
    *error = "serve_mix setup: register failed";
    return 0;
  }
  int port = out->server->port();
  HttpResult m = HttpCall(port, "POST", MaterializeTarget(shape), tracer, 0);
  if (!m.io_ok || m.status != 200) {
    *error = "serve_mix setup: /materialize returned " +
             std::to_string(m.status) + " " + m.body;
    return 0;
  }
  out->requests = MakeRequests();
  std::vector<bool> warmed(kNumClasses, false);
  for (const Request& r : out->requests) {
    if (warmed[r.cls]) continue;
    warmed[r.cls] = true;
    (void)HttpCall(port, "GET", r.target, tracer, 0);
  }
  return MsSince(t0);
}

// The in-process answer for every request, from the server's own snapshot:
// ExecuteSql + WriteCsvString, or PartialCube::Query + WriteCsvString.
bool ComputeExpected(Served* s, size_t sales_rows, std::string* error) {
  auto snap = s->server->snapshot();
  const auto* entry = snap->FindCube("SalesCube");
  if (entry == nullptr) {
    *error = "serve_mix: SalesCube not mounted";
    return false;
  }
  s->by_class.assign(kNumClasses, {});
  for (size_t i = 0; i < s->requests.size(); ++i) {
    Request& r = s->requests[i];
    s->by_class[r.cls].push_back(i);
    if (r.sql.empty()) {
      std::lock_guard<std::mutex> lock(*entry->mu);
      auto t = entry->cube->Query(r.set);
      if (!t.ok()) {
        *error = "serve_mix: in-process cube query failed";
        return false;
      }
      const auto& qs = entry->cube->last_query_stats();
      r.rows_read = qs.was_materialized
                        ? static_cast<double>(t.value().num_rows())
                        : static_cast<double>(qs.cells_scanned);
      r.expected_body = datacube::WriteCsvString(t.value());
    } else {
      auto t = datacube::sql::ExecuteSql(r.sql, snap->catalog);
      if (!t.ok()) {
        *error = "serve_mix: in-process query failed: " + r.sql;
        return false;
      }
      r.rows_read = static_cast<double>(sales_rows);
      r.expected_body = datacube::WriteCsvString(t.value());
    }
  }
  return true;
}

}  // namespace

RunResult RunServeMix(const Args& args, Tracer& tracer) {
  RunResult res;
  const Shape shape = ShapeFor(args);
  Served served;
  std::string error;
  res.end_to_end["setup_s"] = MedianSetupSeconds(kSetupReps, [&] {
    served = Served();  // stops the previous server before the next starts
    return SetupOnce(shape, args.seed, &served, tracer, &error);
  });
  if (error.empty()) ComputeExpected(&served, shape.rows, &error);
  if (!error.empty()) {
    res.Fail(error);
    res.attempted = 1;
    return res;
  }
  auto snap = served.server->snapshot();
  const auto* entry = snap->FindCube("SalesCube");
  size_t views = entry->cube->views().size();
  res.counts["partial.views_materialized"] = static_cast<double>(views);
  if (views >= 16) res.Fail("serve_mix: budget materialized every view");

  // The fixed request sequence: schedule slot -> class, variant drawn from
  // the seeded generator.
  std::mt19937_64 rng(args.seed * 7919 + 17);
  std::vector<size_t> sequence(static_cast<size_t>(shape.requests));
  for (size_t i = 0; i < sequence.size(); ++i) {
    const auto& pool = served.by_class[SlotClass(static_cast<int>(i % kPeriod))];
    sequence[i] = pool[rng() % pool.size()];
  }
  if (args.inject_wrong_answer) served.requests[sequence[0]].expected_body += "x";

  std::vector<HttpResult> results(sequence.size());
  std::atomic<size_t> next{0};
  int port = served.server->port();
  auto loop_start = Clock::now();
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        for (size_t i = next.fetch_add(1); i < sequence.size();
             i = next.fetch_add(1)) {
          const Request& r = served.requests[sequence[i]];
          Span s(tracer, std::string("http.request.") + kClassNames[r.cls],
                 i + 1);
          const double start_ms = MsSince(loop_start);
          results[i] = HttpCall(port, "GET", r.target, tracer, i + 1);
          results[i].start_ms = start_ms;
          // Check now and keep only the verdict, so response bodies do not
          // pile up in this process's peak RSS.
          HttpResult& h = results[i];
          h.body_bytes = h.body.size();
          h.body_ok = h.io_ok && h.status == 200 && h.body == r.expected_body;
          std::string().swap(h.body);
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }

  // Throughputs are medians over kSlices consecutive slices of the request
  // sequence, so a burst of host contention moves one slice, not the run.
  std::vector<double> latency;
  double rows_read = 0, ok = 0, shed = 0, csv_bytes = 0;
  std::vector<std::vector<double>> class_latency(kNumClasses);
  std::vector<double> slice_qps, slice_rows;
  double slice_ok = 0, slice_rows_read = 0, slice_start = 0, slice_end = 0;
  for (size_t i = 0; i < sequence.size(); ++i) {
    if (i % (sequence.size() / kSlices) == 0) {
      if (i > 0 && slice_end > slice_start) {
        slice_qps.push_back(slice_ok / ((slice_end - slice_start) / 1e3));
        slice_rows.push_back(slice_rows_read / ((slice_end - slice_start) / 1e3));
      }
      slice_ok = slice_rows_read = 0;
      slice_start = results[i].start_ms;
      slice_end = 0;
    }
    slice_start = std::min(slice_start, results[i].start_ms);
    slice_end = std::max(slice_end, results[i].start_ms + results[i].total_ms);
    const Request& r = served.requests[sequence[i]];
    const HttpResult& h = results[i];
    ++res.attempted;
    ++res.counts[std::string("requests.") + kClassNames[r.cls]];
    if (h.status == 503) ++shed;
    if (h.io_ok) {
      latency.push_back(h.total_ms);
      class_latency[r.cls].push_back(h.total_ms);
    }
    if (!h.body_ok) {
      res.Fail(std::string(kClassNames[r.cls]) + " " + r.target + ": status " +
               std::to_string(h.status) +
               (h.status == 200 ? " (body differs)" : ""));
      continue;
    }
    ++ok;
    rows_read += r.rows_read;
    csv_bytes += static_cast<double>(h.body_bytes);
    ++slice_ok;
    slice_rows_read += r.rows_read;
  }
  if (slice_end > slice_start) {
    slice_qps.push_back(slice_ok / ((slice_end - slice_start) / 1e3));
    slice_rows.push_back(slice_rows_read / ((slice_end - slice_start) / 1e3));
  }
  for (int c = 0; c < kNumClasses; ++c) {
    res.info[std::string("median_ms.") + kClassNames[c]] =
        Median(class_latency[static_cast<size_t>(c)]);
  }
  res.end_to_end["rows_per_s"] = Median(slice_rows);
  res.end_to_end["qps"] = Median(slice_qps);
  res.end_to_end["query_p50_ms"] = Quantile(latency, 0.50);
  res.end_to_end["query_p99_ms"] = Quantile(latency, 0.99);

  if (tracer.enabled()) {
    std::map<std::string, double>& pl = res.per_layer;
    std::vector<double> connect, ttfb;
    for (const HttpResult& h : results) {
      connect.push_back(h.connect_ms);
      ttfb.push_back(h.ttfb_ms);
    }
    pl["obs.http_connect_ms"] = Median(connect);
    pl["server.ttfb_ms"] = Median(ttfb);
    pl["server.shed_ratio"] = shed / static_cast<double>(sequence.size());
    pl["table.csv_bytes"] = ok > 0 ? csv_bytes / ok : 0;

    // Serial in-process replays of every distinct request: the same answer
    // without HTTP, split into its layers.
    constexpr int kReplays = 3;
    std::vector<double> inproc_class_ms(kNumClasses, 0);
    size_t scanned = 0, kept = 0;
    for (int c = 0; c < kNumClasses; ++c) {
      std::vector<double> per_request;
      for (size_t idx : served.by_class[static_cast<size_t>(c)]) {
        const Request& r = served.requests[idx];
        for (int rep = 0; rep < kReplays; ++rep) {
          auto t0 = Clock::now();
          Table result;
          if (r.sql.empty()) {
            Span s(tracer, "cube.partial_query", idx);
            std::lock_guard<std::mutex> lock(*entry->mu);
            auto t = entry->cube->Query(r.set);
            if (t.ok()) result = std::move(t).value();
          } else {
            {
              Span s(tracer, "sql.parse", idx);
              (void)datacube::sql::ParseSelect(r.sql);
            }
            Span s(tracer, std::string("sql.execute.") + kClassNames[c], idx);
            auto t = datacube::sql::ExecuteSql(r.sql, snap->catalog);
            if (t.ok()) result = std::move(t).value();
          }
          std::string body;
          {
            Span s(tracer, "table.csv_write", idx);
            body = datacube::WriteCsvString(result);
          }
          per_request.push_back(MsSince(t0));
          if (body != r.expected_body) res.Fail("serve_mix: replay differs");
        }
        if (c == kWhereGroupBy) {
          // The WHERE piece of the equality GROUP BY: Bind + per-row
          // Evaluate, then FilterRows.
          auto stmt = datacube::sql::ParseSelect(r.sql);
          const Table& sales = *snap->catalog.Get("Sales").value();
          std::vector<bool> mask(sales.num_rows());
          Span s(tracer, "expr.where_eval", idx);
          bool bound = stmt.ok() && stmt.value().where->Bind(sales.schema()).ok();
          for (size_t row = 0; bound && row < sales.num_rows(); ++row) {
            auto v = stmt.value().where->Evaluate(sales, row);
            mask[row] = v.ok() && !v.value().is_special() && v.value().bool_value();
            kept += mask[row] ? 1 : 0;
          }
          s.End();
          scanned += sales.num_rows();
          Span f(tracer, "table.filter_rows", idx);
          (void)sales.FilterRows(mask);
        }
      }
      inproc_class_ms[static_cast<size_t>(c)] = Median(per_request);
    }
    std::vector<double> overhead;
    for (size_t i = 0; i < sequence.size(); ++i) {
      const Request& r = served.requests[sequence[i]];
      if (results[i].io_ok) {
        overhead.push_back(results[i].total_ms - inproc_class_ms[r.cls]);
      }
    }
    pl["server.overhead_ms"] = Median(overhead);
    pl["sql.parse_ms"] = Median(tracer.Durations("sql.parse"));
    for (int c = kWhereGroupBy; c < kNumClasses; ++c) {
      pl[std::string("sql.execute_ms.") + kClassNames[c]] =
          Median(tracer.Durations(std::string("sql.execute.") + kClassNames[c]));
    }
    pl["table.csv_write_ms"] = Median(tracer.Durations("table.csv_write"));
    pl["table.filter_rows_ms"] = Median(tracer.Durations("table.filter_rows"));
    pl["expr.where_eval_ms"] = Median(tracer.Durations("expr.where_eval"));
    pl["expr.where_selectivity"] =
        scanned > 0 ? static_cast<double>(kept) / static_cast<double>(scanned)
                    : 0;
    pl["cube.partial_query_ms"] = Median(tracer.Durations("cube.partial_query"));
    res.counts["expr.where_rows_kept"] = static_cast<double>(kept);
    res.counts["table.csv_bytes"] = csv_bytes;
  }
  return res;
}

}  // namespace perfbench
