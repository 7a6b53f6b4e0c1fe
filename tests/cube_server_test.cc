#include "datacube/server/cube_server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datacube/expr/expr.h"
#include "datacube/server/admission.h"
#include "datacube/server/snapshot.h"
#include "datacube/table/csv.h"
#include "datacube/workload/sales.h"

namespace datacube::server {
namespace {

// ------------------------------------------------------ raw HTTP plumbing

/// One-shot HTTP exchange over a raw socket; returns the whole response
/// (status line + headers + body) or "" on failure.
std::string HttpExchange(int port, const std::string& request) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[8192];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string Get(int port, const std::string& target) {
  return HttpExchange(
      port, "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n");
}

std::string Post(int port, const std::string& target,
                 const std::string& body = "") {
  return HttpExchange(port, "POST " + target + " HTTP/1.1\r\nHost: x\r\n" +
                                "Content-Length: " +
                                std::to_string(body.size()) + "\r\n\r\n" +
                                body);
}

int StatusOf(const std::string& response) {
  // "HTTP/1.1 NNN ..."
  if (response.size() < 12) return -1;
  return std::atoi(response.c_str() + 9);
}

std::string BodyOf(const std::string& response) {
  size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

std::string UrlEncode(const std::string& in) {
  static const char* hex = "0123456789ABCDEF";
  std::string out;
  for (unsigned char c : in) {
    if (std::isalnum(c) || c == '-' || c == '_' || c == '.' || c == '*') {
      out.push_back(static_cast<char>(c));
    } else if (c == ' ') {
      out.push_back('+');
    } else {
      out.push_back('%');
      out.push_back(hex[c >> 4]);
      out.push_back(hex[c & 15]);
    }
  }
  return out;
}

std::string Query(int port, const std::string& sql,
                  const std::string& extra = "") {
  return Get(port, "/query?q=" + UrlEncode(sql) + extra);
}

// ------------------------------------------------------------- fixtures

/// A one-group table whose every value is `v`: blends across snapshot
/// versions are arithmetically impossible to miss (SUM must be rows*v).
Table UniformTable(size_t rows, int v) {
  std::string csv = "k,v\n";
  for (size_t i = 0; i < rows; ++i) {
    csv += "x," + std::to_string(v) + "\n";
  }
  return ReadCsvString(csv, {}).value();
}

std::unique_ptr<CubeServer> StartServer(CubeServer::Options options = {}) {
  Result<std::unique_ptr<CubeServer>> server = CubeServer::Start(options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return server.ok() ? std::move(*server) : nullptr;
}

// -------------------------------------------------------------- serving

TEST(CubeServerTest, AnswersCubeSqlOverHttp) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(
      server->RegisterTable("Sales", Table3SalesTable().value()).ok());
  std::string response =
      Query(server->port(),
            "SELECT Model, SUM(Units) FROM Sales GROUP BY CUBE Model");
  EXPECT_EQ(StatusOf(response), 200) << response.substr(0, 200);
  EXPECT_NE(response.find("text/csv"), std::string::npos);
  EXPECT_NE(BodyOf(response).find("ALL,510"), std::string::npos);
}

TEST(CubeServerTest, FourConcurrentClientsAllAnswered) {
  // Acceptance: >= 4 simultaneous clients, every one served correctly.
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(
      server->RegisterTable("Sales", Table3SalesTable().value()).ok());
  constexpr int kClients = 6;
  std::atomic<int> correct{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&] {
      std::string response =
          Query(server->port(),
                "SELECT Model, SUM(Units) FROM Sales GROUP BY CUBE Model");
      if (StatusOf(response) == 200 &&
          BodyOf(response).find("ALL,510") != std::string::npos) {
        correct.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(correct.load(), kClients);
}

TEST(CubeServerTest, SnapshotSwapNeverBlendsInFlightReads) {
  // Acceptance: concurrent readers race table replacement; each result must
  // be computed wholly against one version. With every v1 value 1 and every
  // v2 value 2 over kRows rows, SUM is kRows or 2*kRows — any blend lands
  // strictly between and fails loudly.
  constexpr size_t kRows = 4000;
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(server->RegisterTable("T", UniformTable(kRows, 1)).ok());

  const std::string want_v1 = "x," + std::to_string(kRows);
  const std::string want_v2 = "x," + std::to_string(2 * kRows);
  std::atomic<bool> done{false};
  std::atomic<int> queries{0};
  std::vector<std::string> bad;
  std::mutex bad_mu;

  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&] {
      while (!done.load()) {
        std::string response =
            Query(server->port(), "SELECT k, SUM(v) FROM T GROUP BY k");
        std::string body = BodyOf(response);
        queries.fetch_add(1);
        if (StatusOf(response) != 200 ||
            (body.find(want_v1) == std::string::npos &&
             body.find(want_v2) == std::string::npos)) {
          std::lock_guard<std::mutex> lock(bad_mu);
          bad.push_back(response.substr(0, 160));
          return;
        }
      }
    });
  }
  // Swap the table back and forth while the readers hammer it.
  for (int round = 0; round < 10; ++round) {
    int v = (round % 2 == 0) ? 2 : 1;
    ASSERT_TRUE(
        server->RegisterTable("T", UniformTable(kRows, v), /*replace=*/true)
            .ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  done.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_TRUE(bad.empty()) << "blended/failed result: " << bad.front();
  EXPECT_GT(queries.load(), 10);
}

TEST(CubeServerTest, RegistrationNeverBlocksBehindReaders) {
  // The snapshot holder publishes via atomic swap: a registration racing
  // long queries must complete promptly, not wait for the readers.
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(server->RegisterTable("T", UniformTable(2000, 1)).ok());
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load()) {
      Query(server->port(), "SELECT k, SUM(v) FROM T GROUP BY CUBE k");
    }
  });
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(server
                    ->RegisterTable("extra" + std::to_string(i),
                                    UniformTable(10, 1))
                    .ok());
  }
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  done.store(true);
  reader.join();
  EXPECT_LT(elapsed, 5000) << "registrations appear to serialize on readers";
  EXPECT_EQ(server->snapshot()->catalog.size(), 21u);
}

// ------------------------------------------------- deadlines/cancellation

TEST(CubeServerTest, DeadlineExpiryIsACleanError) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(
      server
          ->RegisterTable("Big", GenerateSales({.num_rows = 200000}).value())
          .ok());
  const std::string sql =
      "SELECT Model, Color, Dealer, SUM(Units) FROM Big "
      "GROUP BY CUBE Model, Color, Dealer";
  bool saw_timeout = false;
  for (int attempt = 0; attempt < 5 && !saw_timeout; ++attempt) {
    std::string response = Query(server->port(), sql, "&deadline_ms=1");
    int status = StatusOf(response);
    ASSERT_TRUE(status == 504 || status == 200) << response.substr(0, 200);
    if (status == 504) {
      saw_timeout = true;
      EXPECT_NE(BodyOf(response).find("DeadlineExceeded"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_timeout) << "a 1ms deadline never fired over a 200k-row "
                              "3-key cube";
  // The server is still healthy afterwards.
  EXPECT_EQ(StatusOf(Get(server->port(), "/healthz")), 200);
}

TEST(CubeServerTest, CancellationStopsAnInFlightQuery) {
  // Cancellation is observed at morsel boundaries: cancel an in-flight big
  // cube via /queries + /cancel and expect 499, not a completed result.
  CubeServer::Options options;
  options.query_threads = 2;
  auto server = StartServer(options);
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(
      server
          ->RegisterTable("Big", GenerateSales({.num_rows = 300000}).value())
          .ok());
  const std::string sql =
      "SELECT Model, Color, Dealer, SUM(Units), AVG(Price) FROM Big "
      "GROUP BY CUBE Model, Color, Dealer";

  std::string response;
  std::thread runner(
      [&] { response = Query(server->port(), sql); });

  // Find the live query and cancel it.
  bool cancelled = false;
  for (int i = 0; i < 200 && !cancelled; ++i) {
    std::string queries = BodyOf(Get(server->port(), "/queries"));
    size_t id_pos = queries.find("\"id\":");
    if (id_pos != std::string::npos) {
      std::string id = queries.substr(id_pos + 5);
      id = id.substr(0, id.find_first_not_of("0123456789"));
      std::string cancel =
          Post(server->port(), "/cancel?id=" + id);
      cancelled = StatusOf(cancel) == 200;
    }
    if (!cancelled) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  runner.join();
  if (cancelled) {
    // The query may have finished in the window between listing and
    // cancelling; a cancel that landed must surface as 499.
    int status = StatusOf(response);
    EXPECT_TRUE(status == 499 || status == 200) << response.substr(0, 200);
  }
  EXPECT_EQ(server->queries_in_flight(), 0);
}

TEST(CubeServerTest, AdmissionGateShedsOverCapacity) {
  CubeServer::Options options;
  options.max_concurrent_queries = 1;
  // Thread-per-request dispatch: on a small machine the shared pool may
  // have one worker, which would serialize the handlers *before* the gate
  // and never produce contention for it to shed.
  options.use_thread_pool = false;
  auto server = StartServer(options);
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(
      server
          ->RegisterTable("Big", GenerateSales({.num_rows = 300000}).value())
          .ok());
  // Fire simultaneous heavy queries at the single slot: the winner executes
  // (tens of milliseconds) while the admission checks of the rest land well
  // inside that window and shed with 503.
  constexpr int kClients = 4;
  std::vector<int> statuses(kClients, 0);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      statuses[i] = StatusOf(
          Query(server->port(),
                "SELECT Model, Color, Dealer, SUM(Units), AVG(Price) "
                "FROM Big GROUP BY CUBE Model, Color, Dealer"));
    });
  }
  for (std::thread& t : threads) t.join();
  int ok = 0, shed = 0;
  for (int s : statuses) {
    if (s == 200) ++ok;
    if (s == 503) ++shed;
  }
  EXPECT_GE(ok, 1) << "the slot holder should complete";
  EXPECT_GE(shed, 1) << "no query was shed by the 1-slot gate";
  EXPECT_EQ(ok + shed, kClients);
}

// --------------------------------------------------------- catalog + cube

TEST(CubeServerTest, RegisterQueryDropRoundTripOverHttp) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  std::string csv = "kind,n\ncat,2\ndog,3\n";
  EXPECT_EQ(StatusOf(Post(server->port(), "/register?name=pets", csv)), 200);
  // Duplicate registration without replace is a conflict.
  EXPECT_EQ(StatusOf(Post(server->port(), "/register?name=pets", csv)), 409);
  EXPECT_EQ(StatusOf(Post(server->port(), "/register?name=pets&replace=1",
                          csv)),
            200);
  std::string response = Query(
      server->port(), "SELECT kind, SUM(n) FROM pets GROUP BY CUBE kind");
  EXPECT_EQ(StatusOf(response), 200);
  EXPECT_NE(BodyOf(response).find("ALL,5"), std::string::npos);
  EXPECT_EQ(StatusOf(Post(server->port(), "/drop?name=pets")), 200);
  EXPECT_EQ(StatusOf(Query(server->port(),
                           "SELECT kind, SUM(n) FROM pets GROUP BY kind")),
            404);
  EXPECT_EQ(StatusOf(Post(server->port(), "/drop?name=pets")), 404);
}

TEST(CubeServerTest, MaterializeAndQueryPartialCube) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(
      server->RegisterTable("Sales", Table3SalesTable().value()).ok());
  std::string response = Post(
      server->port(),
      "/materialize?name=sales_cube&table=Sales&keys=Model,Color"
      "&aggs=sum(Units)&budget_bytes=1000000");
  ASSERT_EQ(StatusOf(response), 200) << response.substr(0, 300);
  std::string cube = Get(server->port(), "/cube?name=sales_cube&set=Model");
  EXPECT_EQ(StatusOf(cube), 200) << cube.substr(0, 300);
  EXPECT_NE(BodyOf(cube).find("Chevy"), std::string::npos);
  // The grand total lives at the empty key subset.
  std::string total = Get(server->port(), "/cube?name=sales_cube");
  EXPECT_EQ(StatusOf(total), 200);
  EXPECT_NE(BodyOf(total).find("510"), std::string::npos);
  EXPECT_EQ(StatusOf(Get(server->port(), "/cube?name=missing")), 404);
}

TEST(CubeServerTest, MountedCubeAnswersQueryWithTheRawBytes) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(
      server->RegisterTable("Sales", Table3SalesTable().value()).ok());
  const int port = server->port();
  const std::string answerable =
      "SELECT Color, COUNT(*), SUM(Units) FROM Sales "
      "WHERE Model = 'Chevy' GROUP BY ROLLUP Color";
  const std::string unanswerable =
      "SELECT Color, AVG(Units) FROM Sales GROUP BY Color";
  const std::string raw = Query(port, answerable);
  const std::string raw_avg = Query(port, unanswerable);
  ASSERT_EQ(StatusOf(raw), 200) << raw;
  ASSERT_EQ(StatusOf(Post(port,
                          "/materialize?name=sales_cube&table=Sales"
                          "&keys=Model,Year,Color&aggs=count(*),sum(Units)")),
            200);
  EXPECT_EQ(BodyOf(Query(port, answerable)), BodyOf(raw));
  EXPECT_EQ(BodyOf(Query(port, unanswerable)), BodyOf(raw_avg));
  EXPECT_NE(BodyOf(Query(port, "EXPLAIN " + answerable))
                .find("answered from cube sales_cube: set {Color} from view "
                      "{Model, Year, Color}"),
            std::string::npos);
  EXPECT_EQ(BodyOf(Query(port, "EXPLAIN " + unanswerable))
                .find("answered from cube"),
            std::string::npos);
  // The rewrite shows in /queryz.
  EXPECT_NE(BodyOf(Get(port, "/queryz")).find("cube=sales_cube"),
            std::string::npos);
}

TEST(CubeServerTest, ReplacingATableUnmountsItsCubes) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(
      server->RegisterTable("Sales", Table3SalesTable().value()).ok());
  const int port = server->port();
  ASSERT_EQ(StatusOf(Post(port,
                          "/materialize?name=sales_cube&table=Sales"
                          "&keys=Model,Color&aggs=sum(Units)")),
            200);
  const std::string sql =
      "SELECT Color, SUM(Units) FROM Sales WHERE Model = 'Chevy' "
      "GROUP BY Color";
  ASSERT_NE(BodyOf(Query(port, "EXPLAIN " + sql)).find("answered from cube"),
            std::string::npos);
  ASSERT_EQ(StatusOf(Get(port, "/cube?name=sales_cube&set=Color")), 200);

  // Other rows under the same name: /query follows them, and no cube built
  // from the old rows stays mounted for /cube or the rewrite.
  ASSERT_TRUE(server
                  ->RegisterTable("Sales",
                                  ReadCsvString("Model,Color,Units\n"
                                                "Chevy,teal,7\n")
                                      .value(),
                                  /*replace=*/true)
                  .ok());
  EXPECT_EQ(BodyOf(Query(port, sql)), "Color,sum(Units)\nteal,7\n");
  EXPECT_EQ(BodyOf(Query(port, "EXPLAIN " + sql)).find("answered from cube"),
            std::string::npos);
  EXPECT_EQ(StatusOf(Get(port, "/cube?name=sales_cube&set=Color")), 404);
  EXPECT_NE(BodyOf(Get(port, "/tables")).find("\"cubes\":[]"),
            std::string::npos);
  EXPECT_TRUE(server->snapshot()->catalog.cubes().empty());
}

TEST(CubeServerTest, MaterializeReplaceRaceNeverMountsStaleRows) {
  // A /register?replace=1 that lands between /materialize's build and its
  // publish must make the materialize fail with 409: the cube would
  // otherwise serve the old rows' aggregates next to the new table.
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  const int port = server->port();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        server->RegisterTable("race_src", UniformTable(2000, 1), true).ok());
    std::thread mat([&] {
      std::string resp = Post(port,
                              "/materialize?name=race_cube&table=race_src"
                              "&keys=k&aggs=sum(v)");
      int status = StatusOf(resp);
      EXPECT_TRUE(status == 200 || status == 409) << resp.substr(0, 200);
    });
    ASSERT_TRUE(
        server->RegisterTable("race_src", UniformTable(2000, 2), true).ok());
    mat.join();
    // Mounted only if built from the new rows.
    std::string cube = Get(port, "/cube?name=race_cube&set=k");
    if (StatusOf(cube) == 200) {
      EXPECT_NE(BodyOf(cube).find("x,4000"), std::string::npos)
          << "stale cube after iteration " << i << ": " << BodyOf(cube);
    }
    std::shared_ptr<const ServerSnapshot> snap = server->snapshot();
    for (const sql::Catalog::CubeBinding& b : snap->catalog.cubes()) {
      EXPECT_EQ(b.source, snap->catalog.GetShared("race_src").value());
    }
  }
}

TEST(CubeServerTest, RewrittenQueriesAndCubeReadsRaceOnOneCube) {
  // The rewrite reads the mounted cube without its mutex while /cube reads
  // hold it: concurrent readers must all get the single-threaded answers
  // (and stay clean under ThreadSanitizer).
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  const int port = server->port();
  SalesGenOptions gen;
  gen.num_rows = 5000;
  gen.num_dealers = 6;
  ASSERT_TRUE(server->RegisterTable("Sales", GenerateSales(gen).value()).ok());
  const std::vector<std::string> sqls = {
      "SELECT Color, COUNT(*), SUM(Units) FROM Sales WHERE Model = 'model1' "
      "GROUP BY Color",
      "SELECT Model, Year, COUNT(*) FROM Sales GROUP BY ROLLUP Model, Year",
      "SELECT Dealer, SUM(Units) FROM Sales WHERE Year = 1995 AND "
      "Color = 'color2' GROUP BY CUBE Dealer"};
  std::vector<std::string> raw;
  for (const std::string& sql : sqls) raw.push_back(BodyOf(Query(port, sql)));
  ASSERT_EQ(StatusOf(Post(port,
                          "/materialize?name=SalesCube&table=Sales"
                          "&keys=Model,Year,Color,Dealer"
                          "&aggs=count(*),sum(Units)&budget_bytes=200000")),
            200);
  for (const std::string& sql : sqls) {
    ASSERT_NE(BodyOf(Query(port, "EXPLAIN " + sql)).find("answered from cube"),
              std::string::npos)
        << sql;
  }
  const std::string cube_target = "/cube?name=SalesCube&set=Model,Color";
  const std::string cube_body = BodyOf(Get(port, cube_target));
  ASSERT_FALSE(cube_body.empty());
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < 15; ++i) {
        size_t q = static_cast<size_t>(c + i) % sqls.size();
        bool ok = c % 2 == 0
                      ? BodyOf(Query(port, sqls[q])) == raw[q]
                      : BodyOf(Get(port, cube_target)) == cube_body;
        if (!ok) ++mismatches;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ------------------------------------------------------------- transport

TEST(CubeServerTest, LineProtocolExecutesSql) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(
      server->RegisterTable("Sales", Table3SalesTable().value()).ok());
  std::string response = HttpExchange(
      server->port(),
      "SELECT Model, SUM(Units) FROM Sales GROUP BY CUBE Model\n");
  EXPECT_EQ(response.find("HTTP/"), std::string::npos)
      << "line protocol must not emit HTTP framing";
  EXPECT_NE(response.find("ALL,510"), std::string::npos);
  std::string error = HttpExchange(server->port(), "SELECT FROM nothing\n");
  EXPECT_NE(error.find("ERROR: "), std::string::npos);
}

TEST(CubeServerTest, StatsEndpointsShareTheListener) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  std::string metrics = Get(server->port(), "/metrics");
  EXPECT_EQ(StatusOf(metrics), 200);
  EXPECT_NE(metrics.find("datacube_build_info{"), std::string::npos);
  EXPECT_EQ(StatusOf(Get(server->port(), "/queryz")), 200);
  EXPECT_EQ(StatusOf(Get(server->port(), "/tracez")), 200);
  EXPECT_EQ(StatusOf(Get(server->port(), "/varz")), 200);
  EXPECT_EQ(StatusOf(Post(server->port(), "/metrics", "x")), 405);
}

TEST(CubeServerTest, ErrorsMapToMeaningfulHttpStatuses) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  // Unknown table -> 404; parse error -> 400; missing q -> 400.
  EXPECT_EQ(StatusOf(Query(server->port(),
                           "SELECT a, SUM(b) FROM nope GROUP BY a")),
            404);
  EXPECT_EQ(StatusOf(Query(server->port(), "SELEKT nonsense")), 400);
  EXPECT_EQ(StatusOf(Get(server->port(), "/query")), 400);
  EXPECT_EQ(StatusOf(Get(server->port(), "/definitely-not-a-route")), 404);
  // A WHERE or HAVING that is not BOOL is a 400, and the server keeps
  // answering afterwards.
  ASSERT_TRUE(
      server->RegisterTable("Sales", Table3SalesTable().value()).ok());
  for (const char* sql :
       {"SELECT COUNT(*) FROM Sales WHERE Units",
        "SELECT Model FROM Sales WHERE Year + 1",
        "SELECT Model, SUM(Units) FROM Sales GROUP BY Model HAVING SUM(Units)",
        "EXPLAIN SELECT COUNT(*) FROM Sales WHERE Units"}) {
    EXPECT_EQ(StatusOf(Query(server->port(), sql)), 400) << sql;
  }
  // INT64 overflow in the interpreter is a 400, and x % -1 is 0 even for
  // INT64_MIN, whose hardware remainder would trap the whole server.
  Table extremes{Schema{{{"k", DataType::kString}, {"x", DataType::kInt64}}}};
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  ASSERT_TRUE(
      extremes.AppendRow({Value::String("lo"), Value::Int64(kMin)}).ok());
  ASSERT_TRUE(server->RegisterTable("Extremes", extremes).ok());
  for (const char* sql : {"SELECT k, -x FROM Extremes",
                          "SELECT k, x - 1 FROM Extremes",
                          "SELECT k, abs(x) FROM Extremes"}) {
    std::string overflow = Query(server->port(), sql);
    EXPECT_EQ(StatusOf(overflow), 400) << sql << "\n" << overflow;
    EXPECT_NE(overflow.find("integer overflow"), std::string::npos) << overflow;
  }
  std::string mod = Query(server->port(), "SELECT k, x % -1 FROM Extremes");
  EXPECT_EQ(StatusOf(mod), 200) << mod;
  EXPECT_NE(mod.find("lo,0"), std::string::npos) << mod;
  std::string ok = Query(server->port(),
                         "SELECT Model, SUM(Units) FROM Sales "
                         "WHERE Model = 'Chevy' GROUP BY Model");
  EXPECT_EQ(StatusOf(ok), 200) << ok;
  EXPECT_NE(ok.find("Chevy,290"), std::string::npos) << ok;
}

TEST(CubeServerTest, StopIsCleanWithInFlightWork) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(
      server
          ->RegisterTable("Big", GenerateSales({.num_rows = 200000}).value())
          .ok());
  std::thread runner([&] {
    Query(server->port(),
          "SELECT Model, Color, Dealer, SUM(Units) FROM Big "
          "GROUP BY CUBE Model, Color, Dealer");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  server->Stop();  // cancels live controls, drains, joins
  server->Stop();  // idempotent
  runner.join();
}

// ---------------------------------------------------------------- units

TEST(CubeServerTest, PartitionedIngestRetentionOverHttp) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);

  Schema schema{{{"ts", DataType::kInt64},
                 {"d", DataType::kString},
                 {"m", DataType::kInt64}}};
  CubeSpec spec;
  spec.cube.push_back(GroupExpr{Expr::Column("d"), "d"});
  AggregateSpec count;
  count.function = "count_star";
  count.output_name = "n";
  spec.aggregates.push_back(count);
  PartitionedCubeOptions popts;
  popts.partition_column = "ts";
  popts.window_width = 10;
  Result<std::unique_ptr<PartitionedCube>> store =
      PartitionedCube::Create(schema, spec, popts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE(server
                  ->RegisterPartitioned(
                      "events", std::shared_ptr<PartitionedCube>(
                                    std::move(*store)))
                  .ok());

  // CSV with header, then headerless, then the line protocol.
  std::string resp = Post(server->port(), "/ingest?table=events",
                          "ts,d,m\n5,a,1\n15,b,2\n25,c,3\n");
  EXPECT_EQ(StatusOf(resp), 200) << resp.substr(0, 200);
  resp = Post(server->port(), "/ingest?table=events&header=0", "35,a,4\n");
  EXPECT_EQ(StatusOf(resp), 200) << resp.substr(0, 200);
  resp = HttpExchange(server->port(), "INGEST events 45,b,5\n");
  EXPECT_NE(resp.find("ingested 1 rows"), std::string::npos) << resp;

  // Visible to SQL without any snapshot republish, and WHERE on the
  // partition key prunes (EXPLAIN carries the counts).
  resp = Query(server->port(), "SELECT COUNT(*) FROM events");
  EXPECT_NE(BodyOf(resp).find("5"), std::string::npos) << resp;
  resp = Query(server->port(),
               "EXPLAIN SELECT COUNT(*) FROM events WHERE ts >= 30");
  EXPECT_NE(BodyOf(resp).find("partitions: scanned=2  pruned=3  total=5"),
            std::string::npos)
      << BodyOf(resp);

  resp = Get(server->port(), "/partitions");
  EXPECT_EQ(StatusOf(resp), 200);
  EXPECT_NE(BodyOf(resp).find("\"name\":\"events\""), std::string::npos);

  resp = Post(server->port(), "/compact?table=events");
  EXPECT_EQ(StatusOf(resp), 200) << resp.substr(0, 200);
  resp = Post(server->port(), "/retention?table=events&windows=2");
  EXPECT_EQ(StatusOf(resp), 200) << resp.substr(0, 200);
  resp = Query(server->port(), "SELECT COUNT(*) FROM events");
  EXPECT_NE(BodyOf(resp).find("2"), std::string::npos) << resp;

  // /drop unbinds it like any table.
  resp = Post(server->port(), "/drop?name=events");
  EXPECT_EQ(StatusOf(resp), 200);
  resp = Query(server->port(), "SELECT COUNT(*) FROM events");
  EXPECT_EQ(StatusOf(resp), 404);
}

TEST(CubeServerTest, MaterializeDropRaceNeverLeavesOrphanCube) {
  // /materialize builds against a pinned snapshot, then republishes; a
  // concurrent /drop of the source table must either lose (the drop also
  // erases the new cube) or make the materialize fail with 409 — never
  // leave a mounted cube whose source table is gone.
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        server->RegisterTable("race_src", UniformTable(2000, 1), true).ok());
    std::thread mat([&] {
      std::string resp =
          Post(server->port(),
               "/materialize?name=race_cube&table=race_src&keys=k"
               "&aggs=sum(v)&budget_bytes=100000");
      // 200: built and mounted before the drop (which then erases it);
      // 409: the drop won between the build and the publish;
      // 404: the drop won before the build even pinned the table.
      int status = StatusOf(resp);
      EXPECT_TRUE(status == 200 || status == 409 || status == 404)
          << resp.substr(0, 200);
    });
    std::string resp = Post(server->port(), "/drop?name=race_src");
    EXPECT_EQ(StatusOf(resp), 200) << resp.substr(0, 200);
    mat.join();
    std::string tables = BodyOf(Get(server->port(), "/tables"));
    EXPECT_EQ(tables.find("race_cube"), std::string::npos)
        << "orphan cube after iteration " << i << ": " << tables;
  }
}

TEST(AdmissionGateTest, TicketsReleaseSlots) {
  AdmissionGate gate(2, 0);
  Result<AdmissionGate::Ticket> a = gate.Admit();
  Result<AdmissionGate::Ticket> b = gate.Admit();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(gate.in_flight(), 2);
  Result<AdmissionGate::Ticket> c = gate.Admit();
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kUnavailable);
  { AdmissionGate::Ticket moved = std::move(*a); }
  EXPECT_EQ(gate.in_flight(), 1);
  EXPECT_TRUE(gate.Admit().ok());
}

TEST(SnapshotHolderTest, UpdateIsCopyEditPublish) {
  SnapshotHolder holder;
  std::shared_ptr<const ServerSnapshot> v0 = holder.Get();
  ASSERT_NE(v0, nullptr);
  ASSERT_TRUE(holder
                  .Update([](ServerSnapshot& snap) {
                    return snap.catalog.Register("T", Table());
                  })
                  .ok());
  std::shared_ptr<const ServerSnapshot> v1 = holder.Get();
  EXPECT_EQ(v1->version, v0->version + 1);
  EXPECT_EQ(v0->catalog.size(), 0u);  // old snapshot untouched
  EXPECT_EQ(v1->catalog.size(), 1u);
}

}  // namespace
}  // namespace datacube::server
