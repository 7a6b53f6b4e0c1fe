#!/usr/bin/env python3
"""End-to-end smoke for cubed: concurrent clients, deadlines, slow-loris.

Usage: cubed_smoke.py <base-url>

Drives a running cubed (boot it first, e.g. `cubed --port 0` and scrape the
"listening on" line) through the serving surface the unit tests can't cover
end-to-end:

  * N concurrent /query clients issuing mini-SQL, all answers checked
  * register / query / drop round trip through snapshot swaps under load
  * hostile strings: a registered CSV holding an empty field, a quoted
    empty field, a blank, a comma, a quote, a newline and multi-byte UTF-8
    reads back whole through SELECT *, and a CUBE plus GROUP BYs under
    string WHEREs match sums the script computes itself (an unquoted empty
    CSV field reads as NULL, a quoted one as the empty string, which
    WHERE s = '' finds)
  * a per-query deadline that must come back 504, not hang
  * a slow-loris client dribbling bytes at /metrics while a fast scrape
    must still complete promptly (locks in the serial-accept-loop fix),
    with the loris itself ending in 408
  * method handling: POST /metrics is 405, HEAD /metrics is headers-only
  * line protocol: one-line SQL over a raw TCP connection
  * mounted cubes: /materialize over Sales under a small byte budget and
    without one (the core alone); /cube answers for several grouping sets
    must match the same GROUP BY through /query, and /tables lists both
  * ingest-under-query: one ingester streaming rows into the partitioned
    Events store while four queriers watch COUNT(*) (which must be
    monotonically non-decreasing — snapshots may lag but never travel
    backwards) and one client forces compaction passes throughout
  * multi-window ingest: one /ingest POST spanning three windows, a NULL
    ts and a row behind the newest window; a CUBE over exactly those rows
    must return the same CSV bytes as the same CSV /register-ed as a plain
    table (runs after ingest-under-query, at keys above it, so that
    scenario's windows stay in order)
  * WHERE paths: four concurrent clients run equality-WHERE GROUP BYs
    whose predicates run on the vectorized kernels, each checked against
    the same query with the predicate rewritten onto the interpreter
    (EXPLAIN must name both paths, over BigSales, which mounts no cube); a
    non-boolean WHERE is a 400 and /healthz still answers afterwards
  * aggregate navigation: answerable and non-answerable GROUP BYs over a
    registered table return the same bytes before and after /materialize
    mounts a cube over it, EXPLAIN names the cube for the answerable ones
    only, and /register?replace=1 with other rows makes /query follow the
    new rows and unmounts the cube

Exits nonzero with a message on the first failure.
"""

import json
import select
import socket
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

FAILURES = []


def fail(msg):
    FAILURES.append(msg)
    print(f"FAIL: {msg}", file=sys.stderr)


def fetch(url, method="GET", data=None, timeout=10):
    req = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as e:
        return e.code, e.read().decode()


def query(base, sql, extra=""):
    q = urllib.parse.quote(sql)
    return fetch(f"{base}/query?q={q}{extra}")


def check_concurrent_queries(base, num_clients=6, per_client=4):
    sql = "SELECT Model, SUM(Units) FROM Sales GROUP BY CUBE Model"
    errors = []

    def client(idx):
        for _ in range(per_client):
            status, body = query(base, sql)
            if status != 200:
                errors.append(f"client {idx}: HTTP {status}: {body.strip()}")
                return
            if "ALL,510" not in body:
                errors.append(f"client {idx}: bad cube result: {body!r}")
                return

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(num_clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for e in errors:
        fail(e)
    if not errors:
        print(f"ok: {num_clients} concurrent clients x {per_client} queries")


def check_register_roundtrip(base):
    csv = "kind,n\ncat,2\ndog,3\n"
    status, body = fetch(f"{base}/register?name=smoke_pets",
                         method="POST", data=csv.encode())
    if status != 200:
        return fail(f"/register: HTTP {status}: {body.strip()}")
    status, body = query(base,
                         "SELECT kind, SUM(n) FROM smoke_pets GROUP BY CUBE kind")
    if status != 200 or "ALL,5" not in body:
        return fail(f"query over registered table: HTTP {status}: {body!r}")
    status, body = fetch(f"{base}/drop?name=smoke_pets", method="POST")
    if status != 200:
        return fail(f"/drop: HTTP {status}: {body.strip()}")
    status, body = query(base, "SELECT kind, SUM(n) FROM smoke_pets GROUP BY kind")
    if status != 404:
        return fail(f"query after drop: expected 404, got {status}")
    print("ok: register / query / drop round trip")


HOSTILE_ROWS = [
    # s, n: every n a distinct power of two, so each sum names its rows
    (None, 1),  # an unquoted empty field: NULL
    ("", 512),  # a quoted empty field: the empty string
    (" ", 2),
    ("a,b", 4),
    ('say "hi"', 8),
    ("line\nbreak", 16),
    ("\u65e5\u672c\u8a9e", 32),
    ("zeta", 64),
    (" ", 128),
    ("a,b", 256),
]


def csv_cells(body):
    """Rows after the header, read as the server's CSV reader reads them:
    an unquoted empty field is None (NULL), a quoted one the empty string."""
    rows, row, cell, quoted, in_quotes, i = [], [], "", False, False, 0
    while i < len(body):
        c = body[i]
        if in_quotes:
            if c == '"' and body[i + 1:i + 2] == '"':
                cell += '"'
                i += 1
            elif c == '"':
                in_quotes = False
            else:
                cell += c
        elif c == '"':
            in_quotes = quoted = True
        elif c in ",\n":
            row.append(cell if cell or quoted else None)
            cell, quoted = "", False
            if c == "\n":
                rows.append(row)
                row = []
        else:
            cell += c
        i += 1
    return rows[1:]


def check_hostile_strings(base):
    def quote(v):
        return "" if v is None else '"' + v.replace('"', '""') + '"'
    data = "s,n\n" + "".join(f"{quote(s)},{n}\n" for s, n in HOSTILE_ROWS)
    status, body = fetch(f"{base}/register?name=smoke_strings",
                         method="POST", data=data.encode())
    if status != 200:
        return fail(f"/register smoke_strings: HTTP {status}: {body.strip()}")
    status, body = query(base, "SELECT * FROM smoke_strings")
    want = [[s, str(n)] for s, n in HOSTILE_ROWS]
    if status != 200 or csv_cells(body) != want:
        return fail(f"SELECT * over hostile strings: HTTP {status}: {body!r}")

    def sums(rows):
        out = {}
        for s, n in rows:
            out[s] = out.get(s, 0) + n
        return out

    def answer(sql):
        status, body = query(base, sql)
        if status != 200:
            fail(f"{sql}: HTTP {status}: {body.strip()}")
            return None
        return {row[0]: int(row[1]) for row in csv_cells(body)}

    # NULL renders as an unquoted empty field, the empty string as "" and
    # the super-aggregate as ALL.
    cube = sums(HOSTILE_ROWS)
    cube["ALL"] = sum(n for _, n in HOSTILE_ROWS)
    below_m = sums((s, n) for s, n in HOSTILE_ROWS
                   if s is not None and s.encode() < b"m")
    checks = [
        ("SELECT s, SUM(n) FROM smoke_strings GROUP BY CUBE s", cube),
        ("SELECT s, SUM(n) FROM smoke_strings WHERE s = '' GROUP BY s",
         {"": 512}),
        ("SELECT s, SUM(n) FROM smoke_strings WHERE s < 'm' GROUP BY s",
         below_m),
    ]
    for sql, expected in checks:
        got = answer(sql)
        if got is not None and got != expected:
            return fail(f"{sql}: got {got}, expected {expected}")
    fetch(f"{base}/drop?name=smoke_strings", method="POST")
    print("ok: hostile strings (SELECT * round trip, CUBE and string WHEREs "
          "match the script's sums)")


def check_deadline(base):
    sql = ("SELECT Model, Color, Dealer, SUM(Units), AVG(Price) "
           "FROM BigSales GROUP BY CUBE Model, Color, Dealer")
    for _ in range(3):
        status, body = query(base, sql, "&deadline_ms=1")
        if status == 504:
            print("ok: 1ms deadline came back 504")
            return
    fail(f"deadline query: expected 504, last got {status}: {body.strip()}")


def check_slow_loris(base):
    host, port = urllib.parse.urlparse(base).netloc.rsplit(":", 1)
    loris_result = {}

    def loris():
        s = socket.create_connection((host, int(port)), timeout=15)
        try:
            s.sendall(b"GET /metrics HTTP/1.1\r\n")
            # Dribble header bytes until the server answers (408) or the
            # dribble budget runs out; poll for the response between bytes
            # so it is read while the server is still draining us.
            data = b""
            for ch in b"X-Slow: " + b"a" * 200:
                if select.select([s], [], [], 0)[0]:
                    break
                try:
                    s.sendall(bytes([ch]))
                except OSError:
                    break
                time.sleep(0.05)
            s.settimeout(10)
            try:
                while chunk := s.recv(4096):
                    data += chunk
            except OSError:
                pass
            loris_result["response"] = data.decode(errors="replace")
        finally:
            s.close()

    t = threading.Thread(target=loris)
    t.start()
    time.sleep(0.3)  # let the loris get its claws in
    start = time.monotonic()
    status, body = fetch(f"{base}/metrics")
    elapsed = time.monotonic() - start
    if status != 200:
        fail(f"scrape during slow-loris: HTTP {status}")
    elif elapsed > 2.0:
        fail(f"scrape during slow-loris took {elapsed:.2f}s "
             "(serial connection handling regression)")
    else:
        print(f"ok: /metrics scraped in {elapsed * 1000:.0f}ms "
              "while a slow-loris client stalled")
    t.join()
    resp = loris_result.get("response", "")
    if "408" not in resp.split("\r\n", 1)[0]:
        fail(f"slow-loris client: expected 408, got {resp[:80]!r}")
    else:
        print("ok: slow-loris client answered 408")


def check_methods(base):
    status, _ = fetch(f"{base}/metrics", method="POST", data=b"x")
    if status != 405:
        fail(f"POST /metrics: expected 405, got {status}")
    else:
        print("ok: POST /metrics rejected with 405")
    req = urllib.request.Request(f"{base}/metrics", method="HEAD")
    with urllib.request.urlopen(req, timeout=10) as resp:
        clen = int(resp.headers["Content-Length"])
        body = resp.read()
    if clen <= 0 or body:
        fail(f"HEAD /metrics: Content-Length {clen}, body {len(body)} bytes")
    else:
        print("ok: HEAD /metrics is headers-only with true Content-Length")


def check_line_protocol(base):
    host, port = urllib.parse.urlparse(base).netloc.rsplit(":", 1)
    s = socket.create_connection((host, int(port)), timeout=10)
    s.sendall(b"SELECT Model, SUM(Units) FROM Sales GROUP BY CUBE Model\n")
    data = b""
    while chunk := s.recv(4096):
        data += chunk
    s.close()
    text = data.decode()
    if "HTTP/" in text or "ALL,510" not in text:
        return fail(f"line protocol: unexpected response {text[:120]!r}")
    print("ok: line protocol answered raw CSV")


def check_introspection(base):
    status, body = fetch(f"{base}/healthz")
    if status != 200 or not json.loads(body).get("ok"):
        return fail(f"/healthz: HTTP {status}: {body.strip()}")
    status, body = fetch(f"{base}/tables")
    names = [t["name"] for t in json.loads(body)["tables"]]
    if "Sales" not in names or "BigSales" not in names:
        return fail(f"/tables missing preloads: {names}")
    status, body = fetch(f"{base}/queries")
    json.loads(body)
    print("ok: /healthz /tables /queries")


def check_mounted_cubes(base):
    keys = ["Model", "Year", "Color"]
    aggs = urllib.parse.quote("count(*),sum(Units)")
    cubes = {"smoke_budget": 2048, "smoke_core": 0}
    for name, budget in cubes.items():
        url = (f"{base}/materialize?name={name}&table=Sales"
               f"&keys={','.join(keys)}&aggs={aggs}")
        if budget:
            url += f"&budget_bytes={budget}"
        status, body = fetch(url, method="POST", data=b"")
        if status != 200:
            return fail(f"/materialize {name}: HTTP {status}: {body.strip()}")
        for subset in ([], ["Model"], ["Year", "Color"], keys):
            status, body = fetch(
                f"{base}/cube?name={name}&set={','.join(subset)}")
            if status != 200:
                return fail(f"/cube {name} {subset}: HTTP {status}: {body!r}")
            lines = body.strip().splitlines()
            header = lines[0].split(",")
            got = sorted(tuple(row[header.index(k)] for k in subset) +
                         tuple(row[-2:])
                         for row in (line.split(",") for line in lines[1:]))
            cols = "".join(f"{k}, " for k in subset)
            sql = f"SELECT {cols}COUNT(*), SUM(Units) FROM Sales"
            if subset:
                sql += " GROUP BY " + ", ".join(subset)
            status, body = query(base, sql)
            if status != 200:
                return fail(f"{sql}: HTTP {status}: {body.strip()}")
            want = sorted(tuple(line.split(","))
                          for line in body.strip().splitlines()[1:])
            if got != want:
                return fail(f"/cube {name} {subset}: {got} != {want}")
    status, body = fetch(f"{base}/tables")
    listed = {c["name"]: c for c in json.loads(body)["cubes"]}
    for name, budget in cubes.items():
        entry = listed.get(name)
        if (entry is None or entry["budget_bytes"] != budget or
                entry["views"] < 1 or entry["cells"] < 1):
            return fail(f"/tables cube {name}: {entry}")
    if listed["smoke_core"]["views"] != 1:
        return fail(f"unbudgeted cube stores more than the core: {listed}")
    print("ok: mounted cubes (/materialize with and without a budget, "
          "/cube vs GROUP BY, /tables)")


def check_ingest_under_query(base, batches=30, rows_per_batch=20):
    """One ingester, four COUNT(*) queriers, one compaction forcer.

    The partitioned store swaps immutable partition lists while ingest
    appends to open deltas, so a reader may see a count that lags the
    ingester -- but it must never see one shrink (that would mean a read
    caught a half-published compaction or lost a delta)."""
    status, body = fetch(f"{base}/partitions")
    if status != 200 or "Events" not in body:
        return fail(f"/partitions: HTTP {status}: {body[:120]!r}")
    status, body = query(base, "SELECT COUNT(*) FROM Events")
    if status != 200:
        return fail(f"COUNT over Events: HTTP {status}: {body.strip()}")
    base_count = int(body.strip().splitlines()[-1])

    stop = threading.Event()
    errors = []

    def ingester():
        sources = ["web", "app", "api"]
        for b in range(batches):
            lines = []
            for r in range(rows_per_batch):
                ts = 100_000 + b * 500 + r  # crosses window boundaries
                # Every batch brings a source no batch had: the windows'
                # string dictionaries grow under the queriers.
                source = f"smoke{b}" if r == 0 else sources[r % 3]
                lines.append(f"{ts},{source},smoke,{r}")
            body = "\n".join(lines).encode()
            status, text = fetch(f"{base}/ingest?table=Events&header=0",
                                 method="POST", data=body)
            if status != 200:
                errors.append(f"ingester: HTTP {status}: {text.strip()}")
                return
            time.sleep(0.01)

    def querier(idx):
        last = base_count
        while not stop.is_set():
            status, body = query(base, "SELECT COUNT(*) FROM Events")
            if status != 200:
                errors.append(f"querier {idx}: HTTP {status}: {body.strip()}")
                return
            count = int(body.strip().splitlines()[-1])
            if count < last:
                errors.append(
                    f"querier {idx}: COUNT(*) went backwards: {last} -> {count}")
                return
            last = count

    def compactor():
        while not stop.is_set():
            status, body = fetch(f"{base}/compact?table=Events",
                                 method="POST", data=b"")
            if status != 200:
                errors.append(f"compactor: HTTP {status}: {body.strip()}")
                return
            time.sleep(0.05)

    ingest_thread = threading.Thread(target=ingester)
    others = [threading.Thread(target=querier, args=(i,)) for i in range(4)]
    others.append(threading.Thread(target=compactor))
    ingest_thread.start()
    for t in others:
        t.start()
    ingest_thread.join()
    stop.set()
    for t in others:
        t.join()
    for e in errors:
        fail(e)
    if errors:
        return
    status, body = query(base, "SELECT COUNT(*) FROM Events")
    final = int(body.strip().splitlines()[-1])
    expected = base_count + batches * rows_per_batch
    if final != expected:
        return fail(f"ingest total: expected {expected}, got {final}")
    status, body = query(
        base, "SELECT COUNT(*) FROM Events WHERE ts >= 100000")
    if status != 200 or int(body.strip().splitlines()[-1]) != batches * rows_per_batch:
        return fail(f"pruned count over ingested range: HTTP {status}: {body!r}")
    print(f"ok: ingest-under-query ({expected} rows, 4 queriers monotonic, "
          "compaction forced throughout)")


MULTI_WINDOW_ROWS = [
    # ts (window width 1000 in cubed), source, kind, units
    ("300010", "web", "mw_view", 3),
    ("300500", "app", "mw_click", 5),
    ("301200", "web", "mw_click", 2),
    ("302700", "api", "mw_view", 7),
    ("", "app", "mw_view", 11),       # NULL ts: the NULL window
    ("300900", "web", "mw_view", 13),  # behind the newest window (302)
    ("301999", "api", "mw_click", 17),
]


def check_multi_window_ingest(base):
    csv = "".join(f"{ts},{src},{kind},{units}\n"
                  for ts, src, kind, units in MULTI_WINDOW_ROWS)
    status, body = fetch(f"{base}/ingest?table=Events&header=0",
                         method="POST", data=csv.encode())
    if status != 200:
        return fail(f"multi-window /ingest: HTTP {status}: {body.strip()}")
    status, body = fetch(f"{base}/register?name=smoke_multiwin",
                         method="POST",
                         data=("ts,source,kind,units\n" + csv).encode())
    if status != 200:
        return fail(f"/register smoke_multiwin: HTTP {status}: {body.strip()}")
    answers = {}
    for table in ("Events", "smoke_multiwin"):
        status, body = query(
            base, f"SELECT source, kind, COUNT(*), SUM(units) FROM {table} "
                  "WHERE kind = 'mw_view' OR kind = 'mw_click' "
                  "GROUP BY CUBE source, kind")
        if status != 200:
            return fail(f"multi-window CUBE over {table}: HTTP {status}: "
                        f"{body.strip()}")
        answers[table] = body
    if answers["Events"] != answers["smoke_multiwin"]:
        return fail(f"multi-window ingest: partitioned CUBE "
                    f"{answers['Events']!r} != plain table "
                    f"{answers['smoke_multiwin']!r}")
    total = f"ALL,ALL,{len(MULTI_WINDOW_ROWS)},"
    if total not in answers["Events"]:
        return fail(f"multi-window ingest: no {total!r} row in "
                    f"{answers['Events']!r}")
    # A bound on whole windows (width 1000): the window cubes answer, with
    # the plain table's bytes. A bound inside a window reads rows.
    def windowed(table, lo):
        return (f"SELECT source, kind, COUNT(*), SUM(units) FROM {table} "
                f"WHERE ts >= {lo} GROUP BY CUBE source, kind")
    for table in ("Events", "smoke_multiwin"):
        status, body = query(base, windowed(table, 300000))
        if status != 200:
            return fail(f"aligned CUBE over {table}: HTTP {status}: "
                        f"{body.strip()}")
        answers[table] = body
    if answers["Events"] != answers["smoke_multiwin"]:
        return fail(f"window answer {answers['Events']!r} != plain table "
                    f"{answers['smoke_multiwin']!r}")
    for lo, answered in ((300000, True), (300001, False)):
        status, body = query(base, "EXPLAIN " + windowed("Events", lo))
        if status != 200 or ("window cubes of Events" in body) != answered:
            return fail(f"EXPLAIN ts >= {lo}: HTTP {status}: expected the "
                        f"window answer {answered}: {body!r}")
    fetch(f"{base}/drop?name=smoke_multiwin", method="POST")
    print(f"ok: multi-window ingest ({len(MULTI_WINDOW_ROWS)} rows over "
          "3 windows, NULL ts and a late row; CUBE == plain-table CUBE; "
          "whole-window bounds answered from the window cubes)")


# Per table: (vectorized WHERE, the same predicate written so that it runs
# on the interpreter).
WHERE_PAIRS = {
    "Sales": [
        ("Model = 'Chevy'", "Model LIKE 'Chevy'"),
        ("Units > 50", "Units + 0 > 50"),
        ("Year = 1994 AND Color <> 'white'",
         "Year + 0 = 1994 AND NOT (Color LIKE 'white')"),
        ("Color = 'black' OR Units IS NULL",
         "Color LIKE 'black' OR Units IS NULL"),
    ],
    "BigSales": [
        ("Model = 'model1'", "Model LIKE 'model1'"),
        ("Units > 50", "Units + 0 > 50"),
        ("Year >= 1992 AND Color <> 'color0'",
         "Year + 0 >= 1992 AND NOT (Color LIKE 'color0')"),
        ("NOT (Price < 30000.0) OR Dealer IS NULL",
         "NOT (Price + 0 < 30000.0) OR Dealer IS NULL"),
    ],
}


def where_groupby(table, predicate):
    return (f"SELECT Color, COUNT(*), SUM(Units) FROM {table} "
            f"WHERE {predicate} GROUP BY Color")


def check_where_paths(base, num_clients=4, rounds=3):
    # Over BigSales: a cube mounted over Sales answers its equality GROUP BYs
    # without a WHERE pass.
    fast, slow = WHERE_PAIRS["BigSales"][0]
    for predicate, path in ((fast, "vectorized"), (slow, "interpreted")):
        status, body = query(base,
                             "EXPLAIN " + where_groupby("BigSales", predicate))
        if status != 200 or f"where: path={path}" not in body:
            return fail(f"EXPLAIN WHERE {predicate}: HTTP {status}: "
                        f"expected path={path}: {body!r}")
    errors = []

    def client(idx):
        for r in range(rounds):
            table = "Sales" if (idx + r) % 2 == 0 else "BigSales"
            pairs = WHERE_PAIRS[table]
            fast, slow = pairs[(idx + r) % len(pairs)]
            answers = []
            for predicate in (fast, slow):
                status, body = query(base, where_groupby(table, predicate))
                if status != 200:
                    errors.append(f"client {idx}: WHERE {predicate}: "
                                  f"HTTP {status}: {body.strip()}")
                    return
                answers.append(sorted(body.strip().splitlines()))
            if answers[0] != answers[1] or len(answers[0]) < 2:
                errors.append(f"client {idx}: {table} WHERE {fast}: "
                              f"{answers[0]} != {answers[1]}")
                return

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(num_clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for e in errors:
        fail(e)
    if errors:
        return
    status, body = query(base, "SELECT COUNT(*) FROM Sales WHERE Units")
    if status != 400:
        return fail(f"non-boolean WHERE: expected 400, got {status}: {body!r}")
    status, body = fetch(f"{base}/healthz")
    if status != 200:
        return fail(f"/healthz after a non-boolean WHERE: HTTP {status}")
    print(f"ok: WHERE paths ({num_clients} clients, vectorized == "
          "interpreted answers; non-boolean WHERE -> 400)")


def nav_rows(units):
    lines = ["Model,Year,Color,Units"]
    for i in range(60):
        model = ("Chevy", "Ford", "Dodge")[i % 3]
        color = ("red", "white", "blue", "black")[i % 4]
        lines.append(f"{model},{1990 + i % 5},{color},{units(i)}")
    return "\n".join(lines) + "\n"


NAV_ANSWERABLE = [
    "SELECT Color, COUNT(*), SUM(Units) FROM {t} WHERE Model = 'Chevy' "
    "GROUP BY Color",
    "SELECT Model, Year, COUNT(*), MIN(Units) FROM {t} "
    "GROUP BY ROLLUP Model, Year",
    "SELECT Year, SUM(Units) FROM {t} WHERE Color = 'red' AND Model = 'Ford' "
    "GROUP BY CUBE Year ORDER BY 2 DESC",
    "SELECT COUNT(*), MAX(Units) FROM {t} WHERE Year = 1992",
]
NAV_RAW = [
    "SELECT Color, AVG(Units) FROM {t} GROUP BY Color",
    "SELECT Color, SUM(Units) FROM {t} WHERE Year > 1990 GROUP BY Color",
    "SELECT Model, COUNT(*) FROM {t} WHERE Units = 3 GROUP BY Model",
]


def check_aggregate_navigation(base):
    def register(name, csv, replace=False):
        url = f"{base}/register?name={name}" + ("&replace=1" if replace else "")
        status, body = fetch(url, method="POST", data=csv.encode())
        if status != 200:
            fail(f"/register {name}: HTTP {status}: {body.strip()}")
        return status == 200

    def answers(table):
        out = []
        for sql in NAV_ANSWERABLE + NAV_RAW:
            status, body = query(base, sql.format(t=table))
            if status != 200:
                fail(f"{sql.format(t=table)}: HTTP {status}: {body.strip()}")
            out.append(body)
        return out

    if not register("nav_sales", nav_rows(lambda i: i * 7 % 13 + 1)):
        return
    before = answers("nav_sales")
    aggs = urllib.parse.quote("count(*),sum(Units),min(Units),max(Units)")
    status, body = fetch(f"{base}/materialize?name=nav_cube&table=nav_sales"
                         f"&keys=Model,Year,Color&aggs={aggs}"
                         "&budget_bytes=4096", method="POST", data=b"")
    if status != 200:
        return fail(f"/materialize nav_cube: HTTP {status}: {body.strip()}")
    after = answers("nav_sales")
    for sql, a, b in zip(NAV_ANSWERABLE + NAV_RAW, before, after):
        if a != b:
            return fail(f"mounted cube changed the bytes of {sql}: "
                        f"{a!r} != {b!r}")
    for sql in NAV_ANSWERABLE + NAV_RAW:
        status, body = query(base, "EXPLAIN " + sql.format(t="nav_sales"))
        named = "answered from cube nav_cube" in body
        if status != 200 or named != (sql in NAV_ANSWERABLE):
            return fail(f"EXPLAIN {sql}: HTTP {status}, names the cube: "
                        f"{named}: {body!r}")
    # Other rows under the same name: /query must follow them (the same rows
    # registered under a second name give the expected bytes), and the cube
    # must be gone.
    replacement = nav_rows(lambda i: i * 5 % 11 + 2)
    if not (register("nav_sales", replacement, replace=True) and
            register("nav_check", replacement)):
        return
    if answers("nav_sales") != answers("nav_check"):
        return fail("/query over a replaced table did not follow its rows")
    status, body = fetch(f"{base}/tables")
    cubes = [c["name"] for c in json.loads(body)["cubes"]]
    if "nav_cube" in cubes:
        return fail(f"/register?replace=1 left the cube mounted: {cubes}")
    for name in ("nav_sales", "nav_check"):
        fetch(f"{base}/drop?name={name}", method="POST")
    print(f"ok: aggregate navigation ({len(NAV_ANSWERABLE)} answered from "
          f"the cube, {len(NAV_RAW)} from rows, same bytes; replace unmounts)")


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base = sys.argv[1].rstrip("/")
    check_concurrent_queries(base)
    check_register_roundtrip(base)
    check_hostile_strings(base)
    check_deadline(base)
    check_slow_loris(base)
    check_methods(base)
    check_line_protocol(base)
    check_introspection(base)
    check_mounted_cubes(base)
    check_ingest_under_query(base)
    check_multi_window_ingest(base)
    check_where_paths(base)
    check_aggregate_navigation(base)
    if FAILURES:
        print(f"{len(FAILURES)} failure(s)", file=sys.stderr)
        return 1
    print("cubed smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
