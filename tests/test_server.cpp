/**
 * @file
 * SimServer tests, driven in-process over loopback TCP: NDJSON
 * request/response exchange, the full status taxonomy (ok, error,
 * malformed, oversized, deadline_exceeded, overloaded, shutting_down),
 * idempotent result caching, bit-identity with SimSession::run, and
 * graceful drain. A small blocking client wraps the raw socket; every
 * test starts its own ephemeral-port server and shuts it down.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/common/json.hpp"
#include "src/common/logging.hpp"
#include "src/service/server.hpp"
#include "src/service/session.hpp"

namespace dise {
namespace {

/** Blocking NDJSON client for one loopback connection. */
class Client
{
  public:
    explicit Client(int port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            fatal("client: socket() failed");
        sockaddr_in addr = {};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(uint16_t(port));
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0)
            fatal("client: connect() failed");
    }

    ~Client() { close(); }

    void
    close()
    {
        if (fd_ >= 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

    void
    sendLine(const std::string &body, bool newline = true)
    {
        const std::string line = newline ? body + "\n" : body;
        size_t off = 0;
        while (off < line.size()) {
            const ssize_t n =
                ::send(fd_, line.data() + off, line.size() - off, 0);
            if (n <= 0)
                fatal("client: send() failed");
            off += size_t(n);
        }
    }

    void sendLine(const Json &doc) { sendLine(doc.dump()); }

    /** Read one newline-terminated response (blocking). */
    Json
    readLine()
    {
        for (;;) {
            const size_t pos = buf_.find('\n');
            if (pos != std::string::npos) {
                const std::string line = buf_.substr(0, pos);
                buf_.erase(0, pos + 1);
                return Json::parse(line);
            }
            char chunk[4096];
            const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0)
                fatal("client: connection closed mid-read");
            buf_.append(chunk, size_t(n));
        }
    }

    /** Read until the response with this seq arrives; responses for
     *  other seqs (completion order is not request order) are stashed
     *  and served on their own lookups. */
    Json
    readSeq(uint64_t seq)
    {
        for (size_t i = 0; i < stash_.size(); ++i) {
            if (stash_[i]["seq"].asUInt() == seq) {
                Json doc = stash_[i];
                stash_.erase(stash_.begin() + long(i));
                return doc;
            }
        }
        for (;;) {
            Json doc = readLine();
            if (doc["seq"].asUInt() == seq)
                return doc;
            stash_.push_back(std::move(doc));
        }
    }

  private:
    int fd_ = -1;
    std::string buf_;
    std::vector<Json> stash_;
};

Json
runReq(const std::string &id, const std::string &workload = "twolf")
{
    Json doc = Json::object();
    doc["id"] = Json(id);
    doc["workload"] = Json(workload);
    return doc;
}

/** Strip the serving envelope and host-dependent fields, leaving
 *  exactly what `diserun --batch` would have produced for the job. */
Json
stripEnvelope(const Json &doc)
{
    Json out = Json::object();
    for (const auto &kv : doc.members()) {
        if (kv.first == "seq" || kv.first == "status" ||
            kv.first == "latency_ms" || kv.first == "host")
            continue;
        out[kv.first] = kv.second;
    }
    if (out.contains("detail") && out["detail"].isObject() &&
        out["detail"].contains("host")) {
        Json detail = Json::object();
        for (const auto &kv : out["detail"].members())
            if (kv.first != "host")
                detail[kv.first] = kv.second;
        out["detail"] = std::move(detail);
    }
    return out;
}

struct ServerFixture
{
    explicit ServerFixture(ServerConfig config = {})
        : server(patch(std::move(config)))
    {
        server.start();
    }

    // ~SimServer drains on destruction if the test did not already
    // requestShutdown()+wait() itself.

    static ServerConfig
    patch(ServerConfig config)
    {
        config.listen = ":0"; // loopback, ephemeral
        return config;
    }

    SimServer server;
};

} // namespace

TEST(SimServer, RunStatsAndErrorStatuses)
{
    ServerFixture fx;
    Client client(fx.server.port());

    client.sendLine(runReq("ok-job"));
    Json ok = client.readSeq(1);
    EXPECT_EQ(ok["status"].asString(), "ok");
    EXPECT_EQ(ok["id"].asString(), "ok-job");
    EXPECT_TRUE(ok["ok"].asBool());
    EXPECT_TRUE(ok.contains("latency_ms"));
    EXPECT_GT(ok["run"]["dyn_insts"].asUInt(), 0u);

    client.sendLine(std::string("{ not json"));
    Json malformed = client.readSeq(2);
    EXPECT_EQ(malformed["status"].asString(), "malformed");

    client.sendLine(runReq("bad", "no_such_workload"));
    Json error = client.readSeq(3);
    EXPECT_EQ(error["status"].asString(), "error");
    EXPECT_EQ(error["id"].asString(), "bad");
    EXPECT_FALSE(error["ok"].asBool());

    Json badKey = runReq("bad-key");
    badKey["frobnicate"] = Json(true);
    client.sendLine(badKey);
    Json rejected = client.readSeq(4);
    EXPECT_EQ(rejected["status"].asString(), "error");
    EXPECT_NE(rejected["error"].asString().find("frobnicate"),
              std::string::npos);

    Json stats = Json::object();
    stats["kind"] = Json(std::string("stats"));
    client.sendLine(stats);
    Json live = client.readSeq(5);
    EXPECT_EQ(live["status"].asString(), "ok");
    EXPECT_EQ(live["stats"]["server"]["status_ok"].asUInt(), 1u);
    EXPECT_EQ(live["stats"]["server"]["status_malformed"].asUInt(), 1u);
    EXPECT_EQ(live["stats"]["server"]["status_error"].asUInt(), 2u);
}

TEST(SimServer, AcceptedTcpConnectionsSetNoDelay)
{
    // Each response is one small send; with Nagle's algorithm on, a
    // response written while the previous one is unacknowledged waits
    // for the client's delayed ACK (in practice, its next request). The
    // server's end of every accepted TCP connection must set
    // TCP_NODELAY: find it among this process's sockets — bound to the
    // server's port and connected to a peer, unlike the listener.
    ServerFixture fx;
    Client client(fx.server.port());
    client.sendLine(std::string("not json"));
    EXPECT_EQ(client.readLine()["status"].asString(), "malformed");
    int accepted = 0;
    for (int fd = 0; fd < 1024; ++fd) {
        sockaddr_in local = {};
        sockaddr_in peer = {};
        socklen_t len = sizeof(local);
        if (::getsockname(fd, reinterpret_cast<sockaddr *>(&local),
                          &len) != 0 ||
            local.sin_family != AF_INET ||
            ntohs(local.sin_port) != fx.server.port())
            continue;
        len = sizeof(peer);
        if (::getpeername(fd, reinterpret_cast<sockaddr *>(&peer),
                          &len) != 0)
            continue; // the listening socket
        int noDelay = 0;
        socklen_t optLen = sizeof(noDelay);
        ASSERT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &noDelay,
                               &optLen),
                  0);
        EXPECT_NE(noDelay, 0) << "accepted fd " << fd;
        ++accepted;
    }
    EXPECT_EQ(accepted, 1);
}

TEST(SimServer, OversizedLineFailsOnlyThatRequest)
{
    ServerConfig config;
    config.maxLineBytes = 4096;
    ServerFixture fx(config);
    Client client(fx.server.port());

    client.sendLine(std::string(10000, 'x'));
    Json oversized = client.readSeq(1);
    EXPECT_EQ(oversized["status"].asString(), "oversized");

    // The connection survives and the next request runs normally.
    client.sendLine(runReq("after"));
    Json ok = client.readSeq(2);
    EXPECT_EQ(ok["status"].asString(), "ok");
}

TEST(SimServer, OversizedStreamWithoutNewlineIsDiscardedNotBuffered)
{
    ServerConfig config;
    config.maxLineBytes = 4096;
    ServerFixture fx(config);
    Client client(fx.server.port());

    // A newline-free stream far past the cap: exactly one "oversized"
    // answer when the cap trips, then every later chunk must be
    // dropped (not buffered) until the terminating newline arrives.
    client.sendLine(std::string(6000, 'x') + std::string(5000, 'y') +
                        std::string(8000, 'z'),
                    /*newline=*/false);
    Json oversized = client.readSeq(1);
    EXPECT_EQ(oversized["status"].asString(), "oversized");

    // End the oversized line; the connection must be clean again —
    // the next request is seq 2, which also proves no duplicate
    // "oversized" answers were emitted for the discarded tail.
    client.sendLine(std::string());
    client.sendLine(runReq("after"));
    Json ok = client.readSeq(2);
    EXPECT_EQ(ok["status"].asString(), "ok");
    EXPECT_EQ(ok["id"].asString(), "after");
}

TEST(SimServer, ResultCacheIsBoundedWithLruEviction)
{
    ServerConfig config;
    config.maxCachedResults = 1;
    ServerFixture fx(config);
    Client client(fx.server.port());

    // Two distinct request bodies (different max_insts, both large
    // enough not to matter): with a one-entry cap the second evicts
    // the first instead of growing the cache.
    Json first = runReq("first");
    first["max_insts"] = Json(uint64_t(1) << 40);
    client.sendLine(first);
    EXPECT_EQ(client.readSeq(1)["status"].asString(), "ok");
    Json second = runReq("second");
    second["max_insts"] = Json((uint64_t(1) << 40) + 1);
    client.sendLine(second);
    EXPECT_EQ(client.readSeq(2)["status"].asString(), "ok");

    Json stats = Json::object();
    stats["kind"] = Json(std::string("stats"));
    client.sendLine(stats);
    Json live = client.readSeq(3);
    EXPECT_LE(live["stats"]["server"]["result_cache_entries"].asUInt(),
              1u);
}

TEST(SimServer, WaiterOnInFlightBuildHonorsItsOwnDeadline)
{
    ServerFixture fx;
    Client builder(fx.server.port());
    Client waiter(fx.server.port());

    // The builder starts a slow run with no deadline; the waiter sends
    // the identical body (same cache key — ids are excluded) with a
    // 1 ms budget. Joining the in-flight build must not let the waiter
    // answer "ok" long after its own deadline passed.
    builder.sendLine(runReq("leader", "mcf"));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    Json late = runReq("follower", "mcf");
    late["deadline_ms"] = Json(uint64_t(1));
    waiter.sendLine(late);

    Json follower = waiter.readSeq(1);
    EXPECT_EQ(follower["status"].asString(), "deadline_exceeded");
    EXPECT_FALSE(follower["ok"].asBool());
    Json leader = builder.readSeq(1);
    EXPECT_EQ(leader["status"].asString(), "ok");
}

TEST(SimServer, ResponsesBitIdenticalToDirectSession)
{
    ServerFixture fx;
    Client client(fx.server.port());
    client.sendLine(runReq("direct"));
    const Json served = stripEnvelope(client.readSeq(1));

    SimSession session({1});
    RunRequest req;
    req.id = "direct";
    req.workload = "twolf";
    const Json direct = stripEnvelope(session.run(req).toJson());
    EXPECT_EQ(served.dump(), direct.dump());
}

TEST(SimServer, IdenticalRequestsHitTheResultCache)
{
    ServerFixture fx;
    Client client(fx.server.port());

    client.sendLine(runReq("first"));
    Json first = client.readSeq(1);
    // Same body, different id: the cache key excludes the label, so
    // this must be a hit — and the response must carry OUR id.
    client.sendLine(runReq("second"));
    Json second = client.readSeq(2);
    EXPECT_EQ(second["status"].asString(), "ok");
    EXPECT_EQ(second["id"].asString(), "second");
    EXPECT_EQ(stripEnvelope(first)["run"].dump(),
              stripEnvelope(second)["run"].dump());

    Json stats = Json::object();
    stats["kind"] = Json(std::string("stats"));
    client.sendLine(stats);
    Json live = client.readSeq(3);
    EXPECT_GE(live["stats"]["server"]["cache_hits"].asUInt(), 1u);
}

TEST(SimServer, DeadlineExceededIsStructuredNotFatal)
{
    ServerFixture fx;
    Client client(fx.server.port());

    // An expensive run with a 1 ms budget cannot finish; the deadline
    // monitor must end it cooperatively with a structured status.
    Json doomed = runReq("doomed", "mcf");
    doomed["deadline_ms"] = Json(uint64_t(1));
    client.sendLine(doomed);
    Json resp = client.readSeq(1);
    EXPECT_EQ(resp["status"].asString(), "deadline_exceeded");
    EXPECT_FALSE(resp["ok"].asBool());

    // The daemon is unharmed; the next request succeeds.
    client.sendLine(runReq("after"));
    EXPECT_EQ(client.readSeq(2)["status"].asString(), "ok");
}

TEST(SimServer, BackpressureShedsWithRetryAfter)
{
    ServerConfig config;
    config.executors = 1;
    config.maxPending = 2;
    config.maxPendingPerClient = 2;
    ServerFixture fx(config);
    Client client(fx.server.port());

    // Flood: at most maxPending admitted at once, the rest must shed
    // immediately with a structured overloaded response. mcf runs are
    // slow enough that the flood outpaces the single executor.
    const int total = 8;
    for (int i = 0; i < total; ++i)
        client.sendLine(runReq("flood-" + std::to_string(i), "mcf"));
    size_t shed = 0, okOrRun = 0;
    for (int i = 0; i < total; ++i) {
        Json resp = client.readLine();
        const std::string status = resp["status"].asString();
        if (status == "overloaded") {
            ++shed;
            EXPECT_GT(resp["retry_after_ms"].asUInt(), 0u);
        } else {
            EXPECT_EQ(status, "ok");
            ++okOrRun;
        }
    }
    EXPECT_GT(shed, 0u);
    EXPECT_GT(okOrRun, 0u);
    EXPECT_EQ(shed + okOrRun, size_t(total));
}

TEST(SimServer, DrainAnswersQueuedAndRejectsNew)
{
    ServerFixture fx;
    Client client(fx.server.port());

    // Seed some work, then begin the drain and send another request:
    // the in-flight work completes, the late request is refused with
    // shutting_down, and wait() returns cleanly.
    client.sendLine(runReq("inflight"));
    Json done = client.readSeq(1);
    EXPECT_EQ(done["status"].asString(), "ok");

    fx.server.requestShutdown();
    client.sendLine(runReq("late"));
    Json late = client.readSeq(2);
    EXPECT_EQ(late["status"].asString(), "shutting_down");
    EXPECT_EQ(fx.server.wait(), 0);
}

TEST(SimServer, ManyClientsConcurrently)
{
    ServerConfig config;
    config.executors = 4;
    config.maxPending = 256;
    config.maxPendingPerClient = 64;
    ServerFixture fx(config);

    // Four clients, each sending four requests; every response must be
    // well-formed, correlated, and identical across clients (same
    // body => same cached result).
    std::vector<std::thread> threads;
    std::vector<std::string> runs(4);
    for (int c = 0; c < 4; ++c) {
        threads.emplace_back([&fx, &runs, c] {
            Client client(fx.server.port());
            for (uint64_t i = 1; i <= 4; ++i)
                client.sendLine(runReq("c" + std::to_string(c)));
            std::string run;
            for (uint64_t i = 1; i <= 4; ++i) {
                Json resp = client.readSeq(i);
                ASSERT_EQ(resp["status"].asString(), "ok");
                if (run.empty())
                    run = resp["run"].dump();
                else
                    EXPECT_EQ(resp["run"].dump(), run);
            }
            runs[size_t(c)] = run;
        });
    }
    for (auto &t : threads)
        t.join();
    for (int c = 1; c < 4; ++c)
        EXPECT_EQ(runs[size_t(c)], runs[0]);

    // A closed-loop mix: four clients, 25 requests each, every client
    // waiting for each answer. Line i % 10 == 3 is not JSON, line
    // i % 10 == 7 names an unknown workload, and the rest are twolf
    // runs with distinct budgets (so each misses the result cache).
    // The status counts follow from the mix alone.
    const int clients = 4, perClient = 25;
    std::vector<std::map<std::string, int>> counts(clients);
    threads.clear();
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&fx, &counts, c] {
            Client client(fx.server.port());
            for (int i = 0; i < perClient; ++i) {
                if (i % 10 == 3) {
                    client.sendLine(std::string("{ this is not json"));
                } else {
                    Json doc = runReq("mix-" + std::to_string(c) + "-" +
                                      std::to_string(i));
                    if (i % 10 == 7) {
                        doc["workload"] =
                            Json(std::string("no_such_workload"));
                    } else {
                        doc["max_insts"] =
                            Json(uint64_t(50000 + 1000 * c + 10 * i));
                    }
                    client.sendLine(doc);
                }
                ++counts[size_t(c)][client.readLine()["status"].asString()];
            }
        });
    }
    for (auto &t : threads)
        t.join();
    std::map<std::string, int> total;
    for (const auto &perClientCounts : counts)
        for (const auto &[status, n] : perClientCounts)
            total[status] += n;
    EXPECT_EQ(total, (std::map<std::string, int>{
                         {"ok", 80}, {"malformed", 12}, {"error", 8}}));
}

} // namespace dise
