#include "src/service/server.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "src/common/logging.hpp"
#include "src/common/strict_parse.hpp"

namespace dise {

namespace {

uint64_t
elapsedMs(std::chrono::steady_clock::time_point since)
{
    return uint64_t(std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - since)
                        .count());
}

constexpr auto kNoDeadline =
    std::chrono::steady_clock::time_point::max();

} // namespace

/** One client connection. The reader thread owns fd teardown; writers
 *  (executors, the reader's immediate responses) serialize under
 *  writeMutex and drop output once the peer is gone. */
struct SimServer::Connection
{
    int fd = -1;
    uint64_t id = 0;
    std::mutex writeMutex;
    bool open = true; ///< guarded by writeMutex

    /** @name DRR scheduling state (guarded by the server mutex). */
    /// @{
    std::deque<std::shared_ptr<Job>> queue;
    uint32_t deficit = 0;
    /// @}
};

SimServer::SimServer(const ServerConfig &config)
    : config_(config), session_({config.workers}),
      results_(/*retryFailures=*/true, config.maxCachedResults)
{
}

SimServer::~SimServer()
{
    if (listenFd_ >= 0) {
        // start() ran but wait() did not: drain now so threads never
        // outlive the object.
        requestShutdown();
        wait();
    }
    if (wakePipe_[0] >= 0)
        ::close(wakePipe_[0]);
    if (wakePipe_[1] >= 0)
        ::close(wakePipe_[1]);
}

void
SimServer::start()
{
    if (::pipe(wakePipe_) != 0)
        fatal("serve: pipe() failed: " +
              std::string(std::strerror(errno)));

    if (config_.listen.rfind("unix:", 0) == 0) {
        const std::string path = config_.listen.substr(5);
        sockaddr_un addr{};
        if (path.empty() || path.size() >= sizeof(addr.sun_path))
            fatal("serve: bad unix socket path \"" + path + "\"");
        listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listenFd_ < 0)
            fatal("serve: socket() failed: " +
                  std::string(std::strerror(errno)));
        ::unlink(path.c_str()); // a stale socket from a dead server
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            fatal("serve: bind(" + path + ") failed: " +
                  std::string(std::strerror(errno)));
        }
        unixPath_ = path;
    } else {
        const size_t colon = config_.listen.rfind(':');
        if (colon == std::string::npos)
            fatal("serve: --listen expects host:port or unix:path");
        const std::string host = config_.listen.substr(0, colon);
        const uint64_t port = parseNonNegativeInt(
            config_.listen.substr(colon + 1).c_str(), "--listen port");
        if (port > 65535)
            fatal("serve: --listen port out of range");

        in_addr ip{};
        if (host.empty() || host == "localhost") {
            ip.s_addr = htonl(INADDR_LOOPBACK);
        } else if (host == "*" || host == "0.0.0.0") {
            ip.s_addr = htonl(INADDR_ANY);
        } else if (::inet_pton(AF_INET, host.c_str(), &ip) != 1) {
            fatal("serve: bad listen address \"" + host + "\"");
        }
        listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listenFd_ < 0)
            fatal("serve: socket() failed: " +
                  std::string(std::strerror(errno)));
        const int one = 1;
        ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr = ip;
        addr.sin_port = htons(uint16_t(port));
        if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            fatal("serve: bind(" + config_.listen + ") failed: " +
                  std::string(std::strerror(errno)));
        }
        socklen_t len = sizeof(addr);
        ::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                      &len);
        port_ = int(ntohs(addr.sin_port));
        char hostBuf[INET_ADDRSTRLEN] = {0};
        if (::inet_ntop(AF_INET, &addr.sin_addr, hostBuf,
                        sizeof(hostBuf)))
            host_ = hostBuf;
    }
    if (::listen(listenFd_, 64) != 0)
        fatal("serve: listen() failed: " +
              std::string(std::strerror(errno)));

    deadliner_ = std::thread([this] { deadlineLoop(); });
    const unsigned executors = std::max(1u, config_.executors);
    executors_.reserve(executors);
    for (unsigned i = 0; i < executors; ++i)
        executors_.emplace_back([this] { executorLoop(); });
    listener_ = std::thread([this] { listenerLoop(); });
}

bool
SimServer::stopping() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return draining_;
}

void
SimServer::requestShutdown()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (draining_)
            return;
        draining_ = true;
    }
    if (wakePipe_[1] >= 0) {
        const char byte = 0;
        (void)!::write(wakePipe_[1], &byte, 1);
    }
    execCv_.notify_all();
    deadlineCv_.notify_all();
    drainCv_.notify_all();
}

int
SimServer::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    drainCv_.wait(lock, [this] { return draining_; });

    // Grace phase: give queued + in-flight work the drain budget.
    const auto drainEnd =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(config_.drainTimeoutMs);
    const auto quiesced = [this] {
        return pending_ == 0 && inflight_ == 0;
    };
    if (!drainCv_.wait_until(lock, drainEnd, quiesced)) {
        // Budget spent: shed what is still queued and cancel what is
        // running; cancellation is cooperative and fast, so the second
        // wait is unbounded by design.
        abandon_ = true;
        for (Job *job : running_)
            job->cancel.store(true, std::memory_order_relaxed);
        execCv_.notify_all();
        drainCv_.wait(lock, quiesced);
    }
    stopThreads_ = true;
    execCv_.notify_all();
    deadlineCv_.notify_all();
    lock.unlock();

    if (wakePipe_[1] >= 0) {
        const char byte = 0;
        (void)!::write(wakePipe_[1], &byte, 1);
    }
    listener_.join();
    for (std::thread &t : executors_)
        t.join();
    deadliner_.join();

    // Unblock every reader; each closes its own fd on the way out.
    std::vector<std::shared_ptr<Connection>> conns;
    {
        std::lock_guard<std::mutex> relock(mutex_);
        conns = connections_;
    }
    for (const auto &conn : conns) {
        std::lock_guard<std::mutex> wl(conn->writeMutex);
        if (conn->fd >= 0)
            ::shutdown(conn->fd, SHUT_RDWR);
    }
    for (std::thread &t : readers_)
        t.join();

    ::close(listenFd_);
    listenFd_ = -1;
    if (!unixPath_.empty())
        ::unlink(unixPath_.c_str());
    return panicked_ ? 2 : 0;
}

void
SimServer::bumpStat(const char *key, uint64_t delta)
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    stats_.add(key, delta);
}

Json
SimServer::statsJson() const
{
    // Gauges first (server mutex), then the counter snapshot (stats
    // mutex) — never nested, matching the lock order everywhere else.
    uint64_t pending = 0;
    uint64_t inflight = 0;
    uint64_t connections = 0;
    bool draining = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        pending = pending_;
        inflight = inflight_;
        connections = connections_.size();
        draining = draining_;
    }
    StatsRegistry reg;
    std::lock_guard<std::mutex> sl(statsMutex_);
    stats_.set("pending", pending);
    stats_.set("inflight", inflight);
    stats_.set("connections", connections);
    stats_.set("result_cache_entries", results_.size());
    stats_.set("workers", config_.workers);
    stats_.set("executors", std::max(1u, config_.executors));
    reg.add("server", &stats_);
    reg.set("server.draining", Json(draining));
    return reg.toJson();
}

Json
SimServer::envelope(uint64_t seq, const char *status) const
{
    Json doc = Json::object();
    doc["seq"] = Json(seq);
    doc["status"] = Json(std::string(status));
    return doc;
}

void
SimServer::respond(const std::shared_ptr<Connection> &conn,
                   const Json &doc)
{
    bumpStat(("status_" + doc.at("status").asString()).c_str());
    std::string line = doc.dump();
    line.push_back('\n');
    std::lock_guard<std::mutex> wl(conn->writeMutex);
    if (!conn->open || conn->fd < 0)
        return;
    size_t off = 0;
    while (off < line.size()) {
        const ssize_t n = ::send(conn->fd, line.data() + off,
                                 line.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            // Peer gone mid-response: drop the rest; the reader will
            // see the close and tear the connection down.
            conn->open = false;
            return;
        }
        off += size_t(n);
    }
}

void
SimServer::listenerLoop()
{
    for (;;) {
        pollfd fds[2] = {{listenFd_, POLLIN, 0},
                         {wakePipe_[0], POLLIN, 0}};
        const int rc = ::poll(fds, 2, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (draining_ || stopThreads_)
                return;
        }
        if (!(fds[0].revents & POLLIN))
            continue;
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            conn->id = ++nextConnId_;
            connections_.push_back(conn);
            readers_.emplace_back([this, conn] { readerLoop(conn); });
        }
        bumpStat("connections_accepted");
    }
}

void
SimServer::readerLoop(std::shared_ptr<Connection> conn)
{
    if (!host_.empty()) {
        // A response is one small send. With Nagle's algorithm on, one
        // written while the previous is still unacknowledged waits for
        // the client's delayed ACK or its next request.
        const int one = 1;
        ::setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    std::string buffer;
    std::vector<char> chunk(64 * 1024);
    uint64_t seq = 0;
    bool discarding = false; ///< skipping the tail of an oversized line
    for (;;) {
        const ssize_t n =
            ::read(conn->fd, chunk.data(), chunk.size());
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (n == 0)
            break;
        buffer.append(chunk.data(), size_t(n));
        size_t start = 0;
        for (;;) {
            const size_t nl = buffer.find('\n', start);
            if (nl == std::string::npos)
                break;
            std::string line = buffer.substr(start, nl - start);
            start = nl + 1;
            if (discarding) {
                // The newline ending the oversized line; already
                // answered when the cap tripped.
                discarding = false;
                continue;
            }
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (line.empty())
                continue;
            ++seq;
            if (line.size() > config_.maxLineBytes) {
                Json resp = envelope(seq, "oversized");
                resp["error"] = Json(
                    "request line exceeds " +
                    std::to_string(config_.maxLineBytes) + " bytes");
                respond(conn, resp);
                continue;
            }
            handleLine(conn, seq, line);
        }
        buffer.erase(0, start);
        if (discarding) {
            // Still inside the oversized line (no terminating newline
            // yet): everything buffered is its tail. Drop it each
            // pass, or a peer streaming newline-free data would grow
            // the buffer without bound.
            buffer.clear();
        } else if (buffer.size() > config_.maxLineBytes) {
            // No newline in sight and already over the cap: answer
            // now and discard until one shows up — the connection
            // survives, only this request dies.
            ++seq;
            Json resp = envelope(seq, "oversized");
            resp["error"] =
                Json("request line exceeds " +
                     std::to_string(config_.maxLineBytes) + " bytes");
            respond(conn, resp);
            buffer.clear();
            discarding = true;
        }
    }
    {
        std::lock_guard<std::mutex> wl(conn->writeMutex);
        conn->open = false;
        if (conn->fd >= 0) {
            ::close(conn->fd);
            conn->fd = -1;
        }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    connections_.erase(std::remove(connections_.begin(),
                                   connections_.end(), conn),
                       connections_.end());
}

void
SimServer::handleLine(const std::shared_ptr<Connection> &conn,
                      uint64_t seq, const std::string &line)
{
    bumpStat("requests");
    Json doc;
    try {
        doc = Json::parse(line);
        if (!doc.isObject())
            fatal("request is not a JSON object");
    } catch (const FatalError &e) {
        Json resp = envelope(seq, "malformed");
        resp["error"] = Json(std::string(e.what()));
        respond(conn, resp);
        return;
    }

    // Peel the serving envelope off the RunRequest body.
    std::string kind = "run";
    uint64_t deadlineMs = config_.defaultDeadlineMs;
    Json body = Json::object();
    try {
        for (const auto &kv : doc.members()) {
            if (kv.first == "kind") {
                if (!kv.second.isString())
                    fatal("\"kind\" must be a string");
                kind = kv.second.asString();
            } else if (kv.first == "deadline_ms") {
                if (kv.second.type() != Json::Type::UInt)
                    fatal("\"deadline_ms\" must be a non-negative "
                          "integer");
                if (kv.second.asUInt() > 0)
                    deadlineMs = kv.second.asUInt();
            } else {
                body[kv.first] = kv.second;
            }
        }
        if (kind != "run" && kind != "stats")
            fatal("unknown request kind \"" + kind + "\"");
    } catch (const FatalError &e) {
        Json resp = envelope(seq, "malformed");
        resp["error"] = Json(std::string(e.what()));
        respond(conn, resp);
        return;
    }

    if (kind == "stats") {
        Json resp = envelope(seq, "ok");
        resp["stats"] = statsJson();
        respond(conn, resp);
        return;
    }

    auto job = std::make_shared<Job>();
    try {
        job->req = RunRequest::fromJson(body);
    } catch (const FatalError &e) {
        Json resp = envelope(seq, "error");
        if (body.contains("id") && body.at("id").isString())
            resp["id"] = body.at("id");
        resp["ok"] = Json(false);
        resp["error"] = Json(std::string(e.what()));
        respond(conn, resp);
        return;
    }
    // Budget defaults: an unlimited request inherits the server's cap
    // so a guest that never exits still terminates (outcome Hang).
    if (config_.defaultMaxInsts > 0 &&
        job->req.maxInsts == RunRequest().maxInsts) {
        job->req.maxInsts = config_.defaultMaxInsts;
    }
    job->seq = seq;
    job->conn = conn;
    job->admitted = std::chrono::steady_clock::now();
    job->deadline =
        deadlineMs > 0
            ? job->admitted + std::chrono::milliseconds(deadlineMs)
            : kNoDeadline;
    RunRequest norm = job->req;
    norm.id.clear();
    job->cacheKey = norm.toJson().dump();
    // DRR cost: a campaign occupies an executor for ~trials times a
    // single run; bill it so one campaign client cannot starve
    // single-run clients (capped so a huge campaign still schedules).
    job->cost = job->req.mode == RunMode::Campaign
                    ? std::min<uint32_t>(std::max(1u, job->req.trials),
                                         64)
                    : 1;
    admit(conn, std::move(job));
}

void
SimServer::admit(const std::shared_ptr<Connection> &conn,
                 std::shared_ptr<Job> job)
{
    const bool hasDeadline = job->deadline != kNoDeadline;
    const uint64_t seq = job->seq;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (draining_) {
            lock.unlock();
            Json resp = envelope(seq, "shutting_down");
            resp["error"] = Json(std::string("server is draining"));
            respond(conn, resp);
            return;
        }
        if (pending_ + inflight_ >= config_.maxPending ||
            conn->queue.size() >= config_.maxPendingPerClient) {
            // Shed with a hint that grows with queue depth, so
            // well-behaved clients back off harder the deeper the
            // overload.
            const uint64_t retryMs =
                100 * (1 + pending_ / std::max(1u, config_.executors));
            lock.unlock();
            Json resp = envelope(seq, "overloaded");
            resp["retry_after_ms"] = Json(retryMs);
            resp["error"] = Json(std::string("pending queue full"));
            respond(conn, resp);
            return;
        }
        if (conn->queue.empty())
            ready_.push_back(conn);
        conn->queue.push_back(job);
        ++pending_;
        if (hasDeadline)
            deadlines_.push({job->deadline, job});
    }
    bumpStat("admitted");
    execCv_.notify_one();
    if (hasDeadline)
        deadlineCv_.notify_all();
}

void
SimServer::executorLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        execCv_.wait(lock, [this] {
            return stopThreads_ || !ready_.empty();
        });
        if (ready_.empty()) {
            if (stopThreads_)
                return;
            continue;
        }
        // Deficit round-robin: visit the head connection, fund its
        // deficit by one quantum when short, and run its head job
        // once funded; otherwise rotate it to the back. Deficits
        // accumulate across visits, so an expensive job (a campaign)
        // eventually runs, but only after cheaper peers got their
        // share.
        std::shared_ptr<Connection> conn = ready_.front();
        ready_.pop_front();
        std::shared_ptr<Job> job = conn->queue.front();
        if (conn->deficit < job->cost) {
            conn->deficit += config_.drrQuantum;
            if (conn->deficit < job->cost) {
                ready_.push_back(conn);
                continue;
            }
        }
        conn->deficit -= job->cost;
        conn->queue.pop_front();
        if (!conn->queue.empty())
            ready_.push_back(conn);
        else
            conn->deficit = 0; // classic DRR: empty flow forfeits
        --pending_;

        if (abandon_) {
            // Drain budget is spent; queued work is shed, not run.
            lock.unlock();
            Json resp = envelope(job->seq, "shutting_down");
            resp["error"] =
                Json(std::string("server shut down before this "
                                 "request was started"));
            respond(job->conn, resp);
            lock.lock();
            if (pending_ == 0 && inflight_ == 0)
                drainCv_.notify_all();
            continue;
        }

        ++inflight_;
        running_.push_back(job.get());
        lock.unlock();
        executeJob(job);
        lock.lock();
        --inflight_;
        running_.erase(std::remove(running_.begin(), running_.end(),
                                   job.get()),
                       running_.end());
        if (pending_ == 0 && inflight_ == 0)
            drainCv_.notify_all();
    }
}

void
SimServer::executeJob(const std::shared_ptr<Job> &job)
{
    if (job->cancel.load(std::memory_order_relaxed)) {
        // The deadline passed while the job sat in the queue.
        Json resp = envelope(job->seq, "deadline_exceeded");
        resp["id"] = Json(job->req.label());
        resp["ok"] = Json(false);
        resp["error"] =
            Json(std::string("deadline exceeded while queued"));
        respond(job->conn, resp);
        return;
    }

    Json resp;
    try {
        bool built = false;
        // getCopy, not get: the cache evicts (LRU) and a reference
        // could dangle as soon as its lock drops.
        const std::string cached =
            results_.getCopy(job->cacheKey, [this, &job, &built] {
                built = true;
                RunContext ctx;
                ctx.cancel = &job->cancel;
                const RunResponse r = session_.run(job->req, ctx);
                // A cancel-tripped run carries a truncated result
                // (outcome Hang at wherever the flag was noticed);
                // throwing keeps it out of the cache — retryFailures
                // means the key stays clean for in-budget retries.
                if (job->cancel.load(std::memory_order_relaxed))
                    fatal("deadline exceeded during execution");
                return r.toJson().dump();
            });
        if (job->cancel.load(std::memory_order_relaxed)) {
            // The deadline passed while this job sat in getCopy
            // waiting on an identical in-flight build (the builder's
            // deadline, if any, is not ours). A late answer is a
            // deadline miss even though the result exists.
            resp = envelope(job->seq, "deadline_exceeded");
            resp["id"] = Json(job->req.label());
            resp["ok"] = Json(false);
            resp["error"] = Json(std::string(
                "deadline exceeded while awaiting an identical "
                "in-flight request"));
            respond(job->conn, resp);
            return;
        }
        if (!built)
            bumpStat("cache_hits");
        resp = Json::parse(cached);
        // The cache is keyed with id excluded; answer under the id
        // THIS client sent, not the first builder's.
        resp["id"] = Json(job->req.label());
        resp["seq"] = Json(job->seq);
        resp["status"] = Json(std::string("ok"));
        resp["latency_ms"] = Json(elapsedMs(job->admitted));
    } catch (const PanicError &e) {
        // Simulator invariant violation: answer this client, emit a
        // crash report, and stop the server — a buggy simulator must
        // fail loudly, never serve around it.
        {
            std::lock_guard<std::mutex> lock(mutex_);
            panicked_ = true;
        }
        Json report = Json::object();
        report["panic"] = Json(std::string(e.what()));
        report["request_id"] = Json(job->req.label());
        std::fprintf(stderr, "diserun --serve: crash report %s\n",
                     report.dump().c_str());
        resp = envelope(job->seq, "error");
        resp["id"] = Json(job->req.label());
        resp["ok"] = Json(false);
        resp["error"] = Json(std::string(e.what()));
        respond(job->conn, resp);
        requestShutdown();
        return;
    } catch (const std::exception &e) {
        // A FatalError (bad input) or a host failure confined to this
        // request, such as std::bad_alloc: answer it and keep serving.
        const bool deadlined =
            job->cancel.load(std::memory_order_relaxed);
        resp = envelope(job->seq,
                        deadlined ? "deadline_exceeded" : "error");
        resp["id"] = Json(job->req.label());
        resp["mode"] =
            Json(std::string(runModeName(job->req.mode)));
        resp["ok"] = Json(false);
        resp["error"] = Json(std::string(e.what()));
    }
    respond(job->conn, resp);
}

void
SimServer::deadlineLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        if (stopThreads_)
            return;
        if (deadlines_.empty()) {
            deadlineCv_.wait(lock);
            continue;
        }
        // Wake at the earliest deadline, or sooner when a new (maybe
        // earlier) deadline arrives — the loop recomputes the top.
        deadlineCv_.wait_until(lock, deadlines_.top().first);
        if (stopThreads_)
            return;
        const auto now = std::chrono::steady_clock::now();
        while (!deadlines_.empty() && deadlines_.top().first <= now) {
            if (auto job = deadlines_.top().second.lock())
                job->cancel.store(true, std::memory_order_relaxed);
            deadlines_.pop();
        }
    }
}

} // namespace dise
