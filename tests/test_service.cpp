/**
 * @file
 * Simulation-service tests: SimScheduler semantics (deterministic
 * result ordering, work stealing under stress, cancellation, exception
 * propagation and pool reusability), RunRequest JSON round-tripping,
 * SimSession batch bit-identity across worker counts, and serial vs
 * parallel fault-campaign equivalence.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/acf/mfi.hpp"
#include "src/assembler/assembler.hpp"
#include "src/common/logging.hpp"
#include "src/common/scheduler.hpp"
#include "src/faults/campaign.hpp"
#include "src/service/session.hpp"

namespace dise {
namespace {

/** Store/load loop with an output, a clean exit, and an error handler
 *  (the shape every service-level test program needs). */
const char *kLoopSource =
    ".text\n"
    "main:\n"
    "    laq buf, t5\n"
    "    li 0, t0\n"
    "    li 40, t1\n"
    "loop:\n"
    "    stq t0, 0(t5)\n"
    "    ldq t2, 0(t5)\n"
    "    addq t3, t2, t3\n"
    "    addq t0, 1, t0\n"
    "    cmplt t0, t1, t4\n"
    "    bne t4, loop\n"
    "    mov t3, a0\n    li 2, v0\n    syscall\n"
    "    li 0, v0\n    li 0, a0\n    syscall\n"
    "error:\n"
    "    li 0, v0\n    li 42, a0\n    syscall\n"
    ".data\nbuf:\n    .quad 0\n";

/** Strip host-dependent keys, mirroring validate_bench_json --compare. */
Json
stripHost(const Json &doc)
{
    if (doc.isObject()) {
        Json out = Json::object();
        for (const auto &kv : doc.members()) {
            if (kv.first == "host" || kv.first == "host_seconds")
                continue;
            out[kv.first] = stripHost(kv.second);
        }
        return out;
    }
    if (doc.isArray()) {
        Json out = Json::array();
        for (const Json &item : doc.items())
            out.push_back(stripHost(item));
        return out;
    }
    return doc;
}

// ---- SimScheduler ----

TEST(Scheduler, MapPreservesOrderAtAnyWorkerCount)
{
    std::vector<int> items;
    for (int i = 0; i < 64; ++i)
        items.push_back(i);
    const auto square = [](int x) { return x * x; };

    SimScheduler serial(1);
    SimScheduler pool(4);
    const auto a = serial.map(items, square);
    const auto b = pool.map(items, square);
    ASSERT_EQ(a.size(), items.size());
    EXPECT_EQ(a, b);
    for (size_t i = 0; i < items.size(); ++i)
        EXPECT_EQ(a[i], int(i * i));
}

TEST(Scheduler, StressManyMoreJobsThanWorkers)
{
    SimScheduler pool(3);
    std::vector<int> items;
    for (int i = 0; i < 200; ++i)
        items.push_back(i);
    std::atomic<int> ran{0};
    const auto results = pool.map(items, [&ran](int x) {
        ++ran;
        return x + 1;
    });
    EXPECT_EQ(ran.load(), 200);
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(results[size_t(i)], i + 1);
}

TEST(Scheduler, ExceptionPropagatesAndPoolStaysUsable)
{
    SimScheduler pool(4);
    std::vector<int> items{0, 1, 2, 3, 4, 5, 6, 7};
    EXPECT_THROW(pool.map(items,
                          [](int x) -> int {
                              if (x == 3)
                                  fatal("boom");
                              return x;
                          }),
                 FatalError);
    // The pool must survive a failed batch and run the next one.
    const auto results = pool.map(items, [](int x) { return x * 2; });
    for (size_t i = 0; i < items.size(); ++i)
        EXPECT_EQ(results[i], int(i) * 2);
}

TEST(Scheduler, SerialCancellationSkipsRemainingTasks)
{
    SimScheduler serial(1);
    std::vector<std::function<void()>> tasks;
    size_t ran = 0;
    for (int i = 0; i < 10; ++i) {
        tasks.push_back([&serial, &ran, i] {
            ++ran;
            if (i == 0)
                serial.cancel();
        });
    }
    const auto stats = serial.runBatch(std::move(tasks));
    EXPECT_EQ(ran, 1u);
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.skipped, 9u);
}

TEST(Scheduler, ParallelCancellationStopsUnstartedTasks)
{
    SimScheduler pool(2);
    std::vector<std::function<void()>> tasks;
    std::atomic<size_t> ran{0};
    for (int i = 0; i < 64; ++i) {
        // The fifth completion cancels; at that point at most
        // completed + in-flight tasks have started, so the bulk of the
        // batch must be skipped, not run.
        tasks.push_back([&pool, &ran] {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            if (++ran == 5)
                pool.cancel();
        });
    }
    const auto stats = pool.runBatch(std::move(tasks));
    EXPECT_EQ(stats.completed + stats.skipped, 64u);
    EXPECT_GT(stats.skipped, 0u);
    EXPECT_LT(stats.completed, 64u);
    EXPECT_EQ(ran.load(), stats.completed);
}

TEST(Scheduler, CancelOnIdleOrDrainedPoolIsANoOp)
{
    SimScheduler pool(2);
    // Cancelling before any batch ever ran must not mark the next
    // batch cancelled.
    pool.cancel();
    EXPECT_FALSE(pool.cancelled());
    std::vector<int> items{0, 1, 2, 3, 4, 5, 6, 7};
    auto results = pool.map(items, [](int x) { return x + 1; });
    for (size_t i = 0; i < items.size(); ++i)
        EXPECT_EQ(results[i], int(i) + 1);

    // Cancelling a pool whose batch has fully drained is equally a
    // no-op: the daemon's shutdown path may race a cancel against the
    // last batch completing, and a stale cancel must never leak into
    // work submitted afterwards.
    pool.cancel();
    EXPECT_FALSE(pool.cancelled());
    results = pool.map(items, [](int x) { return x * 3; });
    for (size_t i = 0; i < items.size(); ++i)
        EXPECT_EQ(results[i], int(i) * 3);
}

TEST(Scheduler, TasksCancelledBeforeStartNeverRun)
{
    SimScheduler pool(2);
    // The very first task to run cancels the batch; with 2 workers at
    // most one other task can already be in flight, so at least 61 of
    // the 64 tasks must be skipped without their bodies ever running.
    std::atomic<size_t> ran{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 64; ++i) {
        tasks.push_back([&pool, &ran] {
            ++ran;
            pool.cancel();
        });
    }
    const auto stats = pool.runBatch(std::move(tasks));
    EXPECT_EQ(stats.completed + stats.skipped, 64u);
    EXPECT_EQ(ran.load(), stats.completed);
    EXPECT_LE(stats.completed, 2u);
    EXPECT_GE(stats.skipped, 62u);
}

TEST(Scheduler, NestedBatchRunsInlineWithoutDeadlock)
{
    SimScheduler pool(2);
    std::vector<int> outer{0, 1, 2, 3};
    const auto results = pool.map(outer, [&pool](int x) {
        std::vector<int> inner{10, 20, 30};
        const auto sub = pool.map(inner, [](int y) { return y + 1; });
        return x + sub[0] + sub[1] + sub[2];
    });
    for (size_t i = 0; i < outer.size(); ++i)
        EXPECT_EQ(results[i], int(i) + 11 + 21 + 31);
}

// ---- RunRequest serialization ----

TEST(RunRequest, JsonRoundTrip)
{
    RunRequest req;
    req.id = "job-7";
    req.workload = "gzip";
    req.scale = 0.25;
    req.regime = "mfi";
    req.mode = RunMode::Campaign;
    req.mfi = true;
    req.mfiVariant = MfiVariant::Dise4;
    req.watchpoint = true;
    req.dise.rtEntries = 512;
    req.dise.parityChecks = true;
    req.seed = 99;
    req.trials = 12;
    req.faultTargets = {FaultTarget::PtEntry, FaultTarget::RtEntry};
    req.snapshots = false;

    const Json doc = req.toJson();
    const RunRequest back = RunRequest::fromJson(doc);
    EXPECT_EQ(back.toJson().dump(), doc.dump());
    EXPECT_EQ(back.id, "job-7");
    EXPECT_EQ(back.mode, RunMode::Campaign);
    EXPECT_EQ(back.mfiVariant, MfiVariant::Dise4);
    EXPECT_EQ(back.dise.rtEntries, 512u);
    EXPECT_EQ(back.faultTargets.size(), 2u);
    EXPECT_FALSE(back.snapshots);
}

TEST(RunRequest, RejectsUnknownKeysAndBadShapes)
{
    Json doc = Json::object();
    doc["workload"] = Json(std::string("gzip"));
    doc["no_such_key"] = Json(true);
    EXPECT_THROW(RunRequest::fromJson(doc), FatalError);

    RunRequest both;
    both.workload = "gzip";
    both.source = ".text\n";
    EXPECT_THROW(both.validate(), FatalError);

    RunRequest neither;
    EXPECT_THROW(neither.validate(), FatalError);

    RunRequest watchpointOnly;
    watchpointOnly.workload = "gzip";
    watchpointOnly.watchpoint = true;
    EXPECT_THROW(watchpointOnly.validate(), FatalError);

    RunRequest warmTiming;
    warmTiming.workload = "gzip";
    warmTiming.mode = RunMode::Timing;
    warmTiming.warmupInsts = 100;
    EXPECT_THROW(warmTiming.validate(), FatalError);

    // Machine geometry the models cannot build fails the request (a
    // FatalError naming the key), never a constructor assert.
    const auto parse = [](const std::string &text) {
        return RunRequest::fromJson(Json::parse(text));
    };
    const auto expectRefused = [&](const std::string &text,
                                   const std::string &key) {
        try {
            parse(text);
            ADD_FAILURE() << "accepted: " << text;
        } catch (const FatalError &err) {
            EXPECT_NE(std::string(err.what()).find(key),
                      std::string::npos)
                << text << " -> " << err.what();
        }
    };
    // 48 KB, 2-way, 64-byte lines: 384 sets.
    expectRefused(R"({"workload":"twolf","mode":"timing","icache_kb":48,)"
                  R"("max_insts":1000})",
                  "icache_kb");
    // 3 entries cannot split into 2 ways; 24 entries in 2 ways give
    // 12 sets; assoc 0 with a finite RT has no sets at all.
    expectRefused(R"({"workload":"bzip2","mfi":true,"rt_entries":3})",
                  "rt_entries");
    expectRefused(R"({"workload":"bzip2","mfi":true,"rt_entries":24,)"
                  R"("rt_assoc":2})",
                  "rt_entries");
    expectRefused(R"({"workload":"bzip2","rt_assoc":0})", "rt_assoc");
    // 32-bit settings are refused above 2^32-1, not truncated: 2^32+16
    // would otherwise run as a 16-entry RT.
    for (const char *key :
         {"rt_entries", "rt_assoc", "icache_kb", "width"}) {
        expectRefused(std::string(R"({"workload":"bzip2",")") + key +
                          R"(":4294967312})",
                      key);
    }
    expectRefused(R"({"workload":"bzip2","mode":"campaign",)"
                  R"("trials":4294967297})",
                  "trials");
    // Both models allocate every line or entry up front: an RT above
    // 65,536 entries or an I-cache above the 1 MB L2 is refused.
    expectRefused(R"({"workload":"twolf","mfi":true,)"
                  R"("rt_entries":2147483648,"rt_assoc":1,)"
                  R"("max_insts":1000})",
                  "rt_entries");
    expectRefused(R"({"workload":"bzip2","rt_entries":131072})",
                  "rt_entries");
    expectRefused(R"({"workload":"twolf","mode":"timing",)"
                  R"("icache_kb":2097152,"max_insts":1000})",
                  "icache_kb");
    expectRefused(R"({"workload":"bzip2","icache_kb":2048})", "icache_kb");
    // The removed fast-path switch is an unknown key now.
    expectRefused(R"({"workload":"bzip2","expansion_cache":false})",
                  "expansion_cache");

    // The buildable shapes still parse: a perfect I-cache and RT, a
    // power-of-two I-cache, and a direct-mapped 8-entry RT.
    EXPECT_NO_THROW(parse(R"({"workload":"bzip2","icache_kb":0,)"
                          R"("rt_entries":0,"rt_assoc":0})"));
    EXPECT_NO_THROW(parse(R"({"workload":"bzip2","icache_kb":64,)"
                          R"("rt_entries":8,"rt_assoc":1})"));
    EXPECT_NO_THROW(parse(R"({"workload":"bzip2","icache_kb":1024,)"
                          R"("rt_entries":65536,"rt_assoc":1})"));
}

// ---- SimSession ----

std::vector<RunRequest>
smallBatch()
{
    std::vector<RunRequest> reqs;
    RunRequest base;
    base.source = kLoopSource;

    RunRequest functional = base;
    functional.id = "functional";
    reqs.push_back(functional);

    RunRequest mfi = base;
    mfi.id = "mfi";
    mfi.mfi = true;
    reqs.push_back(mfi);

    RunRequest timing = base;
    timing.id = "timing";
    timing.mode = RunMode::Timing;
    reqs.push_back(timing);

    RunRequest campaign = base;
    campaign.id = "campaign";
    campaign.mode = RunMode::Campaign;
    campaign.mfi = true;
    campaign.trials = 6;
    campaign.seed = 7;
    reqs.push_back(campaign);
    return reqs;
}

TEST(SimSession, BatchBitIdenticalAcrossWorkerCounts)
{
    const std::vector<RunRequest> reqs = smallBatch();

    SimSession serial(SessionConfig{1});
    SimSession pool(SessionConfig{4});
    const auto a = serial.runBatch(reqs);
    const auto b = pool.runBatch(reqs);
    ASSERT_EQ(a.size(), reqs.size());
    ASSERT_EQ(b.size(), reqs.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
        EXPECT_TRUE(a[i].ok) << a[i].error;
        EXPECT_EQ(stripHost(a[i].toJson()).dump(),
                  stripHost(b[i].toJson()).dump())
            << reqs[i].id;
    }
}

TEST(SimSession, StreamsEveryResultExactlyOnce)
{
    const std::vector<RunRequest> reqs = smallBatch();
    SimSession session(SessionConfig{2});
    std::vector<int> seen(reqs.size(), 0);
    const auto responses = session.runBatch(
        reqs, [&seen](size_t index, const RunResponse &resp) {
            ASSERT_LT(index, seen.size());
            ++seen[index];
            EXPECT_TRUE(resp.ok);
        });
    EXPECT_EQ(responses.size(), reqs.size());
    for (const int count : seen)
        EXPECT_EQ(count, 1);
}

TEST(SimSession, FatalJobReportsErrorAndBatchContinues)
{
    std::vector<RunRequest> reqs = smallBatch();
    RunRequest bad;
    bad.id = "bad";
    bad.source = "this is not assembly\n";
    reqs.insert(reqs.begin() + 1, bad);

    SimSession session(SessionConfig{2});
    const auto responses = session.runBatch(reqs);
    ASSERT_EQ(responses.size(), reqs.size());
    EXPECT_FALSE(responses[1].ok);
    EXPECT_FALSE(responses[1].error.empty());
    for (size_t i = 0; i < responses.size(); ++i) {
        if (i != 1) {
            EXPECT_TRUE(responses[i].ok) << responses[i].error;
        }
    }
    const Json line = responses[1].toJson();
    EXPECT_TRUE(line.contains("error"));
}

TEST(SimSession, FunctionalAndTimingShareTheArchResult)
{
    RunRequest req;
    req.source = kLoopSource;
    SimSession session;
    const RunResponse functional = session.run(req);
    req.mode = RunMode::Timing;
    const RunResponse timing = session.run(req);
    ASSERT_TRUE(functional.ok);
    ASSERT_TRUE(timing.ok);
    EXPECT_EQ(functional.arch.dynInsts, timing.arch.dynInsts);
    EXPECT_EQ(functional.arch.output, timing.arch.output);
    EXPECT_GT(timing.cycles, 0u);
    // The unified serializer reports the same architectural section.
    EXPECT_EQ(functional.arch.toJson().dump(),
              timing.arch.toJson().dump());
}

TEST(SimSession, WarmStartMatchesColdRunBitForBit)
{
    RunRequest cold;
    cold.source = kLoopSource;
    cold.mfi = true;
    RunRequest warm = cold;
    warm.warmupInsts = 25;

    SimSession session(SessionConfig{2});
    const RunResponse a = session.run(cold);
    const RunResponse b = session.run(warm);
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;
    // The warm-started run restored a snapshot at app-inst 25 and ran
    // the remainder; everything but the host section must match a run
    // that executed the whole program itself — counters, output,
    // engine statistics, all of it.
    EXPECT_EQ(stripHost(a.toJson()).dump(), stripHost(b.toJson()).dump());

    // A batch of jobs sharing the warmup point shares one cached
    // snapshot (single-flight) and every result stays identical.
    const std::vector<RunRequest> reqs(4, warm);
    const auto responses = session.runBatch(reqs);
    for (const RunResponse &r : responses) {
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(stripHost(r.toJson()).dump(),
                  stripHost(a.toJson()).dump());
    }

    // A warmup point past program exit degenerates to the full run.
    RunRequest past = cold;
    past.warmupInsts = ~uint64_t(0) / 2;
    const RunResponse c = session.run(past);
    ASSERT_TRUE(c.ok) << c.error;
    EXPECT_EQ(stripHost(c.toJson()).dump(), stripHost(a.toJson()).dump());
}

TEST(SimSession, ConcurrentRunAndBatchAreSafeAndBitIdentical)
{
    // The serving daemon drives one SimSession from several executor
    // threads at once — single run() calls racing runBatch() calls.
    // Every response must match what a quiet serial session produces.
    const std::vector<RunRequest> reqs = smallBatch();
    SimSession reference(SessionConfig{1});
    const auto expected = reference.runBatch(reqs);

    SimSession shared(SessionConfig{2});
    std::vector<std::vector<RunResponse>> batches(2);
    std::vector<std::vector<RunResponse>> singles(2);
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
        threads.emplace_back([&shared, &reqs, &batches, t] {
            batches[size_t(t)] = shared.runBatch(reqs);
        });
        threads.emplace_back([&shared, &reqs, &singles, t] {
            for (const RunRequest &req : reqs)
                singles[size_t(t)].push_back(shared.run(req));
        });
    }
    for (auto &thread : threads)
        thread.join();

    for (int t = 0; t < 2; ++t) {
        ASSERT_EQ(batches[size_t(t)].size(), reqs.size());
        ASSERT_EQ(singles[size_t(t)].size(), reqs.size());
        for (size_t i = 0; i < reqs.size(); ++i) {
            EXPECT_EQ(stripHost(batches[size_t(t)][i].toJson()).dump(),
                      stripHost(expected[i].toJson()).dump())
                << reqs[i].id;
            EXPECT_EQ(stripHost(singles[size_t(t)][i].toJson()).dump(),
                      stripHost(expected[i].toJson()).dump())
                << reqs[i].id;
        }
    }
}

// ---- Campaign: serial vs scheduler-parallel ----

TEST(Campaign, ParallelTrialsMatchSerialBitForBit)
{
    const Program prog = assemble(kLoopSource);
    CampaignSetup setup;
    setup.prog = &prog;
    setup.makeAcf = [&prog] {
        return std::make_shared<const ProductionSet>(
            makeMfiProductions(prog, MfiOptions{}));
    };
    setup.initCore = [&prog](ExecCore &core) {
        initMfiRegisters(core, prog);
    };
    CampaignConfig cfg;
    cfg.seed = 11;
    cfg.trials = 24;

    const CampaignResult serial = runCampaign(setup, cfg);
    SimScheduler pool(4);
    const CampaignResult parallel = runCampaign(setup, cfg, &pool);

    ASSERT_EQ(serial.trials.size(), parallel.trials.size());
    for (size_t i = 0; i < serial.trials.size(); ++i) {
        EXPECT_EQ(serial.trials[i].outcome, parallel.trials[i].outcome)
            << "trial " << i;
        EXPECT_EQ(serial.trials[i].parityDetections,
                  parallel.trials[i].parityDetections);
    }
    EXPECT_EQ(serial.counts, parallel.counts);
    EXPECT_EQ(serial.injected, parallel.injected);
    EXPECT_EQ(serial.totalDynInsts, parallel.totalDynInsts);
    EXPECT_EQ(campaignToJson(serial).dump(),
              campaignToJson(parallel).dump());
    EXPECT_EQ(serial.golden.toJson().dump(),
              parallel.golden.toJson().dump());
}

} // namespace
} // namespace dise
