/**
 * @file
 * Executor, determinism and stage-cache tests.
 *
 * The parallel executor's contract is that the thread count and
 * scheduling policy change only *how* the per-procedure chains
 * interleave, never what they produce: the transformed IR, the measured
 * run, and every non-timing statistic must be byte-identical to the
 * serial run for every configuration.  The matrix here pins that down,
 * along with the memoized stage cache (hit-after-no-change,
 * miss-after-input-change, corrupt-entry rejection) and the
 * PipelineOptions v2 surface (builder, deprecated-flat-field folding).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "ir/printer.hpp"
#include "obs/stats.hpp"
#include "obs/timer.hpp"
#include "pipeline/backend.hpp"
#include "pipeline/cache.hpp"
#include "pipeline/executor.hpp"
#include "pipeline/pipeline.hpp"
#include "support/faultinject.hpp"
#include "support/vio.hpp"
#include "workloads/workloads.hpp"

namespace pathsched {
namespace {

using pipeline::BackendDesc;
using pipeline::ExecPolicy;
using pipeline::Executor;
using pipeline::ExecStats;
using pipeline::PipelineOptions;
using pipeline::PipelineResult;
using pipeline::SchedConfig;
using pipeline::StageCache;
using pipeline::TaskGraph;

// ---------------------------------------------------------------------
// Executor unit tests.

TEST(Executor, RunsEveryTaskExactlyOnceSerial)
{
    TaskGraph g;
    std::vector<int> hits(10, 0);
    for (size_t i = 0; i < hits.size(); ++i)
        g.add([&hits, i] { ++hits[i]; });
    Executor ex(1);
    const ExecStats s = ex.run(g);
    EXPECT_EQ(s.tasks, hits.size());
    EXPECT_EQ(s.threads, 1u);
    EXPECT_EQ(s.steals, 0u);
    for (int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(Executor, SingleThreadRunsIndependentTasksInInsertionOrder)
{
    // The 1-thread ready FIFO is what replays the historical serial
    // stage loops, so insertion order is a documented guarantee there.
    TaskGraph g;
    std::vector<size_t> order;
    for (size_t i = 0; i < 20; ++i)
        g.add([&order, i] { order.push_back(i); });
    Executor ex(1);
    ex.run(g);
    ASSERT_EQ(order.size(), 20u);
    for (size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(Executor, DependenciesRunBeforeSuccessors)
{
    for (const ExecPolicy policy :
         {ExecPolicy::Static, ExecPolicy::Dynamic, ExecPolicy::Steal}) {
        TaskGraph g;
        std::atomic<int> stage{0};
        std::atomic<bool> violated{false};
        // A chain a -> b -> c plus an independent task on each link.
        const size_t a = g.add([&] { stage = 1; });
        const size_t b = g.add(
            [&] {
                if (stage.load() != 1)
                    violated = true;
                stage = 2;
            },
            {a});
        g.add(
            [&] {
                if (stage.load() != 2)
                    violated = true;
            },
            {b});
        for (int i = 0; i < 8; ++i)
            g.add([] {});
        Executor ex(4, policy);
        const ExecStats s = ex.run(g);
        EXPECT_EQ(s.tasks, 11u) << pipeline::execPolicyName(policy);
        EXPECT_FALSE(violated.load()) << pipeline::execPolicyName(policy);
    }
}

TEST(Executor, AllPoliciesCompleteManyTasksMultiThreaded)
{
    for (const ExecPolicy policy :
         {ExecPolicy::Static, ExecPolicy::Dynamic, ExecPolicy::Steal}) {
        TaskGraph g;
        std::atomic<uint64_t> sum{0};
        for (uint64_t i = 0; i < 200; ++i)
            g.add([&sum, i] { sum += i; }, {}, int(i % 7));
        Executor ex(4, policy);
        const ExecStats s = ex.run(g);
        EXPECT_EQ(s.tasks, 200u);
        EXPECT_EQ(s.threads, 4u);
        EXPECT_EQ(sum.load(), 199u * 200u / 2u)
            << pipeline::execPolicyName(policy);
    }
}

TEST(Executor, PolicyNamesRoundTrip)
{
    for (const ExecPolicy policy :
         {ExecPolicy::Static, ExecPolicy::Dynamic, ExecPolicy::Steal}) {
        ExecPolicy parsed;
        ASSERT_TRUE(pipeline::parseExecPolicy(
            pipeline::execPolicyName(policy), parsed));
        EXPECT_EQ(parsed, policy);
    }
    ExecPolicy parsed;
    EXPECT_FALSE(pipeline::parseExecPolicy("magic", parsed));
}

// ---------------------------------------------------------------------
// Determinism matrix: N threads x policy must be byte-identical to
// serial for every configuration.

/** Registry text with the thread/timing-dependent subtrees removed:
 *  "time.*" (wall clocks), "executor.*" (steal counts).  Everything
 *  else must be invariant across thread counts. */
std::string
invariantStats(const obs::StatRegistry &reg)
{
    std::istringstream in(reg.toText());
    std::string line, out;
    while (std::getline(in, line)) {
        if (line.rfind("time.", 0) == 0 ||
            line.rfind("executor.", 0) == 0)
            continue;
        out += line;
        out += '\n';
    }
    return out;
}

struct RunCapture
{
    std::string ir;
    std::string stats;
    uint64_t cycles = 0;
    std::vector<int64_t> output;
    int64_t returnValue = 0;
    size_t degraded = 0;
};

RunCapture
captureRun(const workloads::Workload &w, SchedConfig config,
           unsigned threads, ExecPolicy policy,
           FaultInjector *faults = nullptr)
{
    obs::StatRegistry registry;
    obs::Observer observer;
    observer.stats = &registry;
    PipelineOptions opts;
    opts.keepTransformed = true;
    opts.observability.observer = &observer;
    opts.executor.threads = threads;
    opts.executor.policy = policy;
    opts.robustness.faults = faults;
    const PipelineResult r = pipeline::runPipeline(
        w.program, w.train, w.test, config, opts);
    EXPECT_TRUE(r.status.ok()) << r.status.toString();
    EXPECT_TRUE(r.outputMatches);
    RunCapture c;
    if (r.transformed)
        c.ir = ir::toString(*r.transformed);
    c.stats = invariantStats(registry);
    c.cycles = r.test.cycles;
    c.output = r.test.output;
    c.returnValue = r.test.returnValue;
    c.degraded = r.degraded.size();
    return c;
}

class DeterminismMatrix
    : public ::testing::TestWithParam<const char *>
{};

TEST_P(DeterminismMatrix, ParallelRunsAreByteIdenticalToSerial)
{
    const auto w = workloads::makeByName(GetParam());
    for (const BackendDesc *be : pipeline::allBackends()) {
        const SchedConfig config = be->config;
        const RunCapture serial =
            captureRun(w, config, 1, ExecPolicy::Steal);
        EXPECT_FALSE(serial.ir.empty());
        for (const unsigned threads : {2u, 8u}) {
            for (const ExecPolicy policy :
                 {ExecPolicy::Static, ExecPolicy::Dynamic,
                  ExecPolicy::Steal}) {
                const RunCapture par =
                    captureRun(w, config, threads, policy);
                const std::string what =
                    std::string(GetParam()) + "/" +
                    pipeline::configName(config) + " x" +
                    std::to_string(threads) + " " +
                    pipeline::execPolicyName(policy);
                EXPECT_EQ(par.ir, serial.ir) << what;
                EXPECT_EQ(par.cycles, serial.cycles) << what;
                EXPECT_EQ(par.output, serial.output) << what;
                EXPECT_EQ(par.returnValue, serial.returnValue) << what;
                EXPECT_EQ(par.stats, serial.stats) << what;
                EXPECT_EQ(par.degraded, serial.degraded) << what;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, DeterminismMatrix,
                         ::testing::Values("wc", "alt", "corr"));

// ---------------------------------------------------------------------
// Fault isolation: a quarantined procedure on one worker must not
// poison its siblings, and attribution must not depend on the thread
// count (proc-targeted deterministic faults only — see pipeline.cpp).

TEST(FaultIsolation, QuarantineIsIdenticalAcrossThreadCounts)
{
    // gcc has enough procedures that the chains genuinely overlap.
    const auto w = workloads::makeByName("gcc");
    auto arm = [](FaultInjector &inj) {
        std::string err;
        ASSERT_TRUE(inj.parse("stage=compact,proc=2", err)) << err;
        ASSERT_TRUE(inj.parse("stage=regalloc,proc=5", err)) << err;
    };
    FaultInjector serial_inj(0);
    arm(serial_inj);
    const RunCapture serial = captureRun(
        w, SchedConfig::P4, 1, ExecPolicy::Steal, &serial_inj);
    EXPECT_EQ(serial.degraded, 2u);

    FaultInjector par_inj(0);
    arm(par_inj);
    const RunCapture par = captureRun(w, SchedConfig::P4, 4,
                                      ExecPolicy::Steal, &par_inj);
    EXPECT_EQ(par.degraded, 2u);
    EXPECT_EQ(par.ir, serial.ir);
    EXPECT_EQ(par.cycles, serial.cycles);
    EXPECT_EQ(par.output, serial.output);
    EXPECT_EQ(par.stats, serial.stats);
}

// ---------------------------------------------------------------------
// Stage cache.

TEST(StageCacheTest, WarmRerunHitsEveryProcedureAndMatchesCold)
{
    const auto w = workloads::makeByName("wc");
    StageCache cache;
    PipelineOptions opts;
    opts.keepTransformed = true;
    opts.executor.cache = &cache;
    const PipelineResult cold = pipeline::runPipeline(
        w.program, w.train, w.test, SchedConfig::P4, opts);
    ASSERT_TRUE(cold.status.ok());
    EXPECT_EQ(cold.exec.cacheHits, 0u);
    EXPECT_GT(cold.exec.cacheMisses, 0u);

    const PipelineResult warm = pipeline::runPipeline(
        w.program, w.train, w.test, SchedConfig::P4, opts);
    ASSERT_TRUE(warm.status.ok());
    EXPECT_EQ(warm.exec.cacheMisses, 0u);
    EXPECT_EQ(warm.exec.cacheHits, cold.exec.cacheMisses);

    // A hit replays the chain exactly: same IR, same measured run,
    // same per-stage counters.
    EXPECT_EQ(ir::toString(*warm.transformed),
              ir::toString(*cold.transformed));
    EXPECT_EQ(warm.test.cycles, cold.test.cycles);
    EXPECT_EQ(warm.test.output, cold.test.output);
    EXPECT_EQ(warm.form.superblocksFormed, cold.form.superblocksFormed);
    EXPECT_EQ(warm.compact.sched.totalCycles,
              cold.compact.sched.totalCycles);
    EXPECT_EQ(warm.alloc.regsSpilled, cold.alloc.regsSpilled);
}

TEST(StageCacheTest, ProfileChangeMissesTheCache)
{
    // Same program, same config — but a different training input
    // changes the profile content hash, so reuse would be wrong.
    auto w = workloads::makeByName("wc");
    StageCache cache;
    PipelineOptions opts;
    opts.executor.cache = &cache;
    const PipelineResult first = pipeline::runPipeline(
        w.program, w.train, w.test, SchedConfig::P4, opts);
    ASSERT_TRUE(first.status.ok());

    auto edited = w.train;
    ASSERT_FALSE(edited.memImage.empty());
    edited.memImage[0] ^= 1; // different text -> different path counts
    const PipelineResult second = pipeline::runPipeline(
        w.program, edited, w.test, SchedConfig::P4, opts);
    ASSERT_TRUE(second.status.ok());
    EXPECT_GT(second.exec.cacheMisses, 0u);
}

TEST(StageCacheTest, ConfigKnobsAreInTheKey)
{
    const auto w = workloads::makeByName("wc");
    StageCache cache;
    PipelineOptions opts;
    opts.executor.cache = &cache;
    const PipelineResult first = pipeline::runPipeline(
        w.program, w.train, w.test, SchedConfig::P4, opts);
    ASSERT_TRUE(first.status.ok());

    PipelineOptions narrower = opts;
    narrower.maxInstrs = 32;
    const PipelineResult second = pipeline::runPipeline(
        w.program, w.train, w.test, SchedConfig::P4, narrower);
    ASSERT_TRUE(second.status.ok());
    EXPECT_EQ(second.exec.cacheHits, 0u);
    EXPECT_GT(second.exec.cacheMisses, 0u);
}

TEST(StageCacheTest, BudgetedAndFaultedRunsBypassTheCache)
{
    const auto w = workloads::makeByName("wc");
    StageCache cache;
    PipelineOptions opts;
    opts.executor.cache = &cache;
    opts.robustness.budget.formGrowthOps = 1'000'000'000;
    const PipelineResult r = pipeline::runPipeline(
        w.program, w.train, w.test, SchedConfig::P4, opts);
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.exec.cacheHits, 0u);
    EXPECT_EQ(r.exec.cacheMisses, 0u);
    EXPECT_EQ(cache.stats().stores, 0u);
}

class DiskCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = ::testing::TempDir() + "pathsched_cache_" +
               std::to_string(::getpid());
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string dir_;
};

TEST_F(DiskCacheTest, EntriesPersistAcrossCacheInstances)
{
    const auto w = workloads::makeByName("wc");
    PipelineOptions opts;
    opts.keepTransformed = true;
    uint64_t stored = 0;
    std::string cold_ir;
    {
        StageCache writer(dir_);
        opts.executor.cache = &writer;
        const PipelineResult cold = pipeline::runPipeline(
            w.program, w.train, w.test, SchedConfig::P4, opts);
        ASSERT_TRUE(cold.status.ok());
        stored = writer.stats().stores;
        cold_ir = ir::toString(*cold.transformed);
    }
    EXPECT_GT(stored, 0u);

    // A fresh instance (fresh process in real use) hits via disk.
    StageCache reader(dir_);
    opts.executor.cache = &reader;
    const PipelineResult warm = pipeline::runPipeline(
        w.program, w.train, w.test, SchedConfig::P4, opts);
    ASSERT_TRUE(warm.status.ok());
    EXPECT_EQ(warm.exec.cacheMisses, 0u);
    EXPECT_GT(reader.stats().diskHits, 0u);
    EXPECT_EQ(ir::toString(*warm.transformed), cold_ir);
}

TEST_F(DiskCacheTest, AllocatorGiveUpsSurviveTheDiskTier)
{
    // A cached chain that left its procedure on virtual registers must
    // replay the give-up by name, not just the count.
    const auto w = workloads::makeByName("wc");
    StageCache::Entry e;
    e.proc = w.program.procs[0];
    e.alloc.procsSkipped = 1;
    e.alloc.skippedProcs = {e.proc.name};
    const pipeline::CacheKey key{0x1234, 0x5678};
    StageCache(dir_).insert(key, e);

    StageCache reader(dir_);
    StageCache::Entry got;
    ASSERT_TRUE(reader.lookup(key, got));
    EXPECT_EQ(reader.stats().diskHits, 1u);
    EXPECT_EQ(got.alloc.procsSkipped, 1u);
    EXPECT_EQ(got.alloc.skippedProcs, e.alloc.skippedProcs);
}

TEST_F(DiskCacheTest, CorruptEntriesAreRejectedAsMisses)
{
    const auto w = workloads::makeByName("wc");
    PipelineOptions opts;
    opts.keepTransformed = true;
    std::string cold_ir;
    {
        StageCache writer(dir_);
        opts.executor.cache = &writer;
        const PipelineResult cold = pipeline::runPipeline(
            w.program, w.train, w.test, SchedConfig::P4, opts);
        ASSERT_TRUE(cold.status.ok());
        cold_ir = ir::toString(*cold.transformed);
    }

    // Flip a byte in the middle of every entry file: the checksum must
    // catch it and the run must recompute rather than trust the blob.
    size_t corrupted = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir_)) {
        std::fstream f(e.path(),
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.is_open());
        f.seekg(0, std::ios::end);
        const auto size = f.tellg();
        ASSERT_GT(size, 0);
        f.seekp(std::streamoff(size) / 2);
        char c = 0;
        f.seekg(std::streamoff(size) / 2);
        f.read(&c, 1);
        c = char(c ^ 0xff);
        f.seekp(std::streamoff(size) / 2);
        f.write(&c, 1);
        ++corrupted;
    }
    ASSERT_GT(corrupted, 0u);

    StageCache reader(dir_);
    opts.executor.cache = &reader;
    const PipelineResult r = pipeline::runPipeline(
        w.program, w.train, w.test, SchedConfig::P4, opts);
    ASSERT_TRUE(r.status.ok());
    EXPECT_TRUE(r.outputMatches);
    EXPECT_EQ(reader.stats().corrupt, corrupted);
    EXPECT_EQ(r.exec.cacheHits, 0u);
    EXPECT_EQ(ir::toString(*r.transformed), cold_ir);
}

TEST_F(DiskCacheTest, DiskFaultDisablesTheTierWithoutChangingOutput)
{
    // A mid-run ENOSPC on the cache directory must demote the cache to
    // memory-only: the pipeline keeps running, produces bit-identical
    // IR, and never touches the sick disk again.
    const auto w = workloads::makeByName("wc");
    PipelineOptions opts;
    opts.keepTransformed = true;

    // Baseline: no cache at all.
    std::string plain_ir;
    {
        const PipelineResult plain = pipeline::runPipeline(
            w.program, w.train, w.test, SchedConfig::P4, opts);
        ASSERT_TRUE(plain.status.ok());
        plain_ir = ir::toString(*plain.transformed);
    }

    Vio vio;
    std::string err;
    ASSERT_TRUE(vio.parseFaults("path=cache,kind=enospc", err)) << err;
    StageCache cache(dir_, &vio);
    opts.executor.cache = &cache;
    const PipelineResult r = pipeline::runPipeline(
        w.program, w.train, w.test, SchedConfig::P4, opts);
    ASSERT_TRUE(r.status.ok());
    EXPECT_TRUE(r.outputMatches);
    EXPECT_TRUE(cache.diskDisabled());
    EXPECT_GE(cache.stats().diskFailures, 1u);
    EXPECT_EQ(ir::toString(*r.transformed), plain_ir);

    // The memory tier survives: an in-process rerun hits it.
    const PipelineResult warm = pipeline::runPipeline(
        w.program, w.train, w.test, SchedConfig::P4, opts);
    ASSERT_TRUE(warm.status.ok());
    EXPECT_GT(warm.exec.cacheHits, 0u);
    EXPECT_EQ(ir::toString(*warm.transformed), plain_ir);

    // Nothing half-written was left behind on the faulted disk.
    size_t leftovers = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir_)) {
        (void)e;
        ++leftovers;
    }
    EXPECT_EQ(leftovers, 0u);
}

TEST(StageCacheTest, SerializeProcedureRoundTrips)
{
    const auto w = workloads::makeByName("alt");
    for (const auto &proc : w.program.procs) {
        std::string blob;
        pipeline::serializeProcedure(proc, blob);
        size_t pos = 0;
        ir::Procedure out;
        ASSERT_TRUE(pipeline::deserializeProcedure(blob, pos, out));
        EXPECT_EQ(pos, blob.size());
        out.syncSideTables();
        EXPECT_EQ(ir::toString(out), ir::toString(proc));
    }
    // Truncation at any point must fail cleanly, never read past end.
    std::string blob;
    pipeline::serializeProcedure(w.program.procs[0], blob);
    for (size_t cut = 0; cut < blob.size();
         cut += 1 + blob.size() / 37) {
        size_t pos = 0;
        ir::Procedure out;
        EXPECT_FALSE(pipeline::deserializeProcedure(
            blob.substr(0, cut), pos, out));
    }
}

// ---------------------------------------------------------------------
// PipelineOptions v2: the grouped-field builder.

TEST(PipelineOptionsV2, BuilderWritesGroupedFields)
{
    obs::Observer observer;
    FaultInjector inj(0);
    StageCache cache;
    ResourceBudget budget;
    budget.interpSteps = 123;
    const PipelineOptions opts =
        PipelineOptions::Builder()
            .machine(machine::MachineModel::realisticLatency())
            .icache(true)
            .registerAllocate(false)
            .pettisHansen(false)
            .maxInstrs(64)
            .edgeProfile("edge text")
            .pathProfile("path text")
            .profileCheck(profile::AdmissionMode::Strict)
            .profileFlowSlack(7)
            .budget(budget)
            .faults(&inj)
            .observer(&observer)
            .interpStats(true)
            .threads(8)
            .execPolicy(ExecPolicy::Dynamic)
            .cache(&cache)
            .build();
    EXPECT_FALSE(opts.useICache == false);
    EXPECT_FALSE(opts.registerAllocate);
    EXPECT_FALSE(opts.pettisHansen);
    EXPECT_EQ(opts.maxInstrs, 64u);
    EXPECT_EQ(opts.profileInput.edgeText, "edge text");
    EXPECT_EQ(opts.profileInput.pathText, "path text");
    EXPECT_EQ(opts.profileInput.check, profile::AdmissionMode::Strict);
    EXPECT_EQ(opts.profileInput.flowSlack, 7u);
    EXPECT_EQ(opts.robustness.budget.interpSteps, 123u);
    EXPECT_EQ(opts.robustness.faults, &inj);
    EXPECT_EQ(opts.observability.observer, &observer);
    EXPECT_TRUE(opts.observability.interpStats);
    EXPECT_EQ(opts.executor.threads, 8u);
    EXPECT_EQ(opts.executor.policy, ExecPolicy::Dynamic);
    EXPECT_EQ(opts.executor.cache, &cache);
}

TEST(PipelineOptionsV2, GroupedBudgetGovernsARun)
{
    const auto w = workloads::makeByName("wc");
    PipelineOptions opts;
    opts.robustness.budget.deadline = Deadline::afterMs(0);
    const PipelineResult r = pipeline::runPipeline(
        w.program, w.train, w.test, SchedConfig::P4, opts);
    EXPECT_FALSE(r.status.ok());
    EXPECT_EQ(r.status.kind(), ErrorKind::DeadlineExceeded);
}

} // namespace
} // namespace pathsched
