/**
 * @file
 * Executable reproduction claims: the qualitative shapes EXPERIMENTS.md
 * reports for every figure are asserted here, so a regression that
 * silently flips a paper-level conclusion fails CI rather than only
 * changing a bench printout.
 *
 * These tests run full pipelines over the whole suite; they are the
 * slowest in the repository (a few seconds each) and deliberately
 * assert *shapes* (who wins, direction of effects), never absolute
 * cycle counts.
 */

#include <gtest/gtest.h>

#include <map>

#include "pipeline/backend.hpp"
#include "pipeline/pipeline.hpp"
#include "support/statistics.hpp"
#include "workloads/workloads.hpp"

namespace pathsched {
namespace {

using pipeline::PipelineOptions;
using pipeline::PipelineResult;
using pipeline::runPipeline;
using pipeline::SchedConfig;

/** Shared cross-test result cache (each TEST re-runs are expensive). */
class Suite
{
  public:
    static Suite &
    instance()
    {
        static Suite s;
        return s;
    }

    const PipelineResult &
    get(const std::string &name, SchedConfig config, bool icache)
    {
        const auto key = std::make_tuple(name, config, icache);
        auto it = cache_.find(key);
        if (it == cache_.end()) {
            const auto &w = workload(name);
            PipelineOptions opts;
            opts.useICache = icache;
            it = cache_
                     .emplace(key, runPipeline(w.program, w.train,
                                               w.test, config, opts))
                     .first;
        }
        return it->second;
    }

    double
    ratio(const std::string &name, SchedConfig config, bool icache)
    {
        const double m4 =
            double(get(name, SchedConfig::M4, icache).test.cycles);
        return double(get(name, config, icache).test.cycles) / m4;
    }

  private:
    const workloads::Workload &
    workload(const std::string &name)
    {
        auto it = workloads_.find(name);
        if (it == workloads_.end()) {
            it = workloads_.emplace(name, workloads::makeByName(name))
                     .first;
        }
        return it->second;
    }

    std::map<std::tuple<std::string, SchedConfig, bool>, PipelineResult>
        cache_;
    std::map<std::string, workloads::Workload> workloads_;
};

const std::vector<std::string> kMicros = {"alt", "ph", "corr"};

TEST(Reproduction, Fig4PathsBeatEdgesOverall)
{
    auto &s = Suite::instance();
    std::vector<double> ratios;
    int wins = 0;
    for (const auto &name : workloads::benchmarkNames()) {
        const double r = s.ratio(name, SchedConfig::P4, false);
        ratios.push_back(r);
        wins += r < 1.0;
    }
    // Paper: 2-16% SPEC reductions, larger on micros.
    EXPECT_LT(geomean(ratios), 0.90);
    EXPECT_GE(wins, 11) << "P4 must beat M4 on most benchmarks";
}

TEST(Reproduction, Fig4MicrosShowLargeWins)
{
    auto &s = Suite::instance();
    for (const auto &name : kMicros)
        EXPECT_LT(s.ratio(name, SchedConfig::P4, false), 0.85) << name;
}

TEST(Reproduction, Fig5CodeExpansionHurtsSomeoneAndP4eRescues)
{
    auto &s = Suite::instance();
    // Our gcc analogue is the benchmark that flips under the cache.
    EXPECT_GT(s.ratio("gcc", SchedConfig::P4, true), 1.0);
    EXPECT_LT(s.ratio("gcc", SchedConfig::P4e, true), 1.0);
}

TEST(Reproduction, MissRatesRiseUnderPathExpansion)
{
    auto &s = Suite::instance();
    const auto &m4 = s.get("gcc", SchedConfig::M4, true);
    const auto &p4 = s.get("gcc", SchedConfig::P4, true);
    const auto &p4e = s.get("gcc", SchedConfig::P4e, true);
    auto rate = [](const PipelineResult &r) {
        return double(r.test.icacheMisses) /
               double(std::max<uint64_t>(1, r.test.icacheAccesses));
    };
    EXPECT_GT(rate(p4), 2.0 * rate(m4));   // paper: 2.67% -> 3.92%
    EXPECT_LT(rate(p4e), 1.5 * rate(m4));  // P4e restrains expansion
    EXPECT_GT(p4.codeBytes, m4.codeBytes); // expansion is the cause
    EXPECT_LE(p4e.codeBytes, p4.codeBytes);
}

TEST(Reproduction, Fig6PathsAtUnroll4BeatEdgesAtUnroll16)
{
    auto &s = Suite::instance();
    std::vector<double> p4e, m16;
    for (const auto &name : workloads::benchmarkNames()) {
        p4e.push_back(s.ratio(name, SchedConfig::P4e, true));
        m16.push_back(s.ratio(name, SchedConfig::M16, true));
    }
    EXPECT_LT(geomean(p4e), geomean(m16));
    // ... except where raw unrolling dominates: the eqntott analogue.
    const auto names = workloads::benchmarkNames();
    for (size_t i = 0; i < names.size(); ++i) {
        if (names[i] == "eqn") {
            EXPECT_LT(m16[i], p4e[i]) << "eqntott: unrolling must win";
        }
    }
}

TEST(Reproduction, Fig7PathsExecuteFurtherWithSmallerSuperblocks)
{
    auto &s = Suite::instance();
    int exec_wins = 0, size_wins = 0, n = 0;
    for (const auto &name : workloads::benchmarkNames()) {
        const auto &m16 = s.get(name, SchedConfig::M16, false);
        const auto &p4 = s.get(name, SchedConfig::P4, false);
        if (m16.test.sbEntries == 0 || p4.test.sbEntries == 0)
            continue;
        ++n;
        exec_wins += p4.test.sbAvgBlocksExecuted() >=
                     0.95 * m16.test.sbAvgBlocksExecuted();
        size_wins += p4.test.sbAvgBlocksInSuperblock() <=
                     m16.test.sbAvgBlocksInSuperblock();
    }
    // P4 stays near (or above) M16's executed-blocks average on most
    // benchmarks while building smaller superblocks on nearly all.
    EXPECT_GE(exec_wins, n - 3);
    EXPECT_GE(size_wins, n - 1);
}

TEST(Reproduction, Fig7GoAndLiImmuneToUnrolling)
{
    // "the cycle counts for M4 and M16 under go and li demonstrate
    // that unrolling alone is insufficient."
    auto &s = Suite::instance();
    for (const char *name : {"go", "li"}) {
        const auto &m4 = s.get(name, SchedConfig::M4, false);
        const auto &m16 = s.get(name, SchedConfig::M16, false);
        EXPECT_NEAR(m16.test.sbAvgBlocksExecuted(),
                    m4.test.sbAvgBlocksExecuted(),
                    0.05 * m4.test.sbAvgBlocksExecuted())
            << name;
        EXPECT_GT(double(m16.test.cycles), 0.98 * double(m4.test.cycles))
            << name << ": M16 must not meaningfully beat M4";
    }
}

TEST(Reproduction, SuperblockProgressDrivesTheWin)
{
    // The causal claim of the whole paper, in Fig. 7's own metric:
    // execution gets *further into* path-formed superblocks — the
    // dynamically weighted blocks-executed-per-entry average rises
    // under P4 on nearly every benchmark.  (Raw completion fractions
    // are not comparable: P4 also builds bigger superblocks.)
    auto &s = Suite::instance();
    int progress_wins = 0, n = 0;
    for (const auto &name : workloads::benchmarkNames()) {
        const auto &m4 = s.get(name, SchedConfig::M4, false);
        const auto &p4 = s.get(name, SchedConfig::P4, false);
        if (m4.test.sbEntries == 0 || p4.test.sbEntries == 0)
            continue;
        ++n;
        progress_wins += p4.test.sbAvgBlocksExecuted() >=
                         0.95 * m4.test.sbAvgBlocksExecuted();
    }
    EXPECT_GE(progress_wins, n - 2);
}

TEST(Reproduction, EveryRunModelsTheRegisterFile)
{
    // Every published number must come from the paper's 128-register
    // machine: no procedure of any Table-1 workload under any config
    // may be left on virtual registers.
    auto &s = Suite::instance();
    for (const auto &name : workloads::benchmarkNames()) {
        for (const pipeline::BackendDesc *be : pipeline::allBackends()) {
            const auto &r = s.get(name, be->config, false);
            EXPECT_EQ(r.alloc.procsSkipped, 0u) << name << "/" << be->name;
            EXPECT_TRUE(r.alloc.skippedProcs.empty())
                << name << "/" << be->name;
        }
    }
}

} // namespace
} // namespace pathsched
