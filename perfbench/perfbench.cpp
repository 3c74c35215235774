/**
 * @file
 * perfbench: the repository benchmark (see README.md in this directory).
 *
 * One process, one client, one workload: a closed loop of passes, each
 * pass calling pipeline::runPipeline once per (Table-1 program, paper
 * config) pair of the workload, back to back, in an order shuffled by
 * --seed.  Every run's output is checked against a reference
 * interpretation of the original program made during set-up.
 *
 *   perfbench --workload suite|small|paths --seed N --seconds S
 *             --trace 0|1 [--trace-file PATH]
 *
 * --trace 0 reports the end-to-end metrics.  --trace 1 additionally
 * replays every pair through the layers' public entry points (the
 * interpreter with and without each profiler listener, formation,
 * compaction, register allocation, postschedule, layout, the measured
 * test run and the reference run), timing each call from this file —
 * nothing inside src/ is instrumented — and reports per-layer metrics
 * plus a Chrome trace_event file.
 *
 * The last line of stdout is one JSON object:
 *   {"correct":..., "attempted":..., "failed":..., "metrics":{...}}
 * The exit status is non-zero when a correctness gate fails.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "host_speed.hpp"

#include "analysis/callgraph.hpp"
#include "form/form.hpp"
#include "icache/icache.hpp"
#include "interp/interpreter.hpp"
#include "ir/verifier.hpp"
#include "layout/code_layout.hpp"
#include "layout/pettis_hansen.hpp"
#include "pipeline/backend.hpp"
#include "pipeline/executor.hpp"
#include "pipeline/pipeline.hpp"
#include "profile/edge_profile.hpp"
#include "profile/path_profile.hpp"
#include "regalloc/linear_scan.hpp"
#include "sched/compact.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"
#include "workloads/workloads.hpp"

namespace ps = pathsched;
using ps::pipeline::SchedConfig;
using Clock = std::chrono::steady_clock;

namespace {

/** Set-up is repeated this often per run; setup_s is the median.  The
 *  first comes before the loop and the others between pairs at evenly
 *  spaced times of the run, so that the median samples the host's speed
 *  across the run, not only at its start. */
constexpr size_t kSetupReps = 9;
/** Never start a pass that would likely end after this much wall time
 *  (the run must finish well inside its 180 s limit). */
constexpr double kMaxRunSeconds = 150.0;
/** The untraced loop samples the host-speed probe before a pair when
 *  this long has passed since the last sample; the probe then takes
 *  about 3% of the run. */
constexpr double kProbeIntervalMs = 250.0;
/** A run's time is scaled by the probe's slowness over the run and this
 *  long on either side of it. */
constexpr double kProbeWindowMs = 2000.0;
/** How steeply the pipeline's time follows the probe's.  On the tuning
 *  host, over 3-second windows of a 90-second run of `small`, the log
 *  of the pipeline's slowdown rose 1.9 times as fast as the log of the
 *  probe's (correlation 0.96), and as fast against an L2- or an L3-sized
 *  pointer chase; a run's time is divided by the probe's slowness to
 *  this power.  README.md has the spreads this gives. */
constexpr double kHostSensitivity = 2.0;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Linear-interpolation quantile, q in [0, 1]; 0 for no samples. */
double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0;
    std::sort(xs.begin(), xs.end());
    const double pos = q * double(xs.size() - 1);
    const size_t lo = size_t(pos);
    const size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (pos - double(lo)) * (xs[hi] - xs[lo]);
}

double
median(const std::vector<double> &xs)
{
    return quantile(xs, 0.5);
}

/** Harrell-Davis quantile estimate, q in (0, 1): a weighted mean of all
 *  the order statistics, with weights from the Beta(q(n+1), (1-q)(n+1))
 *  distribution, which peak at the q-th one.  Unlike quantile(), it does
 *  not jump when the q-th rank falls in a gap between clusters of
 *  samples (the 90th percentile of the pairs' run times sits between
 *  programs of very different sizes).  0 for no samples. */
double
hdQuantile(std::vector<double> xs, double q)
{
    if (xs.size() < 2)
        return xs.empty() ? 0 : xs[0];
    std::sort(xs.begin(), xs.end());
    const size_t n = xs.size();
    const double a = q * double(n + 1), b = (1 - q) * double(n + 1);
    const double log_norm =
        std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b);
    // Integrate the Beta density over [(i-1)/n, i/n] by the midpoint
    // rule; the weights are renormalised, so the rule's small error
    // cancels out.
    constexpr int kSteps = 64;
    double sum = 0, wsum = 0;
    for (size_t i = 0; i < n; ++i) {
        double w = 0;
        for (int k = 0; k < kSteps; ++k) {
            const double t =
                (double(i) + (k + 0.5) / kSteps) / double(n);
            w += std::exp(log_norm + (a - 1) * std::log(t) +
                          (b - 1) * std::log1p(-t));
        }
        sum += w * xs[i];
        wsum += w;
    }
    return sum / wsum;
}

// ---------------------------------------------------------------------
// Workloads.  Why each exists is recorded in README.md.

struct WorkloadSpec
{
    std::string name;
    std::vector<std::string> programs;
    std::vector<SchedConfig> configs;
    bool icache = false;
    unsigned threads = 1;
};

const std::vector<SchedConfig> kPaperConfigs = {
    SchedConfig::BB, SchedConfig::M4, SchedConfig::M16, SchedConfig::P4,
    SchedConfig::P4e};

bool
makeSpec(const std::string &name, WorkloadSpec &spec)
{
    spec.name = name;
    const std::vector<std::string> all = ps::workloads::benchmarkNames();
    if (name == "suite") {
        spec.programs = all;
        spec.configs = kPaperConfigs;
    } else if (name == "small") {
        for (const std::string &p : all) {
            if (p != "gcc" && p != "go")
                spec.programs.push_back(p);
        }
        spec.configs = kPaperConfigs;
    } else if (name == "paths") {
        spec.programs = {"gcc", "go", "vortex"};
        spec.configs = {SchedConfig::P4, SchedConfig::P4e};
        spec.icache = true;
        spec.threads =
            std::min(4u, ps::pipeline::Executor::hardwareThreads());
    } else {
        return false;
    }
    return true;
}

/** One Table-1 program with its reference run on the test input. */
struct BuiltProgram
{
    ps::workloads::Workload w;
    ps::interp::RunResult ref;
};

struct Pair
{
    size_t prog = 0; ///< index into the built programs
    SchedConfig config = SchedConfig::BB;
};

bool
sameOutput(const ps::interp::RunResult &a, const ps::interp::RunResult &b)
{
    return !a.truncated() && !b.truncated() && a.output == b.output &&
           a.returnValue == b.returnValue;
}

/** Set-up timings; their medians are setup_s and workloads.build_ms. */
struct SetUpTimes
{
    std::vector<double> setupMs; ///< IR, inputs and reference runs
    std::vector<double> buildMs; ///< IR and inputs only
    std::vector<double> startMs; ///< HostSpeedProbe::nowMs() at start
};

/** Build the workload's programs and their reference runs into @p progs
 *  and record the time taken; false if a reference run was truncated. */
bool
setUp(const WorkloadSpec &spec, const ps::pipeline::PipelineOptions &opt,
      std::vector<BuiltProgram> &progs, SetUpTimes &times)
{
    bool ok = true;
    times.startMs.push_back(perfbench::HostSpeedProbe::nowMs());
    const Clock::time_point t0 = Clock::now();
    progs.clear();
    for (const std::string &name : spec.programs)
        progs.push_back({ps::workloads::makeByName(name), {}});
    times.buildMs.push_back(msBetween(t0, Clock::now()));
    for (BuiltProgram &p : progs) {
        ps::interp::InterpOptions io;
        io.maxSteps = opt.maxSteps;
        p.ref = ps::interp::Interpreter(p.w.program, io).run(p.w.test);
        if (p.ref.truncated()) {
            std::fprintf(stderr, "reference run of %s truncated\n",
                         p.w.name.c_str());
            ok = false;
        }
    }
    times.setupMs.push_back(msBetween(t0, Clock::now()));
    return ok;
}

/** One more timed set-up, into a throwaway copy. */
bool
repeatSetUp(const WorkloadSpec &spec,
            const ps::pipeline::PipelineOptions &opt, SetUpTimes &times)
{
    std::vector<BuiltProgram> scratch;
    return setUp(spec, opt, scratch, times);
}

// ---------------------------------------------------------------------
// Tracing: spans kept in memory, written as Chrome trace_event JSON
// when the run ends.

struct Span
{
    std::string name;
    double startUs = 0;
    double endUs = 0;
    int parent = -1;    ///< index of the enclosing span, -1 at top level
    uint64_t runId = 0; ///< one id per pair run (0 for pass/probe spans)
};

/** Records nothing when constructed disabled, so the untraced run pays
 *  only for the clock reads it needs anyway. */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    void
    open(const std::string &name, uint64_t run_id)
    {
        if (!enabled_)
            return;
        Span s;
        s.name = name;
        s.startUs = nowUs();
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.runId = run_id;
        spans_.push_back(std::move(s));
        stack_.push_back(int(spans_.size() - 1));
    }

    /** Close the innermost open span; returns its duration in ms. */
    double
    close()
    {
        if (!enabled_)
            return 0;
        Span &s = spans_[size_t(stack_.back())];
        stack_.pop_back();
        s.endUs = nowUs();
        return (s.endUs - s.startUs) / 1000.0;
    }

    /** Time @p fn as span @p name; returns the span's duration, ms. */
    double
    time(const std::string &name, uint64_t run_id,
         const std::function<void()> &fn)
    {
        open(name, run_id);
        fn();
        return close();
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Total self time (duration minus the time covered by direct
     *  children) per span name, ms. */
    std::map<std::string, double>
    selfTimes() const
    {
        std::vector<double> child_us(spans_.size(), 0);
        for (const Span &s : spans_) {
            if (s.parent >= 0)
                child_us[size_t(s.parent)] += s.endUs - s.startUs;
        }
        std::map<std::string, double> out;
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out[s.name] += (s.endUs - s.startUs - child_us[i]) / 1000.0;
        }
        return out;
    }

    bool
    writeChromeTrace(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        out << "{\"traceEvents\":[\n";
        char buf[512];
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::snprintf(buf, sizeof buf,
                          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                          "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                          "\"args\":{\"span\":%zu,\"parent\":%d,"
                          "\"run\":%llu}}",
                          i == 0 ? "" : ",\n", s.name.c_str(), s.startUs,
                          s.endUs - s.startUs, i, s.parent,
                          (unsigned long long)s.runId);
            out << buf;
        }
        out << "\n],\"displayTimeUnit\":\"ms\"}\n";
        return bool(out);
    }

  private:
    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin_)
            .count();
    }

    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

// ---------------------------------------------------------------------
// The traced replay: runPipeline's sequence of layer calls, made
// through each layer's public entry point and timed from here.

/** What one replayed pair produced and where its time went. */
struct Replay
{
    bool ok = true;               ///< every layer call succeeded
    ps::interp::RunResult test;   ///< the measured test run
    ps::interp::RunResult ref;    ///< the reference run
    uint64_t codeBytes = 0;
    uint64_t steps = 0;           ///< interpreted ops: train+test+ref
    ps::form::FormStats form;
    ps::regalloc::AllocStats alloc;
    /** Wall time per layer call, ms.  trainMs covers the profilers'
     *  construction and the run; releaseMs their destruction; copyMs
     *  copying the program and destroying the transformed copy. */
    double verifyMs = 0, trainMs = 0, releaseMs = 0, copyMs = 0,
           formMs = 0, compactMs = 0, regallocMs = 0, postschedMs = 0,
           layoutMs = 0, testMs = 0, refMs = 0;

    double
    layerMs() const
    {
        return verifyMs + trainMs + releaseMs + copyMs + formMs +
               compactMs + regallocMs + postschedMs + layoutMs + testMs +
               refMs;
    }
};

Replay
replayPair(Tracer &tr, uint64_t run_id, const BuiltProgram &p,
           SchedConfig config, const ps::pipeline::PipelineOptions &opt)
{
    namespace pl = ps::pipeline;
    const pl::BackendDesc &be = pl::backendFor(config);
    const ps::ir::Program &program = p.w.program;
    Replay r;

    r.verifyMs += tr.time("verify.ir", run_id, [&] {
        r.ok &= ps::ir::verifyStatus(program, ps::ir::VerifyMode::Strict)
                    .ok();
    });

    // Held in optionals so their destruction (a million-node trie on
    // gcc) is timed as a call of its own.
    std::optional<ps::profile::EdgeProfiler> edge;
    std::optional<ps::profile::PathProfiler> path;
    ps::interp::RunResult train;
    r.trainMs = tr.time("interp.train", run_id, [&] {
        edge.emplace(program);
        path.emplace(program, opt.pathParams);
        ps::interp::InterpOptions io;
        io.maxSteps = opt.maxSteps;
        io.collectCallCounts = true;
        ps::interp::Interpreter in(program, io);
        if (be.needsEdgeProfile())
            in.addListener(&*edge);
        if (be.needsPathProfile())
            in.addListener(&*path);
        train = in.run(p.w.train);
        if (be.needsPathProfile())
            path->finalize();
    });
    r.ok &= !train.truncated();

    std::optional<ps::ir::Program> prog;
    r.copyMs = tr.time("ir.copy", run_id, [&] { prog.emplace(program); });
    if (be.formsSuperblocks) {
        r.formMs = tr.time("form", run_id, [&] {
            r.form = ps::form::formProgram(
                *prog, &*edge, &*path, pl::formConfigFor(config, opt));
        });
    }
    r.compactMs = tr.time("sched.compact", run_id, [&] {
        ps::sched::CompactOptions co;
        co.priority = opt.schedPriority;
        ps::sched::compactProgram(*prog, opt.machine, co);
    });
    // The per-procedure entry point with the recursion set computed
    // once, as runPipeline does: allocateProgram() would recompute it
    // for every procedure and time a cost the pipeline never pays.
    // Spill slots append to memWords in procedure order, which gives
    // the addresses runPipeline's rebasing gives.
    r.regallocMs = tr.time("regalloc", run_id, [&] {
        const std::vector<uint8_t> recursive =
            ps::regalloc::findRecursiveProcs(*prog);
        ps::regalloc::AllocOptions ao;
        ao.recursive = &recursive;
        for (ps::ir::ProcId q = 0; q < prog->procs.size(); ++q)
            r.ok &= ps::regalloc::allocateProcedure(
                        *prog, q, opt.machine.numRegs, r.alloc, ao)
                        .ok();
    });
    r.postschedMs = tr.time("sched.postsched", run_id, [&] {
        ps::sched::scheduleProgram(*prog, opt.machine,
                                   opt.schedPriority);
    });
    r.verifyMs += tr.time("verify.ir", run_id, [&] {
        r.ok &= ps::ir::verifyStatus(*prog,
                                     ps::ir::VerifyMode::Superblock)
                    .ok();
    });

    ps::layout::CodeLayout code_layout;
    r.layoutMs = tr.time("layout", run_id, [&] {
        ps::analysis::CallGraph cg(*prog);
        for (const auto &[edge_key, count] : train.callCounts)
            cg.addWeight(edge_key.first, edge_key.second, count);
        code_layout = ps::layout::layoutProgram(
            *prog, ps::layout::pettisHansenOrder(cg), opt.blockOrder);
    });
    r.codeBytes = code_layout.totalBytes;

    r.testMs = tr.time(opt.useICache ? "interp.test.icache" : "interp.test",
                       run_id, [&] {
        ps::interp::InterpOptions io;
        io.maxSteps = opt.maxSteps;
        io.codeLayout = &code_layout;
        ps::icache::ICache cache(opt.cacheParams);
        if (opt.useICache)
            io.cache = &cache;
        r.test = ps::interp::Interpreter(*prog, io).run(p.w.test);
    });
    // Destruction in runPipeline's order: the transformed copy, then
    // the profilers.
    r.copyMs += tr.time("ir.copy", run_id, [&] { prog.reset(); });
    r.releaseMs = tr.time("profile.release", run_id, [&] {
        edge.reset();
        path.reset();
    });
    r.refMs = tr.time("interp.ref", run_id, [&] {
        ps::interp::InterpOptions io;
        io.maxSteps = opt.maxSteps;
        r.ref = ps::interp::Interpreter(program, io).run(p.w.test);
    });
    r.steps = train.dynInstrs + r.test.dynInstrs + r.ref.dynInstrs;
    return r;
}

/** Listener cost of one program's training run: the run without
 *  listeners, with the edge profiler and with the path profiler.  The
 *  first interpretation after the replay's large frees runs up to 2.5x
 *  slower (fresh pages), so an untimed warm-up run comes first and the
 *  three timed runs see the same memory state. */
struct Probe
{
    double bareMs = 0, edgeMs = 0, pathMs = 0;
    uint64_t ops = 0;   ///< interpreted ops of the bare run
    uint64_t steps = 0; ///< profiler events (procedure entries + edges)
    uint64_t paths = 0; ///< distinct paths the path profiler recorded
};

Probe
probeProgram(Tracer &tr, const BuiltProgram &p,
             const ps::pipeline::PipelineOptions &opt)
{
    const ps::ir::Program &program = p.w.program;
    ps::interp::InterpOptions io;
    io.maxSteps = opt.maxSteps;
    io.collectCallCounts = true;
    Probe pr;
    tr.time("probe.warmup", 0,
            [&] { ps::interp::Interpreter(program, io).run(p.w.train); });
    pr.bareMs = tr.time("probe.interp.bare", 0, [&] {
        pr.ops = ps::interp::Interpreter(program, io).run(p.w.train)
                     .dynInstrs;
    });
    pr.edgeMs = tr.time("probe.profile.edge", 0, [&] {
        ps::profile::EdgeProfiler edge(program);
        ps::interp::Interpreter in(program, io);
        in.addListener(&edge);
        in.run(p.w.train);
    });
    pr.pathMs = tr.time("probe.profile.path", 0, [&] {
        ps::profile::PathProfiler path(program, opt.pathParams);
        ps::interp::Interpreter in(program, io);
        in.addListener(&path);
        in.run(p.w.train);
        path.finalize();
        pr.steps = path.numSteps();
        pr.paths = path.numPaths();
    });
    return pr;
}

// ---------------------------------------------------------------------
// Result bookkeeping.

/** Per-pair record across passes. */
struct PairRecord
{
    std::vector<double> runMs;   ///< wall time of each run
    std::vector<double> startMs; ///< HostSpeedProbe::nowMs() at its start
    bool seen = false;
    uint64_t cycles = 0, codeBytes = 0, spilled = 0, skipped = 0;
    bool clean = true;
};

/** Per-layer numbers of one traced pass, by metric name. */
using LayerPass = std::map<std::string, double>;

/** Add one replayed pair's layer times and counts to its pass. */
void
addReplay(LayerPass &lp, const Replay &rp)
{
    lp["verify.busy_ms"] += rp.verifyMs;
    lp["ir.copy_ms"] += rp.copyMs;
    lp["interp.runs_ms"] += rp.trainMs + rp.releaseMs + rp.testMs + rp.refMs;
    lp["form.busy_ms"] += rp.formMs;
    lp["sched.compact.busy_ms"] += rp.compactMs;
    lp["regalloc.busy_ms"] += rp.regallocMs;
    lp["sched.postsched.busy_ms"] += rp.postschedMs;
    lp["layout.busy_ms"] += rp.layoutMs;
    lp["interp.steps"] += double(rp.steps);
    lp["interp.test.cycles"] += double(rp.test.cycles);
    lp["form.superblocks"] += double(rp.form.superblocksFormed);
    lp["layout.code_bytes"] += double(rp.codeBytes);
    lp["regalloc.spilled"] += double(rp.alloc.regsSpilled);
    lp["regalloc.procs_skipped"] += double(rp.alloc.procsSkipped);
    lp["icache.accesses"] += double(rp.test.icacheAccesses);
    lp["icache.misses"] += double(rp.test.icacheMisses);
}

/** The per-layer metrics a traced run reports, in output order; each is
 *  the median over passes of its LayerPass entry. */
const std::pair<const char *, const char *> kLayerMetrics[] = {
    {"regalloc.busy_ms", "ms"},
    {"regalloc.spilled", "count"},
    {"regalloc.procs_skipped", "count"},
    {"profile.busy_ms", "ms"},
    {"profile.path.ns_per_step", "ns"},
    {"profile.edge.ns_per_step", "ns"},
    {"profile.path.distinct_paths", "count"},
    {"interp.busy_ms", "ms"},
    {"interp.ns_per_step", "ns"},
    {"interp.steps", "count"},
    {"interp.test.cycles", "count"},
    {"form.busy_ms", "ms"},
    {"form.superblocks", "count"},
    {"sched.compact.busy_ms", "ms"},
    {"sched.postsched.busy_ms", "ms"},
    {"layout.busy_ms", "ms"},
    {"layout.code_bytes", "count"},
    {"verify.busy_ms", "ms"},
    {"ir.copy_ms", "ms"},
    {"icache.miss_rate", "ratio"},
    {"pipeline.run_ms", "ms"},
    {"pipeline.overhead_ms", "ms"},
    {"pipeline.exec.steals", "count"},
    {"trace.overhead_ms", "ms"},
    {"workloads.build_ms", "ms"},
};

/** One row per pair, then a geometric mean per config across programs. */
void
printPairs(const WorkloadSpec &spec, const std::vector<BuiltProgram> &progs,
           const std::vector<Pair> &pairs,
           const std::vector<PairRecord> &records)
{
    std::printf("%-8s %-4s %10s %12s %10s %7s %7s %5s\n", "program",
                "cfg", "run_ms", "cycles", "code_B", "spills", "skipped",
                "clean");
    for (size_t i = 0; i < pairs.size(); ++i) {
        const PairRecord &rec = records[i];
        std::printf("%-8s %-4s %10.3f %12llu %10llu %7llu %7llu %5s\n",
                    progs[pairs[i].prog].w.name.c_str(),
                    ps::pipeline::configName(pairs[i].config),
                    median(rec.runMs), (unsigned long long)rec.cycles,
                    (unsigned long long)rec.codeBytes,
                    (unsigned long long)rec.spilled,
                    (unsigned long long)rec.skipped,
                    rec.clean ? "yes" : "NO");
    }
    for (SchedConfig c : spec.configs) {
        std::vector<double> ms, cyc, bytes;
        for (size_t i = 0; i < pairs.size(); ++i) {
            if (pairs[i].config != c)
                continue;
            ms.push_back(median(records[i].runMs));
            cyc.push_back(double(records[i].cycles));
            bytes.push_back(double(records[i].codeBytes));
        }
        std::printf("%-8s %-4s %10.3f %12.0f %10.0f\n", "geomean",
                    ps::pipeline::configName(c), ps::geomean(ms),
                    ps::geomean(cyc), ps::geomean(bytes));
    }
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false", (unsigned long long)attempted,
                (unsigned long long)failed);
    for (size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "suite|small|paths --seed N --seconds S --trace 0|1 "
                 "[--trace-file PATH]\n",
                 msg);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, trace_file;
    uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        if (a == "--workload")
            workload = v;
        else if (a == "--seed")
            seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds")
            seconds = std::atof(v);
        else if (a == "--trace")
            trace = std::atoi(v);
        else if (a == "--trace-file")
            trace_file = v;
        else
            return usage(("unknown flag " + a).c_str());
    }
    WorkloadSpec spec;
    if (!makeSpec(workload, spec))
        return usage("unknown or missing --workload");
    if (!(seconds > 0) || (trace != 0 && trace != 1))
        return usage("--seconds must be > 0 and --trace 0 or 1");
    const bool traced = trace == 1;

    ps::pipeline::PipelineOptions opt =
        ps::pipeline::PipelineOptions::Builder()
            .icache(spec.icache)
            .threads(spec.threads)
            .build();

    std::optional<perfbench::HostSpeedProbe> probe;
    if (!traced) {
        probe.emplace();
        probe->sample();
    }
    SetUpTimes setup;
    std::vector<BuiltProgram> progs;
    bool correct = setUp(spec, opt, progs, setup);

    std::vector<Pair> pairs;
    for (size_t i = 0; i < progs.size(); ++i) {
        for (SchedConfig c : spec.configs)
            pairs.push_back({i, c});
    }

    // --- The closed loop. ---
    ps::Rng rng(seed);
    std::vector<PairRecord> records(pairs.size());
    std::vector<double> pass_s;
    std::vector<LayerPass> layer_passes;
    Tracer tracer(traced);
    uint64_t attempted = 0, failed = 0, unclean = 0, run_id = 0;
    const Clock::time_point loop_start = Clock::now();
    double elapsed_s = 0, last_pass_s = 0;
    do {
        std::vector<size_t> order(pairs.size());
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        for (size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.below(i)]);

        tracer.open("pass", 0);
        double pass_pipeline_ms = 0;
        LayerPass lp;
        // Profiled training runs per program in this pass.
        std::vector<double> edge_pairs(progs.size(), 0),
            path_pairs(progs.size(), 0);
        for (size_t idx : order) {
            if (setup.setupMs.size() < kSetupReps &&
                msBetween(loop_start, Clock::now()) / 1000.0 >=
                    seconds * double(setup.setupMs.size()) /
                        double(kSetupReps))
                correct = repeatSetUp(spec, opt, setup) && correct;
            if (probe)
                probe->sampleEvery(kProbeIntervalMs);
            const Pair &pair = pairs[idx];
            const BuiltProgram &p = progs[pair.prog];
            PairRecord &rec = records[idx];
            ++run_id;

            tracer.open("pipeline.run", run_id);
            rec.startMs.push_back(perfbench::HostSpeedProbe::nowMs());
            const Clock::time_point t0 = Clock::now();
            const ps::pipeline::PipelineResult r =
                ps::pipeline::runPipeline(p.w.program, p.w.train,
                                          p.w.test, pair.config, opt);
            const double ms = msBetween(t0, Clock::now());
            tracer.close();
            pass_pipeline_ms += ms;

            ++attempted;
            rec.runMs.push_back(ms);
            const bool ok = r.status.ok() && sameOutput(r.test, p.ref);
            if (!ok) {
                ++failed;
                correct = false;
                std::fprintf(stderr,
                             "gate: %s/%s status=%s output-matches=%d\n",
                             p.w.name.c_str(), r.name.c_str(),
                             r.status.toString().c_str(),
                             int(sameOutput(r.test, p.ref)));
            }
            const bool clean = ok && !r.degradedRun() &&
                               r.alloc.procsSkipped == 0;
            if (!clean)
                ++unclean;
            rec.clean = rec.clean && clean;
            if (!rec.seen) {
                rec.seen = true;
                rec.cycles = r.test.cycles;
                rec.codeBytes = r.codeBytes;
                rec.spilled = r.alloc.regsSpilled;
                rec.skipped = r.alloc.procsSkipped;
            } else if (rec.cycles != r.test.cycles ||
                       rec.codeBytes != r.codeBytes) {
                correct = false;
                std::fprintf(stderr,
                             "gate: %s/%s cycles or code bytes differ "
                             "between passes\n",
                             p.w.name.c_str(), r.name.c_str());
            }

            if (!traced)
                continue;
            lp["pipeline.exec.steals"] += double(r.exec.steals);
            tracer.open("replay", run_id);
            const Replay rp = replayPair(tracer, run_id, p, pair.config,
                                         opt);
            const double replay_ms = tracer.close();
            if (!rp.ok || !sameOutput(rp.test, p.ref) ||
                !sameOutput(rp.ref, p.ref) ||
                rp.test.cycles != r.test.cycles ||
                rp.codeBytes != r.codeBytes) {
                correct = false;
                std::fprintf(stderr,
                             "gate: %s/%s replay disagrees with "
                             "runPipeline (cycles %llu vs %llu, code "
                             "bytes %llu vs %llu)\n",
                             p.w.name.c_str(), r.name.c_str(),
                             (unsigned long long)rp.test.cycles,
                             (unsigned long long)r.test.cycles,
                             (unsigned long long)rp.codeBytes,
                             (unsigned long long)r.codeBytes);
            }
            lp["replay.ms"] += replay_ms;
            lp["pipeline.overhead_ms"] += ms - rp.layerMs();
            addReplay(lp, rp);
            const auto &be = ps::pipeline::backendFor(pair.config);
            edge_pairs[pair.prog] += be.needsEdgeProfile() ? 1 : 0;
            path_pairs[pair.prog] += be.needsPathProfile() ? 1 : 0;
        }

        if (traced) {
            // Listener cost per program, measured beside the replay.  A
            // profiled training run's time is split into the listener's
            // overhead (profile) and the rest (interp), so profile plus
            // interp busy time is every interpreter call of the replay.
            double profile_ms = 0, bare_ms = 0, edge_over = 0,
                   path_over = 0, ops = 0, steps = 0, paths = 0;
            for (size_t i = 0; i < progs.size(); ++i) {
                const Probe pr = probeProgram(tracer, progs[i], opt);
                bare_ms += pr.bareMs;
                edge_over += pr.edgeMs - pr.bareMs;
                path_over += pr.pathMs - pr.bareMs;
                ops += double(pr.ops);
                steps += double(pr.steps);
                paths += double(pr.paths);
                profile_ms += edge_pairs[i] * (pr.edgeMs - pr.bareMs) +
                              path_pairs[i] * (pr.pathMs - pr.bareMs);
            }
            lp["pipeline.run_ms"] = pass_pipeline_ms;
            lp["trace.overhead_ms"] = lp["replay.ms"] - pass_pipeline_ms;
            lp["interp.busy_ms"] = lp["interp.runs_ms"] - profile_ms;
            lp["profile.busy_ms"] = profile_ms;
            lp["interp.ns_per_step"] = bare_ms * 1e6 / ops;
            lp["profile.edge.ns_per_step"] = edge_over * 1e6 / steps;
            lp["profile.path.ns_per_step"] = path_over * 1e6 / steps;
            lp["profile.path.distinct_paths"] = paths;
            lp["icache.miss_rate"] =
                lp["icache.accesses"] > 0
                    ? lp["icache.misses"] / lp["icache.accesses"]
                    : 0.0;
            lp["workloads.build_ms"] = median(setup.buildMs);
            layer_passes.push_back(std::move(lp));
        }
        tracer.close();
        pass_s.push_back(pass_pipeline_ms / 1000.0);

        const double now_s = msBetween(loop_start, Clock::now()) / 1000.0;
        last_pass_s = now_s - elapsed_s;
        elapsed_s = now_s;
    } while (elapsed_s < seconds &&
             elapsed_s + last_pass_s < kMaxRunSeconds);
    while (setup.setupMs.size() < kSetupReps)
        correct = repeatSetUp(spec, opt, setup) && correct;
    if (probe)
        probe->sample();

    // --- Report: one row per pair, geomeans per config. ---
    std::printf("workload %s: %zu programs x %zu configs, %u thread(s), "
                "I-cache %s, seed %llu, %zu passes\n",
                spec.name.c_str(), progs.size(), spec.configs.size(),
                spec.threads, spec.icache ? "on" : "off",
                (unsigned long long)seed, pass_s.size());
    printPairs(spec, progs, pairs, records);

    const double clean_share =
        double(attempted - unclean) / double(attempted);
    // Each pair's median wall time over the passes, for the wall-time
    // figures printed beside the metrics.
    size_t unclean_pairs = 0;
    std::vector<double> pair_ms;
    for (const PairRecord &rec : records) {
        unclean_pairs += rec.clean ? 0 : 1;
        pair_ms.push_back(median(rec.runMs));
    }
    std::printf("failed_share %zu/%zu pairs, %llu/%llu runs = %.4f (a run "
                "fails on a non-OK status, an output mismatch, a BB "
                "degradation or an allocator give-up)\n",
                unclean_pairs, pairs.size(), (unsigned long long)unclean,
                (unsigned long long)attempted,
                double(unclean) / double(attempted));

    std::vector<Metric> metrics;
    if (!traced) {
        // A run's time is its wall time over the host's slowness around
        // it (see kHostSensitivity), and a pair's time the median of its
        // runs'.  The wall-time figures are printed too.
        auto scaled = [&](double wall_ms, double start_ms) {
            const double slow =
                probe->slowness(start_ms - kProbeWindowMs,
                                start_ms + wall_ms + kProbeWindowMs);
            return wall_ms / std::pow(slow, kHostSensitivity);
        };
        std::vector<double> host_ms, setup_ms;
        for (const PairRecord &rec : records) {
            std::vector<double> runs;
            for (size_t i = 0; i < rec.runMs.size(); ++i)
                runs.push_back(scaled(rec.runMs[i], rec.startMs[i]));
            host_ms.push_back(median(runs));
        }
        for (size_t i = 0; i < setup.setupMs.size(); ++i)
            setup_ms.push_back(scaled(setup.setupMs[i], setup.startMs[i]));
        metrics = {
            {"pass_s",
             std::accumulate(host_ms.begin(), host_ms.end(), 0.0) / 1000.0,
             "s"},
            {"run_ms.p50", hdQuantile(host_ms, 0.5), "ms"},
            {"run_ms.p90", hdQuantile(host_ms, 0.9), "ms"},
            {"setup_s", median(setup_ms) / 1000.0, "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"clean_share", clean_share, "ratio"},
        };
        std::printf("samples: %zu passes (median pass %.3f s), run_ms "
                    "over %zu pairs' medians of %llu runs, setup_s n=%zu\n"
                    "passes (s):",
                    pass_s.size(), median(pass_s), pair_ms.size(),
                    (unsigned long long)attempted, kSetupReps);
        for (double s : pass_s)
            std::printf(" %.3f", s);
        std::printf("\nhost slowness: %.4f (median of %zu probe "
                    "samples)",
                    probe->slowness(-INFINITY, INFINITY), probe->samples());
        std::printf("\nwall times, pairs' medians: pass_s %.6f s, "
                    "run_ms.p50 %.6f ms, run_ms.p90 %.6f ms, setup_s "
                    "%.6f s\n",
                    std::accumulate(pair_ms.begin(), pair_ms.end(), 0.0) /
                        1000.0,
                    hdQuantile(pair_ms, 0.5), hdQuantile(pair_ms, 0.9),
                    median(setup.setupMs) / 1000.0);
    } else {
        auto med = [&](const std::string &key) {
            std::vector<double> xs;
            for (const LayerPass &lp : layer_passes) {
                auto it = lp.find(key);
                xs.push_back(it == lp.end() ? 0.0 : it->second);
            }
            return median(xs);
        };
        for (const auto &[name, unit] : kLayerMetrics)
            metrics.push_back({name, med(name), unit});

        std::printf("self time per span, ms per pass:\n");
        for (const auto &[name, ms] : tracer.selfTimes())
            std::printf("  %-22s %12.3f\n", name.c_str(),
                        ms / double(layer_passes.size()));
        const double run = med("pipeline.run_ms");
        const double unacc = med("pipeline.overhead_ms");
        const double tro = med("trace.overhead_ms");
        std::printf("accounting: layers %.3f ms of runPipeline %.3f ms "
                    "(%.2f%%); unaccounted %.3f ms, tracing overhead "
                    "%.3f ms: %s\n",
                    run - unacc, run, 100.0 * (run - unacc) / run, unacc,
                    tro,
                    std::fabs(unacc) <= std::fabs(tro) ? "within"
                                                       : "NOT within");
        if (!trace_file.empty()) {
            if (tracer.writeChromeTrace(trace_file))
                std::printf("trace: %zu spans -> %s\n",
                            tracer.spans().size(), trace_file.c_str());
            else
                std::fprintf(stderr, "cannot write %s\n",
                             trace_file.c_str());
        }
    }
    for (const Metric &m : metrics)
        std::printf("%-28s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::fflush(stdout);
    printResult(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}
