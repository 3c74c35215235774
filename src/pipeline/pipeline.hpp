/**
 * @file
 * End-to-end experiment pipeline.
 *
 * Reproduces the paper's back-end flow (§2.3, §3): profile the original
 * program on the training input, form superblocks (edge- or
 * path-driven), optimize/rename/preschedule, allocate registers,
 * postschedule, place procedures (Pettis-Hansen), then measure the
 * transformed program on the test input — optionally through the
 * 32 KB direct-mapped I-cache.  Every pipeline run checks that the
 * transformed program's output matches the original's.
 *
 * The per-procedure transform stages run as a dependency DAG on a
 * work-stealing executor (pipeline/executor.hpp): one chain of tasks
 * per procedure, so independent procedures proceed in parallel while
 * the whole-program stages (training run, layout, measurement,
 * output comparison) stay serial.  An N-thread run is bit-identical
 * to a 1-thread run — see docs/architecture.md for the invariants
 * that guarantee it.  An optional StageCache (pipeline/cache.hpp)
 * memoizes finished transform chains across runs.
 *
 * The pipeline is fault-tolerant per procedure (docs/robustness.md):
 * when any transform stage fails for one procedure — or the
 * post-transform verification or output-equivalence check implicates
 * one — that procedure alone is degraded to the always-safe BB
 * configuration and the run completes, recording the degradation in
 * PipelineResult::degraded and the "robust.<config>.*" counters.  Only
 * a failure of the BB fallback itself aborts the run.
 */

#ifndef PATHSCHED_PIPELINE_PIPELINE_HPP
#define PATHSCHED_PIPELINE_PIPELINE_HPP

#include <memory>
#include <string>
#include <vector>

#include "form/form.hpp"
#include "icache/icache.hpp"
#include "layout/code_layout.hpp"
#include "interp/interpreter.hpp"
#include "ir/procedure.hpp"
#include "machine/machine.hpp"
#include "obs/timer.hpp"
#include "pipeline/executor.hpp"
#include "profile/path_profile.hpp"
#include "profile/validate.hpp"
#include "regalloc/linear_scan.hpp"
#include "sched/compact.hpp"
#include "support/budget.hpp"
#include "support/faultinject.hpp"
#include "support/status.hpp"

namespace pathsched::pipeline {

class StageCache;

/**
 * The scheduling configurations: the paper's five (§4).  An
 * enumerator is only a stable identifier — everything a configuration
 * *means* (its name, profile needs, whether it forms superblocks)
 * lives in its BackendDesc (pipeline/backend.hpp); query the
 * descriptor instead of comparing enumerators.
 */
enum class SchedConfig
{
    BB,  ///< basic-block scheduling (Table 1 baseline)
    M4,  ///< edge profile, mutual-most-likely, unroll factor 4
    M16, ///< edge profile, mutual-most-likely, unroll factor 16
    P4,  ///< path profile, <= 4 superblock-loop heads (§2.2)
    P4e, ///< P4 with non-loop superblocks capped at tail duplication
};

/** Short display name, e.g. "P4e". */
const char *configName(SchedConfig config);

/** @name PipelineOptions option groups
 *
 * Non-paper concerns are grouped by subsystem instead of accreting as
 * flat fields: profile admission (profileInput), governance and fault
 * injection (robustness), stat/trace sinks (observability), and the
 * task executor plus stage cache (executor).  The paper's own knobs —
 * machine model, formation and scheduling parameters — stay flat on
 * PipelineOptions, mirroring §3/§4 of the paper.
 * @{
 */

/** External profile admission (docs/robustness.md).
 *
 * When the matching text is non-empty, the training profile of that
 * kind is replaced by the externally supplied one — after it passes
 * admission control (profile/validate.hpp) at the level `check`
 * selects.  In Repair mode a rejected file falls back to the internal
 * training profile and rejected procedures degrade individually (path
 * -> projected edge profile -> quarantine to BB), recorded in
 * PipelineResult::profileAudit; in Strict mode any finding fails the
 * run with a typed status; Off trusts the file after a plain parse.
 * With both texts empty the pipeline is bit-identical to a build
 * without this layer. */
struct ProfileInput
{
    std::string edgeText; ///< external edge profile (M4/M16)
    std::string pathText; ///< external path profile (P4/P4e)
    profile::AdmissionMode check = profile::AdmissionMode::Repair;
    /** Flow-check slack, see profile::ValidateOptions::flowSlack. */
    uint64_t flowSlack = 1;
};

/** Resource governance and fault injection (docs/robustness.md). */
struct RobustnessOptions
{
    /**
     * A run-wide deadline plus per-procedure growth/op budgets and an
     * interpreter step budget.  A per-procedure budget exhaustion
     * degrades exactly the affected procedure to BB through the
     * quarantine path; deadline expiry degrades the in-flight
     * procedure and then ends the run with a typed DeadlineExceeded
     * status.  Default-constructed = no governance: the pipeline
     * behaves bit-identically to an unbudgeted run.
     */
    ResourceBudget budget;

    /**
     * Optional fault injector (not owned; see support/faultinject.hpp).
     * runPipeline consults it at every per-procedure stage boundary
     * ("form", "materialize", "compact", "regalloc", "verify",
     * "output-compare") and treats a hit exactly like a real failure
     * of that stage, degrading the procedure to BB.  Quarantined
     * procedures and the BB fallback itself are never re-injected, so
     * an armed fault cannot make the fallback fail.  Null disables
     * injection entirely.  Queries are serialized by the pipeline, so
     * injection is safe (though attribution of count=/prob= faults is
     * scheduling-dependent) under a multi-threaded executor.
     */
    FaultInjector *faults = nullptr;
};

/** Observability sinks (docs/observability.md).
 *
 * With an observer attached, every stage registers its counters
 * ("<stage>.<config>.<counter>", e.g. "form.P4.superblocks") and
 * wall-time distributions ("time.<config>.<stage>") into
 * observer->stats, and emits trace events into observer->trace.  Both
 * sinks are optional; a null observer costs nothing beyond the
 * per-stage clock reads that fill PipelineResult::stages.  Under a
 * multi-threaded executor, per-procedure tasks record into private
 * registries that merge into observer->stats at the serial join, in
 * procedure-id order — counter totals are thread-count-invariant;
 * trace events are only emitted from single-threaded runs. */
struct ObsOptions
{
    const obs::Observer *observer = nullptr;
    /** Attach interp::StatsListener to the train and test runs
     *  ("interp.<config>.{train,test}.*").  Slows the interpreter by a
     *  per-op callback, so keep off for timing-sensitive runs. */
    bool interpStats = false;
};

/** Task executor and stage cache (docs/architecture.md). */
struct ExecutorOptions
{
    /** Worker threads for the per-procedure stage DAG; 1 = run inline
     *  on the calling thread, 0 = one per hardware thread.  Output is
     *  bit-identical for every value. */
    unsigned threads = 1;
    /** Ready-task scheduling policy (threads > 1 only). */
    ExecPolicy policy = ExecPolicy::Steal;
    /** Optional transform-chain memoization (not owned; may be shared
     *  across runs and threads).  Null disables caching. */
    StageCache *cache = nullptr;
};
/** @} */

/** Everything configurable about one pipeline run. */
struct PipelineOptions
{
    machine::MachineModel machine = machine::MachineModel::unitLatency();
    /** Attach the I-cache during the test run (Figs. 5/6). */
    bool useICache = false;
    icache::ICache::Params cacheParams;
    /** Run linear-scan allocation plus postschedule. */
    bool registerAllocate = true;
    /** Order procedures with Pettis-Hansen placement. */
    bool pettisHansen = true;
    /** Block address order within procedures (hot-first ablation). */
    layout::BlockOrder blockOrder = layout::BlockOrder::ById;
    /** Path-profiler depth etc. (paper: 15 branches). */
    profile::PathProfileParams pathParams;
    /** Enlargement gate: required completion frequency. */
    double completionThreshold = 0.50;
    /** Superblock instruction-count cap. */
    uint32_t maxInstrs = 256;
    /** Disable the enlargement step entirely (ablation). */
    bool enlarge = true;
    /** Also grow traces upward from seeds (footnote 2 ablation). */
    bool growUpward = false;
    /** List-scheduler candidate priority (ablation). */
    sched::SchedPriority schedPriority =
        sched::SchedPriority::CriticalPath;
    /** Interpreter step ceiling (the runaway guard; the default is the
     *  interpreter's own, so the two can never drift apart). */
    uint64_t maxSteps = interp::kDefaultMaxSteps;
    /** Keep the transformed program in PipelineResult::transformed
     *  (for tests and tools that inspect the scheduled IR). */
    bool keepTransformed = false;

    /** @name Option groups (see above) @{ */
    ProfileInput profileInput;
    RobustnessOptions robustness;
    ObsOptions observability;
    ExecutorOptions executor;
    /** @} */

    class Builder;
};

/**
 * Fluent construction of PipelineOptions — group membership becomes an
 * implementation detail at call sites:
 *
 *   auto opts = PipelineOptions::Builder()
 *                   .machine(machine::MachineModel::realisticLatency())
 *                   .observer(&ob)
 *                   .threads(8)
 *                   .build();
 *
 * Each setter writes the (possibly grouped) field and returns *this;
 * build() returns the accumulated options by value.
 */
class PipelineOptions::Builder
{
  public:
    Builder() = default;
    /** Start from existing options. */
    explicit Builder(const PipelineOptions &base) : o_(base) {}

    Builder &machine(const machine::MachineModel &m)
    { o_.machine = m; return *this; }
    Builder &icache(bool on)
    { o_.useICache = on; return *this; }
    Builder &icache(bool on, const icache::ICache::Params &p)
    { o_.useICache = on; o_.cacheParams = p; return *this; }
    Builder &registerAllocate(bool on)
    { o_.registerAllocate = on; return *this; }
    Builder &pettisHansen(bool on)
    { o_.pettisHansen = on; return *this; }
    Builder &blockOrder(layout::BlockOrder order)
    { o_.blockOrder = order; return *this; }
    Builder &pathParams(const profile::PathProfileParams &p)
    { o_.pathParams = p; return *this; }
    Builder &completionThreshold(double t)
    { o_.completionThreshold = t; return *this; }
    Builder &maxInstrs(uint32_t n)
    { o_.maxInstrs = n; return *this; }
    Builder &enlarge(bool on)
    { o_.enlarge = on; return *this; }
    Builder &growUpward(bool on)
    { o_.growUpward = on; return *this; }
    Builder &schedPriority(sched::SchedPriority p)
    { o_.schedPriority = p; return *this; }
    Builder &maxSteps(uint64_t n)
    { o_.maxSteps = n; return *this; }
    Builder &keepTransformed(bool on)
    { o_.keepTransformed = on; return *this; }

    Builder &edgeProfile(std::string text)
    { o_.profileInput.edgeText = std::move(text); return *this; }
    Builder &pathProfile(std::string text)
    { o_.profileInput.pathText = std::move(text); return *this; }
    Builder &profileCheck(profile::AdmissionMode mode)
    { o_.profileInput.check = mode; return *this; }
    Builder &profileFlowSlack(uint64_t slack)
    { o_.profileInput.flowSlack = slack; return *this; }

    Builder &budget(const ResourceBudget &b)
    { o_.robustness.budget = b; return *this; }
    Builder &faults(FaultInjector *f)
    { o_.robustness.faults = f; return *this; }

    Builder &observer(const obs::Observer *ob)
    { o_.observability.observer = ob; return *this; }
    Builder &interpStats(bool on)
    { o_.observability.interpStats = on; return *this; }

    Builder &threads(unsigned n)
    { o_.executor.threads = n; return *this; }
    Builder &execPolicy(ExecPolicy p)
    { o_.executor.policy = p; return *this; }
    Builder &cache(StageCache *c)
    { o_.executor.cache = c; return *this; }

    PipelineOptions build() const { return o_; }

  private:
    PipelineOptions o_;
};

/** One procedure degraded to the BB baseline during a pipeline run. */
struct Degradation
{
    ir::ProcId proc = 0;
    std::string procName;
    /** Stage boundary that failed: "profile" (admission quarantined
     *  the procedure before its transform), "form", "materialize",
     *  "compact", "regalloc", "verify", "output-compare", or
     *  "interp" (the measured test run blew its step budget inside
     *  this procedure). */
    std::string stage;
    ErrorKind kind = ErrorKind::Injected;
    std::string message;
};

/** Executor and cache activity of one run (report: "executor"). */
struct ExecReport
{
    unsigned threads = 1;       ///< worker threads actually used
    ExecPolicy policy = ExecPolicy::Steal;
    uint64_t tasks = 0;         ///< per-procedure stage tasks executed
    uint64_t steals = 0;        ///< tasks taken from another worker
    bool cacheEnabled = false;  ///< a StageCache was attached
    uint64_t cacheHits = 0;     ///< this run's chain-level cache hits
    uint64_t cacheMisses = 0;   ///< this run's eligible lookup misses
};

/** Measurements from one (program, config) pipeline run. */
struct PipelineResult
{
    SchedConfig config = SchedConfig::BB;
    std::string name;

    interp::RunResult test;   ///< the measured (transformed) test run
    form::FormStats form;
    sched::CompactStats compact;
    regalloc::AllocStats alloc;

    uint64_t codeBytes = 0;   ///< laid-out binary size
    size_t numPaths = 0;      ///< distinct paths in the train profile
    uint64_t trainSteps = 0;  ///< dynamic ops in the training run
    bool outputMatches = false; ///< transformed output == original output

    /**
     * Overall run status.  Non-OK means the run could not complete at
     * all (invalid input program, training/reference run over the step
     * ceiling) and the measurement fields are not meaningful.  A
     * *degraded* run — some procedures fell back to BB — still
     * completes with an OK status; check degradedRun().
     */
    Status status;
    /** Procedures degraded to BB, in procedure-id order per phase
     *  (the canonical order: identical for every thread count). */
    std::vector<Degradation> degraded;
    /** The run completed but at least one procedure fell back to BB. */
    bool degradedRun() const { return !degraded.empty(); }
    /** The run was governed by a non-empty ResourceBudget. */
    bool budgeted = false;
    /** Admission verdict on externally supplied profiles (enabled is
     *  false when no external profile was checked). */
    profile::ProfileAudit profileAudit;
    /** The transformed program, when keepTransformed was set and the
     *  run completed. */
    std::shared_ptr<const ir::Program> transformed;
    /** Degradations caused by budget or deadline exhaustion. */
    size_t budgetDegradations() const;

    /** Executor and stage-cache activity (threads, tasks, steals,
     *  hits).  Always filled, even for single-threaded runs. */
    ExecReport exec;

    /** Wall time of every pipeline stage, in execution order (always
     *  collected; independent of the observer).  Per-procedure stages
     *  report the sum of their tasks' wall times. */
    std::vector<obs::StageTiming> stages;

    /** Total wall time across stages, ms. */
    double totalMs() const;
};

/** Derive the FormConfig a SchedConfig stands for. */
form::FormConfig formConfigFor(SchedConfig config,
                               const PipelineOptions &options);

/**
 * Run the full pipeline: profile @p program on @p train, transform per
 * @p config, measure on @p test.  @p program itself is not modified.
 *
 * Recovery contract: an invalid input program or a training/reference
 * run over the step ceiling returns early with a non-OK
 * PipelineResult::status.  A per-procedure stage failure (or an
 * injected fault) degrades that procedure to BB and the run completes
 * — see PipelineResult::degraded.  An output mismatch that survives
 * degrading every suspect procedure to BB is an internal bug and
 * panics, as does a failure of the BB fallback itself.
 */
PipelineResult runPipeline(const ir::Program &program,
                           const interp::ProgramInput &train,
                           const interp::ProgramInput &test,
                           SchedConfig config,
                           const PipelineOptions &options);

} // namespace pathsched::pipeline

#endif // PATHSCHED_PIPELINE_PIPELINE_HPP
