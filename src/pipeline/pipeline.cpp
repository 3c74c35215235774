#include "pipeline/pipeline.hpp"

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>

#include "analysis/callgraph.hpp"
#include "interp/stats_listener.hpp"
#include "ir/verifier.hpp"
#include "layout/code_layout.hpp"
#include "layout/pettis_hansen.hpp"
#include "pipeline/backend.hpp"
#include "pipeline/cache.hpp"
#include "profile/edge_profile.hpp"
#include "profile/serialize.hpp"
#include "support/logging.hpp"
#include "support/strutil.hpp"

namespace pathsched::pipeline {

double
PipelineResult::totalMs() const
{
    double total = 0;
    for (const auto &s : stages)
        total += s.ms;
    return total;
}

size_t
PipelineResult::budgetDegradations() const
{
    size_t n = 0;
    for (const auto &d : degraded) {
        if (d.kind == ErrorKind::BudgetExceeded ||
            d.kind == ErrorKind::DeadlineExceeded)
            ++n;
    }
    return n;
}

// configName and formConfigFor live in backend.cpp, beside the
// registrations whose descriptors they reflect.

namespace {

/** How far the surviving procedures have progressed when a fallback
 *  runs — the BB fallback must catch the quarantined procedure up to
 *  exactly this point. */
enum class StageReached
{
    Form,      ///< formation stage: nothing else has run yet
    Compact,   ///< compaction has run
    Regalloc,  ///< register allocation has run
    Postsched, ///< postschedule + IR verification have run
};

/** Accumulates the enclosing scope's wall time into a double, so a
 *  stage's total is the sum of its tasks regardless of which worker
 *  ran them. */
class MsAccum
{
  public:
    explicit MsAccum(double &acc)
        : acc_(acc), t0_(std::chrono::steady_clock::now())
    {}
    ~MsAccum()
    {
        acc_ += std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0_)
                    .count();
    }

  private:
    double &acc_;
    std::chrono::steady_clock::time_point t0_;
};

/**
 * Everything one procedure's task chain reads and writes exclusively.
 * Workers never share a ProcCtx, which is the whole determinism story:
 * all cross-procedure aggregation happens at the serial joins, in
 * procedure-id order.
 */
struct ProcCtx
{
    form::FormStats form;
    sched::CompactStats compact;
    regalloc::AllocStats alloc;
    sched::ScheduleStats postsched;
    /** Locally-numbered spill slots (rebased at the phase-A join). */
    regalloc::SpillPlan spill;
    /** This procedure's degradations, merged at the join. */
    std::vector<Degradation> degraded;
    /** Multi-threaded runs: a private registry stands in for the
     *  shared one and merges at the join. */
    std::unique_ptr<obs::StatRegistry> ownStats;
    /** "time.<config>."-prefixed observer backing this chain's pass
     *  timers (the real observer when single-threaded). */
    obs::Observer timed;
    double formMs = 0, compactMs = 0, regallocMs = 0, postschedMs = 0;
    bool cacheHit = false;
    bool cacheEligible = false;
    CacheKey key;
    /** Phase B: a failed IR verification, handled serially after the
     *  join (its fallback reallocates spill slots, which is a serial
     *  operation). */
    Status verifyFailure;
};

/** Little-endian FNV-1a over a u64 sequence — the per-record primitive
 *  of the per-procedure profile content hash. */
uint64_t
hashU64s(std::initializer_list<uint64_t> vals)
{
    uint8_t buf[8 * 8];
    size_t n = 0;
    for (uint64_t v : vals) {
        for (int i = 0; i < 8; ++i)
            buf[n++] = uint8_t((v >> (8 * i)) & 0xff);
    }
    return profile::fnv1a64(buf, n);
}

/** Bump when anything about the transform chain's semantics changes,
 *  so stale --cache-dir entries from older builds can never hit.
 *  3: the entry payload lost its four global-code-motion counters.
 *  4: register allocation spills during a single scan, so the
 *  post-regalloc bodies of spilling procedures changed, and the entry
 *  payload gained the skipped-procedure names.
 *  The bump re-keys every entry, so an older file on disk is a plain
 *  miss instead of being read, failing the length check and counting
 *  as corrupt. */
constexpr uint64_t kCacheSchema = 4;

} // namespace

PipelineResult
runPipeline(const ir::Program &program, const interp::ProgramInput &train,
            const interp::ProgramInput &test, SchedConfig config,
            const PipelineOptions &options)
{
    const PipelineOptions &opt = options;
    const BackendDesc &be = backendFor(config);
    PipelineResult result;
    result.config = config;
    result.name = be.name;
    {
        Status st = ir::verifyStatus(program, ir::VerifyMode::Strict);
        if (!st.ok()) {
            result.status = st;
            return result;
        }
    }

    // Observability: "timed" carries the "time.<config>." prefix for
    // stage stopwatches; counters register as <stage>.<config>.<name>.
    const obs::Observer base = opt.observability.observer != nullptr
                                   ? *opt.observability.observer
                                   : obs::Observer();
    const obs::Observer timed =
        base.withPrefix("time." + result.name + ".");
    const std::string cfg_dot = "." + result.name + ".";
    const bool want_interp_stats =
        opt.observability.interpStats && base.stats != nullptr;

    // Resource governance: null when no budget is set, so the entire
    // budget machinery vanishes and the run is bit-identical to an
    // unbudgeted build.
    const ResourceBudget &bud = opt.robustness.budget;
    const bool budget_active = !bud.unlimited();
    const ResourceBudget *budp = budget_active ? &bud : nullptr;
    result.budgeted = budget_active;

    // Executor setup.  The thread count and policy change only *how*
    // the per-procedure chains are interleaved, never their results.
    unsigned threads = opt.executor.threads;
    if (threads == 0)
        threads = Executor::hardwareThreads();
    const bool parallel = threads > 1;
    StageCache *cache = opt.executor.cache;
    result.exec.threads = threads;
    result.exec.policy = opt.executor.policy;
    result.exec.cacheEnabled = cache != nullptr;

    // --- 1. Training run on the original program: gather profiles and
    //        dynamic call counts for procedure placement. ---
    profile::EdgeProfiler edge_profile(program);
    profile::PathProfiler path_profile(program, opt.pathParams);
    interp::RunResult train_run;
    {
        auto t = timed.time("train");
        interp::InterpOptions iopts;
        iopts.maxSteps = opt.maxSteps;
        iopts.budgetSteps = bud.interpSteps;
        iopts.deadline = bud.deadline;
        iopts.collectCallCounts = true;
        interp::Interpreter interp(program, iopts);
        const bool need_edge = be.needsEdgeProfile();
        const bool need_path = be.needsPathProfile();
        if (need_edge)
            interp.addListener(&edge_profile);
        if (need_path)
            interp.addListener(&path_profile);
        interp::StatsListener istats(base.stats,
                                     "interp" + cfg_dot + "train");
        if (want_interp_stats)
            interp.addListener(&istats);
        train_run = interp.run(train);
        if (want_interp_stats)
            istats.flush();
        if (need_path) {
            path_profile.finalize();
            result.numPaths = path_profile.numPaths();
        }
        t.stop();
        result.stages.push_back({"train", t.elapsedMs()});
    }
    if (train_run.stepLimit) {
        result.status = Status::error(
            ErrorKind::StepLimit,
            strfmt("training run exceeded %llu steps",
                   (unsigned long long)opt.maxSteps));
        return result;
    }
    if (train_run.budgetStop) {
        // The training run executes the *original* program, so there is
        // no procedure to degrade: the budget is simply too small for
        // this workload.
        result.status = Status::error(
            ErrorKind::BudgetExceeded,
            strfmt("training run exceeded the %llu-step budget",
                   (unsigned long long)bud.interpSteps));
        return result;
    }
    if (train_run.deadlineStop) {
        result.status = Status::error(
            ErrorKind::DeadlineExceeded,
            "deadline expired during the training run");
        return result;
    }
    result.trainSteps = train_run.dynInstrs;
    base.addCounter("profile" + cfg_dot + "trainSteps",
                    train_run.dynInstrs);
    base.addCounter("profile" + cfg_dot + "paths", result.numPaths);

    // --- 1b. Profile admission: externally supplied profiles are
    //         loaded, checked and (in Repair mode) degraded per
    //         procedure before they may drive trace selection.  With
    //         no external text this whole block is inert and the run
    //         is bit-identical to a build without the admission layer.
    profile::EdgeProfiler ext_edge(program);
    profile::PathProfiler ext_path(program, opt.pathParams);
    profile::EdgeProfiler proj_edge(program);
    const profile::EdgeProfiler *edge_for_form = &edge_profile;
    const profile::PathProfiler *path_for_form = &path_profile;
    profile::ProfileAudit &audit = result.profileAudit;
    {
        const bool need_edge = be.needsEdgeProfile();
        const bool need_path = be.needsPathProfile();
        profile::ValidateOptions vo;
        vo.mode = opt.profileInput.check;
        vo.flowSlack = opt.profileInput.flowSlack;
        profile::LoadOptions lo;
        lo.lenient =
            opt.profileInput.check == profile::AdmissionMode::Repair;
        // Whole-file rejection: Repair substitutes the internal
        // training profile; Strict and Off fail the run (true).
        auto admitFailed = [&](Status st) -> bool {
            if (opt.profileInput.check ==
                profile::AdmissionMode::Repair) {
                warn("config %s: external profile rejected (%s); "
                     "falling back to the internal training profile",
                     result.name.c_str(), st.toString().c_str());
                audit.enabled = true;
                audit.fileRejected = true;
                audit.fileStatus = std::move(st);
                return false;
            }
            result.status = std::move(st);
            return true;
        };
        if (need_edge && !opt.profileInput.edgeText.empty()) {
            profile::ProfileMeta meta;
            Status st = profile::loadEdgeProfile(
                opt.profileInput.edgeText, ext_edge, meta, lo);
            if (!st.ok()) {
                if (admitFailed(std::move(st)))
                    return result;
            } else {
                st = profile::auditEdgeProfile(program, ext_edge, meta,
                                               vo, audit);
                if (!st.ok()) { // strict mode only
                    result.status = std::move(st);
                    return result;
                }
                edge_for_form = &ext_edge;
            }
        }
        if (need_path && !opt.profileInput.pathText.empty()) {
            profile::ProfileMeta meta;
            Status st = profile::loadPathProfile(
                opt.profileInput.pathText, ext_path, meta, lo);
            if (!st.ok()) {
                if (admitFailed(std::move(st)))
                    return result;
            } else {
                st = profile::auditPathProfile(program, ext_path, meta,
                                               vo, audit, &proj_edge);
                if (!st.ok()) { // strict mode only
                    result.status = std::move(st);
                    return result;
                }
                ext_path.finalize();
                path_for_form = &ext_path;
                result.numPaths = ext_path.numPaths();
            }
        }
        if (audit.enabled) {
            base.addCounter("profile" + cfg_dot + "audit.checked",
                            audit.checked);
            base.addCounter("profile" + cfg_dot + "audit.repaired",
                            audit.repaired);
            base.addCounter("profile" + cfg_dot + "audit.droppedPaths",
                            audit.droppedPaths);
            base.addCounter("profile" + cfg_dot + "audit.staleProcs",
                            audit.staleProcs);
            base.addCounter("robust" + cfg_dot + "profile.repaired",
                            audit.repaired);
            base.addCounter("robust" + cfg_dot + "profile.quarantined",
                            audit.quarantined);
            base.addCounter("robust" + cfg_dot + "profile.stale",
                            audit.staleProcs);
            if (audit.fileRejected)
                base.addCounter(
                    "robust" + cfg_dot + "profile.fileRejected", 1);
        }
    }

    // --- 2. Transform a copy of the program as a task DAG: one chain
    //        of per-procedure stage tasks per procedure, with
    //        per-procedure quarantine (see the file comment). ---
    ir::Program prog = program;
    const size_t num_procs = prog.procs.size();
    std::vector<uint8_t> quarantined(num_procs, 0);

    // Recursion is a property of the caller->callee edge set, which no
    // transform stage changes (formation duplicates call sites but
    // never severs an edge), so it is computed once here and shared
    // read-only across workers — computing it lazily inside regalloc
    // would be a whole-program read racing the other chains.
    std::vector<uint8_t> recursive;
    if (opt.registerAllocate)
        recursive = regalloc::findRecursiveProcs(prog);

    // Stage-boundary fault injection; quarantined procedures are never
    // queried again, so the BB fallback cannot be re-failed.  The
    // injector keeps internal state (fire counts, its RNG), hence the
    // mutex; which *worker* reaches a shared count=/prob= fault first
    // is scheduling-dependent, so only proc-targeted deterministic
    // faults give thread-count-invariant attribution.
    FaultInjector *const faults = opt.robustness.faults;
    std::mutex fault_mu;
    auto inject = [&](const char *stage, ir::ProcId p) -> Status {
        if (faults == nullptr || quarantined[p])
            return Status();
        std::optional<ErrorKind> kind;
        {
            std::lock_guard<std::mutex> lk(fault_mu);
            kind = faults->fire(stage, p);
        }
        if (kind)
            return Status::error(
                *kind, strfmt("injected fault at %s", stage));
        return Status();
    };

    auto noteFailureTo = [&](std::vector<Degradation> &out, ir::ProcId p,
                             const char *stage, const Status &st) {
        quarantined[p] = 1;
        warn("config %s: proc %s failed at %s (%s); degrading to BB",
             result.name.c_str(), program.procs[p].name.c_str(), stage,
             st.toString().c_str());
        out.push_back({p, program.procs[p].name, stage, st.kind(),
                       st.message()});
    };

    // An expired run-wide deadline ends the run with a typed status at
    // the phase join; tasks poll the flag on entry and fall through
    // (the stage that noticed the expiry has already degraded its
    // in-flight procedure by then).
    std::atomic<bool> deadline_hit{false};
    std::mutex deadline_mu;
    Status deadline_status;
    auto deadlineUp = [&](const char *stage) -> bool {
        if (!budget_active)
            return false;
        if (deadline_hit.load(std::memory_order_relaxed))
            return true;
        Status st = deadlineStatus(budp, stage);
        if (st.ok())
            return false;
        {
            std::lock_guard<std::mutex> lk(deadline_mu);
            if (deadline_status.ok())
                deadline_status = std::move(st);
        }
        deadline_hit.store(true, std::memory_order_relaxed);
        return true;
    };
    // Per-procedure budget view: quarantined procedures already run
    // their BB fallback body, which is always budget-free.
    auto budgetFor = [&](ir::ProcId p) -> const ResourceBudget * {
        return quarantined[p] ? nullptr : budp;
    };

    // Per-procedure task state; see ProcCtx.
    std::vector<ProcCtx> ctxs(num_procs);
    for (size_t p = 0; p < num_procs; ++p) {
        if (!parallel) {
            ctxs[p].timed = timed;
        } else if (base.stats != nullptr) {
            ctxs[p].ownStats = std::make_unique<obs::StatRegistry>();
            obs::Observer own;
            own.stats = ctxs[p].ownStats.get();
            ctxs[p].timed =
                own.withPrefix("time." + result.name + ".");
        }
        // else: parallel with no stats sink — ctx.timed stays sinkless.
    }

    // Stage-cache admission: a chain may be memoized only when its
    // result is a pure function of the key — no op/step budgets (a hit
    // would bypass the exhaustion an uncached run records), no armed
    // faults (they misbehave on purpose), no admission action on the
    // procedure (it changes the profile the chain consumes).  A
    // *deadline-only* budget is compatible: expiry is a wall-clock race
    // in any case, degraded procedures are never stored (storeInCache
    // skips quarantined[p]), and a hit only shortens the run — the
    // serving loop relies on this to reschedule under a deadline while
    // still reusing unchanged procedures.
    const bool ops_budgeted =
        budget_active &&
        (bud.formGrowthOps != 0 || bud.compactOps != 0 ||
         bud.regallocOps != 0 || bud.interpSteps != 0);
    const bool cache_usable =
        cache != nullptr && !ops_budgeted && faults == nullptr;
    if (cache_usable) {
        // Per-procedure profile content hash over every profile kind
        // the backend consumes.  Record hashes combine by wrapping
        // addition: the profilers iterate hash maps, whose order must
        // not leak into the key.
        std::vector<uint64_t> prof_hash(num_procs, 0);
        if (be.needsEdgeProfile()) {
            edge_for_form->forEachBlock(
                [&](ir::ProcId p, ir::BlockId b, uint64_t count) {
                    prof_hash[p] += hashU64s({1, b, count});
                });
            edge_for_form->forEachEdge([&](ir::ProcId p, ir::BlockId f,
                                           ir::BlockId t,
                                           uint64_t count) {
                prof_hash[p] += hashU64s({2, f, t, count});
            });
        }
        if (be.needsPathProfile()) {
            path_for_form->forEachPath(
                [&](ir::ProcId p, const std::vector<ir::BlockId> &seq,
                    uint64_t count) {
                    uint64_t h = hashU64s({3, count, seq.size()});
                    for (ir::BlockId b : seq)
                        h = hashU64s({h, b});
                    prof_hash[p] += h;
                });
        }
        const uint64_t machine_hash = hashMachineModel(opt.machine);
        std::string body;
        for (size_t p = 0; p < num_procs; ++p) {
            ProcCtx &ctx = ctxs[p];
            ctx.cacheEligible =
                !audit.enabled || audit.findProc(p) == nullptr;
            if (!ctx.cacheEligible)
                continue;
            body.clear();
            serializeProcedure(program.procs[p], body);
            // Common material first, then the formation knobs — only
            // a superblock-forming backend reads them.
            KeyHasher h;
            h.u64(kCacheSchema)
                .str(be.name)
                .str(body)
                .u64(profile::cfgFingerprint(program.procs[p]))
                .u64(prof_hash[p])
                .u64(machine_hash)
                .u64(uint64_t(opt.schedPriority))
                .u64(opt.registerAllocate ? 1 : 0)
                .u64(opt.registerAllocate && recursive[p] ? 1 : 0);
            if (be.formsSuperblocks) {
                uint64_t threshold_bits = 0;
                static_assert(sizeof threshold_bits ==
                              sizeof opt.completionThreshold);
                std::memcpy(&threshold_bits, &opt.completionThreshold,
                            sizeof threshold_bits);
                h.u64(threshold_bits)
                    .u64(opt.maxInstrs)
                    .u64(opt.enlarge ? 1 : 0)
                    .u64(opt.growUpward ? 1 : 0)
                    .u64(opt.pathParams.maxBranches)
                    .u64(opt.pathParams.maxBlocks)
                    .u64(opt.pathParams.forwardPathsOnly ? 1 : 0);
            }
            ctx.key = h.key();
        }
    }

    // A hit replays the whole transform chain from the cache entry:
    // the post-regalloc body (spill offsets still sentinel-relative)
    // plus the chain's counters.
    auto tryCacheRestore = [&](ProcCtx &ctx, ir::ProcId p) -> bool {
        if (!ctx.cacheEligible)
            return false;
        StageCache::Entry e;
        if (!cache->lookup(ctx.key, e))
            return false;
        prog.procs[p] = std::move(e.proc);
        prog.procs[p].syncSideTables();
        ctx.form = e.form;
        ctx.compact = e.compact;
        ctx.alloc = e.alloc;
        ctx.spill.slots = e.spillSlots;
        ctx.cacheHit = true;
        return true;
    };
    // Memoize a cleanly-completed chain (a quarantined procedure's body
    // is the fallback's work, not this key's transform).
    auto storeInCache = [&](ProcCtx &ctx, ir::ProcId p) {
        if (!ctx.cacheEligible || ctx.cacheHit || quarantined[p])
            return;
        StageCache::Entry e;
        e.proc = prog.procs[p];
        e.spillSlots = ctx.spill.slots;
        e.form = ctx.form;
        e.compact = ctx.compact;
        e.alloc = ctx.alloc;
        cache->insert(ctx.key, e);
    };

    // Restore procedure p's original (basic-block) body and re-run the
    // stages its chain already passed — budget- and injection-free,
    // entirely within the chain's own tasks.  A failure here means the
    // always-safe baseline itself is broken, which is an internal bug:
    // abort.
    auto rebuildInChain = [&](ProcCtx &ctx, ir::ProcId p,
                              StageReached reached) {
        auto t = ctx.timed.time("fallback");
        prog.procs[p] = program.procs[p];
        prog.procs[p].syncSideTables();
        ctx.spill.slots = 0; // the restored body references no slots
        Status st = Status();
        sched::CompactOptions fb_opts;
        fb_opts.priority = opt.schedPriority;
        sched::CompactStats fb_compact;
        regalloc::AllocStats fb_alloc;
        if (reached >= StageReached::Compact)
            st = sched::compactProcedure(prog, p, opt.machine, fb_opts,
                                         fb_compact);
        if (st.ok() && reached >= StageReached::Regalloc &&
            opt.registerAllocate) {
            regalloc::AllocOptions ao;
            ao.recursive = &recursive;
            ao.spill = &ctx.spill;
            st = regalloc::allocateProcedure(
                prog, p, opt.machine.numRegs, fb_alloc, ao);
        }
        if (!st.ok())
            panic("BB fallback failed for proc %s: %s",
                  program.procs[p].name.c_str(), st.toString().c_str());
    };

    // --- Phase A: form -> compact -> regalloc, one chain per
    //     procedure; only superblock-forming backends get a form task.
    //     Nodes are inserted stage-major so the 1-thread ready-FIFO
    //     order replays the historical serial loops. ---
    auto formTask = [&](ir::ProcId p) {
        ProcCtx &ctx = ctxs[p];
        MsAccum acc(ctx.formMs);
        if (deadlineUp("form"))
            return;
        const profile::ProcAudit *pa =
            audit.enabled ? audit.findProc(p) : nullptr;
        if (pa && pa->action == profile::ProcAction::Quarantined) {
            // No believable profile data for this procedure: schedule
            // it from the BB baseline.
            noteFailureTo(ctx.degraded, p, "profile",
                          Status::error(pa->kind, pa->message));
            rebuildInChain(ctx, p, StageReached::Form);
            return;
        }
        if (tryCacheRestore(ctx, p))
            return;
        form::FormConfig fc = formConfigFor(config, opt);
        const profile::EdgeProfiler *edge = edge_for_form;
        const profile::PathProfiler *path = path_for_form;
        if (pa && pa->action == profile::ProcAction::ProjectedEdges) {
            // Degradation cascade for procedures whose path profile
            // lost windows to admission but still projects
            // consistently: form them edge-driven (M4-style) from the
            // projection.
            fc.mode = form::ProfileMode::Edge;
            fc.unrollFactor = 4;
            edge = &proj_edge;
            path = nullptr;
        }
        const obs::Observer form_obs = ctx.timed.withPrefix("form.");
        fc.observer = &form_obs;
        fc.budget = budgetFor(p);
        const char *stage = "form";
        Status st = inject("form", p);
        if (st.ok())
            st = form::formProcedure(prog, p, edge, path, fc, ctx.form);
        if (st.ok()) {
            stage = "materialize";
            st = inject("materialize", p);
        }
        if (!st.ok()) {
            noteFailureTo(ctx.degraded, p, stage, st);
            rebuildInChain(ctx, p, StageReached::Form);
        }
    };

    auto compactTask = [&](ir::ProcId p) {
        ProcCtx &ctx = ctxs[p];
        MsAccum acc(ctx.compactMs);
        if (ctx.cacheHit)
            return;
        if (deadlineUp("compact"))
            return;
        // Without a form stage (the BB baseline) this is the chain
        // head: the cache lookup lives here.
        if (!be.formsSuperblocks && tryCacheRestore(ctx, p))
            return;
        sched::CompactOptions copts;
        copts.priority = opt.schedPriority;
        const obs::Observer compact_obs =
            ctx.timed.withPrefix("compact.");
        copts.observer = &compact_obs;
        copts.budget = budgetFor(p);
        Status st = inject("compact", p);
        if (st.ok())
            st = sched::compactProcedure(prog, p, opt.machine, copts,
                                         ctx.compact);
        if (!st.ok()) {
            noteFailureTo(ctx.degraded, p, "compact", st);
            rebuildInChain(ctx, p, StageReached::Compact);
        }
        if (!opt.registerAllocate)
            storeInCache(ctx, p); // chain ends here
    };

    auto regallocTask = [&](ir::ProcId p) {
        ProcCtx &ctx = ctxs[p];
        MsAccum acc(ctx.regallocMs);
        if (ctx.cacheHit)
            return;
        if (deadlineUp("regalloc"))
            return;
        Status st = inject("regalloc", p);
        if (st.ok()) {
            regalloc::AllocOptions ao;
            ao.budget = budgetFor(p);
            ao.recursive = &recursive;
            ao.spill = &ctx.spill;
            st = regalloc::allocateProcedure(
                prog, p, opt.machine.numRegs, ctx.alloc, ao);
        }
        if (!st.ok()) {
            noteFailureTo(ctx.degraded, p, "regalloc", st);
            rebuildInChain(ctx, p, StageReached::Regalloc);
        }
        storeInCache(ctx, p);
    };

    {
        TaskGraph graph;
        std::vector<size_t> prev(num_procs, SIZE_MAX);
        if (be.formsSuperblocks) {
            for (ir::ProcId p = 0; p < num_procs; ++p)
                prev[p] = graph.add([&formTask, p] { formTask(p); }, {},
                                    int(p));
        }
        for (ir::ProcId p = 0; p < num_procs; ++p) {
            const std::vector<size_t> deps =
                prev[p] == SIZE_MAX ? std::vector<size_t>{}
                                    : std::vector<size_t>{prev[p]};
            prev[p] = graph.add([&compactTask, p] { compactTask(p); },
                                deps, int(p));
        }
        if (opt.registerAllocate) {
            for (ir::ProcId p = 0; p < num_procs; ++p)
                prev[p] = graph.add(
                    [&regallocTask, p] { regallocTask(p); }, {prev[p]},
                    int(p));
        }
        Executor ex(threads, opt.executor.policy);
        ExecStats es = ex.run(graph);
        result.exec.tasks += es.tasks;
        result.exec.steals += es.steals;
    }

    // --- Phase A join (serial).  Everything order-sensitive happens
    //     here, in procedure-id order: stat merging, degradation
    //     recording, and spill-slot rebasing. ---
    double form_ms = 0, compact_ms = 0, regalloc_ms = 0;
    for (size_t p = 0; p < num_procs; ++p) {
        ProcCtx &ctx = ctxs[p];
        result.form += ctx.form;
        result.compact += ctx.compact;
        result.alloc += ctx.alloc;
        for (auto &d : ctx.degraded)
            result.degraded.push_back(std::move(d));
        ctx.degraded.clear();
        if (ctx.cacheHit)
            ++result.exec.cacheHits;
        else if (ctx.cacheEligible)
            ++result.exec.cacheMisses;
        form_ms += ctx.formMs;
        compact_ms += ctx.compactMs;
        regalloc_ms += ctx.regallocMs;
        if (ctx.ownStats != nullptr)
            base.stats->merge(*ctx.ownStats);
    }
    // Rebase every chain's locally-numbered spill slots onto the
    // program's data memory.  Procedure-id order reproduces the
    // historical serial slot addresses for non-degraded runs.
    if (opt.registerAllocate) {
        for (size_t p = 0; p < num_procs; ++p) {
            if (ctxs[p].spill.slots == 0)
                continue;
            regalloc::rebaseSpillSlots(prog.procs[p], prog.memWords);
            prog.memWords += ctxs[p].spill.slots;
        }
    }
    if (deadline_hit.load()) {
        result.status = std::move(deadline_status);
        return result;
    }
    if (be.formsSuperblocks) {
        result.stages.push_back({"form", form_ms});
        timed.addSample("form.total", form_ms);
        base.addCounter("form" + cfg_dot + "tracesSelected",
                        result.form.tracesSelected);
        base.addCounter("form" + cfg_dot + "multiBlockTraces",
                        result.form.multiBlockTraces);
        base.addCounter("form" + cfg_dot + "superblocks",
                        result.form.superblocksFormed);
        base.addCounter("form" + cfg_dot + "enlarged",
                        result.form.enlargedSuperblocks);
        base.addCounter("form" + cfg_dot + "blocksDuplicated",
                        result.form.blocksDuplicated);
        base.addCounter("form" + cfg_dot + "unreachableRemoved",
                        result.form.unreachableRemoved);
    }
    result.stages.push_back({"compact", compact_ms});
    timed.addSample("compact.total", compact_ms);
    base.addCounter("compact" + cfg_dot + "copiesPropagated",
                    result.compact.opt.copiesPropagated);
    base.addCounter("compact" + cfg_dot + "deadRemoved",
                    result.compact.opt.deadRemoved);
    base.addCounter("compact" + cfg_dot + "defsRenamed",
                    result.compact.rename.defsRenamed);
    base.addCounter("compact" + cfg_dot + "stubsCreated",
                    result.compact.rename.stubsCreated);
    base.addCounter("compact" + cfg_dot + "loadsSpeculated",
                    result.compact.sched.loadsSpeculated);
    if (opt.registerAllocate) {
        result.stages.push_back({"regalloc", regalloc_ms});
        timed.addSample("regalloc", regalloc_ms);
        base.addCounter("alloc" + cfg_dot + "regsSpilled",
                        result.alloc.regsSpilled);
        base.addCounter("alloc" + cfg_dot + "procsSkipped",
                        result.alloc.procsSkipped);
        base.setGauge("alloc" + cfg_dot + "maxPressure",
                      result.alloc.maxPressure);
    }

    // --- Phase B: postschedule -> per-procedure IR verification. ---
    auto postschedTask = [&](ir::ProcId p) {
        ProcCtx &ctx = ctxs[p];
        MsAccum acc(ctx.postschedMs);
        ctx.postsched += sched::scheduleProcedure(
            prog, p, opt.machine, opt.schedPriority);
    };
    auto verifyTask = [&](ir::ProcId p) {
        ProcCtx &ctx = ctxs[p];
        if (deadlineUp("verify"))
            return;
        Status st = inject("verify", p);
        if (st.ok())
            st = ir::verifyProcStatus(prog, p,
                                      ir::VerifyMode::Superblock);
        if (!st.ok())
            ctx.verifyFailure = std::move(st);
    };
    {
        TaskGraph graph;
        std::vector<size_t> prev(num_procs, SIZE_MAX);
        if (opt.registerAllocate) {
            for (ir::ProcId p = 0; p < num_procs; ++p)
                prev[p] = graph.add(
                    [&postschedTask, p] { postschedTask(p); }, {},
                    int(p));
        }
        for (ir::ProcId p = 0; p < num_procs; ++p) {
            const std::vector<size_t> deps =
                prev[p] == SIZE_MAX ? std::vector<size_t>{}
                                    : std::vector<size_t>{prev[p]};
            graph.add([&verifyTask, p] { verifyTask(p); }, deps,
                      int(p));
        }
        Executor ex(threads, opt.executor.policy);
        ExecStats es = ex.run(graph);
        result.exec.tasks += es.tasks;
        result.exec.steals += es.steals;
    }
    if (opt.registerAllocate) {
        // The postschedule replaces the preschedule's cycle counts.
        result.compact.sched = sched::ScheduleStats();
        double postsched_ms = 0;
        for (size_t p = 0; p < num_procs; ++p) {
            result.compact.sched += ctxs[p].postsched;
            postsched_ms += ctxs[p].postschedMs;
        }
        result.stages.push_back({"postsched", postsched_ms});
        timed.addSample("postsched", postsched_ms);
    }
    if (deadline_hit.load()) {
        result.status = std::move(deadline_status);
        return result;
    }

    // Serial-tail fallback: restore procedure p's original body and
    // catch it up past postschedule.  Used by the verification,
    // budget-attribution and output-compare recoveries below, all of
    // which run after the parallel phases — spill slots append
    // directly to the program's data memory here.
    auto rebuildAsBB = [&](ir::ProcId p) {
        auto t = timed.time("fallback");
        prog.procs[p] = program.procs[p];
        prog.procs[p].syncSideTables();
        sched::CompactOptions fb_opts;
        fb_opts.priority = opt.schedPriority;
        sched::CompactStats fb_compact;
        regalloc::AllocStats fb_alloc;
        Status st = sched::compactProcedure(prog, p, opt.machine,
                                            fb_opts, fb_compact);
        if (st.ok() && opt.registerAllocate) {
            st = regalloc::allocateProcedure(
                prog, p, opt.machine.numRegs, fb_alloc);
            if (st.ok())
                sched::scheduleProcedure(prog, p, opt.machine,
                                         opt.schedPriority);
        }
        if (st.ok())
            st = ir::verifyProcStatus(prog, p,
                                      ir::VerifyMode::Superblock);
        if (!st.ok())
            panic("BB fallback failed for proc %s: %s",
                  program.procs[p].name.c_str(), st.toString().c_str());
    };

    // IR-verification fallbacks, procedure-id order (canonical).
    for (ir::ProcId p = 0; p < num_procs; ++p) {
        if (ctxs[p].verifyFailure.ok())
            continue;
        noteFailureTo(result.degraded, p, "verify",
                      ctxs[p].verifyFailure);
        rebuildAsBB(p);
    }

    // --- 5. Procedure placement and address assignment. ---
    // Re-runnable: the output-equivalence fallback lays the program out
    // again after degrading suspects.
    layout::CodeLayout code_layout;
    auto runLayout = [&](const char *stage_name) {
        auto t = timed.time(stage_name);
        if (opt.pettisHansen) {
            analysis::CallGraph cg(prog);
            for (const auto &[edge, count] : train_run.callCounts)
                cg.addWeight(edge.first, edge.second, count);
            code_layout = layout::layoutProgram(
                prog, layout::pettisHansenOrder(cg), opt.blockOrder);
        } else {
            code_layout =
                layout::layoutProgram(prog, {}, opt.blockOrder);
        }
        t.stop();
        result.stages.push_back({stage_name, t.elapsedMs()});
        result.codeBytes = code_layout.totalBytes;
        base.setGauge("layout" + cfg_dot + "codeBytes",
                      double(result.codeBytes));
    };
    runLayout("layout");

    // --- 6. Measured test run of the transformed program (the I-cache
    //        simulation when opt.useICache is set).  Re-runnable, with
    //        a fresh I-cache per attempt so a retry never sees the
    //        first attempt's cache contents. ---
    auto runTest = [&](const char *stage_name) {
        auto t = timed.time(stage_name);
        interp::InterpOptions iopts;
        iopts.maxSteps = opt.maxSteps;
        iopts.budgetSteps = bud.interpSteps;
        iopts.deadline = bud.deadline;
        iopts.codeLayout = &code_layout;
        icache::ICache icache_sim(opt.cacheParams);
        if (opt.useICache)
            iopts.cache = &icache_sim;
        interp::Interpreter interp(prog, iopts);
        interp::StatsListener istats(base.stats,
                                     "interp" + cfg_dot + "test");
        if (want_interp_stats)
            interp.addListener(&istats);
        result.test = interp.run(test);
        if (want_interp_stats)
            istats.flush();
        t.stop();
        result.stages.push_back({stage_name, t.elapsedMs()});
    };
    runTest("test");

    // --- 7. Semantic check against the original program. ---
    interp::RunResult ref;
    {
        auto t = timed.time("verify");
        interp::InterpOptions iopts;
        iopts.maxSteps = opt.maxSteps;
        iopts.budgetSteps = bud.interpSteps;
        iopts.deadline = bud.deadline;
        interp::Interpreter interp(program, iopts);
        ref = interp.run(test);
        t.stop();
        result.stages.push_back({"verify", t.elapsedMs()});
    }
    if (ref.stepLimit) {
        // The *original* program blew the step ceiling on the test
        // input: a user/configuration problem, not a miscompile.
        result.status = Status::error(
            ErrorKind::StepLimit,
            strfmt("reference test run exceeded %llu steps",
                   (unsigned long long)opt.maxSteps));
        return result;
    }
    if (ref.budgetStop) {
        // The original program itself exceeds the step budget, so no
        // amount of degrading can bring the measured run under it.
        result.status = Status::error(
            ErrorKind::BudgetExceeded,
            strfmt("reference test run exceeded the %llu-step budget",
                   (unsigned long long)bud.interpSteps));
        return result;
    }
    if (ref.deadlineStop) {
        result.status = Status::error(
            ErrorKind::DeadlineExceeded,
            "deadline expired during the reference test run");
        return result;
    }

    // A budget-truncated measured run carries a stopProc attribution:
    // degrade that procedure to BB and re-measure.  Bounded — each
    // round quarantines one more procedure, and the reference run has
    // already shown the all-BB limit fits the budget, so attribution
    // running dry (or going in circles) is reported as a typed error,
    // never an abort.
    for (size_t round = 0; result.test.budgetStop ||
                           result.test.deadlineStop;
         ++round) {
        if (result.test.deadlineStop) {
            result.status = Status::error(
                ErrorKind::DeadlineExceeded,
                "deadline expired during the measured test run");
            return result;
        }
        const ir::ProcId sp = result.test.stopProc;
        if (sp == ir::kNoProc || sp >= num_procs || quarantined[sp] ||
            round >= num_procs) {
            result.status = Status::error(
                ErrorKind::BudgetExceeded,
                strfmt("test run exceeded the %llu-step budget even "
                       "after degrading %zu procedures",
                       (unsigned long long)bud.interpSteps,
                       result.degraded.size()));
            return result;
        }
        noteFailureTo(
            result.degraded, sp, "interp",
            Status::error(
                ErrorKind::BudgetExceeded,
                strfmt("test run exceeded the %llu-step budget "
                       "in proc %s",
                       (unsigned long long)bud.interpSteps,
                       program.procs[sp].name.c_str())));
        rebuildAsBB(sp);
        runLayout("layout-retry");
        runTest("test-retry");
    }

    auto matches = [&]() {
        return !result.test.truncated() &&
               ref.output == result.test.output &&
               ref.returnValue == result.test.returnValue;
    };

    // Injected output-compare faults name their suspects (and the
    // error kind to record) directly.
    std::vector<std::pair<ir::ProcId, Status>> suspects;
    for (ir::ProcId p = 0; p < num_procs; ++p) {
        Status st = inject("output-compare", p);
        if (!st.ok())
            suspects.push_back({p, std::move(st)});
    }

    result.outputMatches = matches();
    if (!result.outputMatches || !suspects.empty()) {
        if (suspects.empty()) {
            // A real mismatch carries no attribution: suspect every
            // procedure that is not already running its BB body.
            const bool step_limited = result.test.stepLimit;
            const Status st = Status::error(
                step_limited ? ErrorKind::StepLimit
                             : ErrorKind::OutputMismatch,
                step_limited
                    ? strfmt("test run exceeded %llu steps",
                             (unsigned long long)opt.maxSteps)
                    : strfmt("%zu vs %zu output values, "
                             "return %lld vs %lld",
                             ref.output.size(),
                             result.test.output.size(),
                             (long long)ref.returnValue,
                             (long long)result.test.returnValue));
            for (ir::ProcId p = 0; p < num_procs; ++p) {
                if (!quarantined[p])
                    suspects.push_back({p, st});
            }
        }
        ps_assert_msg(!suspects.empty(),
                      "config %s changed program behaviour with every "
                      "procedure already degraded to BB "
                      "(%zu vs %zu output values, return %lld vs %lld)",
                      result.name.c_str(), ref.output.size(),
                      result.test.output.size(),
                      (long long)ref.returnValue,
                      (long long)result.test.returnValue);
        for (const auto &[p, st] : suspects) {
            noteFailureTo(result.degraded, p, "output-compare", st);
            rebuildAsBB(p);
        }
        // Hyphenated names: "layout.retry" would nest under the
        // "layout" leaf in the stats registry, which forbids that.
        runLayout("layout-retry");
        runTest("test-retry");
        if (result.test.budgetStop || result.test.deadlineStop) {
            // The retry itself ran out of budget: a governance limit,
            // not a miscompile — report it typed instead of asserting.
            result.status = Status::error(
                result.test.deadlineStop ? ErrorKind::DeadlineExceeded
                                         : ErrorKind::BudgetExceeded,
                "resource budget exhausted during the output-compare "
                "retry run");
            return result;
        }
        result.outputMatches = matches();
        ps_assert_msg(result.outputMatches,
                      "config %s changed program behaviour even after "
                      "BB fallback "
                      "(%zu vs %zu output values, return %lld vs %lld)",
                      result.name.c_str(), ref.output.size(),
                      result.test.output.size(),
                      (long long)ref.returnValue,
                      (long long)result.test.returnValue);
    }

    // Test-run counters are recorded once, from the *final* (possibly
    // retried) test run.
    base.addCounter("test" + cfg_dot + "cycles", result.test.cycles);
    base.addCounter("test" + cfg_dot + "instrs", result.test.dynInstrs);
    base.addCounter("test" + cfg_dot + "branches",
                    result.test.dynBranches);
    if (opt.useICache) {
        base.addCounter("test" + cfg_dot + "icacheAccesses",
                        result.test.icacheAccesses);
        base.addCounter("test" + cfg_dot + "icacheMisses",
                        result.test.icacheMisses);
        base.addCounter("test" + cfg_dot + "stallCycles",
                        result.test.stallCycles);
    }

    // --- 8. Robustness and executor accounting. ---
    base.addCounter("robust" + cfg_dot + "degraded",
                    result.degraded.size());
    for (ErrorKind k : kAllErrorKinds) {
        uint64_t n = 0;
        for (const auto &d : result.degraded) {
            if (d.kind == k)
                ++n;
        }
        if (n > 0)
            base.addCounter(
                "robust" + cfg_dot + "errors." + errorKindName(k), n);
    }
    if (budget_active) {
        // Gated on governance being on, so unbudgeted runs register
        // exactly the same stats as before the budget layer existed.
        base.addCounter("robust" + cfg_dot + "budget.exhausted",
                        result.budgetDegradations());
        if (bud.deadline.active())
            base.setGauge("robust" + cfg_dot +
                              "budget.deadlineRemainingMs",
                          double(bud.deadline.remainingMs()));
    }
    // Executor stats vary with the thread count and policy (steals,
    // cache warmth) — consumers comparing runs for determinism must
    // ignore the "executor." subtree, and only it.
    base.addCounter("executor" + cfg_dot + "tasks", result.exec.tasks);
    base.addCounter("executor" + cfg_dot + "steals",
                    result.exec.steals);
    base.setGauge("executor" + cfg_dot + "threads", double(threads));
    if (cache != nullptr) {
        base.addCounter("executor" + cfg_dot + "cacheHits",
                        result.exec.cacheHits);
        base.addCounter("executor" + cfg_dot + "cacheMisses",
                        result.exec.cacheMisses);
    }

    if (opt.keepTransformed)
        result.transformed =
            std::make_shared<ir::Program>(std::move(prog));

    return result;
}

} // namespace pathsched::pipeline
