/**
 * @file
 * Linear-scan register allocation onto the machine register file.
 *
 * The paper's back end preschedules with an infinite-register variant
 * of the target, allocates registers, then postschedules restricted by
 * the allocation decisions (§2.3).  This allocator maps each
 * procedure's virtual registers onto the 128-entry file using one
 * coarse live interval per register, from a single liveness solve and
 * a single scan.  Parameters are precolored onto registers 0..k-1 (the
 * calling convention).
 *
 * A procedure whose peak overlap fits the file gets plain first-fit in
 * start order, which cannot fail on an interval graph.  One that
 * overflows is scanned onto all but S registers and spills during the
 * scan (Poletto–Sarkar): when no register is free, the interval with
 * the largest (hi - lo) / (1 + refs) among the active ones and the
 * current one moves to a static memory slot.  S is one zero-base
 * register plus the most register operands of any instruction, enough
 * for the reloads and the redirected definition of one instruction.
 * Only a recursive procedure over pressure (static slots would be
 * shared by live activations) stays on virtual registers; it is
 * counted in AllocStats::procsSkipped, named in skippedProcs and
 * reported with a warning.
 */

#ifndef PATHSCHED_REGALLOC_LINEAR_SCAN_HPP
#define PATHSCHED_REGALLOC_LINEAR_SCAN_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "ir/procedure.hpp"
#include "support/budget.hpp"
#include "support/status.hpp"

namespace pathsched::regalloc {

/** Counters reported by allocateProgram. */
struct AllocStats
{
    uint64_t procsAllocated = 0;
    uint64_t procsSkipped = 0;
    uint64_t regsSpilled = 0; ///< live ranges demoted to memory slots
    uint32_t maxPressure = 0; ///< peak simultaneously-live registers
    /** Names of the procedures left on virtual registers, in the order
     *  they were allocated. */
    std::vector<std::string> skippedProcs;

    AllocStats &
    operator+=(const AllocStats &o)
    {
        procsAllocated += o.procsAllocated;
        procsSkipped += o.procsSkipped;
        regsSpilled += o.regsSpilled;
        maxPressure = maxPressure > o.maxPressure ? maxPressure
                                                  : o.maxPressure;
        skippedProcs.insert(skippedProcs.end(), o.skippedProcs.begin(),
                            o.skippedProcs.end());
        return *this;
    }
};

/**
 * @name Procedure-local spill slots (executor mode)
 *
 * Historically every spill slot was carved directly out of
 * Program::memWords, which made register allocation the one transform
 * stage with cross-procedure shared state — unusable from concurrent
 * per-procedure tasks, and address assignment would depend on
 * completion order.  A SpillPlan removes that: slot addresses are
 * issued *locally* per procedure (0, 1, 2, ... recorded only in the
 * plan), emitted into the IR offset from the kSpillSlotBase sentinel —
 * far above any real data address — and rebased onto final absolute
 * addresses by rebaseSpillSlots() at a serial join point, in procedure
 * id order.  A run that allocates procedures in id order therefore
 * produces bit-identical addresses to the historical direct-append
 * path.
 * @{
 */

/** Spill-slot accounting for one procedure's allocation. */
struct SpillPlan
{
    /** Local slots issued so far (== slots the final body references). */
    uint64_t slots = 0;
};

/** Sentinel base for procedure-local slot ids inside Ld/St offsets.
 *  Real data addresses are bounded by Program::memWords and never get
 *  near it. */
inline constexpr int64_t kSpillSlotBase = int64_t(1) << 40;

/**
 * Rewrite every sentinel-relative Ld/LdSpec/St offset of @p proc to an
 * absolute slot address starting at @p base (local slot k becomes
 * address base + k).  Must run before the procedure is interpreted or
 * postscheduled.
 */
void rebaseSpillSlots(ir::Procedure &proc, uint64_t base);

/** @} */

/**
 * Procedures of @p prog that can reach themselves through the call
 * graph.  Static spill slots are unsound for them (multiple live
 * activations would share the slots), so the allocator never spills
 * recursive procedures.  Recursion is a whole-program property; the
 * executor precomputes it once on the untransformed program and shares
 * it read-only across workers via AllocOptions::recursive.
 */
std::vector<uint8_t> findRecursiveProcs(const ir::Program &prog);

/** Knobs for allocateProcedure beyond the register count. */
struct AllocOptions
{
    /** Resource governance (not owned, nullable); see the Status
     *  contract on allocateProcedure. */
    const ResourceBudget *budget = nullptr;
    /**
     * Precomputed findRecursiveProcs() result (not owned, nullable).
     * Null recomputes it whenever a procedure overflows the file —
     * correct but a whole-program scan, and a data race if other
     * procedures are being rewritten concurrently; the executor always
     * passes it.
     */
    const std::vector<uint8_t> *recursive = nullptr;
    /**
     * When non-null, spill slots are numbered locally into this plan
     * (sentinel addressing, see SpillPlan) instead of being appended
     * to Program::memWords.  Required for concurrent allocation.
     */
    SpillPlan *spill = nullptr;
};

/**
 * Allocate procedure @p proc of @p prog onto @p num_phys_regs
 * registers, rewriting register operands in place and accumulating
 * counters into @p stats — the recoverable per-procedure entry point
 * behind allocateProgram(), and the form the pipeline executor calls.
 * Spill slots are appended to @p prog's data memory (or issued locally
 * per AllocOptions::spill).  A recursive procedure over pressure is
 * *not* an error (it stays on virtual registers and counts as skipped,
 * as documented above); a non-OK return means the procedure cannot be
 * allocated at all (more parameters than machine registers), or — when
 * a budget is set — that budget->regallocOps (charged one unit per
 * instruction for the one scan) or budget->deadline ran out before
 * the procedure was touched.
 */
Status allocateProcedure(ir::Program &prog, ir::ProcId proc,
                         uint32_t num_phys_regs, AllocStats &stats,
                         const AllocOptions &options);

/** Back-compat overload: budget only, direct memWords spill slots. */
Status allocateProcedure(ir::Program &prog, ir::ProcId proc,
                         uint32_t num_phys_regs, AllocStats &stats,
                         const ResourceBudget *budget = nullptr);

/**
 * Allocate every procedure of @p prog onto @p num_phys_regs registers,
 * rewriting register operands in place.  Panics on failure — callers
 * that need recovery use allocateProcedure().
 */
AllocStats allocateProgram(ir::Program &prog, uint32_t num_phys_regs);

} // namespace pathsched::regalloc

#endif // PATHSCHED_REGALLOC_LINEAR_SCAN_HPP
