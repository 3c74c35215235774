#include "regalloc/linear_scan.hpp"

#include <algorithm>
#include <functional>
#include <queue>

#include "analysis/liveness.hpp"
#include "pipeline/stages.hpp"
#include "support/logging.hpp"
#include "support/strutil.hpp"

namespace pathsched::regalloc {

using ir::BlockId;
using ir::Instruction;
using ir::kNoReg;
using ir::Opcode;
using ir::ProcId;
using ir::RegId;

namespace {

struct Interval
{
    RegId vreg;
    uint32_t lo = UINT32_MAX;
    uint32_t hi = 0;
    uint32_t refs = 0; ///< static use+def sites (spill cost proxy)
    bool used = false;

    /**
     * Classic spill metric: prefer ranges that block the allocator for
     * a long time but are rarely referenced, so the inserted loads and
     * stores land on cold code (spilling a loop-carried accumulator
     * would put memory traffic in every iteration).
     */
    double
    spillWeight() const
    {
        return double(hi - lo) / double(1 + refs);
    }
};

/** The coarse live intervals of a procedure, plus the operand width
 *  the spill rewrite must reserve scratch registers for. */
struct IntervalSet
{
    std::vector<Interval> ivs; ///< one per virtual register
    /** Most register operands (sources + destination) of any one
     *  instruction. */
    uint32_t maxOperands = 0;
};

/** One coarse live interval per virtual register of @p proc.  Block
 *  boundaries visit only the set bits of the live sets. */
IntervalSet
buildIntervals(const ir::Procedure &proc)
{
    analysis::Liveness live(proc);
    IntervalSet set;
    std::vector<Interval> &ivs = set.ivs;
    ivs.resize(proc.numRegs);
    for (RegId r = 0; r < proc.numRegs; ++r)
        ivs[r].vreg = r;
    auto extend = [&](RegId r, uint32_t pos) {
        ivs[r].used = true;
        ivs[r].lo = std::min(ivs[r].lo, pos);
        ivs[r].hi = std::max(ivs[r].hi, pos);
    };

    uint32_t pos = 0;
    std::vector<RegId> srcs;
    for (BlockId b = 0; b < proc.blocks.size(); ++b) {
        const uint32_t block_start = pos;
        for (const auto &ins : proc.blocks[b].instrs) {
            ins.sources(srcs);
            for (RegId r : srcs) {
                extend(r, pos);
                ++ivs[r].refs;
            }
            if (ins.hasDst()) {
                extend(ins.dst, pos);
                ++ivs[ins.dst].refs;
            }
            set.maxOperands =
                std::max(set.maxOperands,
                         uint32_t(srcs.size() + (ins.hasDst() ? 1 : 0)));
            ++pos;
        }
        const uint32_t block_end = pos == block_start ? pos : pos - 1;
        live.liveIn(b).forEachSet(
            [&](size_t r) { extend(RegId(r), block_start); });
        live.liveOut(b).forEachSet(
            [&](size_t r) { extend(RegId(r), block_end); });
    }
    for (RegId p = 0; p < proc.numParams; ++p)
        extend(p, 0);
    return set;
}

/** The used intervals by start; parameters first at equal starts so
 *  their precoloring wins. */
std::vector<const Interval *>
scanOrder(const std::vector<Interval> &ivs, uint32_t num_params)
{
    std::vector<const Interval *> order;
    for (const auto &iv : ivs) {
        if (iv.used)
            order.push_back(&iv);
    }
    std::sort(order.begin(), order.end(),
              [&](const Interval *a, const Interval *b) {
                  const bool pa = a->vreg < num_params;
                  const bool pb = b->vreg < num_params;
                  if (a->lo != b->lo)
                      return a->lo < b->lo;
                  if (pa != pb)
                      return pa;
                  return a->vreg < b->vreg;
              });
    return order;
}

/** Peak number of intervals in @p order (sorted by start) that share
 *  one position; intervals are closed at both ends. */
uint32_t
maxOverlap(const std::vector<const Interval *> &order)
{
    std::priority_queue<uint32_t, std::vector<uint32_t>,
                        std::greater<uint32_t>>
        ends;
    size_t peak = 0;
    for (const Interval *iv : order) {
        while (!ends.empty() && ends.top() < iv->lo)
            ends.pop();
        ends.push(iv->hi);
        peak = std::max(peak, ends.size());
    }
    return uint32_t(peak);
}

/**
 * Linear scan of @p order onto registers 0..num_regs-1, taking the
 * lowest free register for each interval; parameters are precolored
 * onto their own ids.  When no register is free, the interval with
 * the largest spill weight among the active ones and the current one
 * (parameters excepted) is evicted: its vreg loses its register and is
 * appended to @p spilled.  Intervals form an interval graph, so when
 * the peak overlap is at most num_regs nothing is ever evicted.
 * Returns the peak number of registers in use.
 */
uint32_t
scanIntervals(const std::vector<const Interval *> &order,
              uint32_t num_regs, uint32_t num_params,
              std::vector<RegId> &assignment, std::vector<RegId> &spilled)
{
    std::vector<uint8_t> phys_free(num_regs, 1);
    std::vector<const Interval *> active;
    size_t peak = 0;

    for (const Interval *iv : order) {
        // Expire intervals that ended strictly before this start.
        for (size_t i = 0; i < active.size();) {
            if (active[i]->hi < iv->lo) {
                phys_free[assignment[active[i]->vreg]] = 1;
                active[i] = active.back();
                active.pop_back();
            } else {
                ++i;
            }
        }

        RegId phys = kNoReg;
        if (iv->vreg < num_params) {
            // Precolored; the parameter registers are the lowest ids
            // and parameters sort first at position 0, so their slots
            // are necessarily still free here.
            phys = iv->vreg;
            ps_assert(phys_free[phys]);
        } else {
            for (RegId p = 0; p < num_regs; ++p) {
                if (phys_free[p]) {
                    phys = p;
                    break;
                }
            }
        }
        if (phys == kNoReg) {
            // Spill the worst offender; ties go to the lowest vreg.
            size_t victim = active.size(); // the current interval
            const Interval *worst = iv;
            for (size_t i = 0; i < active.size(); ++i) {
                const Interval *a = active[i];
                if (a->vreg < num_params)
                    continue;
                const double wa = a->spillWeight();
                const double ww = worst->spillWeight();
                if (wa > ww || (wa == ww && a->vreg < worst->vreg)) {
                    victim = i;
                    worst = a;
                }
            }
            spilled.push_back(worst->vreg);
            if (worst == iv)
                continue;
            phys = assignment[worst->vreg];
            assignment[worst->vreg] = kNoReg;
            active[victim] = active.back();
            active.pop_back();
        }
        phys_free[phys] = 0;
        active.push_back(iv);
        assignment[iv->vreg] = phys;
        peak = std::max(peak, active.size());
    }
    return uint32_t(peak);
}

/**
 * Demote every register in @p spilled to a fresh static memory slot
 * (appended to @p prog's data memory, or issued locally into @p plan):
 * every use reloads into a scratch register just before the reader,
 * and every definition writes a scratch register stored right after
 * the writer.  Each scratch is a fresh vreg that @p assignment maps to
 * a reserved physical register: @p first_scratch holds the block's
 * zero base, the ones above it the reloads and the redirected
 * definition of one instruction.  Static slots are only sound when a
 * single activation of the procedure is live at a time — the caller
 * checks for recursion.
 */
void
rewriteSpills(ir::Program &prog, ir::Procedure &proc,
              const std::vector<RegId> &spilled, RegId first_scratch,
              std::vector<RegId> &assignment, AllocStats &stats,
              SpillPlan *plan)
{
    std::vector<int64_t> slot_of(proc.numRegs, -1);
    for (RegId r : spilled) {
        slot_of[r] = plan != nullptr
                         ? kSpillSlotBase + int64_t(plan->slots++)
                         : int64_t(prog.memWords++);
        ++stats.regsSpilled;
    }
    auto is_spilled = [&](RegId r) {
        return r != kNoReg && r < slot_of.size() && slot_of[r] >= 0;
    };
    auto scratch = [&](RegId phys) {
        assignment.push_back(phys);
        return proc.newReg();
    };

    proc.syncSideTables();
    std::vector<RegId> srcs;
    for (BlockId b = 0; b < proc.blocks.size(); ++b) {
        ir::BasicBlock &bb = proc.blocks[b];
        ir::SuperblockInfo &sb = proc.superblocks[b];
        const bool track = sb.isSuperblock;

        std::vector<Instruction> out;
        std::vector<uint32_t> ordinals;
        out.reserve(bb.instrs.size());
        RegId zero_base = kNoReg;

        for (size_t i = 0; i < bb.instrs.size(); ++i) {
            Instruction ins = std::move(bb.instrs[i]);
            const uint32_t ord = track ? sb.srcOrdinalOf[i] : 0;
            RegId next_scratch = first_scratch + 1;
            auto emit = [&](Instruction x) {
                out.push_back(std::move(x));
                if (track)
                    ordinals.push_back(ord);
            };
            auto ensure_base = [&]() {
                if (zero_base == kNoReg) {
                    zero_base = scratch(first_scratch);
                    emit(ir::makeLdi(zero_base, 0));
                }
            };

            // Reload each distinct spilled source into a scratch reg.
            ins.sources(srcs);
            std::sort(srcs.begin(), srcs.end());
            srcs.erase(std::unique(srcs.begin(), srcs.end()),
                       srcs.end());
            for (RegId r : srcs) {
                if (!is_spilled(r))
                    continue;
                ensure_base();
                const RegId fresh = scratch(next_scratch++);
                emit(ir::makeLd(fresh, zero_base, slot_of[r]));
                ins.renameSources(r, fresh);
            }

            // Redirect a spilled definition through a scratch + store.
            if (is_spilled(ins.dst)) {
                const int64_t slot = slot_of[ins.dst];
                ensure_base();
                const RegId fresh = scratch(next_scratch++);
                ins.dst = fresh;
                emit(std::move(ins));
                emit(ir::makeSt(zero_base, slot, fresh));
            } else {
                emit(std::move(ins));
            }
        }
        bb.instrs = std::move(out);
        if (track)
            sb.srcOrdinalOf = std::move(ordinals);
        // Any schedule for this block is now stale.
        if (b < proc.schedules.size())
            proc.schedules[b] = ir::BlockSchedule();
    }
}

/**
 * Allocate one procedure in a single scan; returns false, leaving it
 * untouched, when it must stay on virtual registers (a recursive
 * procedure over pressure, or a file too small for its parameters plus
 * the spill scratch registers).
 */
bool
allocateProc(ir::Program &prog, ir::Procedure &proc, uint32_t num_phys,
             AllocStats &stats, const AllocOptions &options)
{
    if (proc.numRegs <= num_phys && proc.numRegs == proc.numParams) {
        // Nothing to do for trivial procedures.
        return true;
    }

    const IntervalSet set = buildIntervals(proc);
    const std::vector<const Interval *> order =
        scanOrder(set.ivs, proc.numParams);
    std::vector<RegId> assignment(proc.numRegs, kNoReg);
    std::vector<RegId> spilled;

    const uint32_t demand = maxOverlap(order);
    if (demand <= num_phys) {
        scanIntervals(order, num_phys, proc.numParams, assignment,
                      spilled);
        ps_assert(spilled.empty());
        stats.maxPressure = std::max(stats.maxPressure, demand);
    } else {
        // Static spill slots are unsound under recursion (multiple
        // live activations would share them).
        const bool recursive =
            options.recursive != nullptr
                ? (*options.recursive)[proc.id] != 0
                : findRecursiveProcs(prog)[proc.id] != 0;
        // Scan onto all but the registers one instruction's spill code
        // can need at once: the zero base plus a scratch per operand.
        const uint32_t reserve = 1 + set.maxOperands;
        if (recursive || num_phys < reserve + proc.numParams) {
            warn("regalloc: %sproc %s needs %u registers of %u; kept on "
                 "virtual registers",
                 recursive ? "recursive " : "", proc.name.c_str(),
                 demand, num_phys);
            return false;
        }
        const uint32_t avail = num_phys - reserve;
        const uint32_t peak = scanIntervals(order, avail, proc.numParams,
                                            assignment, spilled);
        rewriteSpills(prog, proc, spilled, avail, assignment, stats,
                      options.spill);
        stats.maxPressure = std::max(stats.maxPressure, peak + reserve);
    }

    // Rewrite every operand.
    for (auto &bb : proc.blocks) {
        for (auto &ins : bb.instrs) {
            if (ins.dst != kNoReg)
                ins.dst = assignment[ins.dst];
            if (ins.src1 != kNoReg)
                ins.src1 = assignment[ins.src1];
            if (ins.src2 != kNoReg)
                ins.src2 = assignment[ins.src2];
            for (RegId &a : ins.args)
                a = assignment[a];
        }
    }
    proc.numRegs = num_phys;
    return true;
}

} // namespace

std::vector<uint8_t>
findRecursiveProcs(const ir::Program &prog)
{
    const size_t n = prog.procs.size();
    std::vector<std::vector<ProcId>> callees(n);
    for (const auto &p : prog.procs) {
        for (const auto &bb : p.blocks) {
            for (const auto &ins : bb.instrs) {
                if (ins.op == Opcode::Call)
                    callees[p.id].push_back(ins.callee);
            }
        }
    }
    std::vector<uint8_t> recursive(n, 0);
    for (ProcId start = 0; start < n; ++start) {
        std::vector<uint8_t> seen(n, 0);
        std::vector<ProcId> work(callees[start]);
        while (!work.empty()) {
            const ProcId cur = work.back();
            work.pop_back();
            if (cur == start) {
                recursive[start] = 1;
                break;
            }
            if (seen[cur])
                continue;
            seen[cur] = 1;
            for (ProcId next : callees[cur])
                work.push_back(next);
        }
    }
    return recursive;
}

void
rebaseSpillSlots(ir::Procedure &proc, uint64_t base)
{
    for (auto &bb : proc.blocks) {
        for (auto &ins : bb.instrs) {
            if ((ins.isLoad() || ins.isStore()) &&
                ins.imm >= kSpillSlotBase)
                ins.imm = int64_t(base) + (ins.imm - kSpillSlotBase);
        }
    }
}

Status
allocateProcedure(ir::Program &prog, ir::ProcId proc_id,
                  uint32_t num_phys_regs, AllocStats &stats,
                  const AllocOptions &options)
{
    ps_assert_msg(proc_id < prog.procs.size(),
                  "allocateProcedure: procedure %u out of range",
                  proc_id);
    ir::Procedure &proc = prog.procs[proc_id];
    if (proc.numParams > num_phys_regs) {
        return Status::error(
            ErrorKind::ScheduleFailed,
            strfmt("proc %s: more parameters (%u) than machine "
                   "registers (%u)",
                   proc.name.c_str(), proc.numParams, num_phys_regs));
    }

    // The single scan reads the whole procedure once, so it is charged
    // one unit per instruction against regallocOps.
    const ResourceBudget *budget = options.budget;
    BudgetMeter meter(budget, "regalloc",
                      budget != nullptr ? budget->regallocOps : 0);
    Status st = meter.checkpoint(proc.instrCount() + 1);
    if (!st.ok())
        return st;

    if (allocateProc(prog, proc, num_phys_regs, stats, options)) {
        ++stats.procsAllocated;
    } else {
        ++stats.procsSkipped;
        stats.skippedProcs.push_back(proc.name);
    }
    return Status();
}

Status
allocateProcedure(ir::Program &prog, ir::ProcId proc_id,
                  uint32_t num_phys_regs, AllocStats &stats,
                  const ResourceBudget *budget)
{
    AllocOptions options;
    options.budget = budget;
    return allocateProcedure(prog, proc_id, num_phys_regs, stats,
                             options);
}

AllocStats
allocateProgram(ir::Program &prog, uint32_t num_phys_regs)
{
    AllocStats stats;
    pipeline::forEachProcOrDie(
        prog, "register allocation", [&](ir::ProcId p) {
            return allocateProcedure(prog, p, num_phys_regs, stats);
        });
    return stats;
}

} // namespace pathsched::regalloc
