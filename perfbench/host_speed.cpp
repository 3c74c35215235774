#include "host_speed.hpp"

#include <algorithm>
#include <chrono>

namespace perfbench {

namespace {

/** Bytecode instructions executed per sample (6 to 9 ms). */
constexpr long kProbeOps = 500000;

/** Interpret @p code cyclically for @p ops instructions.  An opcode's
 *  high nibble picks the operation, its low bits two of four registers;
 *  two opcodes skip ahead on register values, so branches depend on the
 *  data as an interpreted program's do. */
uint64_t
interpret(const std::vector<uint8_t> &code, std::vector<uint32_t> &table,
          long ops)
{
    uint64_t r[4] = {1, 2, 3, 4};
    size_t pc = 0;
    const size_t n = code.size(), mask = table.size() - 1;
    for (long i = 0; i < ops; ++i) {
        const uint8_t op = code[pc];
        const unsigned a = op & 3, b = (op >> 2) & 3;
        switch (op >> 4) {
        case 0: r[a] += r[b]; break;
        case 1: r[a] ^= r[b] >> 3; break;
        case 2: r[a] = r[a] * 2654435761u + 1; break;
        case 3: r[a] = table[r[b] & mask]; break;
        case 4: table[r[b] & mask] = uint32_t(r[a]); break;
        case 5: if (r[a] & 1) pc += 2; break;
        case 6: if ((r[a] & 7) < 3) pc += 1; break;
        case 7: r[a] -= r[b] | 1; break;
        default: r[a] += op; break;
        }
        if (++pc >= n)
            pc -= n;
    }
    return r[0] + r[1] + r[2] + r[3];
}

volatile uint64_t g_sink;

} // namespace

double
HostSpeedProbe::nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

HostSpeedProbe::HostSpeedProbe()
    : table_(size_t(1) << 16, 7), lastEndMs_(nowMs())
{
    // A fixed pseudo-random program of 4096 instructions over 9 opcodes.
    uint64_t x = 12345;
    code_.resize(4096);
    for (uint8_t &op : code_) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        op = uint8_t(x % 144);
    }
}

void
HostSpeedProbe::sample()
{
    const double t0 = nowMs();
    g_sink = interpret(code_, table_, kProbeOps);
    lastEndMs_ = nowMs();
    samples_.push_back({t0, lastEndMs_ - t0});
}

void
HostSpeedProbe::sampleEvery(double interval_ms)
{
    if (nowMs() - lastEndMs_ >= interval_ms)
        sample();
}

double
HostSpeedProbe::slowness(double from_ms, double to_ms) const
{
    if (samples_.empty())
        return 1.0;
    auto by_start = [](const Sample &s, double t) { return s.startMs < t; };
    auto lo = std::lower_bound(samples_.begin(), samples_.end(), from_ms,
                               by_start);
    auto hi = std::lower_bound(lo, samples_.end(), to_ms, by_start);
    std::vector<double> xs;
    for (auto it = lo; it != hi; ++it)
        xs.push_back(it->ms);
    if (xs.empty()) {
        // The nearest sample: the last one before the window or the
        // first one after it.
        if (hi == samples_.end() ||
            (lo != samples_.begin() &&
             from_ms - std::prev(lo)->startMs < hi->startMs - to_ms))
            --lo;
        xs.push_back(lo->ms);
    }
    std::sort(xs.begin(), xs.end());
    const size_t n = xs.size();
    const double med = n % 2 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
    return med / kNominalMs;
}

} // namespace perfbench
