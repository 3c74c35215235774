/**
 * @file
 * Host-speed probe for perfbench.
 *
 * The benchmark's host is a shared VM whose speed drifts by a fifth or
 * more over tens of seconds and stays slow or fast for minutes, so that
 * the wall times of runs of the same code a few minutes apart differ by
 * more than any regression worth catching.  The probe measures that
 * drift: it times a fixed kernel, a small bytecode interpreter — switch
 * dispatch, data-dependent branches, loads and stores into a 256 KiB
 * table — that is written here and shares no code with pathsched.  The
 * closed loop samples it a few times a second between pipeline runs,
 * and scales each run's time by the probe's slowness around it (see
 * perfbench.cpp for how).
 *
 * The kernel is its own library, linked to nothing of pathsched's, so
 * that changes to src/ and to its build options do not reach it.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class HostSpeedProbe
{
  public:
    /** About the probe's time on a quiet 2.0 GHz Xeon vCPU, ms. */
    static constexpr double kNominalMs = 6.5;

    /** The clock of the probe's sample times: steady_clock, in ms. */
    static double nowMs();

    HostSpeedProbe();

    /** Run the kernel once and record its start time and duration. */
    void sample();

    /** sample() if at least @p interval_ms passed since the last one. */
    void sampleEvery(double interval_ms);

    size_t samples() const { return samples_.size(); }

    /** How much slower than nominal the host ran between @p from_ms and
     *  @p to_ms: the median duration of the samples started in that
     *  window, or else of the one sample nearest to it, over
     *  kNominalMs; 1 when there are no samples at all. */
    double slowness(double from_ms, double to_ms) const;

  private:
    struct Sample
    {
        double startMs;
        double ms;
    };

    std::vector<uint8_t> code_;
    std::vector<uint32_t> table_;
    std::vector<Sample> samples_; ///< in start order
    double lastEndMs_;
};

} // namespace perfbench
