/**
 * @file
 * Dynamically sized bit vector used by dataflow analyses.
 */

#ifndef PATHSCHED_SUPPORT_BITVEC_HPP
#define PATHSCHED_SUPPORT_BITVEC_HPP

#include <cstdint>
#include <vector>

#include "support/logging.hpp"

namespace pathsched {

/** Fixed-size-after-construction bit vector with set-algebra helpers. */
class BitVec
{
  public:
    BitVec() = default;
    explicit BitVec(size_t nbits)
        : nbits_(nbits), words_((nbits + 63) / 64, 0)
    {}

    size_t size() const { return nbits_; }

    bool
    test(size_t i) const
    {
        ps_assert(i < nbits_);
        return (words_[i >> 6] >> (i & 63)) & 1;
    }

    void
    set(size_t i)
    {
        ps_assert(i < nbits_);
        words_[i >> 6] |= uint64_t(1) << (i & 63);
    }

    void
    reset(size_t i)
    {
        ps_assert(i < nbits_);
        words_[i >> 6] &= ~(uint64_t(1) << (i & 63));
    }

    void
    clear()
    {
        for (auto &w : words_)
            w = 0;
    }

    /** this |= other.  Returns true if any bit changed. */
    bool
    unionWith(const BitVec &other)
    {
        ps_assert(nbits_ == other.nbits_);
        bool changed = false;
        for (size_t i = 0; i < words_.size(); ++i) {
            uint64_t next = words_[i] | other.words_[i];
            changed |= next != words_[i];
            words_[i] = next;
        }
        return changed;
    }

    /** this &= ~other (set difference). */
    void
    subtract(const BitVec &other)
    {
        ps_assert(nbits_ == other.nbits_);
        for (size_t i = 0; i < words_.size(); ++i)
            words_[i] &= ~other.words_[i];
    }

    bool
    operator==(const BitVec &other) const
    {
        return nbits_ == other.nbits_ && words_ == other.words_;
    }

    /** Number of set bits. */
    size_t
    count() const
    {
        size_t n = 0;
        for (uint64_t w : words_)
            n += size_t(__builtin_popcountll(w));
        return n;
    }

    /** Call @p f(i) for every set bit i, in increasing order, skipping
     *  empty words — cost is words + set bits, not size(). */
    template <typename F>
    void
    forEachSet(F &&f) const
    {
        for (size_t wi = 0; wi < words_.size(); ++wi) {
            for (uint64_t w = words_[wi]; w != 0; w &= w - 1)
                f(wi * 64 + size_t(__builtin_ctzll(w)));
        }
    }

  private:
    size_t nbits_ = 0;
    std::vector<uint64_t> words_;
};

} // namespace pathsched

#endif // PATHSCHED_SUPPORT_BITVEC_HPP
