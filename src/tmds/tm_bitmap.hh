/**
 * @file
 * Transactional bitmap (STAMP lib/bitmap equivalent).
 */

#ifndef HTMSIM_TMDS_TM_BITMAP_HH
#define HTMSIM_TMDS_TM_BITMAP_HH

#include <cstdint>

#include "sim/region.hh"

namespace htmsim::tmds
{

/** Fixed-size bit vector with context-mediated access. */
class TmBitmap
{
  public:
    explicit TmBitmap(std::size_t bits)
        : bits_(bits), words_((bits + 63) / 64, 0)
    {
    }

    std::size_t numBits() const { return bits_; }

    template <typename Ctx>
    bool
    isSet(Ctx& c, std::size_t index)
    {
        return (c.load(&words_[index / 64]) >>
                (index % 64)) & 1u;
    }

    /** Set a bit; returns false if it was already set. */
    template <typename Ctx>
    bool
    set(Ctx& c, std::size_t index)
    {
        std::uint64_t word = c.load(&words_[index / 64]);
        const std::uint64_t mask = std::uint64_t(1) << (index % 64);
        if (word & mask)
            return false;
        c.store(&words_[index / 64], word | mask);
        return true;
    }

    /** Clear a bit; returns false if it was already clear. */
    template <typename Ctx>
    bool
    clear(Ctx& c, std::size_t index)
    {
        std::uint64_t word = c.load(&words_[index / 64]);
        const std::uint64_t mask = std::uint64_t(1) << (index % 64);
        if (!(word & mask))
            return false;
        c.store(&words_[index / 64], word & ~mask);
        return true;
    }

    /** Population count (host-side; for verification). */
    std::size_t
    countSet() const
    {
        std::size_t count = 0;
        for (const auto word : words_)
            count += std::size_t(__builtin_popcountll(word));
        return count;
    }

  private:
    std::size_t bits_;
    sim::Vector<std::uint64_t> words_;
};

} // namespace htmsim::tmds

#endif // HTMSIM_TMDS_TM_BITMAP_HH
