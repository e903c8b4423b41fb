/**
 * @file
 * The directory's original per-format sharer set, kept as the exact
 * reference the compact slot-vector representation in
 * proto/directory.hh is differentially fuzzed against
 * (test_sharer_set.cc). Each operation switches on the format:
 * full-map and coarse-vector keep a bitset over nodes or regions,
 * limited-pointer keeps a list of up to `pointers` exact node ids and
 * a broadcast flag.
 */

#ifndef RNUMA_TESTS_SHARER_SET_ORACLE_HH
#define RNUMA_TESTS_SHARER_SET_ORACLE_HH

#include <algorithm>
#include <bitset>
#include <cstdint>
#include <vector>

#include "proto/directory.hh"

namespace rnuma
{
namespace test
{

class OracleSharerSet
{
  public:
    OracleSharerSet() = default;

    explicit OracleSharerSet(const DirConfig &cfg)
        : format_(cfg.format),
          nodes_(static_cast<std::uint32_t>(cfg.nodes)),
          maxPtrs_(static_cast<std::uint32_t>(cfg.pointers)),
          regionSize_(static_cast<std::uint32_t>(cfg.regionSize))
    {
    }

    void
    set(NodeId n)
    {
        switch (format_) {
          case SharerFormat::FullMap:
            bits_.set(n);
            return;
          case SharerFormat::LimitedPointer:
            if (overflowed_ || havePtr(n))
                return;
            if (ptrs_.size() < maxPtrs_) {
                ptrs_.push_back(static_cast<std::uint16_t>(n));
            } else {
                // Dir_iB: the i+1'th distinct sharer flips the
                // entry to broadcast.
                ptrs_.clear();
                overflowed_ = true;
            }
            return;
          case SharerFormat::CoarseVector:
            bits_.set(n / regionSize_);
            return;
        }
    }

    /** Remove one node, where the representation can express that. */
    void
    reset(NodeId n)
    {
        switch (format_) {
          case SharerFormat::FullMap:
            bits_.reset(n);
            return;
          case SharerFormat::LimitedPointer:
            if (!overflowed_)
                dropPtr(n);
            return;
          case SharerFormat::CoarseVector:
            // Cannot clear a region bit: other sharers may map to it.
            return;
        }
    }

    /** Clear the whole set (always exact, in every format). */
    void
    reset()
    {
        bits_.reset();
        ptrs_.clear();
        overflowed_ = false;
    }

    bool
    test(NodeId n) const
    {
        switch (format_) {
          case SharerFormat::FullMap:
            return bits_.test(n);
          case SharerFormat::LimitedPointer:
            return overflowed_ || havePtr(n);
          case SharerFormat::CoarseVector:
            return bits_.test(n / regionSize_);
        }
        return false;
    }

    bool
    none() const
    {
        switch (format_) {
          case SharerFormat::FullMap:
          case SharerFormat::CoarseVector:
            return bits_.none();
          case SharerFormat::LimitedPointer:
            return !overflowed_ && ptrs_.empty();
        }
        return true;
    }

    /**
     * Apparent sharer count (over-approximate for the sparse
     * formats: nodes for a broadcast entry, region population times
     * region size for coarse bits, clamped to the machine size).
     */
    std::size_t
    count() const
    {
        switch (format_) {
          case SharerFormat::FullMap:
            return bits_.count();
          case SharerFormat::LimitedPointer:
            return overflowed_ ? nodes_ : ptrs_.size();
          case SharerFormat::CoarseVector:
            return std::min<std::size_t>(bits_.count() * regionSize_,
                                         nodes_);
        }
        return 0;
    }

    /**
     * Conservative containment test: true only when every node the
     * set could report via test() lies in [lo, hi). Used by the
     * parallel engine's confinement check — a false negative merely
     * defers a miss to the serial coordinator, so the sparse formats
     * answer pessimistically (a broadcast entry fits only a
     * full-machine range; a coarse region must lie entirely inside).
     */
    bool
    withinRange(NodeId lo, NodeId hi) const
    {
        switch (format_) {
          case SharerFormat::FullMap:
            for (NodeId n = 0; n < nodes_; ++n)
                if (bits_.test(n) && (n < lo || n >= hi))
                    return false;
            return true;
          case SharerFormat::LimitedPointer:
            if (overflowed_)
                return lo == 0 && hi >= nodes_;
            for (std::uint16_t p : ptrs_)
                if (p < lo || p >= hi)
                    return false;
            return true;
          case SharerFormat::CoarseVector:
            for (std::uint32_t r = 0;
                 r * regionSize_ < nodes_; ++r) {
                if (!bits_.test(r))
                    continue;
                const NodeId first = r * regionSize_;
                const NodeId last = std::min<NodeId>(
                    first + regionSize_, nodes_);
                if (first < lo || last > hi)
                    return false;
            }
            return true;
        }
        return false;
    }

    /** A limited-pointer entry that has degraded to broadcast. */
    bool overflowed() const { return overflowed_; }

    SharerFormat format() const { return format_; }

  private:
    bool
    havePtr(NodeId n) const
    {
        for (std::uint16_t p : ptrs_)
            if (p == n)
                return true;
        return false;
    }

    void
    dropPtr(NodeId n)
    {
        for (std::size_t i = 0; i < ptrs_.size(); ++i) {
            if (ptrs_[i] == n) {
                ptrs_[i] = ptrs_.back();
                ptrs_.pop_back();
                return;
            }
        }
    }

    SharerFormat format_ = SharerFormat::FullMap;
    std::uint32_t nodes_ = maxNodes;
    std::uint32_t maxPtrs_ = 0;
    std::uint32_t regionSize_ = 1;
    bool overflowed_ = false;
    /** Full-map node bits, or coarse region bits (low indices). */
    std::bitset<maxNodes> bits_;
    /** Exact node ids (LimitedPointer, when not overflowed). */
    std::vector<std::uint16_t> ptrs_;
};

} // namespace test
} // namespace rnuma

#endif // RNUMA_TESTS_SHARER_SET_ORACLE_HH
