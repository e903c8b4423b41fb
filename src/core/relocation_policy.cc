#include "core/relocation_policy.hh"

#include "common/logging.hh"

namespace rnuma
{

namespace
{

std::uint64_t
countIn(const std::unordered_map<Addr, std::uint64_t> &counts,
        Addr page)
{
    auto it = counts.find(page);
    return it == counts.end() ? 0 : it->second;
}

} // namespace

//--------------------------------------------------------------------------
// StaticThresholdPolicy
//--------------------------------------------------------------------------

StaticThresholdPolicy::StaticThresholdPolicy(std::size_t threshold)
    : thresh(threshold)
{
    RNUMA_ASSERT(thresh >= 1, "threshold must be at least 1");
}

bool
StaticThresholdPolicy::onRefetch(Addr page)
{
    std::uint64_t &c = counts[page];
    if (++c >= thresh) {
        counts.erase(page);
        return true;
    }
    return false;
}

void
StaticThresholdPolicy::onRelocated(Addr page)
{
    counts.erase(page);
}

void
StaticThresholdPolicy::onEvicted(Addr page,
                                 std::uint64_t /*residentHits*/)
{
    counts.erase(page);
}

void
StaticThresholdPolicy::reset(Addr page)
{
    counts.erase(page);
}

std::uint64_t
StaticThresholdPolicy::count(Addr page) const
{
    return countIn(counts, page);
}

std::size_t
StaticThresholdPolicy::trackedPages() const
{
    return counts.size();
}

std::string
StaticThresholdPolicy::describe() const
{
    return "static(T=" + std::to_string(thresh) + ")";
}

//--------------------------------------------------------------------------
// HysteresisPolicy
//--------------------------------------------------------------------------

HysteresisPolicy::HysteresisPolicy(std::size_t relocateThreshold,
                                   std::size_t revertedThreshold)
    : relocT(relocateThreshold), revertT(revertedThreshold)
{
    RNUMA_ASSERT(relocT >= 1, "relocate threshold must be at least 1");
    RNUMA_ASSERT(revertT >= relocT,
                 "reverted threshold (", revertT,
                 ") must not be below the relocate threshold (",
                 relocT, ")");
}

std::size_t
HysteresisPolicy::thresholdOf(Addr page) const
{
    return reverted.count(page) ? revertT : relocT;
}

bool
HysteresisPolicy::onRefetch(Addr page)
{
    std::uint64_t &c = counts[page];
    if (++c >= thresholdOf(page)) {
        counts.erase(page);
        return true;
    }
    return false;
}

void
HysteresisPolicy::onRelocated(Addr page)
{
    counts.erase(page);
}

void
HysteresisPolicy::onEvicted(Addr page, std::uint64_t /*residentHits*/)
{
    counts.erase(page);
    reverted.insert(page);
}

void
HysteresisPolicy::reset(Addr page)
{
    counts.erase(page);
    reverted.erase(page);
}

std::uint64_t
HysteresisPolicy::count(Addr page) const
{
    return countIn(counts, page);
}

std::size_t
HysteresisPolicy::trackedPages() const
{
    // Live state is a pending counter or a reverted mark; count the
    // union, not just the counters.
    std::size_t n = counts.size();
    for (Addr page : reverted)
        if (!counts.count(page))
            n++;
    return n;
}

std::string
HysteresisPolicy::describe() const
{
    return "hysteresis(T=" + std::to_string(relocT) +
        ",T_reverted=" + std::to_string(revertT) + ")";
}

//--------------------------------------------------------------------------
// AdaptiveThresholdPolicy
//--------------------------------------------------------------------------

AdaptiveThresholdPolicy::AdaptiveThresholdPolicy(
    std::size_t initialThreshold, std::size_t minThreshold,
    std::size_t maxThreshold)
    : initialT(initialThreshold), minT(minThreshold),
      maxT(maxThreshold)
{
    RNUMA_ASSERT(minT >= 1, "minimum threshold must be at least 1");
    RNUMA_ASSERT(minT <= initialT && initialT <= maxT,
                 "need min <= initial <= max, got ", minT, " / ",
                 initialT, " / ", maxT);
}

std::size_t
AdaptiveThresholdPolicy::thresholdOf(Addr page) const
{
    auto it = perPageT.find(page);
    return it == perPageT.end() ? initialT : it->second;
}

bool
AdaptiveThresholdPolicy::onRefetch(Addr page)
{
    std::uint64_t &c = counts[page];
    if (++c >= thresholdOf(page)) {
        counts.erase(page);
        return true;
    }
    return false;
}

void
AdaptiveThresholdPolicy::onRelocated(Addr page)
{
    counts.erase(page);
    std::size_t entry = thresholdOf(page);
    std::size_t t = entry / 2;
    perPageT[page] = t < minT ? minT : t;
    entryT[page] = entry;
}

void
AdaptiveThresholdPolicy::onEvicted(Addr page,
                                   std::uint64_t /*residentHits*/)
{
    counts.erase(page);
    // An eviction that undoes a relocation is one ping-pong round
    // trip: escalate from the page's pre-relocation threshold, so
    // churn costs T, 2T, 4T, ... instead of washing out against the
    // relocation's halve — doubling the current (halved) value
    // would re-enter at exactly the static threshold forever.
    // Free-standing evictions (no relocation recorded) double the
    // current value.
    auto it = entryT.find(page);
    std::size_t t;
    if (it != entryT.end()) {
        t = it->second * 2;
        entryT.erase(it);
    } else {
        t = thresholdOf(page) * 2;
    }
    perPageT[page] = t > maxT ? maxT : t;
}

void
AdaptiveThresholdPolicy::reset(Addr page)
{
    counts.erase(page);
    perPageT.erase(page);
    entryT.erase(page);
}

std::uint64_t
AdaptiveThresholdPolicy::count(Addr page) const
{
    return countIn(counts, page);
}

std::size_t
AdaptiveThresholdPolicy::trackedPages() const
{
    // Live state is a pending counter or an adapted threshold;
    // count the union, not just the counters.
    std::size_t n = counts.size();
    for (const auto &kv : perPageT)
        if (!counts.count(kv.first))
            n++;
    return n;
}

std::string
AdaptiveThresholdPolicy::describe() const
{
    return "adaptive(T0=" + std::to_string(initialT) + ",min=" +
        std::to_string(minT) + ",max=" + std::to_string(maxT) + ")";
}

//--------------------------------------------------------------------------
// UtilityThresholdPolicy
//--------------------------------------------------------------------------

UtilityThresholdPolicy::UtilityThresholdPolicy(
    std::size_t initialThreshold, std::size_t minThreshold,
    std::size_t maxThreshold, std::uint64_t breakEvenHits)
    : initialT(initialThreshold), minT(minThreshold),
      maxT(maxThreshold), breakEvenHits(breakEvenHits)
{
    RNUMA_ASSERT(minT >= 1, "minimum threshold must be at least 1");
    RNUMA_ASSERT(minT <= initialT && initialT <= maxT,
                 "need min <= initial <= max, got ", minT, " / ",
                 initialT, " / ", maxT);
    RNUMA_ASSERT(breakEvenHits >= 1,
                 "break-even hit count must be at least 1");
}

std::size_t
UtilityThresholdPolicy::thresholdOf(Addr page) const
{
    auto it = perPageT.find(page);
    return it == perPageT.end() ? initialT : it->second;
}

bool
UtilityThresholdPolicy::onRefetch(Addr page)
{
    std::uint64_t &c = counts[page];
    if (++c >= thresholdOf(page)) {
        counts.erase(page);
        return true;
    }
    return false;
}

void
UtilityThresholdPolicy::onRelocated(Addr page)
{
    // Relocation is not evidence; only the residency's outcome is.
    counts.erase(page);
}

void
UtilityThresholdPolicy::onEvicted(Addr page, std::uint64_t residentHits)
{
    counts.erase(page);
    std::size_t cur = thresholdOf(page);
    std::size_t t;
    if (residentHits >= breakEvenHits) {
        // Profitable residency: the page ops were amortized, so the
        // page has earned eager re-entry. Jump below the break-even
        // bar on first profit and keep halving on repeated profit.
        std::size_t from =
            cur < static_cast<std::size_t>(breakEvenHits)
                ? cur
                : static_cast<std::size_t>(breakEvenHits);
        t = from / 2;
        if (t < minT)
            t = minT;
    } else {
        // Wasted residency: ping-pong evidence, exponential back-off.
        t = cur * 2;
        if (t > maxT)
            t = maxT;
    }
    perPageT[page] = t;
}

void
UtilityThresholdPolicy::reset(Addr page)
{
    counts.erase(page);
    perPageT.erase(page);
}

std::uint64_t
UtilityThresholdPolicy::count(Addr page) const
{
    return countIn(counts, page);
}

std::size_t
UtilityThresholdPolicy::trackedPages() const
{
    // Live state is a pending counter or an adapted threshold;
    // count the union, not just the counters.
    std::size_t n = counts.size();
    for (const auto &kv : perPageT)
        if (!counts.count(kv.first))
            n++;
    return n;
}

std::string
UtilityThresholdPolicy::describe() const
{
    return "utility(T0=" + std::to_string(initialT) + ",min=" +
        std::to_string(minT) + ",max=" + std::to_string(maxT) +
        ",breakeven=" + std::to_string(breakEvenHits) + ")";
}

//--------------------------------------------------------------------------
// OnlineModelPolicy
//--------------------------------------------------------------------------

OnlineModelPolicy::OnlineModelPolicy(double optimalThreshold,
                                     std::size_t minThreshold,
                                     std::size_t maxThreshold)
    : tStar(optimalThreshold), minT(minThreshold), maxT(maxThreshold)
{
    RNUMA_ASSERT(minT >= 1, "minimum threshold must be at least 1");
    RNUMA_ASSERT(minT <= maxT, "need min <= max, got ", minT, " / ",
                 maxT);
    RNUMA_ASSERT(tStar > 0.0, "analytic optimum must be positive");
    reestimate();
}

void
OnlineModelPolicy::reestimate()
{
    // Each expected resident hit is one refetch's worth of cost the
    // residency repays, so it lowers the competitive bar one-for-one.
    double t = tStar - avgHits;
    // Round half up with integer-safe arithmetic (t <= tStar, a
    // machine constant, so the cast is in range).
    std::size_t rounded =
        t <= 0.0 ? 0 : static_cast<std::size_t>(t + 0.5);
    if (rounded < minT)
        rounded = minT;
    if (rounded > maxT)
        rounded = maxT;
    curT = rounded;
}

bool
OnlineModelPolicy::onRefetch(Addr page)
{
    std::uint64_t &c = counts[page];
    if (++c >= curT) {
        counts.erase(page);
        return true;
    }
    return false;
}

void
OnlineModelPolicy::onRelocated(Addr page)
{
    counts.erase(page);
}

void
OnlineModelPolicy::onEvicted(Addr page, std::uint64_t residentHits)
{
    counts.erase(page);
    // alpha = 1/8; pure IEEE add/multiply keeps this deterministic
    // across platforms.
    avgHits += (static_cast<double>(residentHits) - avgHits) / 8.0;
    reestimate();
}

void
OnlineModelPolicy::reset(Addr page)
{
    // Per-page unmap drops the pending counter; the global rate
    // estimate is machine state and survives.
    counts.erase(page);
}

std::uint64_t
OnlineModelPolicy::count(Addr page) const
{
    return countIn(counts, page);
}

std::size_t
OnlineModelPolicy::trackedPages() const
{
    return counts.size();
}

std::string
OnlineModelPolicy::describe() const
{
    // Config-only (the live threshold moves at runtime): report the
    // analytic anchor and the clamp range.
    std::size_t anchor = static_cast<std::size_t>(tStar + 0.5);
    return "online-model(T*=" + std::to_string(anchor) + ",min=" +
        std::to_string(minT) + ",max=" + std::to_string(maxT) + ")";
}

//--------------------------------------------------------------------------
// EwmaUtilityPolicy
//--------------------------------------------------------------------------

EwmaUtilityPolicy::EwmaUtilityPolicy(std::size_t minThreshold,
                                     std::size_t maxThreshold,
                                     std::uint64_t breakEvenHits,
                                     double alpha)
    : minT(minThreshold), maxT(maxThreshold),
      breakEvenHits(breakEvenHits), alpha(alpha)
{
    RNUMA_ASSERT(minT >= 1, "minimum threshold must be at least 1");
    RNUMA_ASSERT(minT <= maxT, "need min <= max, got ", minT, " / ",
                 maxT);
    RNUMA_ASSERT(breakEvenHits >= 1,
                 "break-even hit count must be at least 1");
    RNUMA_ASSERT(alpha > 0.0 && alpha <= 1.0,
                 "EWMA gain must be in (0, 1]");
}

double
EwmaUtilityPolicy::utilityOf(Addr page) const
{
    auto it = utility.find(page);
    return it == utility.end() ? 0.5 : it->second;
}

std::size_t
EwmaUtilityPolicy::thresholdOf(Addr page) const
{
    double u = utilityOf(page);
    double t = static_cast<double>(maxT) +
        u * (static_cast<double>(minT) - static_cast<double>(maxT));
    std::size_t rounded =
        t <= 0.0 ? 0 : static_cast<std::size_t>(t + 0.5);
    if (rounded < minT)
        rounded = minT;
    if (rounded > maxT)
        rounded = maxT;
    return rounded;
}

bool
EwmaUtilityPolicy::onRefetch(Addr page)
{
    std::uint64_t &c = counts[page];
    if (++c >= thresholdOf(page)) {
        counts.erase(page);
        return true;
    }
    return false;
}

void
EwmaUtilityPolicy::onRelocated(Addr page)
{
    counts.erase(page);
}

void
EwmaUtilityPolicy::onEvicted(Addr page, std::uint64_t residentHits)
{
    counts.erase(page);
    double grade = static_cast<double>(residentHits) /
        static_cast<double>(breakEvenHits);
    if (grade > 1.0)
        grade = 1.0;
    utility[page] = (1.0 - alpha) * utilityOf(page) + alpha * grade;
}

void
EwmaUtilityPolicy::reset(Addr page)
{
    counts.erase(page);
    utility.erase(page);
}

std::uint64_t
EwmaUtilityPolicy::count(Addr page) const
{
    return countIn(counts, page);
}

std::size_t
EwmaUtilityPolicy::trackedPages() const
{
    // Live state is a pending counter or a utility score; count the
    // union, not just the counters.
    std::size_t n = counts.size();
    for (const auto &kv : utility)
        if (!counts.count(kv.first))
            n++;
    return n;
}

std::string
EwmaUtilityPolicy::describe() const
{
    // alpha is a small k/16 rational in practice; print it as such
    // to keep the string free of locale-dependent float formatting.
    std::size_t alpha16 =
        static_cast<std::size_t>(alpha * 16.0 + 0.5);
    return "ewma(min=" + std::to_string(minT) + ",max=" +
        std::to_string(maxT) + ",breakeven=" +
        std::to_string(breakEvenHits) + ",alpha=" +
        std::to_string(alpha16) + "/16)";
}

} // namespace rnuma
