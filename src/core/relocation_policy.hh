/**
 * @file
 * The relocation-decision API — the paper's central mechanism made
 * pluggable. Section 3.1 layers a small per-page decision rule on a
 * hybrid (block cache + page cache) RAD: count block refetches
 * (capacity/conflict misses on blocks the directory believes the
 * node already has) and relocate the page into the page cache when
 * the count crosses a threshold T. The threshold-sensitivity study
 * (Figure 8) and the Eq 3 worst-case bound are statements about that
 * rule, not about the RAD — so the rule is an interface here, and
 * the paper's fixed-T rule is just its first implementation.
 *
 * A RelocationPolicy is per-node state driven by three notifications
 * from the hybrid RAD:
 *
 *   onRefetch(page)   — one refetch on a CC-NUMA-mode page; the
 *                       return value decides relocation *now*
 *   onRelocated(page) — the OS moved the page into the page cache
 *   onEvicted(page, residentHits)
 *                     — the page cache replaced the page; it reverts
 *                       to CC-NUMA on its next touch. residentHits is
 *                       the number of page-cache hits the residency
 *                       earned since relocation — the utility signal
 *                       that distinguishes a relocation that paid off
 *                       (thousands of hits before a phase boundary)
 *                       from ping-pong (evicted before serving any).
 *
 * Implementations: StaticThresholdPolicy (the paper's rule, exactly
 * the pre-registry counter semantics), HysteresisPolicy (reverted
 * pages need a higher count to relocate again, suppressing
 * ping-pong), AdaptiveThresholdPolicy (per-page T halves on
 * relocation and escalates on relocate/evict ping-pong — all three
 * ignore residentHits, keeping the paper-era systems bit-identical),
 * plus the utility-aware rules that consume it:
 * UtilityThresholdPolicy (escalate only below break-even, decay on
 * profit), OnlineModelPolicy (re-estimates the Eq 3 optimum from the
 * observed hit rate), EwmaUtilityPolicy (per-page EWMA utility
 * score).
 */

#ifndef RNUMA_CORE_RELOCATION_POLICY_HH
#define RNUMA_CORE_RELOCATION_POLICY_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/types.hh"

namespace rnuma
{

/** Per-node, per-page relocation decision rule (see file comment). */
class RelocationPolicy
{
  public:
    virtual ~RelocationPolicy() = default;

    /**
     * Record one refetch against @p page (CC-NUMA mode).
     * @return true exactly when the relocation interrupt should fire
     *         now; the page's pending count is consumed.
     */
    virtual bool onRefetch(Addr page) = 0;

    /** The page was relocated into the page cache. */
    virtual void onRelocated(Addr page) = 0;

    /**
     * The page was evicted from the page cache (reverts to CC-NUMA).
     * @param residentHits page-cache hits the residency earned since
     *        relocation — the utility signal. Policies that predate
     *        the feedback channel ignore it.
     */
    virtual void onEvicted(Addr page, std::uint64_t residentHits) = 0;

    /** Drop all per-page state for @p page (unmap). */
    virtual void reset(Addr page) = 0;

    /**
     * Retired probe: nothing in src/ calls it. It stays declared only
     * because perfbench/trace.cc overrides it; the two go together at
     * the next change to perfbench/.
     */
    virtual bool wouldFire(Addr /*page*/) const { return true; }

    /** Current pending refetch count for a page. */
    virtual std::uint64_t count(Addr page) const = 0;

    /** Number of pages with live policy state. */
    virtual std::size_t trackedPages() const = 0;

    /** Human-readable summary, e.g. "static(T=64)". */
    virtual std::string describe() const = 0;
};

/**
 * The paper's rule (Section 3.1): a fixed threshold T. Fires on the
 * T-th refetch; the counter resets on fire, relocation, or eviction.
 * Bit-identical to the pre-registry ReactivePolicy counters.
 */
class StaticThresholdPolicy : public RelocationPolicy
{
  public:
    /** @param threshold refetches before relocation (base: 64). */
    explicit StaticThresholdPolicy(std::size_t threshold);

    bool onRefetch(Addr page) override;
    void onRelocated(Addr page) override;
    void onEvicted(Addr page, std::uint64_t residentHits) override;
    void reset(Addr page) override;
    std::uint64_t count(Addr page) const override;
    std::size_t trackedPages() const override;
    std::string describe() const override;

    /** Configured threshold T. */
    std::size_t threshold() const { return thresh; }

  private:
    std::size_t thresh;
    std::unordered_map<Addr, std::uint64_t> counts;
};

/**
 * Static threshold with hysteresis: a page relocates after
 * @p relocateThreshold refetches the first time, but once it has
 * been evicted from the page cache (i.e. a relocation was undone), a
 * subsequent relocation requires the higher @p revertedThreshold.
 * Pages that ping-pong between modes — relocate, fall out, refetch,
 * relocate again — pay the page-operation cost over and over under
 * the static rule; the raised re-entry bar suppresses that cycle
 * while leaving first-time relocations as cheap as ever.
 */
class HysteresisPolicy : public RelocationPolicy
{
  public:
    /**
     * @param relocateThreshold refetches before a first relocation
     * @param revertedThreshold refetches before re-relocating a page
     *        that was evicted (must be >= relocateThreshold)
     */
    HysteresisPolicy(std::size_t relocateThreshold,
                     std::size_t revertedThreshold);

    bool onRefetch(Addr page) override;
    void onRelocated(Addr page) override;
    void onEvicted(Addr page, std::uint64_t residentHits) override;
    void reset(Addr page) override;
    std::uint64_t count(Addr page) const override;
    std::size_t trackedPages() const override;
    std::string describe() const override;

    /** The threshold currently governing @p page. */
    std::size_t thresholdOf(Addr page) const;

  private:
    std::size_t relocT;
    std::size_t revertT;
    std::unordered_map<Addr, std::uint64_t> counts;
    std::unordered_set<Addr> reverted; ///< pages evicted at least once
};

/**
 * Per-page dynamic threshold: exponential back-off on relocation
 * churn. Every page starts at the configured initial T. An eviction
 * that undoes a relocation — the ping-pong round trip the Section
 * 3.2 adversary forces — escalates the page's re-entry bar from its
 * *pre-relocation* threshold: T, 2T, 4T, ..., clamped to
 * [minThreshold, maxThreshold]. A free-standing eviction (no
 * recorded relocation) doubles the current value; a relocation
 * halves it (floor-clamped), the bar in force while the page is
 * resident.
 *
 * The escalation is the load-bearing half: in a real machine a
 * page's relocations and evictions strictly alternate, so a rule
 * whose eviction merely doubled back what the relocation halved
 * (the original formulation) re-entered at exactly the static
 * threshold forever — "adaptive" was bit-identical to the static
 * rule on every workload with an even T. Note the halved
 * threshold is only consulted between relocation and eviction
 * (refetches fire for non-resident pages only), so in-machine the
 * policy is monotone back-off per page: it bounds the adversary's
 * churn but never rewards relocations that paid off — it ignores
 * the residentHits feedback by design (ROADMAP item 4's diagnosis,
 * preserved for bit-identity with the PR 4 figures). The policies
 * below it consume the signal instead.
 */
class AdaptiveThresholdPolicy : public RelocationPolicy
{
  public:
    AdaptiveThresholdPolicy(std::size_t initialThreshold,
                            std::size_t minThreshold,
                            std::size_t maxThreshold);

    bool onRefetch(Addr page) override;
    void onRelocated(Addr page) override;
    void onEvicted(Addr page, std::uint64_t residentHits) override;
    void reset(Addr page) override;
    std::uint64_t count(Addr page) const override;
    std::size_t trackedPages() const override;
    std::string describe() const override;

    /** The threshold currently governing @p page. */
    std::size_t thresholdOf(Addr page) const;

  private:
    std::size_t initialT;
    std::size_t minT;
    std::size_t maxT;
    std::unordered_map<Addr, std::uint64_t> counts;
    std::unordered_map<Addr, std::size_t> perPageT;
    /**
     * Per page, the threshold in force when it last relocated (the
     * value the eviction escalates from); erased once consumed, so
     * only resident relocated pages carry an entry. Storing the
     * actual pre-relocation value (not a flag) keeps the 2x
     * escalation exact even when the relocation halve was clamped
     * at minThreshold.
     */
    std::unordered_map<Addr, std::size_t> entryT;
};

/**
 * Utility-aware per-page threshold: escalate only when the residency
 * was *wasted*. The break-even hit count is the Eq 3 cost ratio
 * C_allocate / C_refetch (T* on the base machine, ~19): a residency
 * that served at least that many page-cache hits amortized its page
 * operations, so its eviction is evidence the page is worth
 * relocating *eagerly* — the threshold drops to at most half the
 * break-even and keeps halving on repeated profitable residencies
 * (floor-clamped). An eviction below break-even is ping-pong
 * evidence and doubles the page's threshold (cap-clamped), exactly
 * the adaptive rule's defense. Unlike AdaptiveThresholdPolicy,
 * relocation itself is not an event — only the measured outcome
 * moves the threshold.
 */
class UtilityThresholdPolicy : public RelocationPolicy
{
  public:
    /**
     * @param initialThreshold per-page starting T (base: 64)
     * @param minThreshold decay floor
     * @param maxThreshold escalation cap
     * @param breakEvenHits resident hits at which a residency pays
     *        for its page operations (Eq 3: C_allocate / C_refetch)
     */
    UtilityThresholdPolicy(std::size_t initialThreshold,
                           std::size_t minThreshold,
                           std::size_t maxThreshold,
                           std::uint64_t breakEvenHits);

    bool onRefetch(Addr page) override;
    void onRelocated(Addr page) override;
    void onEvicted(Addr page, std::uint64_t residentHits) override;
    void reset(Addr page) override;
    std::uint64_t count(Addr page) const override;
    std::size_t trackedPages() const override;
    std::string describe() const override;

    /** The threshold currently governing @p page. */
    std::size_t thresholdOf(Addr page) const;

    /** Configured break-even hit count. */
    std::uint64_t breakEven() const { return breakEvenHits; }

  private:
    std::size_t initialT;
    std::size_t minT;
    std::size_t maxT;
    std::uint64_t breakEvenHits;
    std::unordered_map<Addr, std::uint64_t> counts;
    std::unordered_map<Addr, std::size_t> perPageT;
};

/**
 * Online re-estimation of the Eq 3 optimum — the dynamic version of
 * the registry's `rnuma-model` spec. The static model picks
 * T* = C_allocate / C_refetch assuming every relocation is wasted
 * (the competitive worst case). Online, the machine can observe how
 * wasted relocations actually are: the policy keeps an EWMA h of
 * residentHits over evictions and sets the single global threshold
 *
 *   T = clamp(round(T* - h), minThreshold, maxThreshold)
 *
 * — each resident hit a residency is expected to earn is one
 * refetch's worth of cost already repaid, so the bar drops one-for-
 * one until, at h >= T*, relocation is known-profitable and fires at
 * the floor. With no eviction history the policy *is* rnuma-model
 * (h = 0, T = round(T*)), and on a stationary zero-reuse stream it
 * converges back to it.
 */
class OnlineModelPolicy : public RelocationPolicy
{
  public:
    /**
     * @param optimalThreshold the analytic T* (AnalyticModel::
     *        optimalThreshold() on the configured machine)
     * @param minThreshold clamp floor (>= 1)
     * @param maxThreshold clamp cap
     */
    OnlineModelPolicy(double optimalThreshold, std::size_t minThreshold,
                      std::size_t maxThreshold);

    bool onRefetch(Addr page) override;
    void onRelocated(Addr page) override;
    void onEvicted(Addr page, std::uint64_t residentHits) override;
    void reset(Addr page) override;
    std::uint64_t count(Addr page) const override;
    std::size_t trackedPages() const override;
    std::string describe() const override;

    /** The global threshold currently in force. */
    std::size_t threshold() const { return curT; }

    /** Current EWMA of resident hits per eviction. */
    double estimatedHits() const { return avgHits; }

  private:
    void reestimate();

    double tStar;
    std::size_t minT;
    std::size_t maxT;
    double avgHits = 0.0; ///< EWMA (alpha = 1/8) of residentHits
    std::size_t curT;
    std::unordered_map<Addr, std::uint64_t> counts;
};

/**
 * Per-page EWMA utility score. Each eviction grades its residency as
 * u_obs = min(1, residentHits / breakEven) — 0 is pure ping-pong, 1
 * fully amortized — and folds it into a per-page score
 * u' = (1 - alpha) u + alpha u_obs, seeded at 0.5 (no evidence). The
 * page's threshold interpolates linearly between the cap (u = 0,
 * distrust) and the floor (u = 1, trust):
 *
 *   T_p = round(maxThreshold + u * (minThreshold - maxThreshold))
 *
 * so the no-evidence midpoint is (min + max) / 2 and the registry
 * picks min/max to land that at the configured base T. Only IEEE
 * +,*,/ arithmetic is used, keeping results deterministic across
 * platforms.
 */
class EwmaUtilityPolicy : public RelocationPolicy
{
  public:
    /**
     * @param minThreshold threshold at utility 1 (full trust)
     * @param maxThreshold threshold at utility 0 (full distrust)
     * @param breakEvenHits resident hits worth full marks (Eq 3)
     * @param alpha EWMA gain in (0, 1]
     */
    EwmaUtilityPolicy(std::size_t minThreshold, std::size_t maxThreshold,
                      std::uint64_t breakEvenHits, double alpha);

    bool onRefetch(Addr page) override;
    void onRelocated(Addr page) override;
    void onEvicted(Addr page, std::uint64_t residentHits) override;
    void reset(Addr page) override;
    std::uint64_t count(Addr page) const override;
    std::size_t trackedPages() const override;
    std::string describe() const override;

    /** The threshold currently governing @p page. */
    std::size_t thresholdOf(Addr page) const;

    /** Current utility score for @p page (0.5 with no evidence). */
    double utilityOf(Addr page) const;

  private:
    std::size_t minT;
    std::size_t maxT;
    std::uint64_t breakEvenHits;
    double alpha;
    std::unordered_map<Addr, std::uint64_t> counts;
    std::unordered_map<Addr, double> utility;
};

} // namespace rnuma

#endif // RNUMA_CORE_RELOCATION_POLICY_HH
