/**
 * @file
 * Registry<Spec>: the one design behind the protocol, network and
 * workload registries. The paper's factoring (Section 3, Figure 4) is
 * that CC-NUMA, S-COMA and R-NUMA differ only in their RAD, so the
 * simulator records its systems, interconnects and reference streams
 * as data: value-semantic specs in a process-wide table.
 *
 * A Spec provides:
 *  - `std::string id`: the stable lowercase key (the JSON artifact,
 *    compare-gate and CLI currency);
 *  - `std::string displayName`: a label for tables and logs only;
 *  - `bool valid() const`: an id and a factory are present;
 *  - `static constexpr const char *kind`: the noun used in messages
 *    ("protocol", "network", "workload").
 *
 * Lookup lowercases the name and matches ids only: "CCNUMA" finds
 * "ccnuma", but the display name "CC-NUMA" finds nothing. Each spec's
 * source file defines Registry<Spec>::addBuiltins, which registers
 * its built-ins when the global table is first used.
 *
 * Thread-safe: registration takes an exclusive lock and lookups a
 * shared one, so sweep workers may register and resolve specs
 * concurrently. Specs are never removed or moved, so returned
 * pointers stay valid for the life of the process.
 */

#ifndef RNUMA_COMMON_REGISTRY_HH
#define RNUMA_COMMON_REGISTRY_HH

#include <cctype>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace rnuma
{

template <class Spec>
class Registry
{
  public:
    /** The global registry, with the built-ins pre-registered. */
    static Registry &
    global()
    {
        static Registry reg;
        return reg;
    }

    /**
     * Register a spec. Panics on an invalid spec or a non-lowercase
     * id; fatal on a duplicate id.
     * @return the registered (stably stored) spec.
     */
    const Spec &
    add(Spec spec)
    {
        RNUMA_ASSERT(spec.valid(), Spec::kind,
                     " spec needs an id and a factory");
        RNUMA_ASSERT(spec.id == lowercase(spec.id), Spec::kind,
                     " id '", spec.id, "' is not lowercase");
        std::unique_lock<std::shared_mutex> lock(mutex_);
        if (findLocked(spec.id))
            RNUMA_FATAL(Spec::kind, " '", spec.id,
                        "' is already registered");
        specs_.push_back(std::make_unique<Spec>(std::move(spec)));
        return *specs_.back();
    }

    /** Look up by id, in any case; nullptr when unknown. */
    const Spec *
    find(const std::string &name) const
    {
        std::string id = lowercase(name);
        std::shared_lock<std::shared_mutex> lock(mutex_);
        return findLocked(id);
    }

    /** Look up; fatal (std::runtime_error under tests) when unknown. */
    const Spec &
    at(const std::string &name) const
    {
        const Spec *s = find(name);
        if (!s)
            RNUMA_FATAL("unknown ", Spec::kind, " '", name,
                        "' (see rnuma_sweep --list-", Spec::kind, "s)");
        return *s;
    }

    /** All specs, in registration order (built-ins first). */
    std::vector<const Spec *>
    all() const
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        std::vector<const Spec *> out;
        out.reserve(specs_.size());
        for (const auto &s : specs_)
            out.push_back(s.get());
        return out;
    }

    std::size_t
    size() const
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        return specs_.size();
    }

  private:
    Registry() { addBuiltins(*this); }

    /** Registers Spec's built-ins; defined beside the spec. */
    static void addBuiltins(Registry &reg);

    static std::string
    lowercase(const std::string &name)
    {
        std::string s = name;
        for (char &c : s)
            c = static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        return s;
    }

    /** Exact id match; callers hold the lock. */
    const Spec *
    findLocked(const std::string &id) const
    {
        for (const auto &s : specs_) {
            if (s->id == id)
                return s.get();
        }
        return nullptr;
    }

    /** Guards specs_: exclusive for add, shared for lookups. */
    mutable std::shared_mutex mutex_;
    std::vector<std::unique_ptr<Spec>> specs_;
};

} // namespace rnuma

#endif // RNUMA_COMMON_REGISTRY_HH
