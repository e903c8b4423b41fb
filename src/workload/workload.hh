/**
 * @file
 * The workload abstraction: per-CPU streams of memory references,
 * barrier markers, placement-only init touches, and end markers. The
 * simulator is driven entirely by a Workload, which stands in for the
 * paper's execution-driven SPLASH-2 binaries (see DESIGN.md section 5
 * for the substitution argument).
 */

#ifndef RNUMA_WORKLOAD_WORKLOAD_HH
#define RNUMA_WORKLOAD_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"

namespace rnuma
{

/** Kinds of stream entries. */
enum class RefKind : std::uint8_t
{
    Mem,       ///< a load or store
    Barrier,   ///< global barrier: wait for every CPU
    InitTouch, ///< pre-parallel first-touch placement marker (free)
    End        ///< stream exhausted
};

/** One stream entry. */
struct Ref
{
    Addr addr = 0;            ///< global address (Mem / InitTouch)
    std::uint32_t think = 0;  ///< compute cycles before the access
    RefKind kind = RefKind::End;
    bool write = false;

    static Ref
    mem(Addr a, bool w, std::uint32_t th)
    {
        return Ref{a, th, RefKind::Mem, w};
    }
    static Ref barrier() { return Ref{0, 0, RefKind::Barrier, false}; }
    static Ref touchOf(Addr a) { return Ref{a, 0, RefKind::InitTouch,
                                            false}; }
    static Ref end() { return Ref{0, 0, RefKind::End, false}; }
};

/** Abstract reference-stream source. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Number of CPU streams. */
    virtual std::size_t numCpus() const = 0;

    /**
     * Next entry for @p cpu, advancing the stream. Returns an End ref
     * forever once exhausted.
     */
    virtual const Ref &next(CpuId cpu) = 0;

    /**
     * The entry the following next() will return, without advancing
     * the stream.
     */
    virtual const Ref &peek(CpuId cpu) = 0;

    /** Rewind all streams (for back-to-back protocol comparisons). */
    virtual void reset() = 0;

    /** Workload name for reports. */
    virtual const std::string &name() const = 0;

    /**
     * Retired probe: largest think time in any stream, in ticks (0
     * for sources that cannot know). Nothing in src/ schedules by it
     * any more. It stays declared only because perfbench/trace.hh
     * overrides it and the RNUMAST1 trace header records it; it goes
     * with that override at the next change to perfbench/.
     */
    virtual Tick maxThink() const { return 0; }
};

/** A workload backed by pre-generated per-CPU vectors. */
class VectorWorkload : public Workload
{
  public:
    VectorWorkload(std::string name, std::size_t ncpus);

    std::size_t numCpus() const override { return streams.size(); }
    const Ref &next(CpuId cpu) override;
    const Ref &peek(CpuId cpu) override;
    void reset() override;
    const std::string &name() const override { return name_; }
    Tick maxThink() const override { return max_think; }

    /** Append an entry to one CPU's stream. */
    void push(CpuId cpu, Ref r);

    /** Append a barrier to every CPU's stream. */
    void pushBarrierAll();

    /** Append End markers to every stream (call once, when done). */
    void seal();

    /** Stream length for a CPU (including the End marker). */
    std::size_t size(CpuId cpu) const;

    /** Entry inspection for tests and trace serialization. */
    const Ref &at(CpuId cpu, std::size_t i) const;

    /** Total entries across all CPUs. */
    std::size_t totalRefs() const;

    /**
     * Loads and stores only (no barriers, init touches, or End
     * markers). Every generator must emit at least one at any
     * scale > 0; the registry asserts it.
     */
    std::size_t memRefCount() const { return mem_refs; }

    /**
     * One past the highest legally addressable byte (the generator's
     * allocation high-water mark), recorded by StreamBuilder::finish
     * after it audits every entry against it. 0 = unknown (e.g. a
     * trace-replayed workload).
     */
    Addr addrLimit() const { return addr_limit; }
    void setAddrLimit(Addr limit) { addr_limit = limit; }

  private:
    friend class SnapshotWorkload;

    std::string name_;
    std::vector<std::vector<Ref>> streams;
    std::vector<std::size_t> cursor;
    std::size_t mem_refs = 0;
    Tick max_think = 0;
    Addr addr_limit = 0;
    bool sealed = false;

    static const Ref endRef;
};

/**
 * A lightweight cursor view over an immutable, shared VectorWorkload
 * snapshot. The sweep driver's content-addressed workload cache
 * generates each distinct workload once and hands every cell sharing
 * it one of these: the (potentially large) reference streams are
 * shared read-only, while each view carries only its own per-CPU
 * cursors, so concurrent cells never touch shared mutable state.
 * Replaying a view is bit-identical to replaying the snapshot itself.
 *
 * next() is the simulator's per-reference hot path, so the view
 * flattens each stream to a raw (data, size) span at construction —
 * one dependent load fewer than going back through the snapshot's
 * vector-of-vectors on every reference.
 */
class SnapshotWorkload : public Workload
{
  public:
    /** @param snap a sealed workload; fatal when null or unsealed. */
    explicit SnapshotWorkload(
        std::shared_ptr<const VectorWorkload> snap);

    std::size_t numCpus() const override;
    const Ref &next(CpuId cpu) override;
    const Ref &peek(CpuId cpu) override;
    void reset() override;
    const std::string &name() const override;
    Tick maxThink() const override;

  private:
    /** One CPU's stream: borrowed storage plus this view's cursor. */
    struct Stream
    {
        const Ref *data;
        std::size_t size;
        std::size_t cursor;
    };

    std::shared_ptr<const VectorWorkload> snap_; ///< keeps data alive
    std::vector<Stream> streams_;
};

} // namespace rnuma

#endif // RNUMA_WORKLOAD_WORKLOAD_HH
