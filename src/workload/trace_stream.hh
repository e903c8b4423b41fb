/**
 * @file
 * Streaming binary traces: a compact, delta-encoded, mmap-able
 * on-disk reference-stream format, plus a Workload implementation
 * that replays one directly off the mapping in O(1) resident memory.
 *
 * Serving replays run to billions of references, so the format never
 * materializes a full VectorWorkload:
 *
 *  - header: magic "RNUMAST1", format version, cpu count, max think
 *    time, address-space high-water mark, workload name;
 *  - body: a sequence of chunks `[varint cpu][varint len][records]`,
 *    written round-robin across CPUs so file order tracks replay
 *    order;
 *  - records: one control byte (kind + write flag), then for memory
 *    references a zigzag-varint address delta against the CPU's
 *    previous address and a varint think time. Barriers are a single
 *    byte; End is implicit at stream exhaustion.
 *
 * Replay mmaps the file read-only, keeps one cursor per CPU, and
 * returns consumed chunks to the OS (madvise) as it crosses chunk
 * boundaries — resident memory is ~one chunk per CPU regardless of
 * trace length. Replay is bit-identical to the recorded source:
 * every next()/peek() returns the same Ref sequence per CPU.
 */

#ifndef RNUMA_WORKLOAD_TRACE_STREAM_HH
#define RNUMA_WORKLOAD_TRACE_STREAM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workload/workload.hh"

namespace rnuma
{

/** Stream-trace format magic ("RNUMAST1") and current version. */
constexpr std::uint64_t streamTraceMagic = 0x524e554d41535431ULL;
constexpr std::uint32_t streamTraceVersion = 1;

/**
 * Record a workload into a stream trace at @p path by draining every
 * CPU's stream round-robin in chunk-sized runs (so the file's chunk
 * order approximates replay order), then reset() the source. Fatal
 * on I/O errors. The source's addrLimit is preserved when it is a
 * materialized VectorWorkload (0 — unknown — otherwise).
 */
void recordStreamTrace(Workload &wl, const std::string &path);

/**
 * Replays a stream trace as a Workload, straight off a read-only
 * mmap of the file: a constructor pass indexes every chunk's
 * location, per-CPU cursors then decode records in place, and pages
 * behind the slowest cursor are madvise()d away in folio-aligned
 * strides, so resident memory is independent of trace length.
 * reset() rewinds to the header for back-to-back protocol
 * comparisons.
 *
 * Construction is fatal (throwing under tests) on a bad magic,
 * unsupported version, implausible header, or truncated file; a
 * record that runs off the mapping is fatal at decode time.
 */
class StreamTraceWorkload : public Workload
{
  public:
    explicit StreamTraceWorkload(const std::string &path);
    ~StreamTraceWorkload() override;

    StreamTraceWorkload(const StreamTraceWorkload &) = delete;
    StreamTraceWorkload &
    operator=(const StreamTraceWorkload &) = delete;

    std::size_t numCpus() const override { return cursors_.size(); }
    const Ref &next(CpuId cpu) override;
    const Ref &peek(CpuId cpu) override;
    void reset() override;
    const std::string &name() const override { return name_; }
    Tick maxThink() const override { return max_think_; }

    /** The recorded allocation high-water mark (0 = unknown). */
    Addr addrLimit() const { return addr_limit_; }

  private:
    /** One chunk's location in the body. */
    struct ChunkLoc
    {
        std::size_t off; ///< payload offset from the file start
        std::size_t len; ///< payload length
    };

    /** One CPU's replay position. */
    struct Cursor
    {
        const std::uint8_t *payload = nullptr; ///< current chunk
        std::size_t pos = 0;      ///< decode offset within payload
        std::size_t len = 0;      ///< payload length
        std::size_t chunk = 0;    ///< next index into chunks_[cpu]
        Addr prev = 0;            ///< delta-decoding base
        Ref pending;              ///< what peek()/the next next() see
        Ref current;              ///< what the last next() returned
        bool hasPending = false;
    };

    /** Advance @p cur to its next chunk; false when exhausted. */
    bool nextChunk(Cursor &cur);

    /** Decode one record into cur.pending (hasPending=false at end). */
    void decodePending(Cursor &cur);

    /** Return pages behind the slowest cursor to the OS. */
    void reclaimBehind();

    void initCursors();

    int fd_ = -1;
    const std::uint8_t *map_ = nullptr;
    std::size_t file_size_ = 0;
    std::size_t body_off_ = 0;
    std::size_t drop_lo_ = 0; ///< file offset already madvise()d away
    std::string name_;
    Tick max_think_ = 0;
    Addr addr_limit_ = 0;
    std::vector<Cursor> cursors_;
    /// Per-cpu chunk index, built in one constructor pass so replay
    /// never rescans the mapping (a rescan would re-fault pages that
    /// dropChunk() already returned to the OS).
    std::vector<std::vector<ChunkLoc>> chunks_;
};

} // namespace rnuma

#endif // RNUMA_WORKLOAD_TRACE_STREAM_HH
