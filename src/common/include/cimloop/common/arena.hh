/**
 * @file
 * Bump-pointer scratch arena for hot-path temporaries.
 *
 * The statistical pipeline (Pmf lattice kernels, engine precompute,
 * dist::sliceMixture) used to allocate and free short-lived dense arrays
 * on every call, hammering the global allocator from every worker
 * thread. An Arena replaces that churn with a per-thread bump pointer:
 * allocation is a pointer increment, and an ArenaScope rewinds the whole
 * scope's allocations at once when the kernel returns.
 *
 * Lifetime rules (see docs/architecture.md, "Hot paths and kernels"):
 *  - Arena memory is scratch: it is only valid until the enclosing
 *    ArenaScope is destroyed. Never store arena pointers in results.
 *  - Scopes nest: inner kernels may open their own scope on the same
 *    arena (convolveWith's fallback path calls fromPoints, for example).
 *  - Only trivially-destructible types may be placed in an arena; no
 *    destructors run at release.
 *  - scratchArena() is thread_local, so arena use is data-race-free by
 *    construction and keeps counter determinism (the arena itself
 *    maintains no obs counters: chunk growth depends on which thread ran
 *    which work item, which must never leak into golden metrics).
 */
#ifndef CIMLOOP_COMMON_ARENA_HH
#define CIMLOOP_COMMON_ARENA_HH

#include <cstddef>
#include <type_traits>
#include <vector>

namespace cimloop {

/**
 * A chunked bump allocator. Chunks grow geometrically; release() rewinds
 * to a previously taken mark without freeing, and reset() consolidates
 * all capacity into one contiguous chunk for the next use.
 *
 * Not thread-safe: use one Arena per thread (see scratchArena()).
 */
class Arena
{
  public:
    /** Minimum alignment of every allocation. */
    static constexpr std::size_t kMinAlign = 32;

    /** @p initial_bytes sizes the first chunk; 0 defers until first use. */
    explicit Arena(std::size_t initial_bytes = 0);
    ~Arena();

    Arena(const Arena&) = delete;
    Arena& operator=(const Arena&) = delete;

    /** Raw allocation of @p bytes at @p align (>= kMinAlign enforced). */
    void* allocate(std::size_t bytes, std::size_t align = kMinAlign);

    /** Typed array allocation; no constructors or destructors run. */
    template <typename T>
    T*
    alloc(std::size_t n)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena memory never runs destructors");
        static_assert(std::is_trivially_copyable_v<T>,
                      "arena memory is raw scratch");
        constexpr std::size_t a =
            alignof(T) > kMinAlign ? alignof(T) : kMinAlign;
        return static_cast<T*>(allocate(n * sizeof(T), a));
    }

    /** A rewind point; only meaningful for the arena that produced it. */
    struct Mark
    {
        std::size_t chunk = 0;
        std::size_t used = 0;
    };

    /** Current position, to be restored with release(). */
    Mark mark() const;

    /**
     * Rewinds to @p m: every allocation made after mark() is reclaimed
     * (capacity is retained). Marks must be released in LIFO order.
     */
    void release(const Mark& m);

    /**
     * Drops all allocations. When growth left multiple chunks behind,
     * their capacity is consolidated into a single contiguous chunk so
     * subsequent scopes bump through one span.
     */
    void reset();

    /** Total bytes reserved across chunks. */
    std::size_t capacityBytes() const;

    /** Bytes consumed by live allocations (including alignment padding). */
    std::size_t usedBytes() const;

    std::size_t chunkCount() const { return chunks_.size(); }

  private:
    struct Chunk
    {
        std::byte* data = nullptr;
        std::size_t size = 0;
        std::size_t used = 0;
    };

    std::vector<Chunk> chunks_;
    std::size_t active_ = 0;     //!< index of the chunk being bumped
    std::size_t next_size_ = 0;  //!< size of the next chunk to reserve

    void grow(std::size_t min_bytes);
};

/**
 * RAII rewind: records the arena position on construction and releases
 * back to it on destruction. The workhorse pattern of every kernel:
 *
 *   ArenaScope scope(scratchArena());
 *   double* acc = scope.arena().alloc<double>(span);
 */
class ArenaScope
{
  public:
    explicit ArenaScope(Arena& arena) : arena_(arena), mark_(arena.mark())
    {}
    ~ArenaScope() { arena_.release(mark_); }

    ArenaScope(const ArenaScope&) = delete;
    ArenaScope& operator=(const ArenaScope&) = delete;

    Arena&
    arena()
    {
        return arena_;
    }

  private:
    Arena& arena_;
    Arena::Mark mark_;
};

/** The calling thread's scratch arena (thread_local, lazily created). */
Arena& scratchArena();

} // namespace cimloop

#endif // CIMLOOP_COMMON_ARENA_HH
