/**
 * @file
 * No-op stand-ins for the deleted scratch arena. The Pmf lattice kernels
 * allocate plain vectors; only perfbench still opens an ArenaScope, and
 * it builds against these until the next benchmark change drops the
 * include.
 */
#ifndef CIMLOOP_COMMON_ARENA_HH
#define CIMLOOP_COMMON_ARENA_HH

namespace cimloop {

struct Arena
{};

/** Does nothing: there is no arena to rewind. */
struct ArenaScope
{
    explicit ArenaScope(Arena&) {}
};

inline Arena&
scratchArena()
{
    static Arena arena;
    return arena;
}

} // namespace cimloop

#endif // CIMLOOP_COMMON_ARENA_HH
