#ifndef CIMLOOP_COMMON_PARETO_HH
#define CIMLOOP_COMMON_PARETO_HH

#include <cstddef>
#include <vector>

namespace cimloop {

/**
 * Incrementally maintained Pareto frontier (all dimensions minimized).
 * insert() is dominance-prune: a candidate dominated by a member is
 * rejected; members the candidate dominates are evicted. Equal rows are
 * both kept. The nondominated set is independent of insertion order, so
 * streaming chunks through this matches a batch pass over the full
 * grid. Cost per insert is O(frontier * dims) — for a million-point
 * sweep that replaces the old O(n²) end-of-run scan. The one dominance
 * routine: dse sweeps and engine::paretoFrontier both stream through it.
 */
class ParetoFront
{
  public:
    /** Outcome of one insert. */
    struct Insertion
    {
        bool added = false;
        std::vector<std::size_t> evicted; //!< indices pruned by this add
    };

    explicit ParetoFront(std::size_t dims) : dims_(dims) {}

    /** Offers (index, objectives) to the frontier. Fatal (panic) when
     *  the row's dimensionality differs from the front's. */
    Insertion insert(std::size_t index, const std::vector<double>& row);

    std::size_t size() const { return members_.size(); }

    /** Current member indices, ascending. */
    std::vector<std::size_t> indices() const;

  private:
    struct Member
    {
        std::size_t index;
        std::vector<double> row;
    };
    std::size_t dims_;
    std::vector<Member> members_;
};

} // namespace cimloop

#endif // CIMLOOP_COMMON_PARETO_HH
