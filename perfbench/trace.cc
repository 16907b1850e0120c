#include "trace.hh"

#include <stdexcept>

namespace perfbench {

std::uint32_t
Tracer::intern(const char* name)
{
    auto it = ids_.find(name);
    if (it != ids_.end())
        return it->second;
    std::uint32_t id = static_cast<std::uint32_t>(names_.size());
    names_.emplace_back(name);
    ids_.emplace(name, id);
    return id;
}

void
Tracer::openOp()
{
    if (!stack_.empty())
        throw std::logic_error("perfbench: op opened inside an open span");
    records_.clear();
    open("op");
}

int
Tracer::open(const char* name, bool shadow)
{
    Record r;
    r.name = intern(name);
    r.parent = stack_.empty() ? -1 : stack_.back();
    r.shadow = shadow;
    if (r.parent >= 0 && records_[static_cast<std::size_t>(r.parent)].shadow)
        throw std::logic_error("perfbench: shadow spans must be leaves");
    int id = static_cast<int>(records_.size());
    stack_.push_back(id);
    r.start = nowNs();
    records_.push_back(r);
    return id;
}

void
Tracer::close(int id)
{
    std::int64_t t = nowNs();
    if (stack_.empty() || stack_.back() != id)
        throw std::logic_error("perfbench: spans closed out of order");
    stack_.pop_back();
    records_[static_cast<std::size_t>(id)].end = t;
}

void
Tracer::rename(int id, const char* name)
{
    records_[static_cast<std::size_t>(id)].name = intern(name);
}

OpTrace
Tracer::closeOp()
{
    if (stack_.size() != 1)
        throw std::logic_error("perfbench: op closed with open spans");
    close(stack_.back());
    OpTrace op = aggregate(records_, names_);
    if (ops_++ == 0)
        kept_ = records_;
    records_.clear();
    return op;
}

OpTrace
Tracer::aggregate(const std::vector<Record>& records,
                  const std::vector<std::string>& names)
{
    const std::size_t n = records.size();
    std::vector<double> shadow_in(n, 0.0), child_sum(n, 0.0), real(n, 0.0);
    OpTrace op;
    // Children are opened after their parents, so a reverse sweep sees
    // every child complete before its parent.
    for (std::size_t k = n; k-- > 0;) {
        const Record& r = records[k];
        double dur = static_cast<double>(r.end - r.start) * 1e-6;
        real[k] = r.shadow ? dur : dur - shadow_in[k];
        double self = real[k] - child_sum[k];
        if (r.parent >= 0) {
            std::size_t p = static_cast<std::size_t>(r.parent);
            shadow_in[p] += r.shadow ? dur : shadow_in[k];
            child_sum[p] += real[k];
            LayerTotals& lt = op.layers[names[r.name]];
            ++lt.calls;
            lt.selfMs += self;
            op.selfSumMs += self;
        } else {
            op.wallMs = real[k];
        }
    }
    return op;
}

void
Tracer::writeSpans(std::ostream& os) const
{
    os << "op\tid\tparent\tname\tshadow\tstart_ns\tend_ns\n";
    std::int64_t base = kept_.empty() ? 0 : kept_.front().start;
    for (std::size_t i = 0; i < kept_.size(); ++i) {
        const Record& r = kept_[i];
        os << 0 << '\t' << i << '\t' << r.parent << '\t' << names_[r.name]
           << '\t' << (r.shadow ? 1 : 0) << '\t' << (r.start - base)
           << '\t' << (r.end - base) << '\n';
    }
}

} // namespace perfbench
