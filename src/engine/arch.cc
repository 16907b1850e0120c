#include "cimloop/engine/arch.hh"

#include "cimloop/common/error.hh"
#include "cimloop/common/util.hh"

namespace cimloop::engine {

int
Arch::inputBitsFor(const workload::Layer& layer) const
{
    return rep.inputBits > 0 ? rep.inputBits : layer.inputBits;
}

int
Arch::weightBitsFor(const workload::Layer& layer) const
{
    return rep.weightBits > 0 ? rep.weightBits : layer.weightBits;
}

std::int64_t
Arch::inputSlices(const workload::Layer& layer) const
{
    CIM_ASSERT(rep.dacBits >= 1, "dacBits must be >= 1");
    return ceilDiv(inputBitsFor(layer), rep.dacBits);
}

std::int64_t
Arch::weightSlices(const workload::Layer& layer) const
{
    CIM_ASSERT(rep.cellBits >= 1, "cellBits must be >= 1");
    return ceilDiv(weightBitsFor(layer), rep.cellBits);
}

workload::Layer
Arch::extendLayer(const workload::Layer& layer) const
{
    workload::Layer ext = layer;
    ext.dims[workload::dimIndex(workload::Dim::IB)] = inputSlices(layer);
    ext.dims[workload::dimIndex(workload::Dim::WB)] = weightSlices(layer);
    ext.inputBits = inputBitsFor(layer);
    ext.weightBits = weightBitsFor(layer);
    return ext;
}

} // namespace cimloop::engine
