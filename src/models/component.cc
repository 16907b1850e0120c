#include "cimloop/models/component.hh"

#include <algorithm>
#include <mutex>

#include "cimloop/common/error.hh"
#include "cimloop/common/util.hh"

namespace cimloop::models {

std::int64_t
ComponentContext::attrInt(const std::string& key, std::int64_t fb) const
{
    CIM_ASSERT(node, "ComponentContext has no spec node");
    return node->attrInt(key, fb);
}

double
ComponentContext::attrDouble(const std::string& key, double fb) const
{
    CIM_ASSERT(node, "ComponentContext has no spec node");
    return node->attrDouble(key, fb);
}

std::string
ComponentContext::attrString(const std::string& key,
                             const std::string& fb) const
{
    CIM_ASSERT(node, "ComponentContext has no spec node");
    return node->attrString(key, fb);
}

TechParams
ComponentContext::tech() const
{
    return techParams(technologyNm);
}

double
ComponentContext::voltage() const
{
    return supplyVoltage > 0.0 ? supplyVoltage : tech().vNominal;
}

double
ComponentContext::voltageEnergyFactor() const
{
    return VoltageModel(tech()).energyFactor(voltage());
}

double
ComponentContext::voltageFrequencyFactor() const
{
    return VoltageModel(tech()).frequencyFactor(voltage());
}

PluginRegistry&
PluginRegistry::instance()
{
    static PluginRegistry registry;
    // A static initializer runs once, and concurrent first callers (the
    // workers of a threaded sweep) wait for it: none sees the registry
    // before the built-ins are in.
    static const bool initialized =
        (registerBuiltinModels(registry), true);
    (void)initialized;
    return registry;
}

void
PluginRegistry::add(std::unique_ptr<ComponentModel> model)
{
    CIM_ASSERT(model, "cannot register a null model");
    std::string key = toLower(model->className());
    std::unique_lock lock(mutex_);
    std::unique_ptr<ComponentModel>& slot = models[key];
    if (slot)
        retired_.push_back(std::move(slot));
    slot = std::move(model);
    generation_.fetch_add(1, std::memory_order_relaxed);
}

const ComponentModel*
PluginRegistry::find(const std::string& class_name) const
{
    const std::string key = toLower(class_name);
    std::shared_lock lock(mutex_);
    auto it = models.find(key);
    return it == models.end() ? nullptr : it->second.get();
}

const ComponentModel&
PluginRegistry::require(const std::string& class_name) const
{
    const ComponentModel* m = find(class_name);
    if (!m) {
        CIM_FATAL("no component model registered for class '", class_name,
                  "'; register a plug-in or use a built-in class");
    }
    return *m;
}

std::vector<std::string>
PluginRegistry::classNames() const
{
    std::vector<std::string> names;
    std::shared_lock lock(mutex_);
    names.reserve(models.size());
    for (const auto& [k, v] : models) {
        (void)k;
        names.push_back(v->className());
    }
    std::sort(names.begin(), names.end());
    return names;
}

const ComponentModel&
modelFor(const spec::SpecNode& node)
{
    return PluginRegistry::instance().require(
        node.klass.empty() ? "Wire" : node.klass);
}

} // namespace cimloop::models
