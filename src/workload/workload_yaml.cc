#include "cimloop/workload/layer.hh"

#include "cimloop/common/error.hh"
#include "cimloop/yaml/parser.hh"

namespace cimloop::workload {

namespace {

/**
 * Re-raises YAML kind mismatches with the offending key path attached,
 * so "expected int" names the key instead of just the node kind.
 */
std::int64_t
intAt(const yaml::Node& value, const std::string& path)
{
    try {
        return value.asInt();
    } catch (const FatalError& e) {
        CIM_FATAL(path, ": ", e.what());
    }
}

/**
 * An operand bit width: the operand synthesizer supports [1, 16] bits,
 * so a wider or non-positive width is a user error, named by key path.
 */
int
bitsAt(const yaml::Node& value, const std::string& path)
{
    const std::int64_t bits = intAt(value, path);
    if (bits < 1 || bits > 16)
        CIM_FATAL(path, " must be in [1, 16], got ", bits);
    return static_cast<int>(bits);
}

std::string
stringAt(const yaml::Node& value, const std::string& path)
{
    try {
        return value.asString();
    } catch (const FatalError& e) {
        CIM_FATAL(path, ": ", e.what());
    }
}

} // namespace

Layer
layerFromYaml(const yaml::Node& node, const std::string& path)
{
    if (!node.isMapping())
        CIM_FATAL(path, " must be a YAML mapping (keys: name, dims, "
                  "input_bits, weight_bits, count)");
    Layer layer;
    for (const auto& [key, value] : node.items()) {
        if (key == "name") {
            layer.name = stringAt(value, path + ".name");
        } else if (key == "dims") {
            if (!value.isMapping())
                CIM_FATAL(path, ".dims (layer '", layer.name,
                          "') must be a mapping");
            for (const auto& [dk, dv] : value.items()) {
                Dim d = dimFromString(dk);
                std::int64_t extent = intAt(dv, path + ".dims." + dk);
                if (extent < 1)
                    CIM_FATAL(path, ".dims.", dk, " (layer '",
                              layer.name, "') must be >= 1, got ",
                              extent);
                layer.dims[dimIndex(d)] = extent;
            }
        } else if (key == "input_bits") {
            layer.inputBits = bitsAt(value, path + ".input_bits");
        } else if (key == "weight_bits") {
            layer.weightBits = bitsAt(value, path + ".weight_bits");
        } else if (key == "count") {
            layer.count = intAt(value, path + ".count");
            if (layer.count < 1)
                CIM_FATAL(path, ".count (layer '", layer.name,
                          "') must be >= 1, got ", layer.count);
        } else {
            CIM_FATAL(path, ": unknown key '", key, "' (layer '",
                      layer.name, "'; known: name, dims, input_bits, "
                      "weight_bits, count)");
        }
    }
    if (layer.name.empty())
        CIM_FATAL(path, " is missing a 'name' key");
    return layer;
}

Network
networkFromYaml(const yaml::Node& doc)
{
    if (!doc.isMapping() || !doc.has("layers"))
        CIM_FATAL("workload document needs a top-level 'layers' list");
    Network net;
    net.name = doc.getString("name", "workload");
    const yaml::Node& layers = doc["layers"];
    if (!layers.isSequence())
        CIM_FATAL("workload.layers must be a sequence of layer "
                  "mappings");
    std::size_t i = 0;
    for (const yaml::Node& entry : layers.elements()) {
        net.layers.push_back(layerFromYaml(
            entry, "workload.layers[" + std::to_string(i) + "]"));
        ++i;
    }
    if (net.layers.empty())
        CIM_FATAL("workload '", net.name,
                  "' has an empty 'layers' list");
    for (std::size_t j = 0; j < net.layers.size(); ++j) {
        net.layers[j].network = net.name;
        net.layers[j].index = static_cast<int>(j);
        net.layers[j].networkLayers = static_cast<int>(net.layers.size());
    }
    return net;
}

Network
networkFromFile(const std::string& path)
{
    return networkFromYaml(yaml::parseFile(path));
}

} // namespace cimloop::workload
