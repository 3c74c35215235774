#include "pipeline/backend.hpp"

#include "support/logging.hpp"

namespace pathsched::pipeline {

form::FormConfig
formConfigFor(SchedConfig config, const PipelineOptions &options)
{
    form::FormConfig fc;
    fc.completionThreshold = options.completionThreshold;
    fc.maxInstrs = options.maxInstrs;
    fc.enlarge = options.enlarge;
    fc.growUpward = options.growUpward;
    switch (config) {
      case SchedConfig::BB:
        break; // no formation stage
      case SchedConfig::M4:
        fc.mode = form::ProfileMode::Edge;
        fc.unrollFactor = 4;
        break;
      case SchedConfig::M16:
        fc.mode = form::ProfileMode::Edge;
        fc.unrollFactor = 16;
        break;
      case SchedConfig::P4:
        fc.mode = form::ProfileMode::Path;
        fc.maxLoopHeads = 4;
        break;
      case SchedConfig::P4e:
        fc.mode = form::ProfileMode::Path;
        fc.maxLoopHeads = 4;
        fc.nonLoopStopsAtAnyHead = true;
        break;
    }
    return fc;
}

namespace {

/** The built-in registrations, in canonical order. */
const std::vector<BackendDesc> &
registry()
{
    static const std::vector<BackendDesc> descs = {
        {.config = SchedConfig::BB,
         .name = "BB",
         .summary = "basic-block scheduling (Table 1 baseline)"},
        {.config = SchedConfig::M4,
         .name = "M4",
         .summary = "edge profile, mutual-most-likely, unroll 4",
         .edgeProfile = true,
         .formsSuperblocks = true},
        {.config = SchedConfig::M16,
         .name = "M16",
         .summary = "edge profile, mutual-most-likely, unroll 16",
         .edgeProfile = true,
         .formsSuperblocks = true},
        {.config = SchedConfig::P4,
         .name = "P4",
         .summary = "path profile, <= 4 superblock-loop heads",
         .pathProfile = true,
         .formsSuperblocks = true},
        {.config = SchedConfig::P4e,
         .name = "P4e",
         .summary = "P4, non-loop superblocks stop at any head",
         .pathProfile = true,
         .formsSuperblocks = true},
    };
    return descs;
}

} // namespace

const BackendDesc &
backendFor(SchedConfig config)
{
    for (const BackendDesc &d : registry()) {
        if (d.config == config)
            return d;
    }
    panic("no backend registered for SchedConfig %d", int(config));
}

const BackendDesc *
findBackend(const std::string &name)
{
    for (const BackendDesc &d : registry()) {
        if (name == d.name)
            return &d;
    }
    return nullptr;
}

const std::vector<const BackendDesc *> &
allBackends()
{
    static const std::vector<const BackendDesc *> list = [] {
        std::vector<const BackendDesc *> out;
        for (const BackendDesc &d : registry())
            out.push_back(&d);
        return out;
    }();
    return list;
}

std::string
configListString()
{
    std::string out;
    for (const BackendDesc *be : allBackends()) {
        if (!out.empty())
            out += ", ";
        out += be->name;
    }
    return out;
}

const char *
configName(SchedConfig config)
{
    return backendFor(config).name;
}

} // namespace pathsched::pipeline
