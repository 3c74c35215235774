/**
 * @file
 * The scheduler-backend registry: configuration dispatch as data.
 *
 * A scheduling configuration used to be a bare SchedConfig enumerator
 * whose meaning was re-derived by `config == SchedConfig::P4`-style
 * predicates scattered across the pipeline, the server, the oracle and
 * the tools — every new config had to edit a dozen switch sites or
 * silently miss one.  This header replaces all of those predicates
 * with one descriptor per backend:
 *
 *  - a stable *name* ("P4", "M16") that is the string key for
 *    `--config` parsing everywhere and part of the stage-cache key;
 *  - *capability queries* — needsEdgeProfile()/needsPathProfile() —
 *    that answer every "which profile does this config consume?"
 *    question (training-listener attachment, profile admission, cache
 *    profile hashing, the serving loop's reschedule inputs);
 *  - formsSuperblocks, which gates the pipeline's "form" stage, the
 *    formation knobs in the stage-cache key and the "form.<cfg>.*"
 *    counters.
 *
 * The registry is closed: it holds the paper's five configurations.
 * The fuzz oracle, `--config all`, the batch sweep, the serving loop
 * and the stage cache all iterate allBackends().
 */

#ifndef PATHSCHED_PIPELINE_BACKEND_HPP
#define PATHSCHED_PIPELINE_BACKEND_HPP

#include <string>
#include <vector>

#include "pipeline/pipeline.hpp"

namespace pathsched::pipeline {

/** One scheduling backend; see backend.cpp for the registrations. */
struct BackendDesc
{
    SchedConfig config = SchedConfig::BB;
    /** Stable display/parse name, e.g. "P4e"; also cache-key material. */
    const char *name = "";
    /** One-line description for --help and docs. */
    const char *summary = "";
    /** Consumes an edge profile (training listener + admission). */
    bool edgeProfile = false;
    /** Consumes a path profile (training listener + admission). */
    bool pathProfile = false;
    /** Runs superblock formation (the pipeline's "form" stage).  Every
     *  profile-consuming backend forms superblocks and vice versa. */
    bool formsSuperblocks = false;

    /** @name Capability queries — the only sanctioned way to ask what
     *  a configuration needs; raw SchedConfig comparisons outside the
     *  registry are rejected by backend_registry_test's guard. @{ */
    bool needsEdgeProfile() const { return edgeProfile; }
    bool needsPathProfile() const { return pathProfile; }
    bool needsProfile() const { return edgeProfile || pathProfile; }
    /** @} */
};

/** Descriptor of @p config; panics on an unregistered enumerator. */
const BackendDesc &backendFor(SchedConfig config);

/** Descriptor registered under @p name, or null — the string-keyed
 *  lookup behind every tool's --config parsing. */
const BackendDesc *findBackend(const std::string &name);

/** Every registered backend, in registration order: BB, M4, M16, P4,
 *  P4e.  This order is the canonical config list of `--config all`,
 *  the batch sweep and the fuzz oracle. */
const std::vector<const BackendDesc *> &allBackends();

/** Comma-joined registry names ("BB, M4, ..."): the one source of the
 *  config list in every tool's --help text. */
std::string configListString();

} // namespace pathsched::pipeline

#endif // PATHSCHED_PIPELINE_BACKEND_HPP
