// String-keyed backend registry: the factory seam of the API layer.
//
// Callers name the architecture they want and get an abstract Accelerator:
//
//   auto resparc = api::make_accelerator("resparc-64");
//   auto greedy  = api::make_accelerator("resparc-64/greedy-pack");
//   auto cmos    = api::make_accelerator("cmos");
//
// Built-in names (registered on first use):
//   "resparc"                  RESPARC at the paper's default operating
//                              point, honouring options.resparc verbatim
//   "resparc-32/-64/-128/-256" RESPARC with the MCA size overridden
//   "cmos", "falcon"           the digital baseline (options.cmos)
//
// Any RESPARC key accepts a "/<strategy>" suffix selecting the mapping
// strategy the compile layer uses (compile/strategy.hpp: "paper",
// "greedy-pack", "anneal", "beam", "auto", plus anything added through
// compile::register_strategy); BackendOptions::strategy is the same
// choice made programmatically.
//
// Future variants (analog-noise crossbars, sharded multi-chip, ...) plug in
// via register_backend without touching any caller.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/accelerator.hpp"
#include "cmos/falcon.hpp"
#include "common/error.hpp"
#include "core/config.hpp"
#include "noc/route.hpp"

namespace resparc::api {

/// Thrown for unknown backend names; the message lists what is registered.
class BackendError : public Error {
 public:
  /// Wraps `what` with the "backend error:" prefix.
  explicit BackendError(const std::string& what)
      : Error("backend error: " + what) {}
};

/// Configuration handed to backend factories.  Each backend reads the slice
/// it understands and ignores the rest, so one options object can configure
/// a whole comparison.
struct BackendOptions {
  core::ResparcConfig resparc = core::default_config();  ///< RESPARC slice
  cmos::FalconConfig cmos{};                             ///< CMOS slice
  /// Mapping strategy for crossbar backends ("paper", "greedy-pack",
  /// "anneal", "beam", "auto", ...).  A `"/<strategy>"` key suffix
  /// overrides this.
  /// Backends without a compile step (the CMOS baseline) ignore it.
  std::string strategy = "paper";
  /// Ml-NoC timing fidelity for the RESPARC fabric (docs/noc.md):
  /// kAnalytic reproduces the flat per-word transfer charges bit-for-bit;
  /// kEvent drives switch-FIFO queues and adds hop pipeline-fill plus
  /// congestion stall latency.  Backends without a NoC model ignore it.
  noc::Fidelity noc = noc::Fidelity::kAnalytic;
};

/// Factory signature: build an accelerator from shared options.
using BackendFactory =
    std::function<std::unique_ptr<Accelerator>(const BackendOptions&)>;

/// Creates the backend registered under `name`; an optional
/// `"/<strategy>"` suffix selects the mapping strategy
/// (e.g. "resparc-64/greedy-pack").  Throws BackendError for unknown
/// backend names or strategies — the message lists what is registered.
std::unique_ptr<Accelerator> make_accelerator(const std::string& name,
                                              const BackendOptions& options = {});

/// Registers (or replaces) a backend under `name`.  Thread-safe.
void register_backend(const std::string& name, BackendFactory factory);

/// Sorted names of every registered backend.
std::vector<std::string> registered_backends();

}  // namespace resparc::api
