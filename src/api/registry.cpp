#include "api/registry.hpp"

#include <mutex>
#include <optional>

#include "api/backends.hpp"
#include "common/registry.hpp"
#include "compile/strategy.hpp"

namespace resparc::api {
namespace {

NamedRegistry<BackendFactory>& registry() {
  static NamedRegistry<BackendFactory> instance;
  static std::once_flag once;
  std::call_once(once, [] {
    instance.set("resparc", [](const BackendOptions& o) {
      return std::make_unique<ResparcBackend>(o.resparc, o.strategy, o.noc);
    });
    for (const std::size_t mca : {32u, 64u, 128u, 256u}) {
      instance.set("resparc-" + std::to_string(mca),
                   [mca](const BackendOptions& o) {
                     core::ResparcConfig config = o.resparc;
                     config.mca_size = mca;
                     return std::make_unique<ResparcBackend>(config, o.strategy,
                                                             o.noc);
                   });
    }
    const BackendFactory cmos = [](const BackendOptions& o) {
      return std::make_unique<CmosBackend>(o.cmos);
    };
    instance.set("cmos", cmos);
    instance.set("falcon", cmos);
  });
  return instance;
}

std::string strategies_list() {
  return join_names(compile::registered_strategies()) + ", auto";
}

}  // namespace

std::unique_ptr<Accelerator> make_accelerator(const std::string& name,
                                              const BackendOptions& options) {
  NamedRegistry<BackendFactory>& r = registry();

  // An exactly registered name always wins (register_backend places no
  // restriction on '/' in names); otherwise split the optional
  // "base/<strategy>" suffix.
  std::optional<BackendFactory> factory = r.find(name);
  std::string strategy;  // suffix override; empty = honour options.strategy
  if (!factory) {
    const std::size_t slash = name.find('/');
    const std::string base = name.substr(0, slash);
    strategy = slash == std::string::npos ? std::string() : name.substr(slash + 1);
    if (slash != std::string::npos && strategy.empty())
      throw BackendError("empty mapping strategy in \"" + name +
                         "\" (strategies: " + strategies_list() + ")");
    factory = r.find(base);
    if (!factory)
      throw BackendError("unknown backend \"" + base + "\" (registered: " +
                         join_names(r.names()) +
                         "; strategies: " + strategies_list() + ")");
  }

  // Whichever channel chose the strategy (suffix or options), a typo must
  // surface here as BackendError, not later at load() time.
  const std::string& effective = strategy.empty() ? options.strategy : strategy;
  if (effective.empty())
    throw BackendError("empty options.strategy for \"" + name +
                       "\" (strategies: " + strategies_list() + ")");
  if (effective != "auto" && !compile::strategy_exists(effective))
    throw BackendError("unknown mapping strategy \"" + effective +
                       "\" in \"" + name +
                       "\" (strategies: " + strategies_list() + ")");

  if (strategy.empty()) return (*factory)(options);

  BackendOptions with_suffix = options;
  with_suffix.strategy = strategy;
  auto accelerator = (*factory)(with_suffix);
  // A suffix on a backend that cannot honour it would be silently
  // ignored — reject it instead.
  if (!accelerator->supports_mapping_strategies())
    throw BackendError("backend \"" + name.substr(0, name.find('/')) +
                       "\" does not support mapping strategies (\"" + name +
                       "\")");
  return accelerator;
}

void register_backend(const std::string& name, BackendFactory factory) {
  require(!name.empty(), "register_backend: empty name");
  require(static_cast<bool>(factory), "register_backend: null factory");
  registry().set(name, std::move(factory));
}

std::vector<std::string> registered_backends() { return registry().names(); }

}  // namespace resparc::api
