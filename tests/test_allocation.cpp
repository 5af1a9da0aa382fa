// Allocation-regression guard: steady-state simulate/execute must
// perform ZERO heap allocations per presentation (docs/performance.md).
//
// The whole test binary's global operator new/delete (every form) are
// replaced with counting forwarders to malloc/free; counting is enabled
// only around the measured region.  The protocol: run one
// paper-scale CNN presentation to warm the simulator's scratch arenas,
// then run a second identical presentation and require that it
// allocated nothing.
//
// The same counter pins the sharing of replay reports: a copy of an
// api::ExecutionReport, or of a serve::Response holding one, allocates at
// most its backend name, and shares the native report and fault manifest
// the replay made.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <vector>

#include "api/pipeline.hpp"
#include "api/registry.hpp"
#include "core/executor.hpp"
#include "core/mapper.hpp"
#include "snn/benchmarks.hpp"
#include "snn/network.hpp"
#include "snn/simulator.hpp"
#include "serve/request.hpp"

namespace {

std::atomic<bool> g_track{false};
std::atomic<std::size_t> g_allocations{0};

/// Counted malloc/aligned_alloc; nullptr on failure.
void* counted_alloc_nothrow(std::size_t size, std::size_t align) noexcept {
  if (g_track.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  return align > alignof(std::max_align_t)
             ? std::aligned_alloc(align, (size + align - 1) / align * align)
             : std::malloc(size == 0 ? 1 : size);
}

void* counted_alloc(std::size_t size, std::size_t align) {
  void* p = counted_alloc_nothrow(size, align);
  if (!p) throw std::bad_alloc();
  return p;
}

}  // namespace

// Every allocating form is replaced, the std::nothrow_t ones included
// (std::stable_sort's temporary buffer uses them): a form left to the
// runtime would pair the runtime's allocator with the free() below.
void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace resparc {
namespace {

/// Allocations performed by fn().
template <typename Fn>
std::size_t count_allocations(Fn&& fn) {
  g_allocations.store(0, std::memory_order_relaxed);
  g_track.store(true, std::memory_order_relaxed);
  fn();
  g_track.store(false, std::memory_order_relaxed);
  return g_allocations.load(std::memory_order_relaxed);
}

class AllocationSteadyState : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto spec = snn::mnist_cnn();  // paper-scale CNN
    net_ = std::make_unique<snn::Network>(spec.topology);
    Rng rng(41);
    net_->init_random(rng, 1.0f);
    net_->set_uniform_threshold(1.5);
    image_.resize(spec.topology.input_shape().size());
    for (auto& p : image_) p = static_cast<float>(rng.uniform(0.0, 0.5));
  }

  /// Warm presentation, then a bit-identical second one with counting on.
  std::size_t second_presentation_allocations(double rate) {
    snn::SimConfig cfg;
    cfg.timesteps = 4;
    cfg.encoder.max_rate = rate;
    cfg.record_trace = false;  // traces are a deliverable, not steady state
    snn::Simulator sim(*net_, cfg);
    snn::SimResult result;
    Rng warm_rng(42);
    sim.run(image_, warm_rng, result);
    Rng rng(42);  // same stream: the steady state replays identical work
    return count_allocations([&] { sim.run(image_, rng, result); });
  }

  std::unique_ptr<snn::Network> net_;
  std::vector<float> image_;
};

// Busy input: the engine takes the stepped branch on most layer steps.
TEST_F(AllocationSteadyState, DenseSimulateSecondPresentationAllocatesNothing) {
  EXPECT_EQ(second_presentation_allocations(1.0), 0u);
}

// Sparse input: most conv/pool steps take the touched branch.
TEST_F(AllocationSteadyState, SparseSimulateSecondPresentationAllocatesNothing) {
  EXPECT_EQ(second_presentation_allocations(0.02), 0u);
}

// A leak on every layer rules the touched branch out, so even sparse input
// steps every layer through the packed IF producer (step_packed).
TEST_F(AllocationSteadyState, PackedSimulateSecondPresentationAllocatesNothing) {
  for (std::size_t l = 0; l < net_->layer_count(); ++l)
    net_->layer(l).neuron.leak_per_step = 0.01;
  EXPECT_EQ(second_presentation_allocations(0.02), 0u);
}

TEST_F(AllocationSteadyState, ExecutorReplaySecondRunAllocatesNothing) {
  // The trace-driven executor's steady state: replaying a presentation
  // against a fixed mapping is counter arithmetic only.
  snn::SimConfig cfg;
  cfg.timesteps = 4;
  snn::Simulator sim(*net_, cfg);
  Rng rng(43);
  const snn::SpikeTrace trace = sim.run(image_, rng).trace;

  const core::Mapping mapping =
      core::map_network(net_->topology(), core::default_config());
  const core::Executor executor(net_->topology(), mapping);
  (void)executor.run(trace);  // warm (nothing to warm, but symmetric)
  core::RunReport report;
  const std::size_t allocations =
      count_allocations([&] { report = executor.run(trace); });
  EXPECT_GT(report.events.neuron_integrations, 0u);
  EXPECT_EQ(allocations, 0u);
}

/// Two recorded presentations of the reduced MNIST MLP.
class SharedReport : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<snn::Network>(
        snn::small_mlp_topology(snn::DatasetKind::kMnistLike));
    Rng rng(51);
    net_->init_random(rng, 1.0f);
    net_->set_uniform_threshold(1.5);
    snn::SimConfig cfg;
    cfg.timesteps = 4;
    snn::Simulator sim(*net_, cfg);
    std::vector<float> image(net_->topology().input_shape().size());
    for (int k = 0; k < 2; ++k) {
      for (auto& p : image) p = static_cast<float>(rng.uniform(0.0, 0.5));
      traces_.push_back(sim.run(image, rng).trace);
    }
  }

  std::unique_ptr<snn::Network> net_;
  std::vector<snn::SpikeTrace> traces_;
};

// Copying a replay's report, alone or inside a serving response, allocates
// at most the backend name ("RESPARC-64/greedy-pack" is longer than the
// string's inline buffer) and reads the one native report the replay made.
TEST_F(SharedReport, CopiesAllocateAtMostTheBackendName) {
  const auto accel = api::make_accelerator("resparc-64/greedy-pack");
  accel->load(net_->topology());
  const api::ExecutionReport original = accel->execute(traces_.front());
  ASSERT_TRUE(original.resparc.has_value());

  std::optional<api::ExecutionReport> copy;
  EXPECT_LE(count_allocations([&] { copy.emplace(original); }), 1u);
  EXPECT_EQ(&*copy->resparc, &*original.resparc);
  EXPECT_EQ(copy->energy_breakdown_pj, original.energy_breakdown_pj);
  EXPECT_EQ(copy->latency_breakdown_ns, original.latency_breakdown_ns);

  serve::Response response;
  response.report = original;
  std::optional<serve::Response> response_copy;
  EXPECT_LE(count_allocations([&] { response_copy.emplace(response); }), 1u);
  EXPECT_EQ(&*response_copy->report.resparc, &*original.resparc);
}

// A chip derives its fault manifest once: every replay's report, the
// native report inside it and a batched reduction all point at it.
TEST_F(SharedReport, ReplaysOfOneChipShareOneFaultManifest) {
  api::BackendOptions options;
  options.resparc.faults.enabled = true;
  options.resparc.faults.chip_seed = 7;
  options.resparc.faults.stuck_off_rate = 0.01;
  options.resparc.faults.failed_density = 1.0;  // keep every mPE placeable
  const auto accel = api::make_accelerator("resparc-64", options);
  accel->load(net_->topology());
  const api::ExecutionReport a = accel->execute(traces_[0]);
  const api::ExecutionReport b = accel->execute(traces_[1]);
  ASSERT_TRUE(a.faults.has_value());
  ASSERT_TRUE(b.faults.has_value());
  EXPECT_EQ(&*a.faults, &*b.faults);
  EXPECT_EQ(&*a.faults, &*a.resparc->faults);
  const api::ExecutionReport merged =
      api::Pipeline::execute(*accel, traces_, 2);
  ASSERT_TRUE(merged.faults.has_value());
  EXPECT_EQ(&*merged.faults, &*a.faults);
}

}  // namespace
}  // namespace resparc
