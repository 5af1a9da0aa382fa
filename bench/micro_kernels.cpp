// Micro-benchmarks of the shared kernel layer (common/kernels.hpp):
// naive scalar reference loops vs the blocked/vectorizable kernels, on
// paper-scale shapes, plus the simulator's IF update (step_packed) vs the
// scalar per-neuron rule.  Tracked in the bench trajectory
// (bench/trajectory/micro_kernels.json, docs/performance.md): each row
// reports the naive and kernel wall time and their ratio, so kernel
// regressions are visible across PRs and in CI.
//
// Environment knobs:
//   RESPARC_BENCH_REPS   timing repetitions per measurement (default 9;
//                        the minimum over reps is reported, which is the
//                        stable statistic on a noisy machine)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/kernels.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "snn/neuron.hpp"
#include "snn/trace.hpp"

namespace {

using namespace resparc;
using Clock = std::chrono::steady_clock;

std::size_t bench_reps() {
  if (const char* env = std::getenv("RESPARC_BENCH_REPS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 9;
}

/// Minimum wall time of `fn()` over `reps` runs, in milliseconds.
template <typename Fn>
double min_ms(std::size_t reps, Fn&& fn) {
  double best = 1e300;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    fn();
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    best = std::min(best, ms);
  }
  return best;
}

/// Defeats dead-code elimination of a result buffer.
volatile float g_sink_f = 0.0f;

struct Row {
  std::string kernel;
  std::size_t items = 0;  ///< arithmetic items (MACs/adds) per timed call
  double naive_ms = 0.0;
  double kernel_ms = 0.0;
  double speedup() const { return kernel_ms > 0.0 ? naive_ms / kernel_ms : 0.0; }
};

// ---------------------------------------------------------------- naive --
// Scalar reference loops: byte-for-byte the pre-kernel-layer inner loops,
// kept here as the baseline the kernels are measured against (and that
// tests/test_kernels.cpp verifies bit-for-bit equality with).

void naive_conv_forward(const float* in, std::size_t ic, std::size_t ih,
                        std::size_t iw, const Matrix& w, std::size_t oc_n,
                        std::size_t k, std::size_t pad, std::size_t oh,
                        std::size_t ow, float* out) {
  for (std::size_t oc = 0; oc < oc_n; ++oc) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        float acc = 0.0f;
        for (std::size_t c = 0; c < ic; ++c) {
          for (std::size_t ky = 0; ky < k; ++ky) {
            const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy + ky) -
                                      static_cast<std::ptrdiff_t>(pad);
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(ih)) continue;
            for (std::size_t kx = 0; kx < k; ++kx) {
              const std::ptrdiff_t ix = static_cast<std::ptrdiff_t>(ox + kx) -
                                        static_cast<std::ptrdiff_t>(pad);
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(iw)) continue;
              acc += in[(c * ih + static_cast<std::size_t>(iy)) * iw +
                        static_cast<std::size_t>(ix)] *
                     w((c * k + ky) * k + kx, oc);
            }
          }
        }
        out[(oc * oh + oy) * ow + ox] = acc;
      }
    }
  }
}

void naive_matvec_in_major(const Matrix& w, const std::vector<float>& x,
                           std::vector<float>& out) {
  for (auto& v : out) v = 0.0f;
  for (std::size_t r = 0; r < w.rows(); ++r) {
    const float xv = x[r];
    if (xv == 0.0f) continue;
    const auto row = w.row(r);
    for (std::size_t c = 0; c < w.cols(); ++c) out[c] += xv * row[c];
  }
}

// ----------------------------------------------------------------- rows --

Row bench_conv_forward(std::size_t reps) {
  // The MNIST-CNN second conv layer (52ch 14x14 -> 64ch, 3x3 same): the
  // layer the ANN trainer spends its forward time in.
  const std::size_t ic = 52, ih = 14, iw = 14, oc = 64, k = 3, pad = 1;
  Rng rng(stream_seed(bench::bench_seed(), 0));
  std::vector<float> in(ic * ih * iw);
  for (auto& v : in) v = static_cast<float>(rng.uniform(0.0, 1.0));
  Matrix w(ic * k * k, oc);
  for (float& v : w.flat()) v = static_cast<float>(rng.normal(0.0, 0.2));
  std::vector<float> out(oc * ih * iw, 0.0f);
  kernels::Scratch scratch;

  Row row;
  row.kernel = "conv_forward";
  row.items = out.size() * ic * k * k;
  row.naive_ms = min_ms(reps, [&] {
    naive_conv_forward(in.data(), ic, ih, iw, w, oc, k, pad, ih, iw,
                       out.data());
    g_sink_f = out[0];
  });
  row.kernel_ms = min_ms(reps, [&] {
    kernels::conv2d_forward(in.data(), ic, ih, iw, w.flat().data(), oc, k,
                            pad, ih, iw, out.data(), scratch);
    g_sink_f = out[0];
  });
  return row;
}

Row bench_matvec(std::size_t reps) {
  // MNIST-MLP first layer shape (784 -> 800), dense activations.
  const std::size_t rows = 784, cols = 800;
  Rng rng(stream_seed(bench::bench_seed(), 1));
  Matrix w(rows, cols);
  for (float& v : w.flat()) v = static_cast<float>(rng.normal(0.0, 0.1));
  std::vector<float> x(rows);
  for (auto& v : x) v = static_cast<float>(rng.uniform(0.0, 1.0));
  std::vector<float> out(cols, 0.0f);

  Row row;
  row.kernel = "matvec_in_major";
  row.items = rows * cols;
  row.naive_ms = min_ms(reps, [&] {
    naive_matvec_in_major(w, x, out);
    g_sink_f = out[0];
  });
  row.kernel_ms = min_ms(reps, [&] {
    kernels::matvec_in_major(w.flat().data(), rows, cols, x.data(),
                             out.data());
    g_sink_f = out[0];
  });
  return row;
}

Row bench_row_accumulate(std::size_t reps) {
  // The dense simulate hot loop: ~10% active rows of an 800-wide layer
  // accumulated onto the current buffer (one presentation step's worth,
  // repeated to get above timer resolution).
  const std::size_t rows = 784, cols = 800, iters = 64;
  Rng rng(stream_seed(bench::bench_seed(), 2));
  Matrix w(rows, cols);
  for (float& v : w.flat()) v = static_cast<float>(rng.normal(0.0, 0.1));
  std::vector<std::uint32_t> active;
  for (std::size_t r = 0; r < rows; ++r)
    if (rng.bernoulli(0.1)) active.push_back(static_cast<std::uint32_t>(r));
  std::vector<float> acc(cols, 0.0f);

  Row row;
  row.kernel = "row_accumulate";
  row.items = active.size() * cols * iters;
  row.naive_ms = min_ms(reps, [&] {
    for (std::size_t it = 0; it < iters; ++it) {
      std::fill(acc.begin(), acc.end(), 0.0f);
      for (const std::uint32_t r : active) {
        const auto wrow = w.row(r);
        for (std::size_t c = 0; c < cols; ++c) acc[c] += wrow[c];
      }
    }
    g_sink_f = acc[0];
  });
  row.kernel_ms = min_ms(reps, [&] {
    for (std::size_t it = 0; it < iters; ++it) {
      std::fill(acc.begin(), acc.end(), 0.0f);
      kernels::accumulate_rows(w.flat().data(), cols, cols, active,
                               acc.data());
    }
    g_sink_f = acc[0];
  });
  return row;
}

Row bench_if_step_packed(std::size_t reps) {
  // The MNIST-CNN first conv layer's IF population (52ch 28x28 = 40,768
  // neurons) stepped with a drive that fires a fraction of it each step.
  const std::size_t n = 40768, steps = 32;
  Rng rng(stream_seed(bench::bench_seed(), 3));
  std::vector<float> drive(n);
  for (auto& v : drive) v = static_cast<float>(rng.uniform(-0.2, 0.6));
  // step_packed consumes its currents, so both sides copy the drive in
  // every step, as the simulator's scatter writes it.
  std::vector<float> current(n);
  const snn::IfParams params;  // subtractive reset, no leak
  const float vth = static_cast<float>(params.v_threshold);
  const float vreset = static_cast<float>(params.v_reset);
  std::vector<float> membrane(n, 0.0f);
  snn::IfPopulation pop(n, params);
  snn::SpikeVector spikes(n);

  Row row;
  row.kernel = "if_step_packed";
  row.items = n * steps;
  // Naive: the scalar byte rule, then one SpikeVector::set per spike.
  row.naive_ms = min_ms(reps, [&] {
    for (std::size_t t = 0; t < steps; ++t) {
      std::copy(drive.begin(), drive.end(), current.begin());
      spikes.reset(n);
      for (std::size_t i = 0; i < n; ++i) {
        float v = membrane[i] + current[i];
        std::uint8_t fire = 0;
        if (v >= vth) {
          fire = 1;
          v -= vth;
          if (v < vreset) v = vreset;
        }
        membrane[i] = v;
        if (fire) spikes.set(i);
      }
    }
    g_sink_f = membrane[0] + static_cast<float>(spikes.words()[0]);
  });
  row.kernel_ms = min_ms(reps, [&] {
    for (std::size_t t = 0; t < steps; ++t) {
      std::copy(drive.begin(), drive.end(), current.begin());
      pop.step_packed(current, spikes);
    }
    g_sink_f = pop.membrane(0) + static_cast<float>(spikes.words()[0]);
  });
  return row;
}

}  // namespace

int main() {
  const std::size_t reps = bench_reps();
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("== kernel micro-benchmarks (naive scalar vs kernel layer) ==\n");
  std::printf("(%zu reps, min reported; %u hardware threads)\n\n", reps,
              hw == 0 ? 1 : hw);

  std::vector<Row> rows;
  rows.push_back(bench_conv_forward(reps));
  rows.push_back(bench_matvec(reps));
  rows.push_back(bench_row_accumulate(reps));
  rows.push_back(bench_if_step_packed(reps));

  for (const Row& r : rows)
    std::printf("%-16s %12zu items | naive %9.4f ms | kernel %9.4f ms | "
                "%5.2fx\n",
                r.kernel.c_str(), r.items, r.naive_ms, r.kernel_ms,
                r.speedup());

  std::ostringstream config;
  config << "{\"reps\": " << reps
         << ", \"hardware_threads\": " << (hw == 0 ? 1 : hw) << "}";
  std::ostringstream metrics;
  metrics << "{\"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    metrics << "    {\"kernel\": \"" << r.kernel << "\", \"items\": "
            << r.items << ", \"naive_ms\": " << r.naive_ms
            << ", \"kernel_ms\": " << r.kernel_ms
            << ", \"speedup\": " << r.speedup() << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  metrics << "  ]}";

  bench::write_trajectory("micro_kernels", config.str(), metrics.str());
  return 0;
}
