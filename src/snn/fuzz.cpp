#include "snn/fuzz.hpp"

#include <sstream>

#include "common/rng.hpp"

namespace resparc::snn {

namespace {

/// Divisors > 1 of both h and w that a pool window may use.
std::vector<std::size_t> pool_choices(std::size_t h, std::size_t w) {
  std::vector<std::size_t> out;
  for (std::size_t p = 2; p <= h && p <= w; ++p)
    if (h % p == 0 && w % p == 0) out.push_back(p);
  return out;
}

}  // namespace

FuzzCase make_fuzz_case(std::uint64_t seed) {
  Rng rng(seed ^ 0xf0cca5eba5e0f22ull);
  // Input: small multi-channel planes keep conv/pool legal and every
  // engine's cost low enough for hundreds of cases per ctest run.
  const std::size_t c = static_cast<std::size_t>(rng.range(1, 3));
  const std::size_t h = static_cast<std::size_t>(rng.range(3, 8));
  const std::size_t w = h;  // square keeps pool divisibility simple
  Shape3 shape{c, h, w};

  std::vector<LayerSpec> layers;
  // Spatial phase: conv / pool while the plane is big enough, then an
  // all-dense tail (matching how real stacks and the mapper expect it).
  std::size_t cur_h = h;
  std::size_t cur_w = w;
  const std::size_t spatial = static_cast<std::size_t>(rng.range(0, 2));
  for (std::size_t i = 0; i < spatial; ++i) {
    const std::vector<std::size_t> pools = pool_choices(cur_h, cur_w);
    const bool try_pool = !pools.empty() && rng.bernoulli(0.4);
    if (try_pool) {
      const std::size_t p = pools[rng.below(pools.size())];
      layers.push_back(LayerSpec::avg_pool(p));
      cur_h /= p;
      cur_w /= p;
    } else {
      // Odd kernel no larger than the plane so 'valid' stays legal too.
      std::size_t k = 1 + 2 * static_cast<std::size_t>(rng.range(0, 2));
      while (k > cur_h || k > cur_w) k -= 2;
      const bool same = rng.bernoulli(0.5);
      const std::size_t oc = static_cast<std::size_t>(rng.range(1, 4));
      layers.push_back(LayerSpec::conv(oc, k, same));
      if (!same) {
        cur_h = cur_h - k + 1;
        cur_w = cur_w - k + 1;
      }
    }
    if (cur_h < 2 || cur_w < 2) break;
  }
  if (rng.bernoulli(0.5))
    layers.push_back(
        LayerSpec::dense(static_cast<std::size_t>(rng.range(4, 40))));
  const std::size_t classes = static_cast<std::size_t>(rng.range(2, 10));
  layers.push_back(LayerSpec::dense(classes));

  FuzzCase fc{Topology("fuzz-" + std::to_string(seed), shape,
                       std::move(layers))};
  fc.seed = seed;
  fc.timesteps = static_cast<std::size_t>(rng.range(4, 10));
  const std::size_t mca_choices[] = {64, 128, 256};
  fc.mca_size = mca_choices[rng.below(3)];
  fc.encoder.max_rate = rng.uniform(0.2, 1.0);
  fc.encoder.poisson = rng.bernoulli(0.85);
  for (const LayerInfo& li : fc.topology.layers())
    fc.thresholds.push_back(li.spec.kind == LayerKind::kAvgPool
                                ? 0.5
                                : rng.uniform(0.4, 2.5));
  // ~10% of cases exercise the leak regime (layers that always take the
  // simulator's stepped branch, and step_packed's leak branch).
  if (rng.bernoulli(0.1)) fc.leak = rng.uniform(0.05, 0.3);
  fc.subtractive = rng.bernoulli(0.8);
  fc.init_scale = static_cast<float>(rng.uniform(0.5, 2.0));
  fc.image.resize(fc.topology.input_shape().size());
  for (float& px : fc.image) px = static_cast<float>(rng.uniform());
  return fc;
}

Network make_fuzz_network(const FuzzCase& c) {
  Network net(c.topology);
  Rng rng(c.seed ^ 0x5eedb0b5ull);
  net.init_random(rng, c.init_scale);
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    IfParams& p = net.layer(l).neuron;
    p.v_threshold = c.thresholds[l];
    p.subtractive_reset = c.subtractive;
    if (c.topology.layers()[l].spec.kind != LayerKind::kAvgPool)
      p.leak_per_step = c.leak;
  }
  return net;
}

std::string FuzzCase::summary() const {
  std::ostringstream os;
  os << "seed=" << seed << ' ' << topology.summary() << " T=" << timesteps
     << " mca=" << mca_size << " rate=" << encoder.max_rate
     << (encoder.poisson ? " poisson" : " uniform");
  if (leak > 0.0) os << " leak=" << leak;
  if (!subtractive) os << " hard-reset";
  return os.str();
}

}  // namespace resparc::snn
