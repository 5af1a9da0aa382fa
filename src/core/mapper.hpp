// Hierarchical mapper: lowers an SNN topology onto the MCA fabric.
//
// This implements section 3.1's mapping rules:
//
//  * Dense layers (MLPs).  The fan_in x units connectivity matrix is cut
//    into N x N tiles (N = MCA size).  A neuron whose fan-in exceeds N is
//    computed by time-multiplexing ceil(fan_in/N) partial currents onto its
//    neuron (Fig. 5); up to `mcas_per_mpe` partials integrate concurrently
//    inside one mPE (currents C1..C4 of Fig. 4 sum on the shared wire),
//    remote partials arrive as C_ext through the CCU.
//
//  * Convolution layers, small fan-in (<= N).  Output neurons with
//    overlapping receptive fields are grouped into spatial windows so MCA
//    rows are *shared* between columns — the "input sharing" optimisation
//    of section 3.1.1.  Utilisation = k^2 inC / (window input span), which
//    falls as N grows: the cause of the CNN optimum at MCA-64 (Fig. 12c).
//
//  * Convolution layers, large fan-in (> N).  All output channels at one
//    spatial position share an identical receptive field, so the im2col
//    rows are sliced N at a time with min(outC, N) columns per MCA.
//
//  * Average-pool layers.  Windows are disjoint (no input sharing
//    possible); groups of floor(N/p^2) outputs pack block-diagonally into
//    one MCA, which is why pooling utilises crossbars poorly and drags the
//    CNN average down.
//
// The mapper then packs MCAs into mPEs (4 per mPE) and mPEs into
// NeuroCells (16 per NC) in layer order, recording which layer boundaries
// cross a NeuroCell boundary (those transfers use the serial global bus —
// Fig. 7's dataflow).
#pragma once

#include <cstddef>
#include <vector>

#include "core/config.hpp"
#include "snn/topology.hpp"

namespace resparc::core {

/// How the rows of one MCA group select input neurons.
enum class SliceKind {
  kContiguous,  ///< flat index range [begin, end)
  kWindow,      ///< spatial window: all channels, rows y0..y1, cols x0..x1
};

/// The set of input neurons feeding one group of MCAs (shared rows).
struct InputSlice {
  SliceKind kind = SliceKind::kContiguous;
  // kContiguous
  std::size_t begin = 0;
  std::size_t end = 0;
  // kWindow (in the layer's input shape)
  std::size_t y0 = 0, y1 = 0;  ///< inclusive row range
  std::size_t x0 = 0, x1 = 0;  ///< inclusive col range

  /// True when the slice selects only neurons of a layer input shaped
  /// `in`: a contiguous range ends at or before in.size(), a window's last
  /// row and column lie inside the h x w plane.
  bool within(const Shape3& in) const {
    if (kind == SliceKind::kContiguous) return end <= in.size();
    return y1 < in.h && x1 < in.w;
  }
};

/// A group of MCAs that share one input slice (identical row drive).
struct McaGroup {
  InputSlice slice;
  std::size_t mca_count = 0;       ///< MCAs fed by this slice
  std::size_t rows_used = 0;       ///< rows occupied in each MCA
  std::size_t cols_used = 0;       ///< columns summed over the group
  std::size_t synapses = 0;        ///< crosspoints actually programmed
};

/// Mapping result for one network layer.
struct LayerMapping {
  std::size_t layer = 0;           ///< index into Topology::layers()
  std::vector<McaGroup> groups;
  std::size_t mca_count = 0;
  std::size_t mpe_count = 0;
  /// Time-multiplex partials per neuron: ceil(fan_in / N) (Fig. 5 degree).
  std::size_t mux_degree = 1;
  /// Serial integration cycles per neuron: partials beyond mcas_per_mpe
  /// concurrent currents, i.e. ceil(mux_degree / mcas_per_mpe).
  std::size_t mux_cycles = 1;
  /// Cross-mPE analog current transfers per output neuron per step.
  std::size_t ccu_transfers_per_neuron = 0;
  std::size_t synapses = 0;        ///< total programmed crosspoints
  double utilization = 0.0;        ///< synapses / (mca_count * N^2)
  std::size_t first_mpe = 0;       ///< global mPE index where layer starts
  std::size_t first_nc = 0;        ///< NeuroCell of first_mpe
  std::size_t last_nc = 0;         ///< NeuroCell of the layer's last mPE
  /// MCA size this layer was tiled for; 0 = inherit Mapping::config.mca_size.
  /// Search strategies (src/compile/search) mix sizes across one chip; every
  /// NeuroCell still holds arrays of a single size (verified by
  /// RV-CAP-NC-MIXED-SIZE), because an mPE's peripheral pitch is fixed.
  std::size_t mca_size = 0;
};

/// Whole-network mapping.
struct Mapping {
  ResparcConfig config;
  std::vector<LayerMapping> layers;
  std::size_t total_mcas = 0;
  std::size_t total_mpes = 0;
  std::size_t total_neurocells = 0;
  double utilization = 0.0;  ///< whole-chip weighted utilisation

  /// True when the transfer from layer l-1 into layer l crosses a
  /// NeuroCell boundary and must use the serial global bus (l = 0 means
  /// the input broadcast from the SRAM, always via the bus).
  bool boundary_uses_bus(std::size_t l) const;

  /// Resolved MCA size of layer `l`: layers[l].mca_size, falling back to
  /// config.mca_size when the layer carries no override (the homogeneous
  /// case — every pre-search mapping).
  std::size_t layer_mca_size(std::size_t l) const;

  /// Total crosspoint capacity of the chip: sum over layers of
  /// mca_count * N_l^2 with per-layer N_l.  Equals total_mcas * N^2 for a
  /// homogeneous chip; the denominator of the whole-chip utilisation.
  std::size_t total_cells() const;
};

/// Maps a topology onto the configured fabric.  Throws MappingError when a
/// layer cannot be mapped (e.g. zero-size layer).
Mapping map_network(const snn::Topology& topology, const ResparcConfig& config);

// -- tiling/placement building blocks ---------------------------------------
//
// map_network is the composition of the three functions below.  They are
// exposed so compile::MappingStrategy implementations (src/compile) can mix
// the paper's per-layer tiling with alternative packing and placement
// policies without duplicating the section 3.1 rules.

/// Tiles one layer with the paper's section 3.1 rules: fills `groups` and
/// `mux_degree`, then derives the per-layer counts via
/// finalize_layer_tiling.  Placement fields (first_mpe/first_nc/last_nc)
/// are left at zero; a placement pass assigns them.
LayerMapping tile_layer_paper(const snn::LayerInfo& li, std::size_t layer_index,
                              const ResparcConfig& config);

/// Derives mca_count / synapses / mux_cycles / ccu_transfers_per_neuron /
/// mpe_count / utilization from a layer's groups + mux_degree, and checks
/// synapse conservation against `li` (throws MappingError on loss).
void finalize_layer_tiling(const snn::LayerInfo& li, const ResparcConfig& config,
                           LayerMapping& lm);

/// The paper's placement: layers packed onto mPEs in network order, each
/// layer starting a fresh mPE.  Fills every placement field and the
/// whole-chip totals (total_mcas/mpes/neurocells, utilization).
void place_layers_sequential(Mapping& m, const ResparcConfig& config);

/// Conv-window edge: rows a window tile needs for `w` outputs with kernel
/// k and same/valid padding (helper exposed for tests).
std::size_t conv_window_input_span(std::size_t w, std::size_t k);

}  // namespace resparc::core
