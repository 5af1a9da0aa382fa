// Fig. 14 — Effect of memristor bit-discretisation.
//
// (a) Classification accuracy vs weight precision {1,2,4,8} bits on all
//     three datasets, normalised to the 8-bit point (the paper plots
//     normalised accuracy).  Networks are trained offline through the
//     Pipeline's train path (Diehl-style conversion) at reduced width —
//     training the paper-scale nets is not needed to reproduce the trend.
// (b) Energy vs precision for RESPARC and the CMOS baseline (memory +
//     datapath scale with bits: rising), on the MNIST MLP workload, with
//     the precision set through BackendOptions.  The RESPARC row is flat
//     by construction: no modelled term reads technology.memristor.bits
//     (test ResparcBackend.MemristorBitsDoNotMoveReplayReport pins it).
#include <iostream>

#include "api/pipeline.hpp"
#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "snn/quantize.hpp"
#include "snn/simulator.hpp"

namespace {

constexpr int kBits[] = {1, 2, 4, 8};

}  // namespace

int main() {
  using namespace resparc;
  std::cout << "== Fig. 14: bit-discretisation study ==\n\n";

  Csv csv({"series", "dataset_or_arch", "bits", "value"});

  // ----- (a) accuracy vs bits ------------------------------------------------
  Table acc_table({"Dataset", "1 bit", "2 bit", "4 bit", "8 bit",
                   "(normalised to 8 bit)"});
  for (auto kind : {snn::DatasetKind::kMnistLike, snn::DatasetKind::kSvhnLike,
                    snn::DatasetKind::kCifarLike}) {
    api::PipelineOptions opt;
    opt.images = 40;           // held-out evaluation split
    opt.train_images = 120;
    opt.train = true;
    opt.record_traces = false;  // only the network + test set are needed
    opt.timesteps = 48;
    opt.seed = 5;
    opt.jitter_pixels = 1.0;
    opt.threads = bench::bench_threads();
    api::Workload w = api::Pipeline(opt)
                          .dataset(kind)
                          .topology(snn::small_mlp_topology(kind))
                          .run();

    snn::SimConfig cfg;
    cfg.timesteps = 48;
    cfg.record_trace = false;

    double acc[4] = {};
    for (int i = 0; i < 4; ++i) {
      snn::Network q = w.network;  // the unquantised converted base
      snn::quantize_network(q, kBits[i]);
      // Same presentation stream for every bit width: only the
      // quantization may differ between rows.
      Rng rng(stream_seed(bench::bench_seed(), 6));
      acc[i] = snn::evaluate_accuracy(q, cfg, w.test.images, w.test.labels,
                                      rng);
      csv.add_row({"accuracy", snn::to_string(kind),
                   std::to_string(kBits[i]), Table::num(acc[i], 4)});
    }
    const double ref = acc[3] > 0.0 ? acc[3] : 1.0;
    acc_table.add_row({snn::to_string(kind), Table::num(acc[0] / ref, 2),
                       Table::num(acc[1] / ref, 2), Table::num(acc[2] / ref, 2),
                       Table::num(acc[3] / ref, 2), ""});
  }
  std::cout << "--- (a) normalised accuracy vs weight precision ---\n";
  acc_table.print(std::cout);
  std::cout << "Paper: accuracy rises with precision and the 4-bit point is\n"
               "comparable to 8 bits — hence the 4-bit devices used in the\n"
               "energy comparisons.\n\n";

  // ----- (b) energy vs bits --------------------------------------------------
  const bench::Workload w = bench::make_workload(snn::mnist_mlp());
  Table e_table({"Architecture", "1 bit", "2 bit", "4 bit", "8 bit",
                 "(uJ, per classification)"});
  std::vector<double> resparc_e, cmos_e;
  for (int bits : kBits) {
    api::BackendOptions options;
    options.resparc.technology.memristor.bits = bits;
    options.cmos.weight_bits = bits;

    for (const char* name : {"resparc-64", "cmos"}) {
      const auto accel = api::make_accelerator(name, options);
      accel->load(w.topology());
      const double uj =
          api::Pipeline::execute(*accel, w.traces, bench::bench_threads())
              .energy_pj * 1e-6;
      (std::string(name) == "cmos" ? cmos_e : resparc_e).push_back(uj);
    }
    csv.add_row({"energy", "RESPARC", std::to_string(bits),
                 Table::num(resparc_e.back(), 4)});
    csv.add_row({"energy", "CMOS", std::to_string(bits),
                 Table::num(cmos_e.back(), 4)});
  }
  e_table.add_row({"RESPARC", Table::num(resparc_e[0], 3),
                   Table::num(resparc_e[1], 3), Table::num(resparc_e[2], 3),
                   Table::num(resparc_e[3], 3), ""});
  e_table.add_row({"CMOS", Table::num(cmos_e[0], 2), Table::num(cmos_e[1], 2),
                   Table::num(cmos_e[2], 2), Table::num(cmos_e[3], 2), ""});
  std::cout << "--- (b) energy vs weight precision (MNIST MLP) ---\n";
  e_table.print(std::cout);
  std::cout << "Paper: RESPARC's analog crossbar read is independent of the\n"
               "stored precision; the CMOS baseline pays for every extra bit\n"
               "in memory, buffers and datapath.\n";
  bench::note_csv_written("fig14_bit_discretization.csv",
                          csv.write("fig14_bit_discretization.csv"));
  return 0;
}
