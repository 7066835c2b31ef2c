// §6 selective test, turbulent-vortex data set: its frames carry more pixel
// coverage and compress worse than the jet's, so image transport/display
// overtakes rendering — the paper measured 0.325 s transport vs 0.178 s
// rendering per 512^2 frame on the heavily-parallel RWCP configuration.
//
// Reproduced here with REAL measurements of the dataset-dependent parts:
//   (1) vortex frames compress several times worse than jet frames
//       (real renders through our real codecs);
//   (2) our own ray caster renders the dense vortex *cheaper* per covered
//       pixel thanks to early ray termination (dense media saturate rays);
//   (3) at the paper's measured render rate, our measured transport time
//       exceeds rendering — the §6 crossover.
#include <cstdio>

#include "bench/common.hpp"
#include "codec/image_codec.hpp"
#include "core/costs.hpp"
#include "field/generators.hpp"
#include "render/raycast.hpp"
#include "util/flags.hpp"
#include "util/timer.hpp"

using namespace tvviz;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const int size = static_cast<int>(flags.get_int("size", 512));
  bench::reject_unused(flags);

  bench::print_header(
      "§6 crossover — turbulent vortex: transport overtakes rendering",
      "real compressed sizes and real relative render costs");

  // (1) Compression disadvantage of the dense dataset.
  const auto codec = codec::make_image_codec("jpeg+lzo", 75);
  const auto jet = bench::render_frame(field::DatasetKind::kTurbulentJet, size);
  const auto vortex =
      bench::render_frame(field::DatasetKind::kTurbulentVortex, size);
  const std::size_t jet_bytes = codec->encode(jet).size();
  const std::size_t vortex_bytes = codec->encode(vortex).size();
  std::printf("compressed %d^2 frame:  jet %s bytes, vortex %s bytes "
              "(%.1fx worse — more pixel coverage)\n",
              size, bench::fmt_bytes(static_cast<double>(jet_bytes)).c_str(),
              bench::fmt_bytes(static_cast<double>(vortex_bytes)).c_str(),
              static_cast<double>(vortex_bytes) / jet_bytes);

  // (2) Real relative render cost (early termination in dense media).
  const auto jet_desc = field::scaled(field::turbulent_jet_desc(), 2, 2);
  const auto vortex_desc = field::scaled(field::turbulent_vortex_desc(), 2, 2);
  render::RayCaster caster;
  const render::Camera cam(256, 256);
  util::WallTimer t_jet;
  (void)caster.render_full(field::generate(jet_desc, 1), cam,
                           render::TransferFunction::fire());
  const double jet_render = t_jet.seconds();
  util::WallTimer t_vortex;
  (void)caster.render_full(field::generate(vortex_desc, 1), cam,
                           render::TransferFunction::dense_cool_warm());
  const double vortex_render = t_vortex.seconds();
  std::printf("relative render cost (our caster, same size): vortex/jet = "
              "%.2f\n", vortex_render / jet_render);

  // (3) The crossover at the paper's operating point: the paper measured a
  // 0.178 s/frame vortex render on the parallel machine; transport/display
  // of OUR measured vortex payload over the calibrated WAN:
  const auto costs = core::StageCosts::rwcp_paper();
  const auto profile = core::CodecProfile::paper("jpeg+lzo");
  const std::size_t pixels = static_cast<std::size_t>(size) * size;
  const double t_transport = costs.wan.transfer_seconds(vortex_bytes) +
                             profile.decompress_seconds(pixels) +
                             pixels * costs.client_display_s_per_pixel;
  const double paper_render = 0.178;
  std::printf("\ntransport + display of measured payload: %s "
              "(paper: 0.325 s)\n",
              bench::fmt_seconds(t_transport).c_str());
  std::printf("paper's measured render rate:            %s\n",
              bench::fmt_seconds(paper_render).c_str());
  std::printf("\ntransport exceeds rendering at that rate: %s "
              "(paper: yes — \"a more effective\n"
              "compression mechanism is needed eventually\")\n",
              t_transport > paper_render ? "yes" : "NO");

  // For contrast: the jet payload at the same point stays under it.
  const double t_jet_transport = costs.wan.transfer_seconds(jet_bytes) +
                                 profile.decompress_seconds(pixels) +
                                 pixels * costs.client_display_s_per_pixel;
  std::printf("\n(jet payload transport at the same point: %s — the sparse\n"
              "dataset does NOT hit the crossover; the dense one does.)\n",
              bench::fmt_seconds(t_jet_transport).c_str());
  return 0;
}
