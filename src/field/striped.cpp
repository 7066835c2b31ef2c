#include "field/striped.hpp"

#include <fstream>
#include <limits>
#include <stdexcept>

namespace tvviz::field {

namespace {
constexpr std::uint32_t kMagic = 0x54565332;  // "2SVT"

struct StripeHeader {
  std::uint32_t magic;
  std::uint32_t nx, ny, nz;
  std::uint32_t slab;
  std::uint32_t units;
};
static_assert(sizeof(StripeHeader) == 24);
}  // namespace

StripedVolumeStore::StripedVolumeStore(std::filesystem::path dir, int stripes,
                                       int slab_height)
    : dir_(std::move(dir)), slab_(slab_height) {
  if (stripes < 1) throw std::invalid_argument("StripedVolumeStore: stripes");
  if (slab_height < 1)
    throw std::invalid_argument("StripedVolumeStore: slab height");
  for (int k = 0; k < stripes; ++k) {
    stores_.push_back(dir_ / ("stripe_" + std::to_string(k)));
    std::filesystem::create_directories(stores_.back());
  }
}

std::filesystem::path StripedVolumeStore::path_for(int stripe, int step) const {
  return stores_[static_cast<std::size_t>(stripe)] /
         ("step_" + std::to_string(step) + ".slabs");
}

bool StripedVolumeStore::has(int step) const {
  return std::filesystem::exists(path_for(0, step));
}

void StripedVolumeStore::write(int step, const VolumeF& volume) {
  const Dims dims = volume.dims();
  const int unit_count = (dims.nz + slab_ - 1) / slab_;
  // Stripe 0 is written (renamed into place) last: has(step) checks stripe
  // 0, so a polling reader never sees a partially-striped step.
  for (int kk = stripes(); kk-- > 0;) {
    const int k = kk;
    std::vector<int> units;
    for (int u = 0; u < unit_count; ++u)
      if (u % stripes() == k) units.push_back(u);

    const auto final_path = path_for(k, step);
    const auto tmp_path = final_path.string() + ".tmp";
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("StripedVolumeStore: open for write");
    const StripeHeader h{kMagic, static_cast<std::uint32_t>(dims.nx),
                         static_cast<std::uint32_t>(dims.ny),
                         static_cast<std::uint32_t>(dims.nz),
                         static_cast<std::uint32_t>(slab_),
                         static_cast<std::uint32_t>(units.size())};
    out.write(reinterpret_cast<const char*>(&h), sizeof h);
    for (int u : units) {
      const int z0 = u * slab_;
      const int z1 = std::min(dims.nz, z0 + slab_);
      const std::uint32_t z0u = static_cast<std::uint32_t>(z0);
      out.write(reinterpret_cast<const char*>(&z0u), sizeof z0u);
      // Rows are contiguous in the x-fastest layout: write the slab span.
      const std::size_t offset =
          static_cast<std::size_t>(z0) * dims.ny * dims.nx;
      const std::size_t count =
          static_cast<std::size_t>(z1 - z0) * dims.ny * dims.nx;
      out.write(reinterpret_cast<const char*>(volume.data().data() + offset),
                static_cast<std::streamsize>(count * sizeof(float)));
    }
    if (!out) throw std::runtime_error("StripedVolumeStore: write failed");
    out.close();
    std::filesystem::rename(tmp_path, final_path);
  }
}

Dims StripedVolumeStore::read_dims(int step) const {
  const auto path = path_for(0, step);
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw std::runtime_error("StripedVolumeStore: missing step " +
                             std::to_string(step));
  StripeHeader h{};
  in.read(reinterpret_cast<char*>(&h), sizeof h);
  if (!in || h.magic != kMagic)
    throw std::runtime_error("StripedVolumeStore: bad stripe header");
  // The volume's voxels cannot outnumber what its stripe files hold.
  std::uint64_t stored = 0;
  for (int k = 0; k < stripes(); ++k) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(path_for(k, step), ec);
    if (!ec) stored += size;
  }
  return checked_dims(h.nx, h.ny, h.nz, stored, path);
}

VolumeF StripedVolumeStore::read(int step) const {
  const Dims dims = read_dims(step);
  Box whole;
  whole.hi[0] = dims.nx;
  whole.hi[1] = dims.ny;
  whole.hi[2] = dims.nz;
  return read_box(step, whole);
}

VolumeF StripedVolumeStore::read_box(int step, const Box& box) const {
  const Dims dims = read_dims(step);
  if (box.hi[0] > dims.nx || box.hi[1] > dims.ny || box.hi[2] > dims.nz ||
      box.lo[0] < 0 || box.lo[1] < 0 || box.lo[2] < 0)
    throw std::out_of_range("StripedVolumeStore: box outside volume");

  VolumeF out(box.dims());
  std::vector<float> slab_buf;
  std::size_t units_seen = 0;
  std::size_t expected_units = 0;
  for (int k = 0; k < stripes(); ++k) {
    const auto path = path_for(k, step);
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("StripedVolumeStore: missing stripe");
    StripeHeader h{};
    in.read(reinterpret_cast<char*>(&h), sizeof h);
    if (!in || h.magic != kMagic || h.slab == 0 ||
        h.slab > static_cast<std::uint32_t>(std::numeric_limits<int>::max()))
      throw std::runtime_error("StripedVolumeStore: bad stripe header in " +
                               path.string());
    const std::size_t plane =
        static_cast<std::size_t>(dims.nx) * static_cast<std::size_t>(dims.ny);
    // Honour the slab height the file was written with (it may differ from
    // this reader's configuration).
    const int file_slab = static_cast<int>(h.slab);
    units_seen += h.units;
    expected_units = (static_cast<std::size_t>(dims.nz) + h.slab - 1) / h.slab;
    for (std::uint32_t u = 0; u < h.units; ++u) {
      std::uint32_t z0u = 0;
      in.read(reinterpret_cast<char*>(&z0u), sizeof z0u);
      if (!in) throw std::runtime_error("StripedVolumeStore: truncated unit");
      if (z0u >= static_cast<std::uint32_t>(dims.nz))
        throw std::runtime_error("StripedVolumeStore: unit outside volume in " +
                                 path.string());
      const int z0 = static_cast<int>(z0u);
      const int z1 = z0 + std::min(file_slab, dims.nz - z0);
      const std::size_t count = static_cast<std::size_t>(z1 - z0) * plane;
      if (z1 <= box.lo[2] || z0 >= box.hi[2]) {
        in.seekg(static_cast<std::streamoff>(count * sizeof(float)),
                 std::ios::cur);
        continue;
      }
      slab_buf.resize(count);
      in.read(reinterpret_cast<char*>(slab_buf.data()),
              static_cast<std::streamsize>(count * sizeof(float)));
      if (!in) throw std::runtime_error("StripedVolumeStore: truncated slab");
      for (int z = std::max(z0, box.lo[2]); z < std::min(z1, box.hi[2]); ++z)
        for (int y = box.lo[1]; y < box.hi[1]; ++y)
          for (int x = box.lo[0]; x < box.hi[0]; ++x)
            out.at(x - box.lo[0], y - box.lo[1], z - box.lo[2]) =
                slab_buf[static_cast<std::size_t>(z - z0) * plane +
                         static_cast<std::size_t>(y) * dims.nx +
                         static_cast<std::size_t>(x)];
    }
  }
  // A reader configured with fewer stripes than the writer would silently
  // miss slabs; the unit count exposes that.
  if (units_seen != expected_units)
    throw std::runtime_error(
        "StripedVolumeStore: stripe count mismatch with the written data");
  return out;
}

std::size_t StripedVolumeStore::materialize(const DatasetDesc& desc) {
  std::size_t total = 0;
  for (int step = 0; step < desc.steps; ++step) {
    const VolumeF vol = generate(desc, step);
    write(step, vol);
    total += vol.bytes();
  }
  return total;
}

}  // namespace tvviz::field
