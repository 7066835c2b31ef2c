#include "field/store.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <stdexcept>

namespace tvviz::field {

namespace {
constexpr std::uint32_t kMagic = 0x54565631;  // "TVV1"

struct Header {
  std::uint32_t magic;
  std::uint32_t nx, ny, nz;
};
static_assert(sizeof(Header) == 16);
}  // namespace

VolumeStore::VolumeStore(std::filesystem::path dir) : dir_(std::move(dir)) {}

std::filesystem::path VolumeStore::path_for(int step) const {
  return dir_ / ("step_" + std::to_string(step) + ".vol");
}

bool VolumeStore::has(int step) const {
  return std::filesystem::exists(path_for(step));
}

void VolumeStore::write(int step, const VolumeF& volume) const {
  // Write to a temporary and rename: readers polling for new steps (the
  // run-time tracking scenario) never observe a half-written file.
  std::filesystem::create_directories(dir_);
  const auto final_path = path_for(step);
  const auto tmp_path = final_path.string() + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("VolumeStore: cannot open for write");
    const Header h{kMagic, static_cast<std::uint32_t>(volume.dims().nx),
                   static_cast<std::uint32_t>(volume.dims().ny),
                   static_cast<std::uint32_t>(volume.dims().nz)};
    out.write(reinterpret_cast<const char*>(&h), sizeof h);
    out.write(reinterpret_cast<const char*>(volume.data().data()),
              static_cast<std::streamsize>(volume.bytes()));
    if (!out) throw std::runtime_error("VolumeStore: write failed");
  }
  std::filesystem::rename(tmp_path, final_path);
}

namespace {
/// Dims read from a file header, validated before anything is sized from
/// them: each extent must fit an int and the 4·nx·ny·nz bytes they need must
/// fit in the `stored_bytes` the file holds (computed without overflow).
/// Throws std::runtime_error naming `path` otherwise.
Dims checked_dims(std::uint32_t nx, std::uint32_t ny, std::uint32_t nz,
                  std::uint64_t stored_bytes,
                  const std::filesystem::path& path) {
  // bytes <= stored_bytes holds after every step, so nothing overflows.
  std::uint64_t bytes = sizeof(float);
  for (const std::uint32_t n : {nx, ny, nz}) {
    if (n > static_cast<std::uint32_t>(std::numeric_limits<int>::max()) ||
        (n != 0 && bytes > stored_bytes / n))
      throw std::runtime_error("volume dims " + std::to_string(nx) + "x" +
                               std::to_string(ny) + "x" + std::to_string(nz) +
                               " exceed the data in " + path.string());
    bytes *= n;
  }
  return Dims{static_cast<int>(nx), static_cast<int>(ny),
              static_cast<int>(nz)};
}

/// Read and validate the header: the dims must fit an int and the file must
/// hold exactly their voxels, checked before anything is allocated for them.
Dims read_header(std::ifstream& in, const std::filesystem::path& path) {
  Header h{};
  in.read(reinterpret_cast<char*>(&h), sizeof h);
  if (!in || h.magic != kMagic)
    throw std::runtime_error("VolumeStore: bad header in " + path.string());
  in.seekg(0, std::ios::end);
  const auto size = static_cast<std::uint64_t>(in.tellg());
  if (!in || size < sizeof(Header))
    throw std::runtime_error("VolumeStore: truncated " + path.string());
  const Dims dims =
      checked_dims(h.nx, h.ny, h.nz, size - sizeof(Header), path);
  if (dims.voxels() * sizeof(float) != size - sizeof(Header))
    throw std::runtime_error("VolumeStore: size does not match dims in " +
                             path.string());
  return dims;
}

/// Read `count` floats at voxel index `voxel` of the stored volume (dims
/// `dims`) into `dst`. Every one must be finite: a NaN or infinite voxel
/// would reach the ray caster's float-to-index conversions, so it is an
/// error naming the file and the voxel.
void read_voxels(std::ifstream& in, const std::filesystem::path& path,
                 const Dims& dims, std::size_t voxel, float* dst,
                 std::size_t count) {
  in.seekg(static_cast<std::streamoff>(sizeof(Header) + voxel * sizeof(float)));
  in.read(reinterpret_cast<char*>(dst),
          static_cast<std::streamsize>(count * sizeof(float)));
  if (!in) throw std::runtime_error("VolumeStore: truncated " + path.string());
  const float* bad = std::find_if_not(
      dst, dst + count, [](float v) { return std::isfinite(v); });
  if (bad == dst + count) return;
  const std::size_t at = voxel + static_cast<std::size_t>(bad - dst);
  const std::size_t row = static_cast<std::size_t>(dims.nx);
  const std::size_t plane = row * static_cast<std::size_t>(dims.ny);
  throw std::runtime_error(
      "VolumeStore: non-finite voxel (" + std::to_string(at % row) + ", " +
      std::to_string(at / row % dims.ny) + ", " + std::to_string(at / plane) +
      ") in " + path.string());
}

std::string dims_text(const Dims& d) {
  return std::to_string(d.nx) + "x" + std::to_string(d.ny) + "x" +
         std::to_string(d.nz);
}
}  // namespace

VolumeF VolumeStore::read(int step) const {
  const auto path = path_for(step);
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("VolumeStore: missing " + path.string());
  VolumeF vol(read_header(in, path));
  read_voxels(in, path, vol.dims(), 0, vol.data().data(), vol.voxels());
  return vol;
}

VolumeF VolumeStore::read_box(int step, const Box& box,
                              const Dims& volume) const {
  const auto path = path_for(step);
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("VolumeStore: missing " + path.string());
  const Dims dims = read_header(in, path);
  if (dims != volume)
    throw std::runtime_error("VolumeStore: " + path.string() + " holds a " +
                             dims_text(dims) + " volume, expected " +
                             dims_text(volume));
  if (box.hi[0] > dims.nx || box.hi[1] > dims.ny || box.hi[2] > dims.nz ||
      box.lo[0] < 0 || box.lo[1] < 0 || box.lo[2] < 0)
    throw std::out_of_range("VolumeStore: box outside stored volume");

  VolumeF vol(box.dims());
  if (vol.voxels() == 0) return vol;
  // Row r of the box, (y, z) = lo + (r % ny, r / ny), lands at r * nx in
  // vol. Rows that are also adjacent in the file form one run: a whole
  // plane when the box spans x, the whole box when it spans x and y.
  const Dims bd = vol.dims();
  const std::size_t row = static_cast<std::size_t>(bd.nx);
  const std::size_t rows = static_cast<std::size_t>(bd.ny) * bd.nz;
  const bool spans_x = bd.nx == dims.nx;
  const bool spans_xy = spans_x && bd.ny == dims.ny;
  const std::size_t run_rows =
      spans_xy ? rows : spans_x ? static_cast<std::size_t>(bd.ny) : 1;
  for (std::size_t r = 0; r < rows; r += run_rows) {
    const std::size_t y = static_cast<std::size_t>(box.lo[1]) + r % bd.ny;
    const std::size_t z = static_cast<std::size_t>(box.lo[2]) + r / bd.ny;
    const std::size_t voxel =
        (z * dims.ny + y) * dims.nx + static_cast<std::size_t>(box.lo[0]);
    read_voxels(in, path, dims, voxel, vol.data().data() + r * row,
                run_rows * row);
  }
  return vol;
}

std::size_t VolumeStore::materialize(const DatasetDesc& desc) const {
  std::size_t total = 0;
  for (int step = 0; step < desc.steps; ++step) {
    const VolumeF vol = generate(desc, step);
    write(step, vol);
    total += vol.bytes() + sizeof(Header);
  }
  return total;
}

}  // namespace tvviz::field
