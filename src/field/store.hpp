// On-disk time-step store (the mass-storage device of the paper's scenario)
// plus an analytic disk model for the data-input pipeline stage.
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>

#include "field/generators.hpp"
#include "field/volume.hpp"

namespace tvviz::field {

/// Sequential-disk cost model: the time to read `bytes` contiguous bytes.
/// Defaults approximate a late-1990s workstation disk over NFS/fast LAN,
/// the paper's "no parallel I/O" environment.
struct DiskModel {
  double seek_seconds = 0.012;        ///< Per-request positioning cost.
  double bandwidth_bytes_per_s = 25e6;  ///< Sustained sequential bandwidth.

  double read_seconds(std::size_t bytes) const noexcept {
    return seek_seconds + static_cast<double>(bytes) / bandwidth_bytes_per_s;
  }
};

/// Writes and reads time-step volumes as raw little-endian f32 files with a
/// small header, one file per step: <dir>/step_<k>.vol. Only writing
/// creates the directory; reading a missing store leaves the disk alone.
class VolumeStore {
 public:
  explicit VolumeStore(std::filesystem::path dir);

  /// Persist one time step, creating the directory if needed. Overwrites
  /// any existing file for `step`.
  void write(int step, const VolumeF& volume) const;

  /// Load a whole time step. Throws std::runtime_error on a missing or
  /// corrupt file, including one whose size does not match its header dims
  /// or that holds a NaN or infinite voxel.
  VolumeF read(int step) const;

  /// Load only `box` of a time step whose volume must have dims `volume`,
  /// reading each run of the box that is contiguous in the file straight
  /// into the result: the whole box when it spans x and y (as z-slab ghost
  /// boxes do), one plane per z when it spans x, otherwise one scanline per
  /// row. Throws std::runtime_error naming the file and both sizes when the
  /// stored step has other dims, naming the file and the voxel when a voxel
  /// of the box is NaN or infinite, and std::out_of_range when `box` does
  /// not fit in `volume`.
  VolumeF read_box(int step, const Box& box, const Dims& volume) const;

  /// Materialize `desc` to disk (all steps). Returns total bytes written.
  std::size_t materialize(const DatasetDesc& desc) const;

  bool has(int step) const;
  std::filesystem::path path_for(int step) const;
  const std::filesystem::path& dir() const noexcept { return dir_; }

 private:
  std::filesystem::path dir_;
};

}  // namespace tvviz::field
