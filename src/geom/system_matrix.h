// Sparse CT system matrix (the paper's "A-matrix").
//
// A has one column per voxel and one row per (view, channel) measurement.
// Because a parallel-beam voxel footprint covers only a few adjacent
// channels per view (the sinusoidal trace of Fig. 1b), each column is
// stored as, per view, a (first_channel, count) run plus its weights.
// Per the paper (§4.1), all of a voxel's A elements across all views are
// contiguous in memory ("placed in memory in a contiguous fashion, using a
// sparse matrix format").
//
// Shared by every algorithm in the repo: projectors, sequential ICD,
// PSV-ICD, and GPU-ICD (which additionally re-packs it into zero-padded
// chunks and a quantized uint8 form — see sv/).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <typeindex>
#include <typeinfo>
#include <vector>

#include "geom/geometry.h"

namespace mbir {

class SystemMatrix {
 public:
  /// Location of one voxel-view run.
  struct Run {
    std::uint32_t offset;        ///< index of the first weight in weights()
    std::uint16_t first_channel; ///< detector channel of the first weight
    std::uint16_t count;         ///< number of channels covered (may be 0)
  };

  /// Compute the matrix for a geometry. Cost is O(numVoxels * numViews);
  /// parallelized over voxels on the global thread pool.
  static SystemMatrix compute(const ParallelBeamGeometry& g);

  const ParallelBeamGeometry& geometry() const { return geom_; }
  int numViews() const { return geom_.num_views; }
  int numChannels() const { return geom_.num_channels; }
  std::size_t numVoxels() const { return geom_.numVoxels(); }

  const Run& run(std::size_t voxel, int view) const {
    return runs_[voxel * std::size_t(geom_.num_views) + std::size_t(view)];
  }

  std::span<const float> weights(std::size_t voxel, int view) const {
    const Run& r = run(voxel, view);
    return {weights_.data() + r.offset, std::size_t(r.count)};
  }

  /// All weights of a voxel's column, across views, contiguous.
  std::span<const float> columnWeights(std::size_t voxel) const;

  /// Largest A entry in the voxel's column (0 for an all-zero column).
  /// Used by the uint8 quantization (§4.3.1).
  float voxelMax(std::size_t voxel) const { return voxel_max_[voxel]; }

  /// Sum of squared entries of the voxel's column (unweighted).
  double columnSumSquares(std::size_t voxel) const;

  /// Total nonzero entries (after edge-trimming of runs).
  std::size_t nnz() const { return nnz_; }

  /// Maximum voxel footprint width (channels) over all voxels and views.
  int maxFootprintWidth() const { return max_footprint_width_; }

  /// A structure of type T derived from this matrix (GPU-ICD's chunk
  /// tables, sv/chunks.h), shared by all its users: a request for (T, `key`)
  /// returns the live object under that key, or the one `make()` (returning
  /// std::shared_ptr<T>) builds. An object lives while a caller holds it,
  /// and the matrix holds the most recently requested one: what the current
  /// workload keeps asking for stays built between runs for the matrix's
  /// whole life, while an object that a request for another key superseded
  /// is freed once its last user is done (a sweep over options keeps one at
  /// a time). Attached to the matrix itself, never keyed by its address, so
  /// nothing derived is ever served to another matrix that reuses the
  /// address. Copies of a matrix share what was derived from it (their
  /// contents are equal). Thread-safe; objects of different types never
  /// share a key.
  template <typename T, typename Make>
  std::shared_ptr<T> derived(const std::string& key, Make&& make) const {
    return std::static_pointer_cast<T>(
        derivedErased(typeid(T), key, [&]() -> std::shared_ptr<void> {
          std::shared_ptr<T> made = make();
          return made;
        }));
  }

  /// Visit every nonzero of a voxel column: fn(view, channel, weight).
  template <typename Fn>
  void forEachEntry(std::size_t voxel, Fn&& fn) const {
    for (int v = 0; v < geom_.num_views; ++v) {
      const Run& r = run(voxel, v);
      const float* w = weights_.data() + r.offset;
      for (int k = 0; k < int(r.count); ++k)
        fn(v, int(r.first_channel) + k, w[k]);
    }
  }

 private:
  SystemMatrix() = default;

  struct Derived;

  std::shared_ptr<void> derivedErased(
      std::type_index type, const std::string& key,
      const std::function<std::shared_ptr<void>()>& make) const;

  ParallelBeamGeometry geom_;
  std::vector<Run> runs_;       // voxel-major, then view
  std::vector<float> weights_;  // voxel-major, then view, then channel
  std::vector<float> voxel_max_;
  std::size_t nnz_ = 0;
  int max_footprint_width_ = 0;
  std::shared_ptr<Derived> derived_;  // set by compute()
};

}  // namespace mbir
