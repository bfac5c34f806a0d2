// SuperVoxel Buffers (SVBs) and their layouts (paper §2.2, Fig. 2, §4.1).
//
// An SVB is a private copy of the sinogram band touched by one SuperVoxel:
// for each view, the channel interval covering every voxel's footprint in
// the SV. Two layouts are implemented:
//
//  * Packed (Fig. 4a): variable-width view rows concatenated back-to-back —
//    PSV-ICD's cache-friendly CPU layout, and the "naive" GPU layout whose
//    uncoalesced accesses motivate the transformation.
//  * Padded (Fig. 4b): the paper's transformed layout — the SVB is
//    transposed to view-major and made perfectly rectangular by
//    zero-padding, each row placed at an aligned address.
//
// Error and weight sinograms use the same band, so one SvbPlan serves both.
#pragma once

#include <cstddef>
#include <vector>

#include "core/aligned.h"
#include "core/simd.h"
#include "geom/geometry.h"
#include "geom/sinogram.h"
#include "geom/system_matrix.h"
#include "sv/supervoxel.h"

namespace mbir {

/// Per-view channel band [lo, lo+width) covering an SV, plus both layouts'
/// shape metadata. Built once per SV (the band depends only on geometry).
class SvbPlan {
 public:
  /// `pad_align` is the row alignment of the padded layout in elements
  /// (32 floats = one 128-byte GPU transaction).
  SvbPlan(const ParallelBeamGeometry& g, const SuperVoxel& sv, int pad_align = 32);

  const SuperVoxel& sv() const { return sv_; }
  int numViews() const { return num_views_; }
  int lo(int view) const { return lo_[std::size_t(view)]; }
  int width(int view) const { return width_[std::size_t(view)]; }
  int maxWidth() const { return max_width_; }
  int padAlign() const { return pad_align_; }

  /// Packed layout: element (view, global channel ch) lives at
  /// packedOffset(view) + (ch - lo(view)).
  std::size_t packedOffset(int view) const { return packed_offset_[std::size_t(view)]; }
  std::size_t packedSize() const { return packed_size_; }

  /// Padded layout row pitch (elements). Rows are aligned; columns past
  /// width(view) are zero padding. Grown via growPaddedWidth() when a chunk
  /// plan needs read room past the band (sv/chunks.h).
  int paddedWidth() const { return padded_width_; }
  std::size_t paddedSize() const {
    return std::size_t(num_views_) * std::size_t(padded_width_);
  }
  void growPaddedWidth(int min_width);

 private:
  SuperVoxel sv_;
  int num_views_;
  int pad_align_;
  std::vector<int> lo_, width_;
  int max_width_ = 0;
  std::vector<std::size_t> packed_offset_;
  std::size_t packed_size_ = 0;
  int padded_width_ = 0;
};

enum class SvbLayout {
  kPacked,  ///< variable-width rows, concatenated (CPU / naive GPU)
  kPadded,  ///< rectangular, view-major, aligned rows (transformed GPU)
};

/// One SVB instance (error or weights) in a chosen layout.
class Svb {
 public:
  Svb(const SvbPlan& plan, SvbLayout layout);

  const SvbPlan& plan() const { return *plan_; }
  SvbLayout layout() const { return layout_; }

  /// Copy the band in from the global sinogram (zero-fills padding).
  void gather(const Sinogram& src);

  /// Element by (view, *global* channel). Channel must lie in the band.
  float& at(int view, int channel);
  float atOrZero(int view, int channel) const;

  /// Direct row access for kernels: pointer to column 0 of the view row
  /// (column c corresponds to global channel lo(view) + c). Inline: the
  /// update sweep calls these once per chunk row.
  float* rowData(int view) { return buf_.data() + rowOffset(view); }
  const float* rowData(int view) const { return buf_.data() + rowOffset(view); }
  /// Row pitch in elements (padded: paddedWidth; packed: that row's width).
  int rowWidth(int view) const;

  /// dst += (this - original), over the band. This is PSV-ICD's locked
  /// writeback (Alg. 2 lines 16-19) and the functional core of GPU-ICD's
  /// atomic writeback kernel. Rows run through `ops` (core/simd.h; nullptr
  /// = scalar) — the op is elementwise, so every path produces the same
  /// bits.
  void applyDeltaTo(Sinogram& dst, const Svb& original,
                    const SimdOps* ops = nullptr) const;

  /// Striped variant for concurrent writeback: only views v with
  /// v % num_stripes == stripe are applied. SVBs of different SVs overlap
  /// in sinogram space, so concurrent writers partition the destination by
  /// view stripe — each sinogram element then has exactly one writer and
  /// the (deterministic) result matches applying every SVB serially.
  void applyDeltaTo(Sinogram& dst, const Svb& original, int stripe,
                    int num_stripes, const SimdOps* ops = nullptr) const;

  std::span<float> raw() { return buf_.span(); }
  std::span<const float> raw() const { return buf_.span(); }

 private:
  std::size_t indexOf(int view, int channel) const;
  std::size_t rowOffset(int view) const {
    if (layout_ == SvbLayout::kPacked) return plan_->packedOffset(view);
    return std::size_t(view) * std::size_t(plan_->paddedWidth());
  }

  const SvbPlan* plan_;
  SvbLayout layout_;
  AlignedBuffer<float> buf_;
};

}  // namespace mbir
