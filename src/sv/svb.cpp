#include "sv/svb.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "geom/footprint.h"

namespace mbir {

SvbPlan::SvbPlan(const ParallelBeamGeometry& g, const SuperVoxel& sv, int pad_align)
    : sv_(sv), num_views_(g.num_views), pad_align_(pad_align) {
  MBIR_CHECK(pad_align >= 1);
  lo_.resize(std::size_t(num_views_));
  width_.resize(std::size_t(num_views_));
  packed_offset_.resize(std::size_t(num_views_));

  // The projection t of any voxel center in the SV is linear in (x, y), so
  // per view its extremes occur at the SV's corner voxels; padding by the
  // footprint half-support (same for every voxel at a view) and the
  // channel-aperture half-width covers every voxel's run.
  const double xs[2] = {g.pixelX(sv.col0), g.pixelX(sv.col1 - 1)};
  const double ys[2] = {g.pixelY(sv.row0), g.pixelY(sv.row1 - 1)};

  std::size_t offset = 0;
  for (int v = 0; v < num_views_; ++v) {
    const double th = g.angle(v);
    const double c = std::cos(th), s = std::sin(th);
    double tmin = 1e300, tmax = -1e300;
    for (double x : xs)
      for (double y : ys) {
        const double t = x * c + y * s;
        tmin = std::min(tmin, t);
        tmax = std::max(tmax, t);
      }
    const double hs =
        TrapezoidProfile(g.pixel_size_mm, th).halfSupport() / g.channel_spacing_mm;
    const double cc = g.centerChannel();
    int lo = int(std::ceil(cc + tmin / g.channel_spacing_mm - hs - 0.5));
    int hi = int(std::floor(cc + tmax / g.channel_spacing_mm + hs + 0.5));
    lo = std::max(lo, 0);
    hi = std::min(hi, g.num_channels - 1);
    const int w = std::max(0, hi - lo + 1);
    lo_[std::size_t(v)] = lo;
    width_[std::size_t(v)] = w;
    max_width_ = std::max(max_width_, w);
    packed_offset_[std::size_t(v)] = offset;
    offset += std::size_t(w);
  }
  packed_size_ = offset;
  padded_width_ = int(roundUp(std::size_t(std::max(max_width_, 1)),
                              std::size_t(pad_align_)));
}

void SvbPlan::growPaddedWidth(int min_width) {
  if (min_width > padded_width_)
    padded_width_ =
        int(roundUp(std::size_t(min_width), std::size_t(pad_align_)));
}

Svb::Svb(const SvbPlan& plan, SvbLayout layout)
    : plan_(&plan),
      layout_(layout),
      buf_(layout == SvbLayout::kPacked ? plan.packedSize() : plan.paddedSize()) {}

std::size_t Svb::indexOf(int view, int channel) const {
  const int c = channel - plan_->lo(view);
  MBIR_CHECK_MSG(c >= 0 && c < plan_->width(view),
                 "channel " << channel << " outside band of view " << view);
  return rowOffset(view) + std::size_t(c);
}

float& Svb::at(int view, int channel) { return buf_[indexOf(view, channel)]; }

float Svb::atOrZero(int view, int channel) const {
  const int c = channel - plan_->lo(view);
  if (c < 0 || c >= plan_->width(view)) return 0.0f;
  return buf_[rowOffset(view) + std::size_t(c)];
}

int Svb::rowWidth(int view) const {
  return layout_ == SvbLayout::kPacked ? plan_->width(view) : plan_->paddedWidth();
}

void Svb::gather(const Sinogram& src) {
  MBIR_CHECK(src.views() == plan_->numViews());
  if (layout_ == SvbLayout::kPadded && !buf_.empty())
    std::memset(buf_.data(), 0, buf_.size() * sizeof(float));
  for (int v = 0; v < plan_->numViews(); ++v) {
    const int w = plan_->width(v);
    if (w == 0) continue;
    const auto row = src.row(v);
    std::memcpy(rowData(v), row.data() + plan_->lo(v), std::size_t(w) * sizeof(float));
  }
}

void Svb::applyDeltaTo(Sinogram& dst, const Svb& original,
                       const SimdOps* ops) const {
  applyDeltaTo(dst, original, 0, 1, ops);
}

void Svb::applyDeltaTo(Sinogram& dst, const Svb& original, int stripe,
                       int num_stripes, const SimdOps* ops) const {
  MBIR_CHECK(original.plan_ == plan_ && original.layout_ == layout_);
  MBIR_CHECK(dst.views() == plan_->numViews());
  MBIR_CHECK(num_stripes >= 1 && stripe >= 0 && stripe < num_stripes);
  if (ops == nullptr) ops = &scalarSimdOps();
  for (int v = stripe; v < plan_->numViews(); v += num_stripes) {
    const int w = plan_->width(v);
    if (w == 0) continue;
    float* out = dst.row(v).data() + plan_->lo(v);
    ops->apply_delta_row(rowData(v), original.rowData(v), out, w);
  }
}

}  // namespace mbir
