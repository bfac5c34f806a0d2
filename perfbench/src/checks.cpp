#include "checks.h"

#include <cmath>
#include <cstring>

#include "core/hash.h"
#include "icd/convergence.h"
#include "icd/cost.h"
#include "recon/metrics.h"

namespace perfbench {

using mbir::Image2D;
using mbir::OwnedProblem;

namespace {

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

std::uint64_t imageHash(const Image2D& image) {
  return mbir::fnv1a64(image.flat());
}

bool beatsFbpOnFlatRegions(const OwnedProblem& problem, const Image2D& image,
                           std::string& why) {
  const Image2D& truth = problem.scan().ground_truth;
  const double got = mbir::flatRegionRmseHu(image, truth);
  const double fbp = mbir::flatRegionRmseHu(problem.fbpInitialImage(), truth);
  if (std::isfinite(got) && got < fbp) return true;
  why = "flat-region RMSE " + num(got) + " HU is not below FBP's " + num(fbp);
  return false;
}

bool costBelowFbp(const OwnedProblem& problem, const Image2D& image,
                  std::string& why) {
  const mbir::Problem view = problem.view();
  const double got = mbir::computeCostFromScratch(view, image).total();
  const double fbp =
      mbir::computeCostFromScratch(view, problem.fbpInitialImage()).total();
  if (std::isfinite(got) && got < fbp) return true;
  why = "MAP cost " + num(got) + " is not below the FBP start's " + num(fbp);
  return false;
}

bool rmseAgrees(const Image2D& image, const Image2D& golden, bool converged,
                double reported_rmse_hu, std::string& why) {
  const double got = mbir::rmseHu(image, golden);
  if (!(std::fabs(got - reported_rmse_hu) <= 1e-9 * std::fmax(1.0, got))) {
    why = "recomputed RMSE " + num(got) + " HU differs from reported " +
          num(reported_rmse_hu);
    return false;
  }
  if (converged && !(got < mbir::kConvergedRmseHu)) {
    why = "reported converged at RMSE " + num(got) + " HU";
    return false;
  }
  return true;
}

bool sameBits(const Image2D& a, const Image2D& b, std::string& why) {
  if (a.size() == b.size() &&
      std::memcmp(a.flat().data(), b.flat().data(),
                  a.numVoxels() * sizeof(float)) == 0)
    return true;
  why = "images differ (hashes " + mbir::hashToHex(imageHash(a)) + " vs " +
        mbir::hashToHex(imageHash(b)) + ")";
  return false;
}

bool hashNames(const std::string& hex, const Image2D& image, std::string& why) {
  const std::string want = mbir::hashToHex(imageHash(image));
  if (hex == want) return true;
  why = "image hash " + hex + " is not the reference's " + want;
  return false;
}

}  // namespace perfbench
