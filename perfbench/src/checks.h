// Correctness checks the benchmark applies to every image it reports on.
//
// Each check compares an output against a property every MBIR solve must
// have (it beats its FBP start) or against a second, independent result
// (recomputed RMSE, another path's bits). A failed check returns false and
// says why in `why`; the driver then reports `"correct": false`.
#pragma once

#include <cstdint>
#include <string>

#include "geom/image.h"
#include "recon/problem_setup.h"

namespace perfbench {

/// Flat-region RMSE against the phantom's ground truth is lower for `image`
/// than for the FBP image of the same scan.
bool beatsFbpOnFlatRegions(const mbir::OwnedProblem& problem,
                           const mbir::Image2D& image, std::string& why);

/// The MAP cost of `image`, computed from scratch, is below the cost of the
/// FBP start.
bool costBelowFbp(const mbir::OwnedProblem& problem, const mbir::Image2D& image,
                  std::string& why);

/// RMSE against the golden, recomputed here, agrees with the program's
/// `reported_rmse_hu` and is below 10 HU when the run says it converged.
bool rmseAgrees(const mbir::Image2D& image, const mbir::Image2D& golden,
                bool converged, double reported_rmse_hu, std::string& why);

/// `a` and `b` have the same size and the same bits.
bool sameBits(const mbir::Image2D& a, const mbir::Image2D& b, std::string& why);

/// The service's 16-hex-digit image hash names `image`'s bits.
bool hashNames(const std::string& hex, const mbir::Image2D& image,
               std::string& why);

/// FNV-1a of the image's pixels, as the service hashes results.
std::uint64_t imageHash(const mbir::Image2D& image);

}  // namespace perfbench
