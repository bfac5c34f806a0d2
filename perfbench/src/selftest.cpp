// Negative controls for the benchmark's correctness checks: each check must
// pass on a real reconstruction and fail on a perturbed image, a wrong hash
// or an image whose descent was skipped (the FBP start handed back as the
// result). Exit code 0 when every control behaves, 1 otherwise.
//
//   python3 perfbench/run.py --selftest
#include <cstdio>
#include <string>

#include "checks.h"
#include "core/hash.h"
#include "icd/convergence.h"
#include "recon/reconstructor.h"
#include "recon/suite.h"

using namespace mbir;
using namespace perfbench;

namespace {

int g_failures = 0;

void expect(bool got, bool want, const char* what, const std::string& why) {
  const bool ok = got == want;
  std::printf("%s %s: check %s%s%s\n", ok ? "ok  " : "FAIL", what,
              got ? "passed" : "failed", why.empty() ? "" : " - ", why.c_str());
  if (!ok) ++g_failures;
}

}  // namespace

int main() {
  SuiteConfig cfg;
  cfg.geometry = testScaleGeometry();
  const Suite suite(cfg);
  const OwnedProblem problem = suite.makeCase(0);
  const Image2D golden = computeGolden(problem, 20.0);
  const RunResult run = reconstruct(problem, golden, RunConfig{});
  const Image2D fbp = problem.fbpInitialImage();

  Image2D perturbed = run.image;
  perturbed(perturbed.size() / 2, perturbed.size() / 2) += 0.002f;  // ~100 HU
  Image2D noisy = run.image;
  for (int r = 0; r < noisy.size(); ++r)
    for (int c = 0; c < noisy.size(); ++c)
      noisy(r, c) += ((r * 7 + c * 13) % 5 - 2) * 0.004f;  // streaks, ~200 HU

  std::string why;
  expect(run.converged, true, "reference run converged", "");

  expect(beatsFbpOnFlatRegions(problem, run.image, why), true,
         "flat-region RMSE, reconstruction", why);
  expect(beatsFbpOnFlatRegions(problem, fbp, why = ""), false,
         "flat-region RMSE, skipped descent", why);
  expect(beatsFbpOnFlatRegions(problem, noisy, why = ""), false,
         "flat-region RMSE, perturbed image", why);

  expect(costBelowFbp(problem, run.image, why = ""), true,
         "MAP cost, reconstruction", why);
  expect(costBelowFbp(problem, fbp, why = ""), false,
         "MAP cost, skipped descent", why);
  expect(costBelowFbp(problem, noisy, why = ""), false,
         "MAP cost, perturbed image", why);

  expect(rmseAgrees(run.image, golden, run.converged, run.final_rmse_hu, why = ""),
         true, "RMSE vs golden, reconstruction", why);
  expect(rmseAgrees(perturbed, golden, run.converged, run.final_rmse_hu, why = ""),
         false, "RMSE vs golden, perturbed image", why);
  expect(rmseAgrees(fbp, golden, true, rmseHu(fbp, golden), why = ""), false,
         "RMSE vs golden, skipped descent reported converged", why);

  expect(sameBits(run.image, run.image, why = ""), true, "same bits, identical",
         why);
  expect(sameBits(run.image, perturbed, why = ""), false,
         "same bits, perturbed image", why);

  const std::string hash = hashToHex(imageHash(run.image));
  std::string wrong = hash;
  wrong[0] = wrong[0] == '0' ? '1' : '0';
  expect(hashNames(hash, run.image, why = ""), true, "image hash, right hash", why);
  expect(hashNames(wrong, run.image, why = ""), false, "image hash, wrong hash", why);
  expect(hashNames(hash, perturbed, why = ""), false,
         "image hash, perturbed image", why);

  std::printf("%s: %d control(s) misbehaved\n", g_failures ? "FAILED" : "passed",
              g_failures);
  return g_failures ? 1 : 0;
}
