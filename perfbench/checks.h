#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

// Output checks of the service benchmark. Every check is a pure function of
// what the client sent and what the server answered, so the benchmark's
// tests can feed each one an honest and a deliberately corrupted response.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "service/protocol.h"
#include "util/math_util.h"

namespace perfbench {

/// What the client knows about a dataset it registered: enough to recompute
/// every charge and the true value of the mean query.
struct DatasetFacts {
  std::uint64_t n = 0;           // examples in the served dataset
  double loss_bound = 1.0;       // B of the served loss
  std::size_t hypotheses = 0;    // |Θ|
  double label_mean = 0.0;       // f(data) of QueryKind::kMean, labels in [0, 1]
};

/// One failed check: which one, and why.
struct CheckFailure {
  std::string check;
  std::string detail;
};

/// Running first and second moments of observed Laplace noise.
struct NoiseMoments {
  std::uint64_t n = 0;
  double sum = 0.0;
  double sum_sq = 0.0;
  void Add(double x) {
    ++n;
    sum += x;
    sum_sq += x * x;
  }
  void Merge(const NoiseMoments& other) {
    n += other.n;
    sum += other.sum;
    sum_sq += other.sum_sq;
  }
};

/// Per-tenant response checker. Observe() every (request, response) pair of
/// one tenant in the order the responses arrived; per-response checks fail
/// immediately, the aggregate ones run at the end against the server's view.
class TenantChecker {
 public:
  TenantChecker(std::string tenant, const std::map<std::string, DatasetFacts>* facts)
      : tenant_(std::move(tenant)), facts_(facts) {}

  /// Checks one response and folds it into the tenant's running state.
  void Observe(const dplearn::service::Request& request,
               const dplearn::service::Response& response);

  /// Client-side Kahan ε of OK responses, in response order, against the
  /// server's kBudgetQuery view: bitwise equal, and equal denial counts.
  void CheckLedger(const dplearn::service::Response& server_view);

  const std::string& tenant() const { return tenant_; }
  const std::vector<CheckFailure>& failures() const { return failures_; }
  std::uint64_t denials() const { return denials_; }
  std::uint64_t ok() const { return ok_; }
  double charged_epsilon() const { return charged_epsilon_.Value(); }
  /// Live stream size per dataset, 0 before the first append.
  std::uint64_t live_size(const std::string& dataset) const;
  /// Histogram over Θ of the Gibbs draws made on a dataset's unchanged
  /// (batch) posterior, i.e. before this tenant appended to it.
  const std::map<std::string, std::vector<std::uint64_t>>& static_draws() const {
    return static_draws_;
  }
  const NoiseMoments& laplace_noise() const { return laplace_noise_; }

 private:
  void Fail(const char* check, const std::string& detail);

  std::string tenant_;
  const std::map<std::string, DatasetFacts>* facts_;
  dplearn::KahanSum charged_epsilon_;
  std::uint64_t ok_ = 0;
  std::uint64_t denials_ = 0;
  std::map<std::string, std::uint64_t> live_;
  std::map<std::string, std::vector<std::uint64_t>> static_draws_;
  NoiseMoments laplace_noise_;
  std::vector<CheckFailure> failures_;
};

/// The ε the server must charge for `count` Gibbs draws at inverse
/// temperature `lambda` against a dataset of `n` examples with loss bound
/// `loss_bound`: count·2λ(B/n), evaluated in the server's operation order so
/// the comparison can be exact.
double GibbsCharge(double lambda, double loss_bound, std::uint64_t n, std::uint32_t count);

/// Total-variation distance between the empirical histogram of `counts`
/// (draws per hypothesis index) and `posterior`.
double TotalVariation(const std::vector<std::uint64_t>& counts,
                      const std::vector<double>& posterior);

/// Upper bound on the TV distance of N honest draws, exceeded with
/// probability below 1e-9: Jensen's bound on its mean,
/// ½Σ√(p(1-p)/N), plus the McDiarmid deviation √(ln(1e9)/(2N)).
double TotalVariationBound(const std::vector<double>& posterior, std::uint64_t draws);

/// Empty when the draws are consistent with `posterior`; else why not.
std::vector<CheckFailure> CheckGibbsDistribution(const std::vector<std::uint64_t>& counts,
                                                 const std::vector<double>& posterior);

/// Mean and variance of Laplace(0, scale) noise against 0 and 2·scale²,
/// each within six standard errors of the closed form (variance of x² is
/// 20·scale⁴).
std::vector<CheckFailure> CheckLaplaceMoments(const NoiseMoments& noise, double scale);

/// The probe tenant registers ε = kProbeBudget and asks for kProbeReleases
/// releases of kProbeEpsilon each: exactly one is granted, the rest denied.
/// Feed the probe's responses through a TenantChecker, then CheckProbe it.
inline constexpr double kProbeBudget = 0.05;
inline constexpr double kProbeEpsilon = 0.03;
inline constexpr int kProbeReleases = 3;
std::vector<CheckFailure> CheckProbe(const TenantChecker& probe);

/// The server-side verdicts: a clean kReplayVerify answer (null when none
/// came back) and no frame the server failed to decode.
std::vector<CheckFailure> CheckServerVerdicts(const dplearn::service::Response* replay_verify,
                                              std::uint64_t protocol_errors);

/// Noise scale of a kMean Laplace release with labels in [0, 1].
double MeanReleaseScale(std::uint64_t n, double epsilon);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
