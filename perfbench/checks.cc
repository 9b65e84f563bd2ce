#include "checks.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

using dplearn::StatusCode;
using dplearn::service::Opcode;
using dplearn::service::Request;
using dplearn::service::Response;

namespace {

template <typename... Args>
std::string Format(const char* format, Args... args) {
  char buffer[200];
  std::snprintf(buffer, sizeof(buffer), format, args...);
  return buffer;
}

}  // namespace

double GibbsCharge(double lambda, double loss_bound, std::uint64_t n, std::uint32_t count) {
  const double sensitivity = loss_bound / static_cast<double>(n);
  const double per_draw = 2.0 * lambda * sensitivity;
  return per_draw * static_cast<double>(count);
}

double MeanReleaseScale(std::uint64_t n, double epsilon) {
  return (1.0 / static_cast<double>(n)) / epsilon;
}

void TenantChecker::Fail(const char* check, const std::string& detail) {
  failures_.push_back({check, tenant_ + ": " + detail});
}

std::uint64_t TenantChecker::live_size(const std::string& dataset) const {
  const auto it = live_.find(dataset);
  return it == live_.end() ? 0 : it->second;
}

void TenantChecker::Observe(const Request& request, const Response& response) {
  if (response.request_id != request.request_id || response.opcode != request.opcode) {
    Fail("response_match", "response does not answer request " +
                               std::to_string(request.request_id));
    return;
  }
  if (response.code == StatusCode::kResourceExhausted) {
    ++denials_;
    return;
  }
  if (response.code != StatusCode::kOk) return;  // tallied as a failure by the caller
  ++ok_;
  charged_epsilon_.Add(response.charged_epsilon);

  const auto facts_it = facts_->find(request.dataset);
  const DatasetFacts* facts = facts_it == facts_->end() ? nullptr : &facts_it->second;
  switch (request.opcode) {
    case Opcode::kRelease: {
      if (facts == nullptr || response.values.size() != request.count) {
        Fail("release_shape", "wrong number of released values");
        return;
      }
      if (response.charged_epsilon != request.epsilon * static_cast<double>(request.count)) {
        Fail("release_charge", Format("charged %.17g for %u draws", response.charged_epsilon,
                                      request.count));
      }
      for (const double value : response.values) laplace_noise_.Add(value - facts->label_mean);
      return;
    }
    case Opcode::kGibbsSample: {
      if (facts == nullptr || response.indices.size() != request.count) {
        Fail("gibbs_shape", "wrong number of drawn indices");
        return;
      }
      for (const std::uint32_t index : response.indices) {
        if (index >= facts->hypotheses) {
          Fail("gibbs_shape", "index " + std::to_string(index) + " outside Θ");
          return;
        }
      }
      const std::uint64_t live = live_size(request.dataset);
      const double expected = GibbsCharge(request.lambda, facts->loss_bound,
                                          live > 0 ? live : facts->n, request.count);
      if (response.charged_epsilon != expected) {
        Fail(live > 0 ? "stream_charge" : "gibbs_charge",
             Format("charged %.17g, expected %.17g", response.charged_epsilon, expected));
      }
      if (live == 0) {
        std::vector<std::uint64_t>& counts = static_draws_[request.dataset];
        counts.resize(facts->hypotheses);
        for (const std::uint32_t index : response.indices) ++counts[index];
      }
      return;
    }
    case Opcode::kStreamAppend: {
      if (facts == nullptr) {
        Fail("stream_size", "append to an unknown dataset");
        return;
      }
      const std::uint64_t live = live_size(request.dataset);
      const std::uint64_t expected = (live > 0 ? live : facts->n) + 1;
      if (response.stream_size != expected) {
        Fail("stream_size", Format("server reports %llu live examples, client tracked %llu",
                                   static_cast<unsigned long long>(response.stream_size),
                                   static_cast<unsigned long long>(expected)));
      }
      live_[request.dataset] = expected;
      [[fallthrough]];
    }
    default:
      if (response.charged_epsilon != 0.0) {
        Fail("free_op_charge", Format("free operation charged %.17g", response.charged_epsilon));
      }
      return;
  }
}

void TenantChecker::CheckLedger(const Response& server_view) {
  if (server_view.code != StatusCode::kOk) {
    Fail("ledger", "budget query failed: " + server_view.message);
    return;
  }
  if (server_view.spent_epsilon != charged_epsilon_.Value()) {
    Fail("ledger", Format("server spent %.17g, client charged %.17g", server_view.spent_epsilon,
                          charged_epsilon_.Value()));
  }
  if (server_view.denials != denials_) {
    Fail("ledger", Format("server denials %llu, client saw %llu",
                          static_cast<unsigned long long>(server_view.denials),
                          static_cast<unsigned long long>(denials_)));
  }
}

double TotalVariation(const std::vector<std::uint64_t>& counts,
                      const std::vector<double>& posterior) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0 || counts.size() != posterior.size()) return 1.0;
  double tv = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    tv += std::fabs(static_cast<double>(counts[i]) / static_cast<double>(total) - posterior[i]);
  }
  return 0.5 * tv;
}

double TotalVariationBound(const std::vector<double>& posterior, std::uint64_t draws) {
  const double n = static_cast<double>(draws);
  double mean_bound = 0.0;
  for (const double p : posterior) mean_bound += std::sqrt(p * (1.0 - p) / n);
  return 0.5 * mean_bound + std::sqrt(std::log(1e9) / (2.0 * n));
}

std::vector<CheckFailure> CheckGibbsDistribution(const std::vector<std::uint64_t>& counts,
                                                 const std::vector<double>& posterior) {
  std::uint64_t draws = 0;
  for (const std::uint64_t c : counts) draws += c;
  if (draws == 0 || counts.size() != posterior.size()) {
    return {{"gibbs_tv", "no draws, or histogram and posterior differ in size"}};
  }
  const double tv = TotalVariation(counts, posterior);
  const double bound = TotalVariationBound(posterior, draws);
  if (tv > bound) {
    return {{"gibbs_tv", Format("TV distance %.4g exceeds its sampling bound %.4g", tv, bound)}};
  }
  return {};
}

std::vector<CheckFailure> CheckLaplaceMoments(const NoiseMoments& noise, double scale) {
  if (noise.n == 0) return {{"laplace_moments", "no released values"}};
  const double n = static_cast<double>(noise.n);
  const double variance = 2.0 * scale * scale;
  const double mean = noise.sum / n;
  const double second = noise.sum_sq / n;
  std::vector<CheckFailure> failures;
  if (std::fabs(mean) > 6.0 * std::sqrt(variance / n)) {
    failures.push_back({"laplace_moments", Format("noise mean %.4g, limit ±%.4g", mean,
                                                  6.0 * std::sqrt(variance / n))});
  }
  const double second_sd = std::sqrt(20.0 * scale * scale * scale * scale / n);
  if (std::fabs(second - variance) > 6.0 * second_sd) {
    failures.push_back({"laplace_moments",
                        Format("noise variance %.4g, closed form %.4g", second, variance)});
  }
  return failures;
}

std::vector<CheckFailure> CheckProbe(const TenantChecker& probe) {
  if (probe.denials() != static_cast<std::uint64_t>(kProbeReleases - 1) ||
      probe.charged_epsilon() != kProbeEpsilon) {
    return {{"probe", Format("probe saw %llu denials and was charged %.17g; planned %d and %g",
                             static_cast<unsigned long long>(probe.denials()),
                             probe.charged_epsilon(), kProbeReleases - 1, kProbeEpsilon)}};
  }
  return {};
}

std::vector<CheckFailure> CheckServerVerdicts(const Response* replay_verify,
                                              std::uint64_t protocol_errors) {
  std::vector<CheckFailure> failures;
  if (replay_verify == nullptr || replay_verify->code != StatusCode::kOk) {
    failures.push_back(
        {"replay_verify", replay_verify == nullptr ? "no answer" : replay_verify->message});
  }
  if (protocol_errors != 0) {
    failures.push_back({"protocol_errors",
                        std::to_string(protocol_errors) + " frames failed to decode"});
  }
  return failures;
}

}  // namespace perfbench
