// Per-layer replays: the inputs a workload sent (requests, responses, spends,
// appended examples, draw counts) fed again through each layer's public
// functions, one layer at a time, with each call timed on its own.

#include <algorithm>
#include <cmath>
#include <set>

#include "core/gibbs_estimator.h"
#include "learning/risk.h"
#include "learning/streaming_risk.h"
#include "loadgen.h"
#include "mechanisms/laplace.h"
#include "mechanisms/sensitivity.h"
#include "sampling/rng.h"
#include "service/sharded_accountant.h"
#include "simd/kernels.h"

namespace perfbench {
namespace {

using dplearn::Example;
using dplearn::GibbsEstimator;
using dplearn::Rng;
using dplearn::StreamingRiskProfile;
using dplearn::service::ServedDataset;

/// Keeps replayed results observable so the calls are not optimised away.
volatile double g_sink = 0.0;

/// Calls `fn` (which processes `items` items) in rounds until `budget_us`
/// has passed and at least three rounds ran, and returns the median time per
/// item in nanoseconds.
template <typename Fn>
double NanosPerItem(std::size_t items, double budget_us, std::size_t max_rounds, Fn fn) {
  std::vector<double> per_item;
  double spent = 0.0;
  while (per_item.size() < max_rounds && (spent < budget_us || per_item.size() < 3)) {
    const double start = NowUs();
    fn();
    const double elapsed = NowUs() - start;
    spent += elapsed;
    per_item.push_back(elapsed * 1e3 / static_cast<double>(std::max<std::size_t>(items, 1)));
  }
  return Median(per_item);
}

StreamingRiskProfile SeededStream(const ServedDataset& data) {
  StreamingRiskProfile profile =
      *StreamingRiskProfile::Create(data.loss.get(), data.hypotheses.thetas(),
                                    StreamingRiskProfile::Options{});
  for (const Example& z : data.data.examples()) (void)profile.AddExample(z);
  return profile;
}

}  // namespace

std::map<std::string, double> ReplayLayers(const ReplayInputs& in, double budget_s) {
  constexpr int kMeasurements = 14;
  const double each_us = budget_s * 1e6 / kMeasurements;
  constexpr std::size_t kKernelCalls = 1000;
  std::map<std::string, double> out;
  Rng rng(0x5eed);

  // service: codec and admission.
  std::string frame;
  out["service.encode_ns"] = NanosPerItem(in.requests.size(), each_us, 1000, [&] {
    for (const auto& request : in.requests) {
      frame.clear();
      dplearn::service::AppendFrame(&frame, dplearn::service::EncodeRequest(request));
      g_sink = g_sink + static_cast<double>(frame.size());
    }
  });
  std::string stream;
  for (const std::string& payload : in.response_payloads) {
    dplearn::service::AppendFrame(&stream, payload);
  }
  out["service.decode_ns"] = NanosPerItem(in.response_payloads.size(), each_us, 1000, [&] {
    dplearn::service::FrameDecoder decoder;
    decoder.Feed(stream.data(), stream.size());
    std::string payload;
    while (*decoder.Next(&payload)) {
      auto response = dplearn::service::DecodeResponse(payload.data(), payload.size());
      g_sink = g_sink + (response.ok() ? response->charged_epsilon : 0.0);
    }
  });
  dplearn::service::ShardedPrivacyAccountant accountant(
      dplearn::service::ShardedPrivacyAccountant::Options{});
  // Tenant gauges are process-wide metrics, so the replay's tenants must not
  // share ids with the server's: its ReplayVerifyAll compares against them.
  std::vector<std::pair<std::string, double>> spends;
  std::set<std::string> tenants;
  for (const auto& spend : in.spends) {
    spends.emplace_back("replay-" + spend.first, spend.second);
    tenants.insert(spends.back().first);
  }
  for (const std::string& tenant : tenants) {
    (void)accountant.RegisterTenant(tenant, dplearn::PrivacyBudget{1e15, 0.5});
  }
  // Each round grows the ledgers, so the round count stays small.
  out["service.spend_ns"] = NanosPerItem(spends.size(), each_us, 8, [&] {
    for (const auto& spend : spends) {
      const auto status = accountant.SpendOrReject(
          spend.first, dplearn::PrivacyBudget{spend.second, 0.0}, "perfbench.replay");
      g_sink = g_sink + (status.ok() ? 1.0 : 0.0);
    }
  });

  // core and perf: the Gibbs path on the Gibbs dataset.
  const ServedDataset& gibbs = *in.gibbs_data;
  const std::size_t theta_count = gibbs.hypotheses.size();
  out["core.estimator_create_us"] =
      NanosPerItem(1, each_us, 1000, [&] {
        auto estimator =
            GibbsEstimator::CreateUniform(gibbs.loss.get(), gibbs.hypotheses, in.lambda);
        g_sink = g_sink + estimator->lambda();
      }) /
      1e3;
  const GibbsEstimator estimator =
      *GibbsEstimator::CreateUniform(gibbs.loss.get(), gibbs.hypotheses, in.lambda);
  (void)estimator.RiskProfile(gibbs.data);  // a cache hit from here on, as in the server
  const double profile_ns = NanosPerItem(1, each_us, 1000, [&] {
    g_sink = g_sink + (*estimator.RiskProfile(gibbs.data))[0];
  });
  out["perf.risk_profile_us"] = profile_ns / 1e3;
  std::vector<std::uint32_t> counts(in.gibbs_counts.begin(),
                                    in.gibbs_counts.begin() +
                                        std::min<std::size_t>(in.gibbs_counts.size(), 64));
  if (counts.empty()) counts.push_back(1);
  std::size_t draws = 0;
  for (const std::uint32_t k : counts) draws += k;
  std::vector<std::size_t> indices;
  const double batch_ns = NanosPerItem(draws, each_us, 1000, [&] {
    for (const std::uint32_t k : counts) {
      (void)estimator.SampleBatch(gibbs.data, &rng, k, &indices);
    }
  });
  // Self time: the risk-profile lookup is its own layer (perf.risk_profile_us).
  out["core.sample_ns_per_draw"] =
      std::max(0.0, batch_ns - profile_ns * static_cast<double>(counts.size()) /
                                   static_cast<double>(draws));
  const StreamingRiskProfile gibbs_stream = SeededStream(gibbs);
  out["core.stream_sample_ns_per_draw"] = NanosPerItem(draws, each_us, 1000, [&] {
    for (const std::uint32_t k : counts) {
      (void)estimator.SampleStreamingBatch(gibbs_stream, &rng, k, &indices);
    }
  });

  // learning: full profile, stream appends and snapshots.
  out["learning.risk_profile_full_us"] =
      NanosPerItem(1, each_us, 50, [&] {
        auto risks = dplearn::EmpiricalRiskProfile(*gibbs.loss, gibbs.hypotheses.thetas(),
                                                   gibbs.data);
        g_sink = g_sink + (*risks)[0];
      }) /
      1e3;
  const ServedDataset& appends = *in.append_data;
  StreamingRiskProfile live = SeededStream(appends);
  std::vector<Example> appended = in.appended;
  if (appended.empty()) appended.push_back(appends.data.at(0));
  std::vector<double> append_us;
  std::vector<double> snapshot_us;
  std::vector<double> snapshot;
  for (double spent = 0.0; spent < each_us * 2 || append_us.size() < 3;) {
    for (const Example& z : appended) {
      const double start = NowUs();
      (void)live.AddExample(z);
      const double added = NowUs();
      (void)live.SnapshotInto(&snapshot);
      const double done = NowUs();
      append_us.push_back(added - start);
      snapshot_us.push_back(done - added);
      spent += done - start;
    }
  }
  out["learning.append_us"] = Median(append_us);
  out["learning.snapshot_us"] = Median(snapshot_us);

  // simd and sampling kernels at the Gibbs dataset's |Θ|.
  const std::vector<double> risks = *estimator.RiskProfile(gibbs.data);
  const std::vector<double> log_prior(theta_count, -std::log(static_cast<double>(theta_count)));
  std::vector<double> log_w(theta_count);
  std::vector<double> uniforms(theta_count);
  out["simd.tilt_ns"] = NanosPerItem(kKernelCalls, each_us, 1000, [&] {
    for (std::size_t i = 0; i < kKernelCalls; ++i) {
      dplearn::simd::TiltLogWeights(risks.data(), log_prior.data(), theta_count, -in.lambda,
                                    log_w.data());
    }
    g_sink = g_sink + log_w[0];
  });
  rng.NextDoubleOpenBatch(uniforms.data(), theta_count);
  out["simd.gumbel_ns"] = NanosPerItem(kKernelCalls, each_us, 1000, [&] {
    for (std::size_t i = 0; i < kKernelCalls; ++i) {
      g_sink = g_sink + static_cast<double>(dplearn::simd::GumbelMaxIndex(
                            log_w.data(), uniforms.data(), theta_count));
    }
  });
  out["sampling.uniform_batch_ns"] = NanosPerItem(kKernelCalls, each_us, 1000, [&] {
    for (std::size_t i = 0; i < kKernelCalls; ++i) {
      rng.NextDoubleOpenBatch(uniforms.data(), theta_count);
    }
    g_sink = g_sink + uniforms[0];
  });

  // mechanisms: the Laplace release batches the workload asked for.
  const ServedDataset& released = *in.release_data;
  const dplearn::LaplaceMechanism mechanism = *dplearn::LaplaceMechanism::Create(
      *dplearn::BoundedMeanQuery(released.label_lo, released.label_hi, released.data.size()),
      in.release_epsilon);
  std::vector<std::uint32_t> release_counts = in.release_counts;
  if (release_counts.empty()) release_counts.push_back(1);
  std::size_t released_draws = 0;
  for (const std::uint32_t k : release_counts) released_draws += k;
  std::vector<double> values;
  out["mechanisms.laplace_ns_per_draw"] = NanosPerItem(released_draws, each_us, 1000, [&] {
    for (const std::uint32_t k : release_counts) {
      (void)mechanism.ReleaseBatch(released.data, &rng, k, &values);
    }
    g_sink = g_sink + values[0];
  });
  return out;
}

}  // namespace perfbench
