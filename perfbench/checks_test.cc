// Each output check of the benchmark passes honest responses, made by the
// library's own mechanisms, and fails once one response is corrupted.

#include "checks.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/gibbs_estimator.h"
#include "learning/generators.h"
#include "learning/hypothesis.h"
#include "mechanisms/laplace.h"
#include "mechanisms/sensitivity.h"
#include "sampling/rng.h"

namespace perfbench {
namespace {

using dplearn::StatusCode;
using dplearn::service::Opcode;
using dplearn::service::Request;
using dplearn::service::Response;

constexpr double kLambda = 50.0;
constexpr double kEpsilon = 0.01;

class ChecksTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dplearn::Rng data_rng(7);
    data_ = *dplearn::BernoulliMeanTask::Create(0.3)->Sample(200, &data_rng);
    double labels = 0.0;
    for (const auto& z : data_.examples()) labels += z.label;
    facts_["d"] = DatasetFacts{200, 1.0, 101, labels / 200.0};
    estimator_ = std::make_unique<dplearn::GibbsEstimator>(*dplearn::GibbsEstimator::CreateUniform(
        &loss_, *dplearn::FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 101), kLambda));
  }

  Request Make(Opcode opcode, std::uint32_t count) {
    Request r;
    r.opcode = opcode;
    r.request_id = next_id_++;
    r.tenant_id = "t";
    r.dataset = "d";
    r.count = count;
    r.epsilon = kEpsilon;
    r.lambda = kLambda;
    r.features = {1.0};
    r.label = 1.0;
    return r;
  }

  Response Answer(const Request& r) {
    Response response;
    response.opcode = r.opcode;
    response.request_id = r.request_id;
    return response;
  }

  /// An honest answer to a Laplace mean release.
  std::pair<Request, Response> Release(std::uint32_t count) {
    const Request r = Make(Opcode::kRelease, count);
    Response response = Answer(r);
    const auto mechanism = dplearn::LaplaceMechanism::Create(
        *dplearn::BoundedMeanQuery(0.0, 1.0, data_.size()), kEpsilon);
    EXPECT_TRUE(mechanism->ReleaseBatch(data_, &rng_, count, &response.values).ok());
    response.charged_epsilon = kEpsilon * count;
    return {r, response};
  }

  /// An honest answer to a Gibbs request on the batch (or live) posterior.
  std::pair<Request, Response> Gibbs(std::uint32_t count, std::uint64_t n_live = 0) {
    const Request r = Make(Opcode::kGibbsSample, count);
    Response response = Answer(r);
    std::vector<std::size_t> draws;
    EXPECT_TRUE(estimator_->SampleBatch(data_, &rng_, count, &draws).ok());
    response.indices.assign(draws.begin(), draws.end());
    response.charged_epsilon = GibbsCharge(kLambda, 1.0, n_live > 0 ? n_live : 200, count);
    return {r, response};
  }

  std::pair<Request, Response> Append(std::uint64_t live_after) {
    const Request r = Make(Opcode::kStreamAppend, 1);
    Response response = Answer(r);
    response.stream_size = live_after;
    return {r, response};
  }

  /// The server's honest ledger view of `checker`'s tenant.
  Response View(const TenantChecker& checker) {
    Response view;
    view.opcode = Opcode::kBudgetQuery;
    view.spent_epsilon = checker.charged_epsilon();
    view.denials = checker.denials();
    return view;
  }

  std::vector<double> Posterior() { return *estimator_->Posterior(data_); }

  static bool Failed(const TenantChecker& checker, const std::string& check) {
    for (const CheckFailure& f : checker.failures()) {
      if (f.check == check) return true;
    }
    return false;
  }

  dplearn::Dataset data_;
  dplearn::ClippedSquaredLoss loss_{1.0};
  std::unique_ptr<dplearn::GibbsEstimator> estimator_;
  std::map<std::string, DatasetFacts> facts_;
  dplearn::Rng rng_{11};
  std::uint64_t next_id_ = 1;
};

TEST_F(ChecksTest, HonestResponsesPassEveryCheck) {
  TenantChecker checker("t", &facts_);
  for (int i = 0; i < 2000; ++i) {
    const auto [r, response] = Release(1 + i % 4);
    checker.Observe(r, response);
  }
  for (int i = 0; i < 2000; ++i) {
    const auto [r, response] = Gibbs(1 + i % 8);
    checker.Observe(r, response);
  }
  for (std::uint64_t live = 201; live < 205; ++live) {
    const auto [a, appended] = Append(live);
    checker.Observe(a, appended);
    const auto [g, drawn] = Gibbs(3, live);
    checker.Observe(g, drawn);
  }
  checker.CheckLedger(View(checker));
  EXPECT_TRUE(checker.failures().empty()) << checker.failures()[0].detail;
  EXPECT_TRUE(CheckGibbsDistribution(checker.static_draws().at("d"), Posterior()).empty());
  EXPECT_TRUE(CheckLaplaceMoments(checker.laplace_noise(), MeanReleaseScale(200, kEpsilon))
                  .empty());
  Response clean;
  EXPECT_TRUE(CheckServerVerdicts(&clean, 0).empty());
}

TEST_F(ChecksTest, LedgerCatchesOneUlpOfEpsilon) {
  TenantChecker checker("t", &facts_);
  const auto [r, response] = Release(2);
  checker.Observe(r, response);
  Response view = View(checker);
  view.spent_epsilon = std::nextafter(view.spent_epsilon, 1.0);
  checker.CheckLedger(view);
  EXPECT_TRUE(Failed(checker, "ledger"));
}

TEST_F(ChecksTest, LedgerCatchesADenialCountMismatch) {
  TenantChecker checker("t", &facts_);
  Request r = Make(Opcode::kRelease, 1);
  Response denied = Answer(r);
  denied.code = StatusCode::kResourceExhausted;
  checker.Observe(r, denied);
  Response view = View(checker);
  view.denials = 0;
  checker.CheckLedger(view);
  EXPECT_TRUE(Failed(checker, "ledger"));
}

TEST_F(ChecksTest, ServerVerdictsCatchADirtyReplayAndProtocolErrors) {
  Response dirty;
  dirty.code = StatusCode::kInternal;
  EXPECT_EQ(CheckServerVerdicts(&dirty, 0).size(), 1u);
  EXPECT_EQ(CheckServerVerdicts(nullptr, 0).size(), 1u);
  Response clean;
  EXPECT_EQ(CheckServerVerdicts(&clean, 1).size(), 1u);
}

TEST_F(ChecksTest, ResponseForAnotherRequestIsCaught) {
  TenantChecker checker("t", &facts_);
  auto [r, response] = Release(1);
  response.request_id += 1;
  checker.Observe(r, response);
  EXPECT_TRUE(Failed(checker, "response_match"));
}

TEST_F(ChecksTest, ReleaseChargeAndShapeAreChecked) {
  TenantChecker checker("t", &facts_);
  auto [r, response] = Release(3);
  response.charged_epsilon = kEpsilon * 2;
  checker.Observe(r, response);
  EXPECT_TRUE(Failed(checker, "release_charge"));
  auto [r2, short_response] = Release(3);
  short_response.values.pop_back();
  checker.Observe(r2, short_response);
  EXPECT_TRUE(Failed(checker, "release_shape"));
}

TEST_F(ChecksTest, GibbsChargeAndIndexRangeAreChecked) {
  TenantChecker checker("t", &facts_);
  auto [r, response] = Gibbs(4);
  response.charged_epsilon *= 0.5;
  checker.Observe(r, response);
  EXPECT_TRUE(Failed(checker, "gibbs_charge"));
  auto [r2, outside] = Gibbs(2);
  outside.indices[1] = 101;
  checker.Observe(r2, outside);
  EXPECT_TRUE(Failed(checker, "gibbs_shape"));
}

TEST_F(ChecksTest, StreamedDrawChargedAtTheBatchSizeIsCaught) {
  TenantChecker checker("t", &facts_);
  const auto [a, appended] = Append(201);
  checker.Observe(a, appended);
  // Charged as if the stream still held the 200 batch examples.
  auto [g, drawn] = Gibbs(5, 200);
  checker.Observe(g, drawn);
  EXPECT_TRUE(Failed(checker, "stream_charge"));
}

TEST_F(ChecksTest, WrongLiveStreamSizeIsCaught) {
  TenantChecker checker("t", &facts_);
  const auto [a, appended] = Append(202);
  checker.Observe(a, appended);
  EXPECT_TRUE(Failed(checker, "stream_size"));
}

TEST_F(ChecksTest, ChargedFreeOperationIsCaught) {
  TenantChecker checker("t", &facts_);
  auto [a, appended] = Append(201);
  appended.charged_epsilon = 1e-9;
  checker.Observe(a, appended);
  EXPECT_TRUE(Failed(checker, "free_op_charge"));
}

TEST_F(ChecksTest, GibbsDistributionCatchesShiftedOrDegenerateDraws) {
  TenantChecker checker("t", &facts_);
  for (int i = 0; i < 3000; ++i) {
    const auto [r, response] = Gibbs(4);
    checker.Observe(r, response);
  }
  const std::vector<double> posterior = Posterior();
  std::vector<std::uint64_t> counts = checker.static_draws().at("d");
  ASSERT_TRUE(CheckGibbsDistribution(counts, posterior).empty());
  // Every draw moved five grid steps up.
  std::vector<std::uint64_t> shifted(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    shifted[std::min<std::size_t>(i + 5, 100)] += counts[i];
  }
  EXPECT_FALSE(CheckGibbsDistribution(shifted, posterior).empty());
  // Every draw replaced by the posterior mode.
  std::vector<std::uint64_t> mode(counts.size());
  std::size_t argmax = 0;
  for (std::size_t i = 0; i < posterior.size(); ++i) {
    if (posterior[i] > posterior[argmax]) argmax = i;
  }
  mode[argmax] = 12000;
  EXPECT_FALSE(CheckGibbsDistribution(mode, posterior).empty());
}

TEST_F(ChecksTest, LaplaceMomentsCatchShiftedOrRescaledNoise) {
  const double scale = MeanReleaseScale(200, kEpsilon);
  TenantChecker honest("t", &facts_);
  TenantChecker shifted("t", &facts_);
  TenantChecker wide("t", &facts_);
  const double truth = facts_.at("d").label_mean;
  for (int i = 0; i < 5000; ++i) {
    auto [r, response] = Release(2);
    honest.Observe(r, response);
    Response moved = response;
    for (double& v : moved.values) v += 0.1;
    shifted.Observe(r, moved);
    Response scaled = response;
    for (double& v : scaled.values) v = truth + 1.2 * (v - truth);
    wide.Observe(r, scaled);
  }
  EXPECT_TRUE(CheckLaplaceMoments(honest.laplace_noise(), scale).empty());
  EXPECT_FALSE(CheckLaplaceMoments(shifted.laplace_noise(), scale).empty());
  EXPECT_FALSE(CheckLaplaceMoments(wide.laplace_noise(), scale).empty());
}

TEST_F(ChecksTest, ProbeMustBeDeniedExactlyAsPlanned) {
  const auto probe_run = [&](int grants) {
    TenantChecker probe("probe", &facts_);
    for (int i = 0; i < kProbeReleases; ++i) {
      Request r = Make(Opcode::kRelease, 1);
      r.epsilon = kProbeEpsilon;
      Response response = Answer(r);
      if (i < grants) {
        response.values = {0.5};
        response.charged_epsilon = kProbeEpsilon;
      } else {
        response.code = StatusCode::kResourceExhausted;
      }
      probe.Observe(r, response);
    }
    return CheckProbe(probe);
  };
  EXPECT_TRUE(probe_run(1).empty());
  EXPECT_FALSE(probe_run(2).empty());
  EXPECT_FALSE(probe_run(0).empty());
}

}  // namespace
}  // namespace perfbench
