#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

// Shared declarations of the load generator (loadgen.cc) and the per-layer
// replays (layers.cc).

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "learning/dataset.h"
#include "service/protocol.h"
#include "service/server.h"

namespace perfbench {

inline double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
double Quantile(std::vector<double>* values, double q);
/// Quantile(values, 0.5) on a copy.
double Median(std::vector<double> values);

/// The workload's inputs captured from the run, replayed through each
/// layer's public functions by ReplayLayers.
struct ReplayInputs {
  const dplearn::service::ServedDataset* gibbs_data = nullptr;    // Gibbs requests' dataset
  const dplearn::service::ServedDataset* append_data = nullptr;   // stream appends' dataset
  const dplearn::service::ServedDataset* release_data = nullptr;  // Laplace releases' dataset
  double lambda = 1.0;
  double release_epsilon = 0.01;
  std::vector<dplearn::service::Request> requests;
  std::vector<std::string> response_payloads;
  std::vector<std::pair<std::string, double>> spends;  // (tenant, ε) of granted requests
  std::vector<dplearn::Example> appended;
  std::vector<std::uint32_t> gibbs_counts;
  std::vector<std::uint32_t> release_counts;
};

/// Per-call timings of the replayed layer functions, keyed by per-layer
/// metric name. Spends at most about `budget_s` seconds.
std::map<std::string, double> ReplayLayers(const ReplayInputs& inputs, double budget_s);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
