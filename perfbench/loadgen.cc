// Load generator of the service benchmark (perfbench/README.md).
//
// Starts a DpReleaseServer in-process, registers datasets generated from
// --seed, and drives it over its AF_UNIX socket from min(4, nproc) clients,
// each a thread with one connection (the calling thread is client 0). Each
// workload runs
//   * a warm-up open loop (checked, not measured);
//   * a latency phase: an open loop at a fixed offered rate, each request
//     timed from the moment it was due to be sent;
//   * a throughput phase: a closed loop, a few requests in flight per client;
// the latency and throughput phases alternate in rounds.
// Every response is checked (checks.h); the process exits non-zero when a
// check fails. With --trace 1 it instead reports per-layer metrics from the
// library's trace spans and counters, and from replays of the captured
// inputs through each layer's public functions (layers.cc).
//
// The last line of standard output is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

#include "checks.h"
#include "core/gibbs_estimator.h"
#include "learning/generators.h"
#include "learning/hypothesis.h"
#include "learning/streaming_risk.h"
#include "loadgen.h"
#include "obs/config.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_buffer.h"
#include "perf/risk_profile_cache.h"
#include "sampling/rng.h"
#include "simd/dispatch.h"

#ifndef __OPTIMIZE__
#error "perfbench measures optimised builds only; configure with -DCMAKE_BUILD_TYPE=Release"
#endif

namespace perfbench {

double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values->size())));
  const std::size_t index = std::min(values->size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values->begin(), values->begin() + static_cast<std::ptrdiff_t>(index),
                   values->end());
  return (*values)[index];
}

double Median(std::vector<double> values) { return Quantile(&values, 0.5); }

namespace {

using dplearn::Rng;
using dplearn::StatusCode;
using dplearn::obs::TraceSpan;
using dplearn::service::DpReleaseServer;
using dplearn::service::MechanismKind;
using dplearn::service::Opcode;
using dplearn::service::QueryKind;
using dplearn::service::Request;
using dplearn::service::Response;
using dplearn::service::ServedDataset;

// ---------------------------------------------------------------------------
// Workloads.

enum Op { kRelease = 0, kGibbs = 1, kAppend = 2, kQuery = 3, kOpCount = 4 };
constexpr const char* kOpNames[kOpCount] = {"release", "gibbs", "append", "query"};
// One span name per opcode around each closed-loop client call.
constexpr const char* kCallSpans[kOpCount] = {"loadgen.release_call", "loadgen.gibbs_call",
                                              "loadgen.append_call", "loadgen.query_call"};

constexpr const char* kSmall = "bernoulli";  // n = 200, |Θ| = 101
constexpr const char* kLarge = "large";      // n = 4000, |Θ| = 2048; all Gibbs requests
constexpr double kLambda = 400.0;             // inverse temperature of every Gibbs request
constexpr double kReleaseEpsilon = 0.01;
constexpr std::uint32_t kReleaseMaxCount = 4;

/// Shares of the offered requests; the rest are budget queries.
struct Mix {
  double release;  // Laplace mean releases on kSmall, count 1..4
  double gibbs;    // Gibbs draws on kLarge, count 1..gibbs_max_count
  double append;   // stream appends to append_dataset
};

struct WorkloadSpec {
  const char* name;
  Mix mix;
  std::uint32_t gibbs_max_count;
  const char* append_dataset;
  double offered_rps;  // latency phase, all clients together
  double slo_us;       // latency limit of slo_met_frac
  std::size_t tenants_per_client;
  // When set (and there are two clients or more), the last client sends
  // every request but the Gibbs ones, paced at their share of offered_rps in
  // every phase, and the others send only Gibbs requests.
  bool cheap_ops_client;

  /// Whether appends go to the Gibbs dataset, so each changes the
  /// appending tenant's posterior.
  bool AppendsChangePosterior() const {
    return std::strcmp(append_dataset, kLarge) == 0;
  }
};

// Why each workload exists is in README.md. Releases and appends in
// gibbs-large go to the small dataset, so the large one stays static and
// every Gibbs risk profile after the first is a cache hit. They come from a
// client of their own: a connection's requests are served in order, so on
// a Gibbs client they would measure the wait behind its own runs rather than
// how millisecond Gibbs runs on other connections delay them. stream-churn
// spreads its appends over 16 tenants per client so that no live stream
// reaches its second full resync (every 4096 mutations, O(n·|Θ|) under the
// tenant lock) within a run: PrimeStreams takes each tenant past its first
// resync before the warm-up, and the measured tail is the delta path, not a
// handful of stalls.
constexpr WorkloadSpec kWorkloads[] = {
    {"gibbs-large", {0.35, 0.15, 0.40}, 64, kSmall, 800.0, 10000.0, 1, true},
    {"stream-churn", {0.20, 0.40, 0.40}, 8, kLarge, 1200.0, 5000.0, 16, false},
};

struct DatasetSpec {
  const char* name;
  std::size_t n;
  std::size_t grid;
};
constexpr DatasetSpec kDatasets[] = {{kSmall, 200, 101}, {kLarge, 4000, 2048}};

// ---------------------------------------------------------------------------
// Flags and host context.

struct Flags {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::vector<int> AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

// ---------------------------------------------------------------------------
// Transport: one AF_UNIX connection speaking the service's frame protocol.

class Connection {
 public:
  static std::unique_ptr<Connection> Open(const std::string& path) {
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path)) return nullptr;
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return nullptr;
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(fd);
      return nullptr;
    }
    return std::unique_ptr<Connection>(new Connection(fd));
  }

  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Send(const Request& request) {
    {
      TraceSpan span("loadgen.encode");
      frame_.clear();
      dplearn::service::AppendFrame(&frame_, dplearn::service::EncodeRequest(request));
    }
    std::size_t offset = 0;
    while (offset < frame_.size()) {
      const ssize_t n = ::send(fd_, frame_.data() + offset, frame_.size() - offset, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      offset += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Waits up to `timeout_us` for bytes, then appends every complete
  /// response to *out (and its payload to *capture while it holds fewer
  /// than kCaptureLimit). False on a closed connection or a frame that does
  /// not decode.
  bool Receive(double timeout_us, std::vector<Response>* out,
               std::vector<std::string>* capture) {
    pollfd pfd{fd_, POLLIN, 0};
    const double wait = std::max(0.0, timeout_us);
    timespec ts{static_cast<time_t>(wait / 1e6),
                static_cast<long>(std::fmod(wait, 1e6) * 1e3)};
    const int ready = ::ppoll(&pfd, 1, &ts, nullptr);
    if (ready < 0) return errno == EINTR;
    if (ready == 0) return true;
    char buffer[65536];
    const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), MSG_DONTWAIT);
    if (n == 0) return false;
    if (n < 0) return errno == EAGAIN || errno == EINTR;
    decoder_.Feed(buffer, static_cast<std::size_t>(n));
    for (;;) {
      auto next = decoder_.Next(&payload_);
      if (!next.ok()) return false;
      if (!*next) return true;
      TraceSpan span("loadgen.decode");
      auto response = dplearn::service::DecodeResponse(payload_.data(), payload_.size());
      if (!response.ok()) return false;
      if (capture->size() < kCaptureLimit) capture->push_back(payload_);
      out->push_back(std::move(*response));
    }
  }

  static constexpr std::size_t kCaptureLimit = 1024;

 private:
  explicit Connection(int fd) : fd_(fd) {}
  int fd_;
  dplearn::service::FrameDecoder decoder_;
  std::string frame_;
  std::string payload_;
};

// ---------------------------------------------------------------------------
// Per-client state and per-phase tallies.

struct OpTally {
  std::uint64_t sent = 0;     // first attempts
  std::uint64_t ok = 0;
  std::uint64_t refused = 0;  // RESOURCE_EXHAUSTED
  std::uint64_t failed = 0;   // transport, decode, retry budget or unexpected status
  std::uint64_t retried = 0;  // extra attempts after a structured UNAVAILABLE
};

struct PhaseStats {
  // Whether finished requests' latencies are kept; the throughput phase
  // does not keep them, so the sample's memory stays out of peak_rss_mb.
  bool keep_latency = true;
  std::array<OpTally, kOpCount> tally{};
  // Time from due to answer of every finished request, failed ones included,
  // and the window of the phase in which it finished.
  std::array<std::vector<double>, kOpCount> latency_us;
  std::array<std::vector<std::uint32_t>, kOpCount> latency_window;
  std::uint64_t slo_met = 0;
  std::vector<double> late_us;  // send time minus due time (open loop)
  std::uint64_t batch_draws = 0;
  std::uint64_t stream_draws = 0;
  std::uint64_t gibbs_requests = 0;
  std::uint64_t posterior_reused = 0;
  std::vector<std::uint64_t> window_done;
  std::vector<std::uint64_t> window_draws;

  void Merge(const PhaseStats& other) {
    for (int op = 0; op < kOpCount; ++op) {
      OpTally& t = tally[op];
      const OpTally& o = other.tally[op];
      t.sent += o.sent;
      t.ok += o.ok;
      t.refused += o.refused;
      t.failed += o.failed;
      t.retried += o.retried;
      latency_us[op].insert(latency_us[op].end(), other.latency_us[op].begin(),
                            other.latency_us[op].end());
      latency_window[op].insert(latency_window[op].end(), other.latency_window[op].begin(),
                                other.latency_window[op].end());
    }
    slo_met += other.slo_met;
    late_us.insert(late_us.end(), other.late_us.begin(), other.late_us.end());
    batch_draws += other.batch_draws;
    stream_draws += other.stream_draws;
    gibbs_requests += other.gibbs_requests;
    posterior_reused += other.posterior_reused;
    window_done.resize(std::max(window_done.size(), other.window_done.size()));
    window_draws.resize(window_done.size());
    for (std::size_t w = 0; w < other.window_done.size(); ++w) {
      window_done[w] += other.window_done[w];
      window_draws[w] += other.window_draws[w];
    }
  }
  std::uint64_t Sent() const {
    std::uint64_t s = 0;
    for (const OpTally& t : tally) s += t.sent;
    return s;
  }
  std::uint64_t Failed() const {
    std::uint64_t f = 0;
    for (const OpTally& t : tally) f += t.failed + t.refused;
    return f;
  }
};

struct Pending {
  Request request;
  Op op = kQuery;
  std::size_t tenant = 0;  // index into Client::tenants
  double due_us = 0.0;
  int attempts = 0;
  bool streamed = false;  // a Gibbs draw on the tenant's live stream
};

constexpr int kMaxAttempts = 20;
// Traced windows stay short enough that no thread's span ring (sized in
// main) wraps within one.
constexpr double kMaxOpenTracedS = 3.0;
constexpr double kMaxClosedTracedS = 1.0;
constexpr int kTraceRounds = 4;
constexpr double kChromeTraceWindowS = 0.05;
// The latency and throughput phases alternate in kRounds rounds; each
// round's stretch of the latency phase is one window of it.
constexpr std::size_t kRounds = 20;
constexpr double kGroupTail = 25.0;
constexpr std::size_t kThroughputWindows = 40;  // a multiple of kRounds
// Shares of --seconds the latency and throughput phases take, over all rounds.
constexpr double kLatencyShare = 0.5;
constexpr double kThroughputShare = 0.4;
// Requests each client keeps in flight in the throughput phase, so that a
// stalled client or reader thread does not leave the server idle.
constexpr std::size_t kThroughputDepth = 4;
constexpr double kReplyTimeoutUs = 10e6;
constexpr std::size_t kSpendCaptureLimit = 16384;

struct Tenant {
  std::string id;
  TenantChecker checker;
  // Posterior-reuse bookkeeping over the tenant's request stream.
  bool gibbs_seen = false;
  bool posterior_changed = false;
  bool appended_to_gibbs_dataset = false;
};

struct Client {
  const WorkloadSpec* spec = nullptr;
  Mix mix{};
  double open_rate = 0.0;  // requests per second this client offers in an open loop
  bool paced = false;      // runs open loop in the throughput phase too
  std::string socket_path;
  std::vector<Tenant> tenants;
  std::unique_ptr<Connection> conn;
  Rng rng;
  std::uint64_t next_id = 1;
  // Inputs captured for the layer replays.
  std::vector<Request> requests;
  std::vector<std::string> payloads;
  std::vector<std::pair<std::string, double>> spends;
  std::vector<dplearn::Example> appended;

  Client(const WorkloadSpec* s, std::string path, std::size_t index, std::size_t clients,
         const std::map<std::string, DatasetFacts>* facts, std::uint64_t seed)
      : spec(s), socket_path(std::move(path)), rng(seed) {
    const double n = static_cast<double>(clients);
    mix = s->mix;
    open_rate = s->offered_rps / n;
    if (s->cheap_ops_client && clients > 1) {
      const double cheap = 1.0 - s->mix.gibbs;
      paced = index + 1 == clients;
      mix = paced ? Mix{s->mix.release / cheap, 0.0, s->mix.append / cheap} : Mix{0.0, 1.0, 0.0};
      open_rate = paced ? s->offered_rps * cheap : s->offered_rps * s->mix.gibbs / (n - 1);
    }
    for (std::size_t t = 0; t < s->tenants_per_client; ++t) {
      const std::string id = "tenant-" + std::to_string(index) + "-" + std::to_string(t);
      tenants.push_back(Tenant{id, TenantChecker(id, facts)});
    }
  }
};

Request MakeRequest(Client& c, std::size_t tenant, Op op, std::uint32_t count) {
  Request r;
  r.request_id = c.next_id++;
  r.tenant_id = c.tenants[tenant].id;
  switch (op) {
    case kRelease:
      r.opcode = Opcode::kRelease;
      r.mechanism = MechanismKind::kLaplace;
      r.query = QueryKind::kMean;
      r.dataset = kSmall;
      r.epsilon = kReleaseEpsilon;
      r.count = count;
      break;
    case kGibbs:
      r.opcode = Opcode::kGibbsSample;
      r.dataset = kLarge;
      r.lambda = kLambda;
      r.count = count;
      break;
    case kAppend:
      r.opcode = Opcode::kStreamAppend;
      r.dataset = c.spec->append_dataset;
      r.features = {1.0};
      r.label = c.rng.NextDouble() < 0.3 ? 1.0 : 0.0;
      break;
    case kQuery:
    case kOpCount:
      r.opcode = Opcode::kBudgetQuery;
      break;
  }
  return r;
}

/// The next request of the workload's mix, drawn from the client's stream.
Pending NextPending(Client& c, double due_us, PhaseStats* stats) {
  const WorkloadSpec& w = *c.spec;
  const Mix& mix = c.mix;
  const double pick = c.rng.NextDouble();
  Pending p;
  p.due_us = due_us;
  p.tenant = c.tenants.size() > 1 ? c.rng.NextBounded(c.tenants.size()) : 0;
  Tenant& t = c.tenants[p.tenant];
  const bool appends_change_posterior = w.AppendsChangePosterior();
  if (pick < mix.release) {
    p.op = kRelease;
    p.request = MakeRequest(c, p.tenant, kRelease,
                            1 + static_cast<std::uint32_t>(c.rng.NextBounded(kReleaseMaxCount)));
  } else if (pick < mix.release + mix.gibbs) {
    p.op = kGibbs;
    p.request = MakeRequest(c, p.tenant, kGibbs,
                            1 + static_cast<std::uint32_t>(c.rng.NextBounded(w.gibbs_max_count)));
    ++stats->gibbs_requests;
    if (t.gibbs_seen && !t.posterior_changed) ++stats->posterior_reused;
    t.gibbs_seen = true;
    t.posterior_changed = false;
  } else if (pick < mix.release + mix.gibbs + mix.append) {
    p.op = kAppend;
    p.request = MakeRequest(c, p.tenant, kAppend, 1);
    t.posterior_changed = t.posterior_changed || appends_change_posterior;
  } else {
    p.op = kQuery;
    p.request = MakeRequest(c, p.tenant, kQuery, 1);
  }
  p.streamed = p.op == kGibbs && t.appended_to_gibbs_dataset;
  if (p.op == kAppend && appends_change_posterior) t.appended_to_gibbs_dataset = true;
  if (c.requests.size() < Connection::kCaptureLimit) c.requests.push_back(p.request);
  return p;
}

bool Issue(Client& c, const Pending& p) {
  if (c.conn == nullptr) c.conn = Connection::Open(c.socket_path);
  return c.conn != nullptr && c.conn->Send(p.request);
}

enum class Outcome { kDone, kRetry };

/// A stretch of a phase cut into `count` equal windows from `start_us`,
/// numbered from `first` on; a request counts in the window in which it
/// finished (late finishers in the last one).
struct Windows {
  double start_us = 0.0;
  double length_us = 1.0;
  std::size_t count = 1;
  std::size_t first = 0;
  std::size_t Index(double now_us) const {
    const double w = std::floor((now_us - start_us) / length_us);
    return first + (w <= 0.0 ? 0 : std::min(count - 1, static_cast<std::size_t>(w)));
  }
};

/// Folds one response into the tallies. Structured UNAVAILABLE answers are
/// re-sent (they fire before any ledger mutation); everything else ends the
/// request, and every ended request lands in the latency sample.
Outcome Finish(Client& c, Pending& p, const Response* response, double now_us,
               PhaseStats* stats, const Windows& windows) {
  Tenant& tenant = c.tenants[p.tenant];
  if (response != nullptr) tenant.checker.Observe(p.request, *response);
  if (response != nullptr && response->code == StatusCode::kUnavailable &&
      p.attempts < kMaxAttempts) {
    ++stats->tally[p.op].retried;
    return Outcome::kRetry;
  }
  OpTally& tally = stats->tally[p.op];
  const double latency = now_us - p.due_us;
  const std::size_t window = windows.Index(now_us);
  if (stats->keep_latency) {
    stats->latency_us[p.op].push_back(latency);
    stats->latency_window[p.op].push_back(static_cast<std::uint32_t>(window));
  }
  const bool ok = response != nullptr && response->code == StatusCode::kOk &&
                  response->request_id == p.request.request_id;
  if (ok) {
    ++tally.ok;
    if (latency <= c.spec->slo_us) ++stats->slo_met;
    if (response->charged_epsilon > 0.0 && c.spends.size() < kSpendCaptureLimit) {
      c.spends.emplace_back(tenant.id, response->charged_epsilon);
    }
    if (p.op == kAppend && c.appended.size() < Connection::kCaptureLimit) {
      dplearn::Example z;
      z.features = dplearn::Vector(p.request.features.begin(), p.request.features.end());
      z.label = p.request.label;
      c.appended.push_back(std::move(z));
    }
  } else if (response != nullptr && response->code == StatusCode::kResourceExhausted) {
    ++tally.refused;
  } else {
    ++tally.failed;
  }
  std::uint64_t draws = 0;
  if (ok && p.op == kGibbs) {
    draws = p.request.count;
    (p.streamed ? stats->stream_draws : stats->batch_draws) += draws;
  }
  // A paced client completes requests at its fixed rate whatever the
  // server's speed, so only the other clients count towards throughput.
  if (!c.paced) {
    stats->window_done.resize(windows.first + windows.count);
    stats->window_draws.resize(windows.first + windows.count);
    stats->window_done[window] += ok ? 1 : 0;
    stats->window_draws[window] += draws;
  }
  return Outcome::kDone;
}

/// Ends every in-flight request as failed and drops the connection.
void FailInflight(Client& c, std::deque<Pending>* inflight, PhaseStats* stats,
                  const Windows& windows) {
  const double now = NowUs();
  for (Pending& p : *inflight) Finish(c, p, nullptr, now, stats, windows);
  inflight->clear();
  c.conn.reset();
}

/// Sends every request of `inflight` again, in order, on a fresh connection
/// when needed. False when the connection is unusable.
bool Pump(Client& c, std::deque<Pending>* inflight, PhaseStats* stats,
          const Windows& windows) {
  std::vector<Response> responses;
  const double deadline = NowUs() + kReplyTimeoutUs;
  while (responses.empty()) {
    if (c.conn == nullptr || !c.conn->Receive(1e5, &responses, &c.payloads) ||
        NowUs() > deadline) {
      FailInflight(c, inflight, stats, windows);
      return false;
    }
  }
  const double now = NowUs();
  for (const Response& response : responses) {
    if (inflight->empty()) return false;
    Pending p = std::move(inflight->front());
    inflight->pop_front();
    if (Finish(c, p, &response, now, stats, windows) == Outcome::kRetry) {
      ++p.attempts;
      if (!Issue(c, p)) {
        inflight->push_back(std::move(p));
        FailInflight(c, inflight, stats, windows);
        return false;
      }
      inflight->push_back(std::move(p));
    }
  }
  return true;
}

/// Closed loop: `depth` requests in flight until the last window ends; the
/// next is sent when one is answered. With one in flight, each call gets a
/// span of its own.
void ClosedLoop(Client& c, const Windows& windows, std::size_t depth, PhaseStats* stats) {
  const double end_us = windows.start_us + windows.length_us * windows.count;
  std::deque<Pending> inflight;
  std::optional<TraceSpan> call;
  for (;;) {
    if (inflight.size() < depth && NowUs() < end_us) {
      Pending p = NextPending(c, NowUs(), stats);
      if (depth == 1) call.emplace(kCallSpans[p.op]);
      ++stats->tally[p.op].sent;
      const bool sent = Issue(c, p);
      inflight.push_back(std::move(p));
      if (!sent) FailInflight(c, &inflight, stats, windows);
    } else if (!inflight.empty()) {
      Pump(c, &inflight, stats, windows);
    } else {
      return;
    }
    if (inflight.empty()) call.reset();
  }
}

/// Open loop: requests due every 1/rate seconds from the first window's
/// start (offset by `phase_us`) until the last window ends, sent when due
/// whether or not earlier ones were answered.
void OpenLoop(Client& c, const Windows& windows, double rate, double phase_us,
              PhaseStats* stats) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const double interval = 1e6 / rate;
  const double end_us = windows.start_us + windows.length_us * windows.count;
  std::deque<Pending> inflight;
  double next_due = windows.start_us + phase_us;
  for (;;) {
    const double now = NowUs();
    while (next_due < end_us && next_due <= now) {
      Pending p = NextPending(c, next_due, stats);
      ++stats->tally[p.op].sent;
      stats->late_us.push_back(NowUs() - next_due);
      if (!Issue(c, p)) {
        inflight.push_back(std::move(p));
        FailInflight(c, &inflight, stats, windows);
      } else {
        inflight.push_back(std::move(p));
      }
      next_due += interval;
    }
    if (next_due >= end_us && inflight.empty()) return;
    if (inflight.empty()) {
      const double wait = next_due - NowUs();
      if (wait > 0) {
        timespec ts{static_cast<time_t>(wait / 1e6),
                    static_cast<long>(std::fmod(wait, 1e6) * 1e3)};
        ::nanosleep(&ts, nullptr);
      }
      continue;
    }
    std::vector<Response> responses;
    const double wait = next_due < end_us ? next_due - NowUs() : 1e5;
    if (c.conn == nullptr || !c.conn->Receive(wait, &responses, &c.payloads)) {
      FailInflight(c, &inflight, stats, windows);
      continue;
    }
    if (!inflight.empty() && NowUs() - inflight.front().due_us > kReplyTimeoutUs) {
      FailInflight(c, &inflight, stats, windows);
      continue;
    }
    const double done = NowUs();
    for (const Response& response : responses) {
      if (inflight.empty()) break;
      Pending p = std::move(inflight.front());
      inflight.pop_front();
      if (Finish(c, p, &response, done, stats, windows) == Outcome::kRetry) {
        ++p.attempts;
        const bool sent = Issue(c, p);
        inflight.push_back(std::move(p));
        if (!sent) FailInflight(c, &inflight, stats, windows);
      }
    }
  }
}

/// One synchronous request outside the measured phases (registration,
/// warm-up, ledger queries, the probe); retried on UNAVAILABLE.
std::unique_ptr<Response> Call(Client& c, TenantChecker* checker, Request request) {
  request.request_id = c.next_id++;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    if (c.conn == nullptr) c.conn = Connection::Open(c.socket_path);
    std::vector<Response> responses;
    std::vector<std::string> ignored;
    const double deadline = NowUs() + kReplyTimeoutUs;
    bool alive = c.conn != nullptr && c.conn->Send(request);
    while (alive && responses.empty() && NowUs() < deadline) {
      alive = c.conn->Receive(1e5, &responses, &ignored);
    }
    if (!alive || responses.empty()) {
      c.conn.reset();
      continue;
    }
    if (checker != nullptr) checker->Observe(request, responses[0]);
    if (responses[0].code == StatusCode::kUnavailable) continue;
    return std::make_unique<Response>(std::move(responses[0]));
  }
  return nullptr;
}

/// Staggers the clients' open-loop schedules across one send interval.
double OpenLoopPhaseUs(const Client& c, std::size_t index, std::size_t clients) {
  return 1e6 / c.open_rate * static_cast<double>(index) / static_cast<double>(clients);
}

template <typename Fn>
void OnEveryClient(std::vector<std::unique_ptr<Client>>& clients, Fn fn) {
  std::vector<std::thread> threads;
  for (std::size_t i = 1; i < clients.size(); ++i) {
    threads.emplace_back([&fn, &clients, i] { fn(*clients[i], i); });
  }
  fn(*clients[0], 0);
  for (std::thread& t : threads) t.join();
}

// ---------------------------------------------------------------------------
// Datasets and deployment.

struct Datasets {
  std::map<std::string, ServedDataset> served;
  std::map<std::string, DatasetFacts> facts;
};

Datasets MakeDatasets(std::uint64_t seed) {
  Datasets d;
  const dplearn::BernoulliMeanTask task = *dplearn::BernoulliMeanTask::Create(0.3);
  for (const DatasetSpec& spec : kDatasets) {
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + spec.n);
    dplearn::Dataset data = *task.Sample(spec.n, &rng);
    double labels = 0.0;
    for (const dplearn::Example& z : data.examples()) labels += z.label;
    d.facts[spec.name] = DatasetFacts{spec.n, 1.0, spec.grid,
                                      labels / static_cast<double>(spec.n)};
    d.served.emplace(spec.name,
                     ServedDataset{std::move(data),
                                   *dplearn::FiniteHypothesisClass::ScalarGrid(0.0, 1.0, spec.grid),
                                   std::make_shared<dplearn::ClippedSquaredLoss>(1.0), 0.0, 1.0});
  }
  return d;
}

struct Deployment {
  std::unique_ptr<DpReleaseServer> server;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<CheckFailure> failures;
};

/// Starts the server, generates and registers the datasets, connects and
/// registers every tenant, and warms each one up to its first OK answer of
/// every operation the workload uses. The timed set-up of setup_s.
Deployment SetUp(const WorkloadSpec& spec, const Flags& flags, std::size_t clients,
                 const std::string& socket_path, Datasets* datasets) {
  Deployment d;
  DpReleaseServer::Options options;
  options.socket_path = socket_path;
  options.worker_threads = clients;
  options.seed = flags.seed;
  auto started = DpReleaseServer::Start(std::move(options));
  if (!started.ok()) {
    d.failures.push_back({"setup", started.status().ToString()});
    return d;
  }
  d.server = std::move(*started);
  *datasets = MakeDatasets(flags.seed);
  for (const auto& [name, served] : datasets->served) {
    const auto registered = d.server->RegisterDataset(name, served);
    if (!registered.ok()) d.failures.push_back({"setup", registered.ToString()});
  }
  for (std::size_t i = 0; i < clients; ++i) {
    d.clients.push_back(std::make_unique<Client>(&spec, socket_path, i, clients,
                                                 &datasets->facts, flags.seed * 1000003ULL + i));
  }
  for (auto& client : d.clients) {
    Client& c = *client;
    std::vector<std::pair<std::size_t, Request>> warm;
    for (std::size_t t = 0; t < c.tenants.size(); ++t) {
      Request reg;
      reg.opcode = Opcode::kRegisterTenant;
      reg.tenant_id = c.tenants[t].id;
      reg.epsilon = 1e9;
      reg.delta = 1e-3;
      warm.emplace_back(t, reg);
    }
    // The first tenant of each client is served every operation once; the
    // other tenants' streams are seeded by PrimeStreams.
    warm.emplace_back(0, MakeRequest(c, 0, kGibbs, 1));
    warm.emplace_back(0, MakeRequest(c, 0, kRelease, 1));
    if (spec.mix.append > 0.0) {
      warm.emplace_back(0, MakeRequest(c, 0, kAppend, 1));
      if (spec.AppendsChangePosterior()) {
        c.tenants[0].appended_to_gibbs_dataset = true;
        c.tenants[0].posterior_changed = true;
      }
    }
    for (const auto& [t, request] : warm) {
      const auto response = Call(c, &c.tenants[t].checker, request);
      if (response == nullptr || response->code != StatusCode::kOk) {
        d.failures.push_back({"setup", c.tenants[t].id + ": warm-up request failed"});
      }
    }
  }
  return d;
}

/// Appends to every tenant's live stream until it is past its first full
/// resync: seeding the stream from the served dataset counts n mutations, so
/// the first resync comes DefaultResyncEvery() - n appends later. Afterwards
/// a stream resyncs only every DefaultResyncEvery() appends.
void PrimeStreams(const WorkloadSpec& spec, const Datasets& datasets, Deployment* d) {
  const std::uint64_t n = datasets.facts.at(spec.append_dataset).n;
  const std::uint64_t every = dplearn::StreamingRiskProfile::DefaultResyncEvery();
  const std::uint64_t target = n + (every > n ? every - n : 1);
  const bool changes_posterior = spec.AppendsChangePosterior();
  std::vector<std::uint64_t> failed(d->clients.size());
  OnEveryClient(d->clients, [&](Client& c, std::size_t i) {
    for (std::size_t t = 0; t < c.tenants.size(); ++t) {
      Tenant& tenant = c.tenants[t];
      while (tenant.checker.live_size(spec.append_dataset) < target) {
        const auto response = Call(c, &tenant.checker, MakeRequest(c, t, kAppend, 1));
        if (response == nullptr || response->code != StatusCode::kOk) {
          ++failed[i];
          break;
        }
      }
      tenant.appended_to_gibbs_dataset = changes_posterior;
      tenant.posterior_changed = changes_posterior;
    }
  });
  for (const std::uint64_t f : failed) {
    if (f > 0) d->failures.push_back({"setup", "priming a live stream failed"});
  }
}

void TearDown(Deployment* d) {
  for (auto& client : d->clients) client->conn.reset();
  if (d->server != nullptr) d->server->Stop();
  d->server.reset();
  dplearn::perf::RiskProfileCache::Global().Clear();
}

// ---------------------------------------------------------------------------
// End-of-run output checks.

std::vector<CheckFailure> FinalChecks(const WorkloadSpec& spec, Deployment& d,
                                      const Datasets& datasets, const PhaseStats& all,
                                      std::uint64_t* denials) {
  std::vector<CheckFailure> failures = d.failures;
  Client& c0 = *d.clients[0];

  // The probe: a tiny budget, overdrawn on purpose.
  TenantChecker probe("probe", &datasets.facts);
  Request reg;
  reg.opcode = Opcode::kRegisterTenant;
  reg.tenant_id = "probe";
  reg.epsilon = kProbeBudget;
  Call(c0, &probe, reg);
  for (int i = 0; i < kProbeReleases; ++i) {
    Request release = MakeRequest(c0, 0, kRelease, 1);
    release.tenant_id = "probe";
    release.epsilon = kProbeEpsilon;
    Call(c0, &probe, release);
  }
  for (const CheckFailure& f : CheckProbe(probe)) failures.push_back(f);
  *denials = probe.denials();
  for (auto& client : d.clients) {
    for (const Tenant& t : client->tenants) *denials += t.checker.denials();
  }

  // Ledgers, client against server.
  std::vector<TenantChecker*> checkers;
  for (auto& client : d.clients) {
    for (Tenant& t : client->tenants) checkers.push_back(&t.checker);
  }
  checkers.push_back(&probe);
  for (TenantChecker* checker : checkers) {
    Request query;
    query.opcode = Opcode::kBudgetQuery;
    query.tenant_id = checker->tenant();
    const auto view = Call(c0, nullptr, query);
    if (view == nullptr) {
      failures.push_back({"ledger", checker->tenant() + ": budget query failed"});
    } else {
      checker->CheckLedger(*view);
    }
    for (const CheckFailure& f : checker->failures()) failures.push_back(f);
  }
  Request verify;
  verify.opcode = Opcode::kReplayVerify;
  const auto verdict = Call(c0, nullptr, verify);
  for (const CheckFailure& f : CheckServerVerdicts(verdict.get(), d.server->protocol_errors())) {
    failures.push_back(f);
  }
  if (all.Failed() != 0) {
    failures.push_back({"requests_failed", std::to_string(all.Failed()) +
                                               " requests failed, were refused or gave up"});
  }

  // Distribution of Gibbs draws on a static posterior.
  std::map<std::string, std::vector<std::uint64_t>> draws;
  for (auto& client : d.clients) {
    for (const Tenant& t : client->tenants) {
      for (const auto& [name, counts] : t.checker.static_draws()) {
        std::vector<std::uint64_t>& merged = draws[name];
        merged.resize(counts.size());
        for (std::size_t i = 0; i < counts.size(); ++i) merged[i] += counts[i];
      }
    }
  }
  const bool static_posterior = !spec.AppendsChangePosterior();
  constexpr std::uint64_t kMinTvDraws = 2000;
  for (const auto& [name, counts] : draws) {
    std::uint64_t total = 0;
    for (const std::uint64_t x : counts) total += x;
    if (total < kMinTvDraws && !(static_posterior && name == kLarge)) continue;
    const ServedDataset& served = datasets.served.at(name);
    const auto estimator = dplearn::GibbsEstimator::CreateUniform(
        served.loss.get(), served.hypotheses, kLambda);
    const auto posterior = estimator->Posterior(served.data);
    for (const CheckFailure& f : CheckGibbsDistribution(counts, *posterior)) {
      failures.push_back(f);
    }
  }
  if (static_posterior && draws.count(kLarge) == 0) {
    failures.push_back({"gibbs_tv", "no draws on the static posterior"});
  }

  // Laplace noise against its closed form.
  NoiseMoments noise;
  for (auto& client : d.clients) {
    for (const Tenant& t : client->tenants) noise.Merge(t.checker.laplace_noise());
  }
  for (const CheckFailure& f : CheckLaplaceMoments(
           noise, MeanReleaseScale(datasets.facts.at(kSmall).n, kReleaseEpsilon))) {
    failures.push_back(f);
  }
  return failures;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string ResultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i ? ", " : "") + JsonString(metrics[i].name) +
            ": {\"value\": " + JsonNumber(metrics[i].value) +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return line + "}}";
}

std::string PhaseJson(const char* name, const PhaseStats& s) {
  std::string out = std::string("{\"phase\": ") + JsonString(name) + ", \"ops\": {";
  for (int op = 0; op < kOpCount; ++op) {
    const OpTally& t = s.tally[op];
    out += std::string(op ? ", " : "") + JsonString(kOpNames[op]) +
           ": {\"sent\": " + std::to_string(t.sent) + ", \"ok\": " + std::to_string(t.ok) +
           ", \"refused\": " + std::to_string(t.refused) +
           ", \"failed\": " + std::to_string(t.failed) +
           ", \"retried\": " + std::to_string(t.retried) +
           "}";
  }
  return out + "}}";
}

/// Latency quantile `q` of `op`: the median over K groups of rounds of the
/// quantile within each group, so a burst of interference in one stretch
/// does not decide it. K is the largest divisor of kRounds for which every
/// group holds kGroupTail samples beyond its quantile, so that no group's
/// quantile rests on a handful of samples; at K = 1 it is the pooled
/// sample. With fewer than ten samples beyond the pooled quantile the run
/// is refused. The value is printed on its own line and, unless `metrics` is
/// null, appended to it.
bool LatencyMetric(const PhaseStats& s, Op op, double q, const std::string& name,
                   std::vector<Metric>* metrics) {
  std::vector<double> pooled = s.latency_us[op];
  for (std::size_t groups = kRounds; groups > 0; --groups) {
    if (kRounds % groups != 0) continue;
    std::vector<std::vector<double>> by_group(groups);
    for (std::size_t i = 0; i < s.latency_us[op].size(); ++i) {
      by_group[s.latency_window[op][i] * groups / kRounds].push_back(s.latency_us[op][i]);
    }
    std::vector<double> quantiles;
    std::size_t fewest = pooled.size();
    for (std::vector<double>& sample : by_group) {
      const double n = static_cast<double>(sample.size());
      const double needed = groups > 1 ? kGroupTail : 10.0;
      if (n - std::ceil(q * n) < needed) break;
      fewest = std::min(fewest, sample.size());
      quantiles.push_back(Quantile(&sample, q));
    }
    if (quantiles.size() < groups) continue;
    std::string by_group_json;
    for (const double x : quantiles) {
      by_group_json += (by_group_json.empty() ? "" : ", ") + JsonNumber(x);
    }
    const double value = Median(quantiles);
    std::printf("{\"quantile\": %s, \"value\": %s, \"samples\": %zu, \"groups\": %zu, "
                "\"fewest_in_a_group\": %zu, \"pooled\": %s, \"by_group\": [%s]}\n",
                JsonString(name).c_str(), JsonNumber(value).c_str(), pooled.size(), groups,
                fewest, JsonNumber(Quantile(&pooled, q)).c_str(), by_group_json.c_str());
    if (metrics != nullptr) metrics->push_back({name, value, "us"});
    return true;
  }
  std::fprintf(stderr, "perfbench: %s rests on %zu samples, fewer than 10 beyond it\n",
               name.c_str(), pooled.size());
  return false;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct ProcessUsage {
  double cpu_ms = 0.0;
  double switches = 0.0;
  static ProcessUsage Now() {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    ProcessUsage p;
    p.cpu_ms = (u.ru_utime.tv_sec + u.ru_stime.tv_sec) * 1e3 +
               (u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e3;
    p.switches = static_cast<double>(u.ru_nvcsw + u.ru_nivcsw);
    return p;
  }
};

/// Completed requests and Gibbs draws per second: the median over the
/// throughput phase's windows, so one stalled window does not decide it.
std::pair<double, double> Throughput(const PhaseStats& s, double window_s) {
  std::vector<double> rps;
  std::vector<double> dps;
  std::string rps_json;
  for (std::size_t w = 0; w < s.window_done.size(); ++w) {
    rps.push_back(static_cast<double>(s.window_done[w]) / window_s);
    dps.push_back(static_cast<double>(s.window_draws[w]) / window_s);
    rps_json += (w ? ", " : "") + JsonNumber(rps.back());
  }
  std::printf("{\"throughput_windows_rps\": [%s]}\n", rps_json.c_str());
  return {Median(rps), Median(dps)};
}

// ---------------------------------------------------------------------------
// The traced run's span analysis.

struct SpanSummary {
  std::map<std::string, std::vector<double>> durations;  // by span name
  double batch_self_us = 0.0;   // gibbs.sample_batch minus its child spans
  double stream_self_us = 0.0;  // gibbs.sample_streaming_batch minus its child spans
  std::uint64_t records = 0;

  void Add(const std::vector<dplearn::obs::SpanRecord>& records_in) {
    std::unordered_map<std::uint64_t, double> child_us;
    for (const auto& r : records_in) child_us[r.parent_id] += r.dur_us;
    for (const auto& r : records_in) {
      const std::string name = r.name;
      durations[name].push_back(r.dur_us);
      const auto child = child_us.find(r.span_id);
      const double self = r.dur_us - (child == child_us.end() ? 0.0 : child->second);
      if (name == "gibbs.sample_batch") batch_self_us += self;
      if (name == "gibbs.sample_streaming_batch") stream_self_us += self;
    }
    records += records_in.size();
  }
  double P50(const std::string& name) const {
    const auto it = durations.find(name);
    return it == durations.end() ? 0.0 : Median(it->second);
  }
  std::size_t Count(const std::string& name) const {
    const auto it = durations.find(name);
    return it == durations.end() ? 0 : it->second.size();
  }
};

std::uint64_t CounterValue(const char* name) {
  return dplearn::obs::GlobalMetrics().GetCounter(name)->Value();
}

int Run(const Flags& flags) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (flags.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload \"%s\"\n", flags.workload.c_str());
    return 2;
  }
  ::mkdir(".bench_build", 0755);
  if (::mkdir(flags.out_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", flags.out_dir.c_str());
    return 2;
  }
  const std::vector<int> cpus = AffinityCpus();
  const std::size_t nproc = std::max<std::size_t>(1, cpus.size());
  const std::size_t clients = std::min<std::size_t>(4, nproc);
  const std::string socket_path =
      flags.out_dir + "/s" + std::to_string(::getpid()) + ".sock";

  std::string cpu_list;
  for (const int cpu : cpus) cpu_list += (cpu_list.empty() ? "" : ",") + std::to_string(cpu);
  std::printf(
      "{\"context\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %s, "
      "\"nproc\": %zu, \"affinity\": %s, \"clients\": %zu, \"server_workers\": %zu, "
      "\"build_type\": %s, \"dplearn_march\": %s, \"simd_flavor\": %s, \"compiler\": %s, "
      "\"mix\": {\"release\": %g, \"gibbs\": %g, \"append\": %g}, \"gibbs_dataset\": %s, "
      "\"lambda\": %g, \"gibbs_max_count\": %u, \"append_dataset\": %s, "
      "\"offered_rps\": %g, \"slo_us\": %g, \"tenants_per_client\": %zu}}\n",
      JsonString(spec->name).c_str(), static_cast<unsigned long long>(flags.seed),
      JsonNumber(flags.seconds).c_str(), flags.trace ? "true" : "false", nproc,
      JsonString(cpu_list).c_str(), clients, clients, JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(PERFBENCH_MARCH).c_str(),
      JsonString(dplearn::simd::SimdFlavorName(dplearn::simd::ActiveSimdFlavor())).c_str(),
      JsonString(__VERSION__).c_str(), spec->mix.release, spec->mix.gibbs,
      spec->mix.append, JsonString(kLarge).c_str(), kLambda,
      spec->gibbs_max_count, JsonString(spec->append_dataset).c_str(), spec->offered_rps,
      spec->slo_us, spec->tenants_per_client);

  // Set-up, several times; each earlier deployment is torn down again.
  constexpr int kSetups = 9;
  std::vector<double> setup_s;
  Datasets datasets;
  Deployment d;
  std::vector<CheckFailure> setup_failures;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) {
      for (auto& client : d.clients) {
        for (const Tenant& t : client->tenants) {
          for (const CheckFailure& f : t.checker.failures()) setup_failures.push_back(f);
        }
      }
      TearDown(&d);
    }
    const double start = NowUs();
    d = SetUp(*spec, flags, clients, socket_path, &datasets);
    setup_s.push_back((NowUs() - start) / 1e6);
    if (d.server == nullptr || !d.failures.empty()) break;
  }
  d.failures.insert(d.failures.end(), setup_failures.begin(), setup_failures.end());
  if (d.server == nullptr) {
    for (const CheckFailure& f : d.failures) {
      std::fprintf(stderr, "perfbench: %s: %s\n", f.check.c_str(), f.detail.c_str());
    }
    return 1;
  }

  const double s = flags.seconds;
  auto run_phase = [&](bool keep_latency, auto body) -> PhaseStats {
    std::vector<PhaseStats> stats(clients);
    for (PhaseStats& one : stats) one.keep_latency = keep_latency;
    OnEveryClient(d.clients, [&](Client& c, std::size_t i) { body(c, i, &stats[i]); });
    PhaseStats merged;
    for (const PhaseStats& one : stats) merged.Merge(one);
    return merged;
  };
  const auto windows = [](double seconds, std::size_t count, std::size_t round,
                          double delay_us) {
    return Windows{NowUs() + delay_us, seconds * 1e6 / static_cast<double>(count), count,
                   round * count};
  };
  auto closed = [&](double seconds, std::size_t count, std::size_t round, std::size_t depth,
                    bool keep_latency) {
    const Windows w = windows(seconds, count, round, 0.0);
    return run_phase(keep_latency,
                     [&w, depth, clients](Client& c, std::size_t i, PhaseStats* st) {
                       if (c.paced) {
                         OpenLoop(c, w, c.open_rate, OpenLoopPhaseUs(c, i, clients), st);
                       } else {
                         ClosedLoop(c, w, depth, st);
                       }
                     });
  };
  auto open = [&](double seconds, std::size_t count, std::size_t round, bool keep_latency) {
    const Windows w = windows(seconds, count, round, 2e3);
    return run_phase(keep_latency, [&](Client& c, std::size_t i, PhaseStats* st) {
      OpenLoop(c, w, c.open_rate, OpenLoopPhaseUs(c, i, clients), st);
    });
  };

  PrimeStreams(*spec, datasets, &d);
  PhaseStats all;
  const PhaseStats warm = open(0.1 * s, 1, 0, false);
  all.Merge(warm);
  std::printf("%s\n", PhaseJson("warm-up", warm).c_str());
  const auto cache_before = dplearn::perf::RiskProfileCache::Global().stats();
  const std::uint64_t requests_before = CounterValue("service.requests");
  const std::uint64_t batched_before = CounterValue("service.batched_requests");
  const std::uint64_t batched_draws_before = CounterValue("service.batched_draws");

  std::vector<Metric> metrics;
  bool enough_samples = true;
  if (!flags.trace) {
    // The phases alternate, so a stretch of host interference shorter than
    // a few rounds lands in a minority of the latency groups and throughput
    // windows, whose medians set it aside.
    PhaseStats latency;
    PhaseStats throughput;
    double rss_mb = 0.0;
    for (std::size_t round = 0; round < kRounds; ++round) {
      latency.Merge(open(kLatencyShare * s / kRounds, 1, round, true));
      // Read before the first closed loop, whose request count (and so the
      // ledgers' size) depends on the host's speed; the open loops' do not.
      if (round == 0) rss_mb = PeakRssMb();
      throughput.Merge(closed(kThroughputShare * s / kRounds, kThroughputWindows / kRounds,
                              round, kThroughputDepth, false));
    }
    all.Merge(latency);
    all.Merge(throughput);
    std::printf("%s\n%s\n", PhaseJson("latency", latency).c_str(),
                PhaseJson("throughput", throughput).c_str());
    std::vector<double> late = latency.late_us;
    std::printf("{\"loadgen.late_p99_us\": %s}\n", JsonNumber(Quantile(&late, 0.99)).c_str());
    metrics.push_back({"setup_s", Median(setup_s), "s"});
    for (const Op op : {kRelease, kGibbs, kAppend}) {
      const std::string name = kOpNames[op];
      enough_samples &= LatencyMetric(latency, op, 0.50, name + "_p50_us", &metrics);
      // The tails are printed with their sample counts but are not gated
      // metrics: on a shared 4-CPU host CPU steal moves them several-fold
      // between runs of the same code (README.md, "Tail percentiles").
      enough_samples &= LatencyMetric(latency, op, 0.90, name + "_p90_us", nullptr);
      enough_samples &= LatencyMetric(latency, op, 0.99, name + "_p99_us", nullptr);
    }
    metrics.push_back({"slo_met_frac",
                       static_cast<double>(latency.slo_met) /
                           static_cast<double>(std::max<std::uint64_t>(1, latency.Sent())),
                       "frac"});
    const auto [rps, dps] = Throughput(throughput, kThroughputShare * s / kThroughputWindows);
    metrics.push_back({"peak_rps", rps, "1/s"});
    metrics.push_back({"draws_per_s", dps, "1/s"});
    metrics.push_back({"peak_rss_mb", rss_mb, "MB"});
  } else {
    // Spans stay in per-thread rings until collected after each window.
    dplearn::obs::SetTracingEnabled(true);
    dplearn::obs::SetTraceBufferEnabled(true);
    dplearn::obs::ClearTraceBuffers();
    SpanSummary open_spans;
    PhaseStats latency = open(std::min(0.2 * s, kMaxOpenTracedS), 1, 0, true);
    // Server spans close after the answer is written; let the last ones land.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    open_spans.Add(dplearn::obs::CollectSpanRecords());
    all.Merge(latency);

    // Alternate untraced and traced closed-loop windows for the overhead.
    SpanSummary call_spans;
    PhaseStats untraced;
    PhaseStats traced;
    ProcessUsage usage_total;
    const double chunk_s = std::min(0.05 * s, kMaxClosedTracedS);
    for (int round = 0; round < kTraceRounds; ++round) {
      dplearn::obs::SetTracingEnabled(false);
      const ProcessUsage before = ProcessUsage::Now();
      const PhaseStats u = closed(chunk_s, 1, 0, 1, true);
      const ProcessUsage after = ProcessUsage::Now();
      usage_total.cpu_ms += after.cpu_ms - before.cpu_ms;
      usage_total.switches += after.switches - before.switches;
      untraced.Merge(u);
      dplearn::obs::SetTracingEnabled(true);
      dplearn::obs::ClearTraceBuffers();
      traced.Merge(closed(chunk_s, 1, 0, 1, true));
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      call_spans.Add(dplearn::obs::CollectSpanRecords());
    }
    // A short last window only for the Chrome trace file, which holds
    // every retained span. Its requests are checked but stay out of the
    // span-derived metrics, whose spans it does not add to.
    dplearn::obs::ClearTraceBuffers();
    all.Merge(closed(kChromeTraceWindowS, 1, 0, 1, true));
    dplearn::obs::SetTracingEnabled(false);
    all.Merge(untraced);
    all.Merge(traced);
    std::printf("%s\n%s\n%s\n", PhaseJson("traced-latency", latency).c_str(),
                PhaseJson("untraced-closed", untraced).c_str(),
                PhaseJson("traced-closed", traced).c_str());
    const std::string trace_path = flags.out_dir + "/trace-" + spec->name + ".json";
    const auto written = dplearn::obs::WriteChromeTrace(trace_path);
    std::printf("{\"chrome_trace\": %s, \"written\": %s, \"span_records\": %llu}\n",
                JsonString(trace_path).c_str(), written.ok() ? "true" : "false",
                static_cast<unsigned long long>(open_spans.records + call_spans.records));

    // Read before the replays, which look the risk profile up themselves.
    const auto cache = dplearn::perf::RiskProfileCache::Global().stats();
    const double requests = static_cast<double>(CounterValue("service.requests") -
                                                requests_before);
    const double batched = static_cast<double>(CounterValue("service.batched_requests") -
                                               batched_before);
    std::printf("{\"counters\": {\"service.requests\": %.0f, \"service.batched_requests\": "
                "%.0f, \"service.batched_draws\": %llu, \"risk_cache.hits\": %llu, "
                "\"risk_cache.misses\": %llu}}\n",
                requests, batched,
                static_cast<unsigned long long>(CounterValue("service.batched_draws") -
                                                batched_draws_before),
                static_cast<unsigned long long>(cache.hits - cache_before.hits),
                static_cast<unsigned long long>(cache.misses - cache_before.misses));

    // Layer replays on the captured inputs.
    ReplayInputs inputs;
    inputs.gibbs_data = &datasets.served.at(kLarge);
    inputs.append_data = &datasets.served.at(spec->append_dataset);
    inputs.release_data = &datasets.served.at(kSmall);
    inputs.lambda = kLambda;
    inputs.release_epsilon = kReleaseEpsilon;
    // An equal share from every client, whose mixes may differ.
    const std::size_t share = Connection::kCaptureLimit / clients;
    for (auto& client : d.clients) {
      Client& c = *client;
      for (std::size_t i = 0; i < c.requests.size(); ++i) {
        const Request& r = c.requests[i];
        if (i < share) inputs.requests.push_back(r);
        if (r.opcode == Opcode::kGibbsSample) inputs.gibbs_counts.push_back(r.count);
        if (r.opcode == Opcode::kRelease) inputs.release_counts.push_back(r.count);
      }
      inputs.response_payloads.insert(
          inputs.response_payloads.end(), c.payloads.begin(),
          c.payloads.begin() + static_cast<std::ptrdiff_t>(std::min(share, c.payloads.size())));
      inputs.spends.insert(inputs.spends.end(), c.spends.begin(), c.spends.end());
      inputs.appended.insert(inputs.appended.end(), c.appended.begin(), c.appended.end());
    }
    std::map<std::string, double> layer = ReplayLayers(inputs, 0.2 * s);

    // Attribution follows the Gibbs sample, the operation both workloads are
    // built around.
    constexpr Op primary = kGibbs;
    const char* run_span = "service.gibbs_run";
    SpanSummary spans = open_spans;
    for (const auto& [name, values] : call_spans.durations) {
      std::vector<double>& merged = spans.durations[name];
      merged.insert(merged.end(), values.begin(), values.end());
    }
    const double traced_batch = static_cast<double>(latency.batch_draws + traced.batch_draws);
    const double traced_stream =
        static_cast<double>(latency.stream_draws + traced.stream_draws);
    const double batch_self = open_spans.batch_self_us + call_spans.batch_self_us;
    const double stream_self = open_spans.stream_self_us + call_spans.stream_self_us;
    // Trace-measured where the workload takes that path; replayed otherwise.
    if (traced_batch > 0) layer["core.sample_ns_per_draw"] = batch_self * 1e3 / traced_batch;
    if (traced_stream > 0) {
      layer["core.stream_sample_ns_per_draw"] = stream_self * 1e3 / traced_stream;
    }
    if (spans.Count("gibbs.risk_profile") > 0) {
      layer["perf.risk_profile_us"] = spans.P50("gibbs.risk_profile");
    }
    const double hits = static_cast<double>(cache.hits - cache_before.hits);
    const double misses = static_cast<double>(cache.misses - cache_before.misses);
    const double gibbs_runs = static_cast<double>(spans.Count("service.gibbs_run"));
    const double draws_per_run = gibbs_runs > 0 ? (traced_batch + traced_stream) / gibbs_runs
                                                : 0.0;
    const std::vector<double>& primary_untraced = untraced.latency_us[primary];
    const std::vector<double>& primary_traced = traced.latency_us[primary];
    const double call_p50 = call_spans.P50(kCallSpans[primary]);
    const double run_p50 = call_spans.P50(run_span);
    const double completed = static_cast<double>(untraced.Sent());
    std::vector<double> late = latency.late_us;
    const double theta_count = static_cast<double>(
        datasets.served.at(kLarge).hypotheses.size());

    metrics = {
        {"service.run_p50_us", spans.P50(run_span), "us"},
        {"service.outside_run_p50_us", call_p50 - run_p50, "us"},
        {"service.coalesced_frac", requests > 0 ? batched / requests : 0.0, "frac"},
        {"service.draws_per_run", draws_per_run, "count"},
        {"service.encode_ns", layer["service.encode_ns"], "ns"},
        {"service.decode_ns", layer["service.decode_ns"], "ns"},
        {"service.spend_ns", layer["service.spend_ns"], "ns"},
        {"core.estimator_create_us", layer["core.estimator_create_us"], "us"},
        {"core.sample_ns_per_draw", layer["core.sample_ns_per_draw"], "ns"},
        {"core.stream_sample_ns_per_draw", layer["core.stream_sample_ns_per_draw"], "ns"},
        {"perf.cache_hit_frac", hits + misses > 0 ? hits / (hits + misses) : 0.0, "frac"},
        {"perf.risk_profile_us", layer["perf.risk_profile_us"], "us"},
        {"perf.cache_fills", static_cast<double>(cache.misses), "count"},
        {"learning.risk_profile_full_us", layer["learning.risk_profile_full_us"], "us"},
        {"learning.append_us", layer["learning.append_us"], "us"},
        {"learning.snapshot_us", layer["learning.snapshot_us"], "us"},
        {"simd.tilt_ns", layer["simd.tilt_ns"], "ns"},
        {"simd.gumbel_ns", layer["simd.gumbel_ns"], "ns"},
        {"sampling.uniform_batch_ns", layer["sampling.uniform_batch_ns"], "ns"},
        // Gumbel-max per draw writes |Θ| uniforms and reads them with |Θ|
        // log-weights; the tilt reads risks and log-prior and writes the
        // log-weights once per run: 8-byte doubles throughout.
        {"simd.bytes_per_draw",
         24.0 * theta_count + (draws_per_run > 0 ? 24.0 * theta_count / draws_per_run : 0.0),
         "B"},
        {"mechanisms.laplace_ns_per_draw", layer["mechanisms.laplace_ns_per_draw"], "ns"},
        {"process.cpu_ms_per_kreq", completed > 0 ? usage_total.cpu_ms * 1e3 / completed : 0.0,
         "ms"},
        {"process.ctx_switches_per_req", completed > 0 ? usage_total.switches / completed : 0.0,
         "count"},
        {"loadgen.late_p99_us", Quantile(&late, 0.99), "us"},
        {"loadgen.posterior_reuse_frac",
         all.gibbs_requests > 0 ? static_cast<double>(all.posterior_reused) /
                                      static_cast<double>(all.gibbs_requests)
                                : 0.0,
         "frac"},
        {"trace.overhead_frac", Median(primary_traced) / Median(primary_untraced) - 1.0, "frac"},
        {"trace.attributed_frac",
         call_p50 > 0
             ? (run_p50 + call_spans.P50("loadgen.encode") + call_spans.P50("loadgen.decode")) /
                   call_p50
             : 0.0,
         "frac"},
    };
    if (!written.ok()) d.failures.push_back({"chrome_trace", written.ToString()});
  }

  std::uint64_t denials = 0;
  const std::vector<CheckFailure> failures = FinalChecks(*spec, d, datasets, all, &denials);
  TearDown(&d);
  if (flags.trace) metrics.push_back({"service.denials", static_cast<double>(denials), "count"});
  for (const CheckFailure& f : failures) {
    std::fprintf(stderr, "perfbench: CHECK FAILED %s: %s\n", f.check.c_str(), f.detail.c_str());
  }
  if (!enough_samples) return 3;
  std::printf("%s\n", ResultLine(failures.empty(), all.Sent(), all.Failed(), metrics).c_str());
  std::fflush(stdout);
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", arg.c_str());
      return 2;
    }
    const char* value = argv[++i];
    if (arg == "--workload") {
      flags.workload = value;
    } else if (arg == "--seed") {
      flags.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      flags.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      flags.trace = std::strcmp(value, "1") == 0;
    } else if (arg == "--out-dir") {
      flags.out_dir = value;
    } else {
      std::fprintf(stderr,
                   "usage: perfbench_loadgen --workload NAME --seed N --seconds S "
                   "--trace 0|1 [--out-dir DIR]\n");
      return 2;
    }
  }
  if (!(flags.seconds > 0.0) || flags.seconds > 120.0) {
    std::fprintf(stderr, "perfbench: --seconds must be in (0, 120]\n");
    return 2;
  }
  // Room for every span one traced window records per thread.
  setenv("DPLEARN_TRACE_BUFFER_CAP", "131072", 1);
  return perfbench::Run(flags);
}
