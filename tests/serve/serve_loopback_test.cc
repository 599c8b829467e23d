// Integration tier for the serving stack: a live Server on an ephemeral
// loopback port driven through the real Client. Proves the ISSUE's
// acceptance criteria: served predictions after an Adapt are
// byte-identical to the in-process pipeline at several thread counts,
// concurrent clients are isolated, and a killed adapt job degrades the
// session to source-model serving instead of killing it.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "core/tasfar.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/demo.h"
#include "serve/server.h"
#include "uncertainty/mc_dropout.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tasfar::serve {
namespace {

constexpr uint64_t kSessionSeed = 42;
constexpr uint64_t kAdaptSeed = 7;

// Trained once for the whole binary.
const DemoBundle& Bundle() {
  static const DemoBundle* bundle =
      new DemoBundle(BuildDemoBundle(/*source_samples=*/800,
                                     /*target_samples=*/200, /*epochs=*/6));
  return *bundle;
}

std::unique_ptr<Server> StartServer() {
  const DemoBundle& b = Bundle();
  ServerConfig config;
  config.port = 0;  // ephemeral
  auto server =
      std::make_unique<Server>(b.model.get(), &b.calibration, b.options, config);
  // Same registration the demo daemon performs: one calibration per
  // served backend, each fit on that backend's uncertainty scale.
  server->RegisterBackendCalibration(UncertaintyBackend::kDeepEnsemble,
                                     &b.ensemble_calibration);
  server->RegisterBackendCalibration(UncertaintyBackend::kLastLayerLaplace,
                                     &b.laplace_calibration);
  const Status s = server->Start();
  EXPECT_TRUE(s.ok()) << s.ToString();
  return server;
}

// Polls QuerySession until the session leaves kAdapting (50 ms period,
// generous deadline — the adapt job runs a real fine-tune).
bool WaitNotAdapting(Client* client, const std::string& user,
                     ClientSessionInfo* out) {
  for (int i = 0; i < 2400; ++i) {
    Result<ClientSessionInfo> info = client->QuerySession(user);
    if (!info.ok()) return false;
    if (info.value().state != SessionState::kAdapting &&
        info.value().state != SessionState::kCreated &&
        info.value().state != SessionState::kAccumulating) {
      *out = info.value();
      return true;
    }
    if (info.value().state == SessionState::kAccumulating &&
        info.value().adapt_runs > 0) {
      *out = info.value();
      return true;
    }
    ::poll(nullptr, 0, 50);
  }
  return false;
}

// The in-process reference: the exact pipeline the server runs, on clones
// of the same bundle. Returns the MC-dropout predictions the session's
// first post-adapt Predict must reproduce bit for bit.
std::vector<McPrediction> InProcessReference(const Tensor& adapt_rows,
                                             const Tensor& probe) {
  const DemoBundle& b = Bundle();
  std::unique_ptr<Sequential> model = b.model->CloneSequential();
  Rng rng(kAdaptSeed);
  TasfarReport report =
      Tasfar(b.options).Adapt(model.get(), b.calibration, adapt_rows, &rng);
  EXPECT_FALSE(report.skipped);
  EXPECT_FALSE(report.fell_back) << report.fallback_reason;
  McDropoutPredictor predictor(report.target_model.get(), b.options.mc_samples,
                               /*batch_size=*/64, kSessionSeed);
  return predictor.Predict(probe);
}

// --- byte identity ----------------------------------------------------------

TEST(ServeLoopbackTest, PredictAfterAdaptIsByteIdenticalAcrossThreadCounts) {
  const DemoBundle& b = Bundle();
  const Tensor adapt_rows = b.target_rows.SliceRows(0, 200);
  const Tensor probe = b.target_rows.SliceRows(0, 8);
  const uint32_t cols = static_cast<uint32_t>(probe.dim(1));

  const size_t original_threads = GetNumThreads();
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SetNumThreads(threads);

    const std::vector<McPrediction> expected =
        InProcessReference(adapt_rows, probe);

    std::unique_ptr<Server> server = StartServer();
    Client client;
    ASSERT_TRUE(client.Connect(server->port()).ok());
    ASSERT_TRUE(
        client.CreateSession("alice", kSessionSeed, cols).ok());
    ASSERT_TRUE(client
                    .SubmitTargetData("alice", 200, cols, adapt_rows.data())
                    .ok());
    ASSERT_TRUE(client.Adapt("alice", kAdaptSeed).ok());
    ClientSessionInfo info;
    ASSERT_TRUE(WaitNotAdapting(&client, "alice", &info));
    ASSERT_EQ(info.state, SessionState::kAdapted)
        << "degraded: " << info.degraded_reason;

    Result<ClientPrediction> served =
        client.Predict("alice", 8, cols, probe.data());
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_TRUE(served.value().from_adapted);
    ASSERT_EQ(served.value().predictions.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      // Doubles travel as bit patterns; == here is bit equality for the
      // finite values the pipeline produces.
      EXPECT_EQ(served.value().predictions[i].mean, expected[i].mean)
          << "row " << i;
      EXPECT_EQ(served.value().predictions[i].std, expected[i].std)
          << "row " << i;
    }
    server->Stop();
  }
  SetNumThreads(original_threads);
}

// --- uncertainty backends over the wire (ISSUE 10) --------------------------

TEST(ServeLoopbackTest, EveryBackendAdaptsAndPredictsOverTheWire) {
  const DemoBundle& b = Bundle();
  const Tensor adapt_rows = b.target_rows.SliceRows(0, 200);
  const Tensor probe = b.target_rows.SliceRows(0, 6);
  const uint32_t cols = static_cast<uint32_t>(probe.dim(1));

  std::unique_ptr<Server> server = StartServer();
  Client client;
  ASSERT_TRUE(client.Connect(server->port()).ok());
  for (const UncertaintyBackend backend :
       {UncertaintyBackend::kMcDropout, UncertaintyBackend::kDeepEnsemble,
        UncertaintyBackend::kLastLayerLaplace}) {
    const std::string user =
        std::string("wire-") + UncertaintyBackendName(backend);
    SCOPED_TRACE(user);
    ASSERT_TRUE(
        client.CreateSession(user, kSessionSeed, cols, /*budget_bytes=*/0,
                             backend)
            .ok());
    Result<ClientSessionInfo> created = client.QuerySession(user);
    ASSERT_TRUE(created.ok());
    EXPECT_EQ(created.value().backend, UncertaintyBackendName(backend));

    ASSERT_TRUE(
        client.SubmitTargetData(user, 200, cols, adapt_rows.data()).ok());
    ASSERT_TRUE(client.Adapt(user, kAdaptSeed).ok());
    ClientSessionInfo info;
    ASSERT_TRUE(WaitNotAdapting(&client, user, &info));
    ASSERT_EQ(info.state, SessionState::kAdapted)
        << "degraded: " << info.degraded_reason;

    Result<ClientPrediction> served =
        client.Predict(user, 6, cols, probe.data());
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_TRUE(served.value().from_adapted);
    ASSERT_EQ(served.value().predictions.size(), 6u);
    for (const WirePrediction& p : served.value().predictions) {
      for (const double m : p.mean) EXPECT_TRUE(std::isfinite(m));
      for (const double s : p.std) {
        EXPECT_TRUE(std::isfinite(s));
        EXPECT_GE(s, 0.0);
      }
    }
  }
}

TEST(ServeLoopbackTest, UnknownBackendByteIsRejectedAtCreate) {
  std::unique_ptr<Server> server = StartServer();
  Client client;
  ASSERT_TRUE(client.Connect(server->port()).ok());
  const Status st = client.CreateSession(
      "mallory", kSessionSeed, 8, /*budget_bytes=*/0,
      static_cast<UncertaintyBackend>(7));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(client.last_wire_error(), WireError::kBadRequest);
  // The connection (and the server) survived the bad byte.
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.CreateSession("mallory", kSessionSeed, 8).ok());
}

TEST(ServeLoopbackTest, BackendWithoutCalibrationIsRejectedAtCreate) {
  // A server given only the ctor calibration (no demo registrations)
  // serves exactly options.uncertainty_backend — a session on any other
  // backend would adapt against a mismatched uncertainty scale, so the
  // create is refused as bad_request rather than degrading later.
  const DemoBundle& b = Bundle();
  ServerConfig config;
  config.port = 0;
  Server server(b.model.get(), &b.calibration, b.options, config);
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  const uint32_t cols = static_cast<uint32_t>(b.target_rows.dim(1));
  const Status st =
      client.CreateSession("u", kSessionSeed, cols, /*budget_bytes=*/0,
                           UncertaintyBackend::kLastLayerLaplace);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(client.last_wire_error(), WireError::kBadRequest);
  // The default backend still creates fine.
  EXPECT_TRUE(client.CreateSession("u", kSessionSeed, cols).ok());
}

// --- distributed tracing & per-session telemetry ----------------------------

// In-process reference pipeline run, for comparing InspectSession's final
// adapt sample bit-for-bit.
TasfarReport ReferenceReport(const Tensor& adapt_rows) {
  const DemoBundle& b = Bundle();
  std::unique_ptr<Sequential> model = b.model->CloneSequential();
  Rng rng(kAdaptSeed);
  return Tasfar(b.options).Adapt(model.get(), b.calibration, adapt_rows, &rng);
}

// Extracts (name, trace_id) pairs from an exported Chrome trace: the
// exporter writes one JSON object per line, so a line-oriented scan is
// exact enough without a JSON library.
std::vector<std::pair<std::string, uint64_t>> NamedTraceIds(
    const std::string& path) {
  std::ifstream in(path);
  std::vector<std::pair<std::string, uint64_t>> out;
  std::string line;
  while (std::getline(in, line)) {
    const size_t name_at = line.find("\"name\": \"");
    const size_t id_at = line.find("\"trace_id\": ");
    if (name_at == std::string::npos || id_at == std::string::npos) continue;
    const size_t name_begin = name_at + 9;
    const size_t name_end = line.find('"', name_begin);
    out.emplace_back(
        line.substr(name_begin, name_end - name_begin),
        std::strtoull(line.c_str() + id_at + 12, nullptr, 10));
  }
  return out;
}

TEST(ServeLoopbackTest, OneTraceIdLinksClientServerAdaptJobAndPoolLeaves) {
  // ISSUE acceptance: a single trace id links the client call span, the
  // server dispatch span, the background adapt-job span, and the
  // ParallelFor leaf spans — asserted from the *exported* trace JSON.
  const bool was_tracing = obs::TracingEnabled();
  obs::SetTracingEnabled(true);
  obs::ClearTraceEvents();
  const size_t original_threads = GetNumThreads();
  SetNumThreads(2);  // chunk spans exist only on the queued-worker path

  const DemoBundle& b = Bundle();
  const Tensor adapt_rows = b.target_rows.SliceRows(0, 200);
  const uint32_t cols = static_cast<uint32_t>(adapt_rows.dim(1));
  {
    std::unique_ptr<Server> server = StartServer();
    Client client;
    ASSERT_TRUE(client.Connect(server->port()).ok());
    ASSERT_TRUE(client.CreateSession("traced", kSessionSeed, cols).ok());
    ASSERT_TRUE(
        client.SubmitTargetData("traced", 200, cols, adapt_rows.data()).ok());
    ASSERT_TRUE(client.Adapt("traced", kAdaptSeed).ok());
    ClientSessionInfo info;
    ASSERT_TRUE(WaitNotAdapting(&client, "traced", &info));
    ASSERT_EQ(info.state, SessionState::kAdapted)
        << "degraded: " << info.degraded_reason;
    server->Stop();
  }
  SetNumThreads(original_threads);

  const std::string path = ::testing::TempDir() + "/tasfar_serve_trace.json";
  ASSERT_TRUE(obs::WriteChromeTrace(path));
  const auto named = NamedTraceIds(path);
  std::remove(path.c_str());
  obs::ClearTraceEvents();
  obs::SetTracingEnabled(was_tracing);

  // The adapt job ran exactly once; its trace id is the linking key.
  uint64_t adapt_trace = 0;
  for (const auto& [name, id] : named) {
    if (name != "serve.adapt_job") continue;
    EXPECT_EQ(adapt_trace, 0u) << "more than one adapt-job span";
    adapt_trace = id;
  }
  ASSERT_NE(adapt_trace, 0u);

  std::map<std::string, int> with_adapt_trace;
  for (const auto& [name, id] : named) {
    if (id == adapt_trace) ++with_adapt_trace[name];
  }
  // One client call (the kAdapt round trip, traced over the wire), one
  // server dispatch, one job, and at least one pool leaf per parallel
  // stage of the pipeline — all under the same id.
  EXPECT_EQ(with_adapt_trace["serve.client.call"], 1);
  EXPECT_EQ(with_adapt_trace["serve.request"], 1);
  EXPECT_EQ(with_adapt_trace["serve.adapt_job"], 1);
  EXPECT_GE(with_adapt_trace["thread_pool.chunk"], 1);
}

TEST(ServeLoopbackTest, InspectSessionFinalSampleIsByteExactAcrossThreads) {
  // ISSUE acceptance: the final InspectSession adapt sample matches the
  // in-process pipeline's quality metrics byte-exactly, at 1/2/8 threads.
  obs::SetMetricsEnabled(true);
  const DemoBundle& b = Bundle();
  const Tensor adapt_rows = b.target_rows.SliceRows(0, 200);
  const uint32_t cols = static_cast<uint32_t>(adapt_rows.dim(1));

  const size_t original_threads = GetNumThreads();
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SetNumThreads(threads);

    const TasfarReport ref = ReferenceReport(adapt_rows);
    ASSERT_FALSE(ref.fell_back);
    ASSERT_FALSE(ref.skipped);

    std::unique_ptr<Server> server = StartServer();
    Client client;
    ASSERT_TRUE(client.Connect(server->port()).ok());
    ASSERT_TRUE(client.CreateSession("inspect", kSessionSeed, cols).ok());
    ASSERT_TRUE(
        client.SubmitTargetData("inspect", 200, cols, adapt_rows.data()).ok());
    ASSERT_TRUE(client.Adapt("inspect", kAdaptSeed).ok());
    ClientSessionInfo info;
    ASSERT_TRUE(WaitNotAdapting(&client, "inspect", &info));
    ASSERT_EQ(info.state, SessionState::kAdapted);

    Result<ClientSessionTelemetry> t = client.InspectSession("inspect");
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    EXPECT_EQ(t.value().state, SessionState::kAdapted);
    ASSERT_FALSE(t.value().adapt_samples.empty());
    const AdaptSample& got = t.value().adapt_samples.back();

    // Reference values via the same formulas the gauges use. Doubles
    // crossed the wire as bit patterns, so == is bit equality.
    const size_t split_total = ref.num_confident + ref.num_uncertain;
    const double want_ratio =
        split_total == 0 ? 0.0
                         : static_cast<double>(ref.num_uncertain) /
                               static_cast<double>(split_total);
    double credibility_sum = 0.0;
    for (const PseudoLabel& pl : ref.pseudo_labels) {
      credibility_sum += pl.credibility;
    }
    const double want_credibility =
        ref.pseudo_labels.empty()
            ? 0.0
            : credibility_sum / static_cast<double>(ref.pseudo_labels.size());

    EXPECT_EQ(got.outcome, 0u);  // AdaptOutcome::kAdapted
    EXPECT_EQ(got.adapt_run, 1u);
    EXPECT_EQ(got.uncertain_ratio, want_ratio);
    EXPECT_EQ(got.mean_credibility, want_credibility);
    ASSERT_TRUE(ref.density_map.has_value());
    EXPECT_EQ(got.density_total_mass, ref.density_map->TotalMass());
    EXPECT_EQ(got.density_mean_sigma, ref.density_mean_sigma);
    ASSERT_FALSE(ref.history.empty());
    EXPECT_EQ(got.final_loss, ref.history.back().train_loss);
    EXPECT_EQ(got.epochs, ref.history.size());
    ASSERT_EQ(got.epoch_loss_count,
              std::min(ref.history.size(), kEpochLossSlots));
    for (size_t i = 0; i < got.epoch_loss_count; ++i) {
      EXPECT_EQ(got.epoch_losses[i],
                ref.history[ref.history.size() - got.epoch_loss_count + i]
                    .train_loss);
    }

    // The flight ring tells the same story over the wire.
    ASSERT_FALSE(t.value().flight_events.empty());
    bool saw_completed = false;
    for (const ClientFlightEvent& ev : t.value().flight_events) {
      if (ev.code_name == "adapt_completed") saw_completed = true;
    }
    EXPECT_TRUE(saw_completed);
    EXPECT_TRUE(t.value().last_dump.empty());  // never degraded
    server->Stop();
  }
  SetNumThreads(original_threads);
}

// --- concurrent clients -----------------------------------------------------

TEST(ServeLoopbackTest, ConcurrentClientsAreIsolated) {
  const DemoBundle& b = Bundle();
  const Tensor probe = b.target_rows.SliceRows(0, 4);
  const uint32_t cols = static_cast<uint32_t>(probe.dim(1));
  std::unique_ptr<Server> server = StartServer();
  const uint16_t port = server->port();

  constexpr size_t kClients = 4;
  std::vector<ClientPrediction> results(kClients);
  std::vector<Status> outcomes(kClients,
                               Status::Internal("thread never ran"));
  {
    std::vector<std::unique_ptr<BackgroundThread>> threads;
    for (size_t i = 0; i < kClients; ++i) {
      threads.push_back(std::make_unique<BackgroundThread>(
          "loopback-client-" + std::to_string(i),
          [i, port, cols, &probe, &results, &outcomes] {
            const std::string user = "user-" + std::to_string(i);
            Client client;
            Status s = client.Connect(port);
            if (!s.ok()) {
              outcomes[i] = s;
              return;
            }
            s = client.CreateSession(user, kSessionSeed, cols);
            if (!s.ok()) {
              outcomes[i] = s;
              return;
            }
            Result<ClientPrediction> pred =
                client.Predict(user, 4, cols, probe.data());
            if (!pred.ok()) {
              outcomes[i] = pred.status();
              return;
            }
            results[i] = pred.value();
            outcomes[i] = Status::Ok();
          }));
    }
  }  // joins all clients

  for (size_t i = 0; i < kClients; ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << "client " << i << ": "
                                  << outcomes[i].ToString();
    ASSERT_EQ(results[i].predictions.size(), 4u);
    EXPECT_FALSE(results[i].from_adapted);
  }
  // Same source model, same session seed, same first call: every client
  // sees identical predictions — sessions do not bleed into each other.
  for (size_t i = 1; i < kClients; ++i) {
    for (size_t r = 0; r < 4; ++r) {
      EXPECT_EQ(results[i].predictions[r].mean, results[0].predictions[r].mean);
      EXPECT_EQ(results[i].predictions[r].std, results[0].predictions[r].std);
    }
  }
  EXPECT_EQ(server->manager().NumSessions(), kClients);
}

// --- graceful degradation ---------------------------------------------------

TEST(ServeLoopbackTest, KilledAdaptJobLeavesSessionServingSource) {
  obs::SetMetricsEnabled(true);
  const DemoBundle& b = Bundle();
  const Tensor rows = b.target_rows.SliceRows(0, 50);
  const Tensor probe = b.target_rows.SliceRows(0, 3);
  const uint32_t cols = static_cast<uint32_t>(rows.dim(1));

  std::unique_ptr<Server> server = StartServer();
  Client client;
  ASSERT_TRUE(client.Connect(server->port()).ok());
  ASSERT_TRUE(client.CreateSession("bob", kSessionSeed, cols).ok());
  ASSERT_TRUE(client.SubmitTargetData("bob", 50, cols, rows.data()).ok());

  const uint64_t degraded_before =
      obs::Registry::Get().GetCounter("tasfar.serve.session.degraded")->value();
  ASSERT_TRUE(failpoint::Configure("serve.adapt_job").ok());
  ASSERT_TRUE(client.Adapt("bob", kAdaptSeed).ok());
  ClientSessionInfo info;
  const bool finished = WaitNotAdapting(&client, "bob", &info);
  failpoint::Disable();
  ASSERT_TRUE(finished);

  EXPECT_EQ(info.state, SessionState::kDegraded);
  EXPECT_FALSE(info.degraded_reason.empty());
  EXPECT_EQ(
      obs::Registry::Get().GetCounter("tasfar.serve.session.degraded")->value(),
      degraded_before + 1);

  // The session is degraded, not dead: predictions flow from the source
  // replica.
  Result<ClientPrediction> pred = client.Predict("bob", 3, cols, probe.data());
  ASSERT_TRUE(pred.ok()) << pred.status().ToString();
  EXPECT_FALSE(pred.value().from_adapted);

  // And the metrics endpoint reports the degradation.
  Result<std::string> metrics = client.GetMetrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics.value().find("tasfar_serve_session_degraded"),
            std::string::npos);
}

// --- wire-level error behavior ----------------------------------------------

// Bare socket speaking raw frames — for payloads the Client refuses to
// build (it derives lengths from real data, so it cannot lie about them).
class RawConnection {
 public:
  ~RawConnection() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }

  bool Send(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t w =
          ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (w <= 0) return false;
      off += static_cast<size_t>(w);
    }
    return true;
  }

  int fd() const { return fd_; }

  bool ReadFrame(Frame* frame) {
    for (;;) {
      switch (reader_.Next(frame)) {
        case FrameReader::ReadResult::kFrame: return true;
        case FrameReader::ReadResult::kError: return false;
        case FrameReader::ReadResult::kNeedMore: break;
      }
      char buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return false;
      reader_.Append(buf, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  FrameReader reader_;
};

// --- compute lanes (docs/SERVING.md §Threading) ----------------------------

// A kPredict frame for `rows` rows of the demo target data, cycled.
std::string PredictFrame(const std::string& user, uint32_t rows) {
  const Tensor& src = Bundle().target_rows;
  const size_t cols = src.dim(1);
  PayloadWriter w;
  w.PutString(user);
  w.PutU32(rows);
  w.PutU32(static_cast<uint32_t>(cols));
  for (size_t i = 0; i < rows * cols; ++i) {
    w.PutDouble(src.data()[i % src.size()]);
  }
  return EncodeFrame(MessageType::kPredict, w.Take());
}

std::string UserFrame(MessageType type, const std::string& user) {
  PayloadWriter w;
  w.PutString(user);
  return EncodeFrame(type, w.Take());
}

// Parks the next Predict to reach a compute lane (serve.predict_hold) and
// returns once it is parked; later Predicts pass. Release() lets it go.
class PredictHold {
 public:
  PredictHold() {
    EXPECT_TRUE(failpoint::Configure("serve.predict_hold").ok());
  }
  ~PredictHold() { Release(); }

  bool WaitParked() {
    for (int i = 0; i < 10000; ++i) {
      if (failpoint::StatsOf("serve.predict_hold").fires > 0) {
        // Still named, so the parked Predict stays put; p=0 lets the
        // next ones through.
        return failpoint::Configure("serve.predict_hold:p=0").ok();
      }
      ::poll(nullptr, 0, 1);
    }
    return false;
  }

  void Release() { failpoint::Disable(); }
};

// True when `fd` has bytes to read within `ms` milliseconds.
bool Readable(int fd, int ms) {
  pollfd p{fd, POLLIN, 0};
  return ::poll(&p, 1, ms) == 1;
}

TEST(ServeLoopbackTest, SmallPredictReturnsWhileALargeOneIsOnItsLane) {
  const size_t original_threads = GetNumThreads();
  SetNumThreads(2);  // Two compute lanes: one parked, one serving.
  const uint32_t cols = static_cast<uint32_t>(Bundle().target_rows.dim(1));
  {
    std::unique_ptr<Server> server = StartServer();
    Client light;
    ASSERT_TRUE(light.Connect(server->port()).ok());
    ASSERT_TRUE(light.CreateSession("light", kSessionSeed, cols).ok());
    ASSERT_TRUE(light.CreateSession("heavy", kSessionSeed, cols).ok());
    RawConnection heavy;
    ASSERT_TRUE(heavy.Connect(server->port()));

    PredictHold hold;
    ASSERT_TRUE(heavy.Send(PredictFrame("heavy", 2000)));
    ASSERT_TRUE(hold.WaitParked());
    const Tensor probe = Bundle().target_rows.SliceRows(0, 8);
    Result<ClientPrediction> small =
        light.Predict("light", 8, cols, probe.data());
    ASSERT_TRUE(small.ok()) << small.status().ToString();
    EXPECT_EQ(small.value().predictions.size(), 8u);
    // The 2,000-row Predict is still on its lane: no reply yet.
    EXPECT_FALSE(Readable(heavy.fd(), 0));

    hold.Release();
    Frame resp;
    ASSERT_TRUE(heavy.ReadFrame(&resp));
    ASSERT_EQ(resp.type, MessageType::kPredictResponse);
    PayloadReader r(resp.payload);
    uint8_t from_adapted = 0;
    uint32_t rows = 0;
    ASSERT_TRUE(r.GetU8(&from_adapted));
    ASSERT_TRUE(r.GetU32(&rows));
    EXPECT_EQ(rows, 2000u);
    server->Stop();
  }
  SetNumThreads(original_threads);
}

TEST(ServeLoopbackTest, PipelinedPredictAndQueryAreAnsweredInOrder) {
  const uint32_t cols = static_cast<uint32_t>(Bundle().target_rows.dim(1));
  std::unique_ptr<Server> server = StartServer();
  Client setup;
  ASSERT_TRUE(setup.Connect(server->port()).ok());
  ASSERT_TRUE(setup.CreateSession("pipe", kSessionSeed, cols).ok());
  RawConnection raw;
  ASSERT_TRUE(raw.Connect(server->port()));

  PredictHold hold;
  // One write: Predict, QuerySession, Predict, QuerySession.
  ASSERT_TRUE(raw.Send(PredictFrame("pipe", 4) +
                       UserFrame(MessageType::kQuerySession, "pipe") +
                       PredictFrame("pipe", 3) +
                       UserFrame(MessageType::kQuerySession, "pipe")));
  ASSERT_TRUE(hold.WaitParked());
  // The query behind the parked Predict waits for it, although the
  // network thread could answer it at once.
  EXPECT_FALSE(Readable(raw.fd(), 50));
  hold.Release();

  const MessageType expected[] = {
      MessageType::kPredictResponse, MessageType::kSessionInfoResponse,
      MessageType::kPredictResponse, MessageType::kSessionInfoResponse};
  uint32_t predicted_rows[] = {0, 0};
  size_t predicts = 0;
  for (const MessageType type : expected) {
    Frame resp;
    ASSERT_TRUE(raw.ReadFrame(&resp));
    ASSERT_EQ(resp.type, type);
    if (type == MessageType::kPredictResponse) {
      PayloadReader r(resp.payload);
      uint8_t from_adapted = 0;
      ASSERT_TRUE(r.GetU8(&from_adapted));
      ASSERT_TRUE(r.GetU32(&predicted_rows[predicts++]));
    }
  }
  EXPECT_EQ(predicted_rows[0], 4u);
  EXPECT_EQ(predicted_rows[1], 3u);
}

obs::Histogram* ComputeSpans() {
  return obs::Registry::Get().GetHistogram("tasfar.span.serve.compute.ms",
                                           obs::Histogram::LatencyEdgesMs());
}

TEST(ServeLoopbackTest, CloseSessionAndStopWithAPredictInFlightAreSafe) {
  obs::SetMetricsEnabled(true);
  const size_t original_threads = GetNumThreads();
  SetNumThreads(2);
  const uint32_t cols = static_cast<uint32_t>(Bundle().target_rows.dim(1));
  std::unique_ptr<Server> server = StartServer();
  Client admin;
  ASSERT_TRUE(admin.Connect(server->port()).ok());
  ASSERT_TRUE(admin.CreateSession("victim", kSessionSeed, cols).ok());

  // CloseSession from another connection: the in-flight Predict keeps the
  // session alive and is answered; the next one finds no session.
  {
    RawConnection raw;
    ASSERT_TRUE(raw.Connect(server->port()));
    PredictHold hold;
    ASSERT_TRUE(raw.Send(PredictFrame("victim", 16)));
    ASSERT_TRUE(hold.WaitParked());
    ASSERT_TRUE(admin.CloseSession("victim").ok());
    hold.Release();
    Frame resp;
    ASSERT_TRUE(raw.ReadFrame(&resp));
    EXPECT_EQ(resp.type, MessageType::kPredictResponse);
    ASSERT_TRUE(raw.Send(PredictFrame("victim", 16)));
    ASSERT_TRUE(raw.ReadFrame(&resp));
    EXPECT_EQ(resp.type, MessageType::kErrorResponse);
  }

  // The client hangs up mid-Predict. Its server-side fd stays open until
  // the lane is done, so new connections cannot be handed that fd number
  // and receive the orphaned reply.
  ASSERT_TRUE(admin.CreateSession("quitter", kSessionSeed, cols).ok());
  {
    PredictHold hold;
    {
      RawConnection quitter;
      ASSERT_TRUE(quitter.Connect(server->port()));
      ASSERT_TRUE(quitter.Send(PredictFrame("quitter", 500)));
      ASSERT_TRUE(hold.WaitParked());
    }  // Closes the client side.
    std::vector<std::unique_ptr<RawConnection>> fresh;
    for (int i = 0; i < 4; ++i) {
      fresh.push_back(std::make_unique<RawConnection>());
      ASSERT_TRUE(fresh.back()->Connect(server->port()));
      ASSERT_TRUE(fresh.back()->Send(EncodeFrame(MessageType::kPing, "")));
      Frame pong;
      ASSERT_TRUE(fresh.back()->ReadFrame(&pong));
      EXPECT_EQ(pong.type, MessageType::kPongResponse);
    }
    // `serve.compute` closes after the reply was sent.
    const uint64_t computed = ComputeSpans()->count();
    hold.Release();
    for (int i = 0; i < 10000 && ComputeSpans()->count() == computed; ++i) {
      ::poll(nullptr, 0, 1);
    }
    ASSERT_GT(ComputeSpans()->count(), computed);
    for (const auto& conn : fresh) {
      EXPECT_FALSE(Readable(conn->fd(), 20)) << "stray bytes";
    }
  }

  // Stop with a Predict parked on a lane: Stop releases it, the lane
  // answers before any fd closes, and the client then sees the reply
  // followed by EOF.
  {
    RawConnection raw;
    ASSERT_TRUE(raw.Connect(server->port()));
    ASSERT_TRUE(admin.CreateSession("last", kSessionSeed, cols).ok());
    PredictHold hold;
    ASSERT_TRUE(raw.Send(PredictFrame("last", 16)));
    ASSERT_TRUE(hold.WaitParked());
    server->Stop();
    Frame resp;
    ASSERT_TRUE(raw.ReadFrame(&resp));
    EXPECT_EQ(resp.type, MessageType::kPredictResponse);
    EXPECT_FALSE(raw.ReadFrame(&resp));  // EOF.
  }
  server.reset();
  SetNumThreads(original_threads);
}

TEST(ServeLoopbackTest, OverflowingRowCountsAreRejectedNotFatal) {
  std::unique_ptr<Server> server = StartServer();
  RawConnection raw;
  ASSERT_TRUE(raw.Connect(server->port()));

  // rows=2^31, cols=2^30: rows*cols*8 ≡ 0 (mod 2^64), so this empty
  // payload used to pass the length check; the resulting 2^61-element
  // vector then threw past the network thread and std::terminate'd the
  // whole daemon.
  PayloadWriter w;
  w.PutString("nobody");
  w.PutU32(0x80000000u);
  w.PutU32(0x40000000u);
  ASSERT_TRUE(
      raw.Send(EncodeFrame(MessageType::kSubmitTargetData, w.Take())));
  Frame resp;
  ASSERT_TRUE(raw.ReadFrame(&resp));
  ASSERT_EQ(resp.type, MessageType::kErrorResponse);
  PayloadReader r(resp.payload);
  uint16_t code = 0;
  std::string msg;
  ASSERT_TRUE(r.GetU16(&code));
  ASSERT_TRUE(r.GetString(&msg));
  EXPECT_EQ(static_cast<WireError>(code), WireError::kBadRequest);

  // The same wrap through the Predict path.
  PayloadWriter wp;
  wp.PutString("nobody");
  wp.PutU32(0x80000000u);
  wp.PutU32(0x40000000u);
  ASSERT_TRUE(raw.Send(EncodeFrame(MessageType::kPredict, wp.Take())));
  ASSERT_TRUE(raw.ReadFrame(&resp));
  EXPECT_EQ(resp.type, MessageType::kErrorResponse);

  // The connection — and the daemon — survived both.
  ASSERT_TRUE(raw.Send(EncodeFrame(MessageType::kPing, "")));
  ASSERT_TRUE(raw.ReadFrame(&resp));
  EXPECT_EQ(resp.type, MessageType::kPongResponse);
  Client client;
  ASSERT_TRUE(client.Connect(server->port()).ok());
  EXPECT_TRUE(client.Ping().ok());
}

TEST(ServeLoopbackTest, WhitespaceUserIdIsRejectedAtCreate) {
  std::unique_ptr<Server> server = StartServer();
  Client client;
  ASSERT_TRUE(client.Connect(server->port()).ok());
  EXPECT_FALSE(client.CreateSession("has space", 1, 8).ok());
  EXPECT_EQ(client.last_wire_error(), WireError::kBadRequest);
  EXPECT_FALSE(client.CreateSession("ctrl\x01id", 1, 8).ok());
  EXPECT_EQ(client.last_wire_error(), WireError::kBadRequest);
  // The connection survived; a clean id works.
  EXPECT_TRUE(client.CreateSession("dave", 1, 8).ok());
}

TEST(ServeLoopbackTest, ApplicationErrorsLeaveConnectionHealthy) {
  std::unique_ptr<Server> server = StartServer();
  Client client;
  ASSERT_TRUE(client.Connect(server->port()).ok());

  // Unknown session.
  EXPECT_FALSE(client.Adapt("ghost", 1).ok());
  EXPECT_EQ(client.last_wire_error(), WireError::kUnknownSession);

  // Duplicate create.
  ASSERT_TRUE(client.CreateSession("carol", 1, 8).ok());
  EXPECT_FALSE(client.CreateSession("carol", 1, 8).ok());
  EXPECT_EQ(client.last_wire_error(), WireError::kWrongState);

  // The connection survived both errors.
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.CloseSession("carol").ok());
}

TEST(ServeLoopbackTest, SessionCapRejectsWithServerBusy) {
  const DemoBundle& b = Bundle();
  ServerConfig config;
  config.port = 0;
  config.manager.max_sessions = 2;
  Server server(b.model.get(), &b.calibration, b.options, config);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  ASSERT_TRUE(client.CreateSession("a", 1, 8).ok());
  ASSERT_TRUE(client.CreateSession("b", 1, 8).ok());
  EXPECT_FALSE(client.CreateSession("c", 1, 8).ok());
  EXPECT_EQ(client.last_wire_error(), WireError::kServerBusy);

  // Closing one admits the next.
  ASSERT_TRUE(client.CloseSession("a").ok());
  EXPECT_TRUE(client.CreateSession("c", 1, 8).ok());
}

}  // namespace
}  // namespace tasfar::serve
