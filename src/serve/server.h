#ifndef TASFAR_SERVE_SERVER_H_
#define TASFAR_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "serve/session_manager.h"
#include "util/thread_pool.h"

namespace tasfar::serve {

/// Server limits and listen address.
struct ServerConfig {
  /// TCP port to listen on (loopback only). 0 picks an ephemeral port;
  /// read the actual one back with Server::port().
  uint16_t port = 0;
  /// Concurrent client connections beyond which accepts are closed
  /// immediately (`tasfar.serve.connections.rejected`).
  size_t max_connections = 64;
  /// Upper bound on how long one send() to a client may block the thread
  /// answering it (SO_SNDTIMEO): the network thread for cheap requests, a
  /// compute lane for Predict. A client that stops reading its socket hits
  /// this and is dropped, so it stalls at most one thread for this long
  /// instead of head-of-line-blocking every other tenant. 0 disables the
  /// timeout (tests only).
  uint32_t write_timeout_ms = 5000;
  ManagerConfig manager;
};

/// The TASFAR adaptation server (docs/SERVING.md).
///
/// One BackgroundThread (the network thread) runs a poll() loop over the
/// listen socket and all client connections, decoding frames
/// (serve/protocol.h) and answering the cheap requests against the
/// SessionManager itself. Predict frames go to a FIFO stage served by
/// GetNumThreads() compute lanes (BackgroundThreads), which decode,
/// predict, encode and send the reply; while a connection's Predict is on
/// the stage the network thread neither polls nor dispatches that
/// connection, so pipelined replies stay in order and the stage holds at
/// most one request per connection (a FIFO is then round-robin across
/// connections). A self-pipe wakes poll() when a lane finishes. Adapt
/// requests only *enqueue* onto the manager's JobRunner, so no thread the
/// server owns blocks on a fine-tune; Predict and adapt compute fans out
/// through the global ParallelFor pool with the calling lane as one of its
/// lanes (docs/SERVING.md §Threading).
///
/// A connection whose first bytes are "GET " is treated as a plain-HTTP
/// probe, routed by path (`/metrics` Prometheus text, `/sessions` the
/// per-tenant table, `/healthz` liveness; anything else 404), answered,
/// and closed — usable with a stock scraper, curl, or tasfar_top.
class Server {
 public:
  /// `source_model` and `calibration` are shared (read-only) by every
  /// session and must outlive the server.
  Server(const Sequential* source_model, const SourceCalibration* calibration,
         const TasfarOptions& options, const ServerConfig& config);

  /// Stops and joins if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Registers the calibration sessions created with `backend` adapt
  /// against (the ctor's `calibration` covers `options.uncertainty_backend`
  /// only). Creates requesting an unregistered backend are rejected with
  /// `bad_request`. Call before Start(); `calibration` must outlive the
  /// server.
  void RegisterBackendCalibration(UncertaintyBackend backend,
                                  const SourceCalibration* calibration) {
    manager_.RegisterBackendCalibration(backend, calibration);
  }

  /// Binds, listens, and starts the network thread and the compute lanes
  /// (one per GetNumThreads() lane at this point). IoError when the socket
  /// setup fails (e.g. port in use).
  Status Start();

  /// Stops the network thread, lets each compute lane finish (and answer)
  /// the Predict it is running, drops staged ones, then closes every
  /// connection. Idempotent.
  void Stop();

  /// The bound port (valid after a successful Start).
  uint16_t port() const { return bound_port_; }

  SessionManager& manager() { return manager_; }

 private:
  /// Per-connection decode state.
  struct Connection {
    FrameReader reader;
    /// First bytes, held until protocol-vs-HTTP is decided (and, for
    /// HTTP, until the request line is complete enough to route).
    std::string sniff;
    bool decided = false;
    /// Decided as HTTP; still accumulating the request line in `sniff`.
    bool http = false;
    /// A Predict from this connection is on the stage or a compute lane;
    /// until the lane hands it back the connection is not polled and its
    /// buffered frames wait.
    bool predict_staged = false;
  };

  /// One Predict waiting for, or running on, a compute lane.
  struct PredictJob {
    int fd = -1;
    Frame frame;
    uint64_t staged_us = 0;  ///< MonotonicMicros when it was staged.
  };

  /// A Predict a lane has answered, handed back to the network thread.
  struct FinishedPredict {
    int fd = -1;
    bool keep = true;  ///< False: the network thread closes the connection.
  };

  void NetLoop();
  void AcceptOne();
  /// Feeds freshly read bytes; false when the connection must close.
  bool HandleInput(int fd, Connection* conn, const char* data, size_t n);
  /// Dispatches the complete frames buffered on `conn` until it needs more
  /// bytes or a Predict goes on the stage; false closes the connection.
  bool DispatchFrames(int fd, Connection* conn);
  /// Runs `handler` for one frame of `type`; an exception costs only the
  /// connection (answered with internal_error, returns false).
  bool Guarded(int fd, MessageType type, const std::function<bool()>& handler);
  /// Dispatches one decoded non-Predict frame; false closes the connection.
  bool HandleFrame(int fd, const Frame& frame);
  /// Puts `frame` on the stage and parks its connection.
  void StagePredict(int fd, Connection* conn, Frame frame);
  /// Body of each compute lane: serves the stage until Stop.
  void ComputeLoop();
  /// Answers one staged Predict on the calling lane; false closes.
  bool RunPredict(const PredictJob& job);
  /// Network thread: un-parks the connections whose Predict finished and
  /// dispatches the frames they buffered meanwhile.
  void ResumeFinished();
  /// Makes the network thread's poll() return.
  void WakeNetLoop();
  /// Answers one routed HTTP GET (always closes: returns false).
  bool HandleHttpGet(int fd, const std::string& request);
  bool SendFrame(int fd, MessageType type, const std::string& payload);
  bool SendError(int fd, WireError code, const std::string& message);
  /// Maps a Status from the session layer onto the wire (`adapt` selects
  /// kServerBusy vs kBudgetExceeded for OutOfRange by origin).
  bool SendStatusError(int fd, const Status& status, bool adapt_context);
  bool WriteAll(int fd, const char* data, size_t n);
  void CloseConnection(int fd);

  bool HandleCreateSession(int fd, const std::string& payload);
  bool HandleSubmitTargetData(int fd, const std::string& payload);
  bool HandleAdapt(int fd, const std::string& payload);
  bool HandleQuerySession(int fd, const std::string& payload);
  bool HandlePredict(int fd, const std::string& payload);
  bool HandleSaveSession(int fd, const std::string& payload);
  bool HandleRestoreSession(int fd, const std::string& payload);
  bool HandleCloseSession(int fd, const std::string& payload);
  bool HandleInspectSession(int fd, const std::string& payload);

  const ServerConfig config_;
  SessionManager manager_;

  int listen_fd_ = -1;
  uint16_t bound_port_ = 0;
  std::atomic<bool> stop_{false};
  /// Owned by the network thread (and by Stop once it has joined it).
  std::map<int, Connection> connections_;
  /// Self-pipe: lanes write a byte, the network thread polls [0].
  int wake_fds_[2] = {-1, -1};

  std::mutex stage_mu_;
  std::condition_variable stage_cv_;
  std::deque<PredictJob> stage_;
  std::vector<FinishedPredict> finished_;
  bool stage_stop_ = false;

  std::unique_ptr<BackgroundThread> net_thread_;
  std::vector<std::unique_ptr<BackgroundThread>> compute_lanes_;
};

}  // namespace tasfar::serve

#endif  // TASFAR_SERVE_SERVER_H_
