// Live radio server: runs a city scenario through the streaming engine in
// simulated real time and serves the decoded tag data — station PS name,
// tag RadioText, FSK payload link stats, per-link BLER — over a local TCP
// socket, the way a deployment gateway would publish poster sightings.
//
// Protocol (line-oriented, one client at a time, 127.0.0.1 only):
//   STATUS\n  -> one JSON line: uptime, station RDS, every decoded link
//   QUIT\n    -> BYE, connection closes
// A request line longer than 256 bytes gets ERR and the connection closes;
// a client idle for 2 s is disconnected, so it cannot hold up the others.
//
// Modes:
//   (default)        daemon: real-time city run (--minutes N, default 10;
//                    --port P, default 7337), serves until the run ends
//   --smoke          CI acceptance: short accelerated run on an ephemeral
//                    port, checks an over-long request line is refused,
//                    holds an idle connection open, self-queries STATUS,
//                    verifies the station PS name and an FSK payload
//                    decoded and the idle client closed, exits 0/1
//   --soak           CI memory gate: 60 s simulated city run (accelerated),
//                    asserts the streaming engine's bounded-buffer ledger
//                    is duration-invariant (within 1.1x of a 5 s run)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/fmbs.h"
#include "core/streaming.h"

namespace {

using namespace fmbs;

// ---- The served scenario ----------------------------------------------------

/// City block the server simulates: one RDS broadcaster, a RadioText poster
/// announcing itself once at the start, and FSK data posters bursting every
/// few seconds; a phone gateway on the backscatter channel and a car radio
/// on the broadcast. The RadioText tag count is fixed (its ~seconds-long
/// waveform dominates per-tag buffering) so the soak ledger stays
/// duration-invariant; the FSK waves it adds are ~40 ms each.
core::Scenario city_scene(double duration_seconds) {
  core::Scenario sc;
  sc.name = "radio-server";
  sc.duration = units::Seconds{duration_seconds};
  sc.seed = 7337;
  core::ScenarioStation station;
  station.config.program.stereo = false;
  station.config.rds_level = 0.05;
  station.config.rds_ps_name = "FMBS SRV";
  station.power = units::Dbm{-25.0};
  sc.stations = {station};

  core::ScenarioTag rt;
  rt.name = "poster-rt";
  rt.rds_radiotext = "FMBS DEMO RT";
  rt.start = units::Seconds{0.3};
  rt.distance_override = units::Feet{4.0};
  sc.tags.push_back(rt);

  for (std::size_t k = 0; 1.0 + 7.0 * static_cast<double>(k) + 0.2 <=
                          duration_seconds &&
                          k < 64;
       ++k) {
    core::ScenarioTag t;
    t.name = "poster" + std::to_string(k);
    t.num_bits = 64;
    t.packet_bits = 32;
    t.start = units::Seconds{1.0 + 7.0 * static_cast<double>(k)};
    t.distance_override = units::Feet{4.0};
    sc.tags.push_back(std::move(t));
  }

  sc.receivers.push_back(core::phone_listening_to(sc.tags[0].subcarrier));
  core::ScenarioReceiver car;
  car.name = "car";
  car.kind = core::ReceiverKind::kCar;
  car.tune_offset = units::Hertz{0.0};  // the broadcast itself (default is the
                             // backscatter channel)
  sc.receivers.push_back(std::move(car));
  return sc;
}

// ---- Decoded-data feed (shared engine-thread / server-thread state) ---------

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Latest decoded state, updated from the engine's on_link callback
/// (consumer threads) and snapshotted to JSON by the server thread.
class TagFeed {
 public:
  void record(const core::StreamingLinkEvent& ev) {
    const std::lock_guard<std::mutex> lock(m_);
    last_event_seconds_ = ev.stream_seconds;
    ++events_;
    if (ev.kind == core::StreamingLinkEvent::Kind::kStationRds) {
      station_[ev.receiver_index] = ev;
    } else {
      links_[{ev.receiver_index, ev.tag_index}] = ev;
    }
  }

  void finish() {
    const std::lock_guard<std::mutex> lock(m_);
    running_ = false;
  }

  std::string status_json(double uptime_seconds) const {
    const std::lock_guard<std::mutex> lock(m_);
    std::ostringstream out;
    out << "{\"running\": " << (running_ ? "true" : "false")
        << ", \"uptime_seconds\": " << uptime_seconds
        << ", \"events\": " << events_
        << ", \"last_event_seconds\": " << last_event_seconds_
        << ", \"stations\": [";
    bool first = true;
    for (const auto& [rx, ev] : station_) {
      if (!std::exchange(first, false)) out << ", ";
      out << "{\"receiver\": " << rx << ", \"ps\": \""
          << json_escape(ev.link.rds ? ev.link.rds->ps_name : "")
          << "\", \"radiotext\": \""
          << json_escape(ev.link.rds ? ev.link.rds->radiotext : "")
          << "\", \"bler\": " << (ev.link.rds ? ev.link.rds->bler : 1.0)
          << "}";
    }
    out << "], \"links\": [";
    first = true;
    for (const auto& [key, ev] : links_) {
      if (!std::exchange(first, false)) out << ", ";
      out << "{\"receiver\": " << key.first << ", \"tag\": " << key.second
          << ", \"kind\": \""
          << (ev.kind == core::StreamingLinkEvent::Kind::kRdsBurst ? "rds"
                                                                   : "fsk")
          << "\", \"at_seconds\": " << ev.stream_seconds
          << ", \"ber\": " << ev.link.burst.ber.ber
          << ", \"bits_delivered\": " << ev.link.burst.bits_delivered
          << ", \"goodput_bps\": " << ev.link.goodput_bps;
      if (ev.link.rds) {
        out << ", \"bler\": " << ev.link.rds->bler << ", \"radiotext\": \""
            << json_escape(ev.link.rds->radiotext) << "\"";
      }
      out << "}";
    }
    out << "]}";
    return out.str();
  }

 private:
  mutable std::mutex m_;
  bool running_ = true;
  std::size_t events_ = 0;
  double last_event_seconds_ = 0.0;
  std::map<std::size_t, core::StreamingLinkEvent> station_;
  std::map<std::pair<std::size_t, std::size_t>, core::StreamingLinkEvent>
      links_;
};

// ---- TCP plumbing -----------------------------------------------------------

int make_listener(uint16_t port, uint16_t* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 4) < 0) {
    ::close(fd);
    return -1;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    *bound_port = ntohs(addr.sin_port);
  }
  return fd;
}

/// How long the server waits for a client's next byte before closing it:
/// clients are served one at a time, so an idle one would block every other
/// STATUS poll.
constexpr int kClientIdleSeconds = 2;

void set_receive_timeout(int fd, int seconds) {
  timeval timeout{};
  timeout.tv_sec = seconds;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
}

/// Longest request line the server buffers; a client that sends more before
/// its newline is answered ERR and disconnected, so a peer that never sends
/// '\n' cannot grow the server's memory.
constexpr std::size_t kMaxLineBytes = 256;

enum class LineRead { kLine, kClosed, kTooLong };

/// Reads one '\n'-terminated line of at most `max_bytes` (CR dropped). A
/// receive timeout reads as kClosed.
LineRead read_line(int fd, std::string* line, std::size_t max_bytes) {
  line->clear();
  char c = 0;
  while (true) {
    const ssize_t n = ::recv(fd, &c, 1, 0);
    if (n <= 0) return LineRead::kClosed;
    if (c == '\n') return LineRead::kLine;
    if (c == '\r') continue;
    if (line->size() == max_bytes) return LineRead::kTooLong;
    line->push_back(c);
  }
}

void send_all(int fd, const std::string& s) {
  std::size_t off = 0;
  while (off < s.size()) {
    const ssize_t n = ::send(fd, s.data() + off, s.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

/// Accept loop; exits when the listener is shut down. One client at a time —
/// a STATUS poll is a one-round-trip conversation — and a client silent for
/// kClientIdleSeconds is closed.
void serve(int listen_fd, const TagFeed& feed,
           std::chrono::steady_clock::time_point start) {
  while (true) {
    const int client = ::accept(listen_fd, nullptr, nullptr);
    if (client < 0) return;  // listener closed: server is done
    set_receive_timeout(client, kClientIdleSeconds);
    std::string line;
    while (true) {
      const LineRead read = read_line(client, &line, kMaxLineBytes);
      if (read == LineRead::kClosed) break;
      if (read == LineRead::kTooLong) {
        send_all(client, "ERR request line too long\n");
        break;
      }
      if (line == "STATUS") {
        const double uptime =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        send_all(client, feed.status_json(uptime) + "\n");
      } else if (line == "QUIT") {
        send_all(client, "BYE\n");
        break;
      } else {
        send_all(client, "ERR unknown command (STATUS|QUIT)\n");
      }
    }
    ::close(client);
  }
}

// ---- Modes ------------------------------------------------------------------

int run_daemon(double duration_seconds, uint16_t port, bool real_time,
               bool announce) {
  TagFeed feed;
  uint16_t bound = 0;
  const int listen_fd = make_listener(port, &bound);
  if (listen_fd < 0) {
    std::cerr << "radio_server: cannot listen on 127.0.0.1:" << port << "\n";
    return 1;
  }
  if (announce) {
    std::cerr << "radio_server: 127.0.0.1:" << bound << ", "
              << duration_seconds << " s simulated city run"
              << (real_time ? " (real time)" : "") << "\n";
  }
  const auto start = std::chrono::steady_clock::now();
  std::thread server(serve, listen_fd, std::cref(feed), start);

  core::StreamingConfig cfg;
  cfg.real_time = real_time;
  cfg.on_link = [&feed](const core::StreamingLinkEvent& ev) {
    feed.record(ev);
  };
  int status = 0;
  try {
    const core::ScenarioResult result =
        core::StreamingEngine(cfg).run(city_scene(duration_seconds));
    feed.finish();
    if (announce) {
      std::cerr << "radio_server: run complete, aggregate goodput "
                << result.aggregate_goodput_bps << " bps\n";
    }
  } catch (const std::exception& e) {
    feed.finish();
    std::cerr << "radio_server: engine failed: " << e.what() << "\n";
    status = 1;
  }
  ::shutdown(listen_fd, SHUT_RDWR);
  ::close(listen_fd);
  server.join();
  return status;
}

/// A client socket connected to a local server, or -1.
int connect_local(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// True when the peer closes `fd` within its receive timeout.
bool closed_by_peer(int fd) {
  char c = 0;
  const ssize_t n = ::recv(fd, &c, 1, 0);
  return n == 0 || (n < 0 && errno == ECONNRESET);
}

/// One STATUS round trip against a local server; "" when unanswered within
/// 10 s, so a server that never answers fails the check instead of hanging
/// it.
std::string query_status(uint16_t port) {
  const int fd = connect_local(port);
  if (fd < 0) return "";
  set_receive_timeout(fd, 10);
  send_all(fd, "STATUS\n");
  std::string line;
  const bool ok = read_line(fd, &line, line.max_size()) == LineRead::kLine;
  send_all(fd, "QUIT\n");
  ::close(fd);
  return ok ? line : "";
}

/// Sends a 300-byte request line: the server must answer ERR and close the
/// connection (checked with a receive timeout, so a server that keeps it
/// open fails instead of hanging the check).
bool long_line_refused(uint16_t port) {
  const int fd = connect_local(port);
  if (fd < 0) return false;
  set_receive_timeout(fd, 10);
  send_all(fd, std::string(300, 'S') + "\n");
  std::string reply;
  const bool answered =
      read_line(fd, &reply, reply.max_size()) == LineRead::kLine &&
                        reply.rfind("ERR", 0) == 0;
  const bool closed = closed_by_peer(fd);
  ::close(fd);
  return answered && closed;
}

int run_smoke() {
  // Accelerated 3 s run on an ephemeral port; the engine thread is the
  // daemon, this thread is the client.
  TagFeed feed;
  uint16_t port = 0;
  const int listen_fd = make_listener(0, &port);
  if (listen_fd < 0) {
    std::cerr << "smoke FAIL: cannot bind a loopback socket\n";
    return 1;
  }
  const auto start = std::chrono::steady_clock::now();
  std::thread server(serve, listen_fd, std::cref(feed), start);
  core::StreamingConfig cfg;
  cfg.on_link = [&feed](const core::StreamingLinkEvent& ev) {
    feed.record(ev);
  };
  std::thread engine([&feed, &cfg] {
    core::StreamingEngine(cfg).run(city_scene(3.0));
    feed.finish();
  });
  const bool refused = long_line_refused(port);

  // A client that connects and never speaks: the server must time it out,
  // or every STATUS poll below waits behind it.
  const int idle = connect_local(port);

  // Poll STATUS until the run finishes (bounded by a generous wall cap); an
  // unanswered poll ends the loop.
  std::string status;
  for (int i = 0; i < 600; ++i) {
    status = query_status(port);
    if (status.empty() ||
        status.find("\"running\": false") != std::string::npos) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  bool idle_closed = false;
  if (idle >= 0) {
    set_receive_timeout(idle, 10);
    idle_closed = closed_by_peer(idle);
    ::close(idle);
  }
  engine.join();
  ::shutdown(listen_fd, SHUT_RDWR);
  ::close(listen_fd);
  server.join();

  std::cerr << "smoke status: " << status << "\n";
  if (!refused) {
    std::cerr << "smoke FAIL: over-long request line not refused with ERR "
                 "and a close\n";
    return 1;
  }
  if (status.find("\"running\": false") == std::string::npos) {
    std::cerr << "smoke FAIL: run never completed over the socket\n";
    return 1;
  }
  if (!idle_closed) {
    std::cerr << "smoke FAIL: idle client not closed by the server\n";
    return 1;
  }
  if (status.find("\"ps\": \"FMBS SRV\"") == std::string::npos) {
    std::cerr << "smoke FAIL: station PS name not served\n";
    return 1;
  }
  if (status.find("\"radiotext\": \"FMBS DEMO RT\"") == std::string::npos) {
    std::cerr << "smoke FAIL: tag RadioText not served\n";
    return 1;
  }
  if (status.find("\"kind\": \"fsk\"") == std::string::npos) {
    std::cerr << "smoke FAIL: no FSK payload link served\n";
    return 1;
  }
  std::cerr << "smoke OK\n";
  return 0;
}

int run_soak() {
  // 60 s simulated city run, accelerated; the O(1)-memory gate is the
  // engine's own bounded-buffer ledger: a 12x longer run may cost at most
  // 10% more buffering than a 5 s run.
  core::StreamingEngine engine{core::StreamingConfig{}};
  const auto short_bytes =
      engine.run(city_scene(5.0)).scene.streaming_peak_buffer_bytes;
  const core::ScenarioResult long_run = engine.run(city_scene(60.0));
  const auto long_bytes = long_run.scene.streaming_peak_buffer_bytes;
  std::cerr << "soak: 5 s run " << short_bytes << " bytes, 60 s run "
            << long_bytes << " bytes\n";
  if (short_bytes == 0 || long_bytes == 0) {
    std::cerr << "soak FAIL: no bounded-buffer ledger reported\n";
    return 1;
  }
  if (static_cast<double>(long_bytes) >
      1.1 * static_cast<double>(short_bytes)) {
    std::cerr << "soak FAIL: streaming buffer grows with duration\n";
    return 1;
  }
  std::size_t links = 0;
  for (const auto& rr : long_run.receivers) links += rr.links.size();
  if (links == 0) {
    std::cerr << "soak FAIL: 60 s run decoded nothing\n";
    return 1;
  }
  std::cerr << "soak OK: " << links << " links decoded at O(1) buffering\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  double minutes = 10.0;
  uint16_t port = 7337;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") return run_smoke();
    if (arg == "--soak") return run_soak();
    if (arg == "--minutes" && i + 1 < argc) minutes = std::stod(argv[++i]);
    if (arg == "--port" && i + 1 < argc) {
      port = static_cast<uint16_t>(std::stoi(argv[++i]));
    }
  }
  return run_daemon(minutes * 60.0, port, /*real_time=*/true,
                    /*announce=*/true);
}
