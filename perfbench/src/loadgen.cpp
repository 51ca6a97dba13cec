#include "loadgen.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "util/prng.hpp"

namespace perfbench {

namespace net = hxrc::net;

std::vector<std::int64_t> poisson_schedule(std::uint64_t seed, double rate, double seconds) {
  std::vector<std::int64_t> at;
  if (rate <= 0 || seconds <= 0) return at;
  // A Poisson process conditioned on its expected count: n + 1 exponential
  // gaps, rescaled so the (n+1)-th arrival lands at `seconds`. The arrival
  // times are then n uniform order statistics over the window, so offered
  // load does not vary from seed to seed by the count's own noise.
  const auto n = static_cast<std::size_t>(std::llround(rate * seconds));
  hxrc::util::Prng rng(seed);
  std::vector<double> sums;
  sums.reserve(n + 1);
  double t = 0;
  for (std::size_t i = 0; i <= n; ++i) {
    t += -std::log1p(-rng.uniform01());
    sums.push_back(t);
  }
  at.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    at.push_back(static_cast<std::int64_t>(sums[i] / t * seconds * 1e9));
  }
  return at;
}

namespace {

void send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("send failed");
    }
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace

void wait_until(std::int64_t target_ns) {
  for (;;) {
    const std::int64_t left = target_ns - now_ns();
    if (left <= 0) return;
    if (left > 200'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100'000));
    } else {
      std::this_thread::yield();
    }
  }
}

namespace {

constexpr std::size_t kMaxPayload = std::size_t{64} << 20;
/// Pipelined connections per run.
constexpr std::size_t kConnections = 3;
/// How long after the last scheduled send to wait for stragglers.
constexpr std::int64_t kGraceNs = 10'000'000'000;

}  // namespace

OpenLoopResult run_open_loop(const OpenLoopConfig& config,
                             const std::vector<std::string>& bodies,
                             const std::vector<std::uint32_t>& plan,
                             const std::vector<std::int64_t>& at, const Checker& check,
                             std::int64_t start_ns) {
  const std::size_t n = plan.size();
  const std::size_t conns = kConnections;
  std::vector<net::Socket> sockets;
  for (std::size_t c = 0; c < conns; ++c) {
    sockets.push_back(net::connect_tcp("127.0.0.1", config.port));
    net::set_nodelay(sockets.back().fd());
  }

  OpenLoopResult result;
  result.outcomes.resize(n);
  std::atomic<bool> sender_done{false};
  const std::int64_t last_due = start_ns + (at.empty() ? 0 : at.back());

  std::thread receiver([&] {
    std::vector<std::string> inbuf(conns);
    std::vector<std::size_t> offset(conns, 0);
    std::vector<pollfd> fds(conns);
    for (std::size_t c = 0; c < conns; ++c) fds[c] = pollfd{sockets[c].fd(), POLLIN, 0};
    std::size_t answered = 0;
    std::int64_t next_tick = now_ns();
    char chunk[1 << 16];
    while (answered < n) {
      if (config.tick && now_ns() >= next_tick) {
        config.tick();
        next_tick = now_ns() + 50'000'000;
      }
      if (::poll(fds.data(), fds.size(), 20) <= 0) {
        if (sender_done.load(std::memory_order_acquire) &&
            now_ns() > last_due + kGraceNs) {
          break;
        }
        continue;
      }
      for (std::size_t c = 0; c < conns; ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const ssize_t got = ::recv(fds[c].fd, chunk, sizeof chunk, MSG_DONTWAIT);
        if (got <= 0) {
          if (got < 0 && (errno == EAGAIN || errno == EINTR)) continue;
          fds[c].fd = -1;  // closed: whatever is unanswered there is dropped
          continue;
        }
        inbuf[c].append(chunk, static_cast<std::size_t>(got));
        for (;;) {
          const std::string_view view =
              std::string_view(inbuf[c]).substr(offset[c]);
          net::DecodeResult decoded = net::decode_frame(view, kMaxPayload);
          if (decoded.status == net::DecodeStatus::kNeedMore) break;
          if (decoded.status != net::DecodeStatus::kFrame) {
            ++result.foreign_frames;  // undecodable stream: drop the connection
            fds[c].fd = -1;
            break;
          }
          offset[c] += decoded.consumed;
          const std::int64_t done = now_ns();
          const std::uint32_t id = decoded.frame.request_id;
          if (id == 0 || id > n || (id - 1) % conns != c ||
              result.outcomes[id - 1].status != Status::kPending) {
            ++result.foreign_frames;
            continue;
          }
          Outcome& out = result.outcomes[id - 1];
          out.done_ns = done;
          out.status = decoded.frame.type == net::FrameType::kResponse
                           ? check(plan[id - 1], decoded.frame.payload)
                           : Status::kError;
          ++answered;
        }
        if (offset[c] > (1u << 20) && offset[c] * 2 > inbuf[c].size()) {
          inbuf[c].erase(0, offset[c]);
          offset[c] = 0;
        }
      }
    }
  });

  std::string frame;
  try {
    for (std::size_t i = 0; i < n; ++i) {
      wait_until(start_ns + at[i]);
      if (config.before_send) config.before_send(i);
      const std::size_t c = i % conns;
      if (config.join != nullptr) config.join->push(plan[i], static_cast<std::int64_t>(i));
      result.outcomes[i].sent_ns = now_ns();
      frame.clear();
      net::append_frame(frame, net::FrameType::kRequest, static_cast<std::uint32_t>(i + 1),
                        bodies[plan[i]]);
      send_all(sockets[c].fd(), frame);
    }
  } catch (...) {
    sender_done.store(true, std::memory_order_release);
    receiver.join();
    throw;
  }
  sender_done.store(true, std::memory_order_release);
  receiver.join();
  return result;
}

}  // namespace perfbench
