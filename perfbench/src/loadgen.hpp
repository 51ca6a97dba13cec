// Open-loop load generation over real loopback sockets.
//
// The schedule is fixed before the run: Poisson arrivals drawn from the
// seed, each naming one request body. One sender thread writes each request
// at its scheduled time (or as soon after as it can, recording how late it
// was) round-robin over 3 pipelined connections; one receiver thread
// decodes response frames from all of them. Latency is measured from the
// scheduled send time, so a stall anywhere — server, socket, or the sender
// itself — is charged to every request it delays (no coordinated omission).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// Sleeps, then spins, until the steady clock reads `target_ns`.
void wait_until(std::int64_t target_ns);

/// Arrival offsets in nanoseconds from the start of the run: a Poisson
/// process of `rate` requests per second over `seconds`, conditioned on
/// exactly round(rate * seconds) arrivals. Identical for an identical seed.
std::vector<std::int64_t> poisson_schedule(std::uint64_t seed, double rate, double seconds);

enum class Status : std::uint8_t {
  kPending,   // never answered: counted as dropped
  kOk,
  kError,     // status="error", wrong frame type, or wrong protocol
  kMangled,   // response could not be decoded or echoed a foreign id
  kMismatch,  // well-formed answer that disagrees with the oracle
};

struct Outcome {
  std::int64_t sent_ns = 0;  // actual send time (absolute steady clock)
  std::int64_t done_ns = 0;  // response received
  Status status = Status::kPending;
};

/// Judges one response payload for request body `body`.
using Checker = std::function<Status(std::uint32_t body, std::string_view payload)>;

struct OpenLoopConfig {
  std::uint16_t port = 0;
  /// When set, each request is registered here before it is written so
  /// the front broker's spans can name it.
  RequestJoin* join = nullptr;
  /// Test seam: runs on the sender thread before request i is written.
  std::function<void(std::size_t i)> before_send;
  /// Runs on the receiver thread about every 50 ms.
  std::function<void()> tick;
};

struct OpenLoopResult {
  std::vector<Outcome> outcomes;  // one per scheduled request
  std::uint64_t foreign_frames = 0;  // frames whose id matched nothing sent there
};

/// Runs the schedule: request i is body `plan[i]`, due at `start_ns +
/// at[i]`, sent on connection i % 3 with request id i + 1.
/// Returns when every request is answered or 10 s after the last is due.
OpenLoopResult run_open_loop(const OpenLoopConfig& config,
                             const std::vector<std::string>& bodies,
                             const std::vector<std::uint32_t>& plan,
                             const std::vector<std::int64_t>& at, const Checker& check,
                             std::int64_t start_ns);

}  // namespace perfbench
