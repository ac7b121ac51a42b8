// Deterministic transport fault injection.
//
// FaultyTransport wraps any Transport and perturbs outbound frames
// according to a seeded FaultPlan: drop a frame, corrupt one byte (the
// CRC/magic checks must catch it), duplicate it, delay it, or hard-cut the
// connection. Faults apply per send() call — the wire layer sends one
// frame per call, so injection is frame-granular — and all draws come from
// an xbarlife::Rng, so a given (spec, stream) pair replays the exact same
// fault schedule on every run. That determinism is what lets the chaos
// tests assert a precise outcome (byte-identical completion or a stamped
// fallback) for every schedule instead of "usually works".
//
// Plans parse from compact specs, e.g.
//   "seed=7,drop=0.1,corrupt=0.05,dup=0.02,disconnect=0.01,delay_ms=1".
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/transport.hpp"

namespace xbarlife::net {

struct FaultPlan {
  std::uint64_t seed = 0;
  double drop = 0.0;        ///< P(frame silently discarded)
  double corrupt = 0.0;     ///< P(one byte XOR-flipped)
  double duplicate = 0.0;   ///< P(frame delivered twice)
  double disconnect = 0.0;  ///< P(connection hard-cut before the frame)
  double delay_ms = 0.0;    ///< fixed delay before every delivered frame

  bool any() const {
    return drop != 0.0 || corrupt != 0.0 || duplicate != 0.0 ||
           disconnect != 0.0 || delay_ms != 0.0;
  }

  /// Parses "key=value,..." with keys seed, drop, corrupt, dup,
  /// disconnect, delay_ms. Probabilities must lie in [0, 1]. An empty
  /// spec is the all-zero (transparent) plan. Throws InvalidArgument.
  static FaultPlan parse(const std::string& spec);

  /// Per-endpoint plans for a pool of `n` endpoints. A spec without ';'
  /// applies the same plan to every endpoint (each endpoint decorrelates
  /// via its transport streams); "specA;;specC" assigns segment i to
  /// endpoint i, missing/empty segments meaning a clean link — which is
  /// how a chaos test kills worker 2 of 3 while leaving its peers
  /// untouched. Throws InvalidArgument when the list names more
  /// endpoints than the pool has.
  static std::vector<FaultPlan> parse_list(const std::string& spec,
                                           std::size_t n);
};

/// Splits a ';'-separated per-endpoint fault-spec list into exactly `n`
/// single-endpoint specs (the string form of FaultPlan::parse_list, for
/// callers that hand specs on to per-endpoint configs).
std::vector<std::string> split_fault_specs(const std::string& spec,
                                           std::size_t n);

/// Counts of injected faults, for tests and the worker's logs.
struct FaultLog {
  std::uint64_t sent = 0;  ///< send() calls that reached the wrapper
  std::uint64_t dropped = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t disconnects = 0;
};

class FaultyTransport final : public Transport {
 public:
  /// `stream` decorrelates the two directions of a link: wrap the client
  /// side with stream 0 and the worker side with stream 1 and each draws
  /// an independent schedule from the same plan.
  FaultyTransport(std::unique_ptr<Transport> inner, const FaultPlan& plan,
                  std::uint64_t stream = 0);

  void send(std::string_view bytes) override;
  void recv_exact(char* dst, std::size_t n,
                  std::chrono::milliseconds timeout) override;
  void close() override;

  const FaultLog& log() const { return log_; }

 private:
  std::unique_ptr<Transport> inner_;
  FaultPlan plan_;
  Rng rng_;
  FaultLog log_;
  bool cut_ = false;
};

/// Wraps `inner` only when the plan injects anything; otherwise returns
/// `inner` unchanged (the transparent wrapper would only add overhead).
std::unique_ptr<Transport> maybe_wrap_faulty(std::unique_ptr<Transport> inner,
                                             const FaultPlan& plan,
                                             std::uint64_t stream);

}  // namespace xbarlife::net
