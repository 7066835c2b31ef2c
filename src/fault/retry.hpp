// Recovery policies for the wide-area transport: capped exponential backoff
// with deterministic jitter, and the attempt-counting helper the retry call
// sites (TcpConnection::connect_local_retry and HubTcpViewer's reconnect
// loop) share. Every wait and every give-up is
// visible in the `net.retry.*` counters, and the jitter comes from a caller
// -supplied util::Rng so a seeded run replays bit-identically.
#pragma once

#include <cstdint>

#include "util/rng.hpp"

namespace tvviz::fault {

/// How an operation recovers from transient failure. The defaults are
/// deliberately mild (a few attempts, sub-second waits); `io_timeout_ms`
/// is carried here so one policy object configures both the per-op
/// deadline and the backoff that follows it.
struct RetryPolicy {
  int max_attempts = 5;        ///< Total tries, including the first.
  double base_delay_ms = 5.0;  ///< Backoff before the 2nd attempt.
  double max_delay_ms = 500.0; ///< Cap on the exponential growth.
  double jitter = 0.5;         ///< Delay scaled by [1-jitter, 1+jitter).
  double io_timeout_ms = 0.0;  ///< Per-op socket deadline; 0 = block forever.

  /// Backoff before attempt `attempt` (attempts count from 1; the first
  /// attempt has no backoff). min(max_delay, base * 2^(attempt-2)), jittered
  /// from `rng`. Deterministic for a given rng state.
  double backoff_ms(int attempt, util::Rng& rng) const noexcept;
};

/// Attempt loop helper:
///
///   fault::Backoff backoff(policy, rng);
///   while (backoff.next()) {            // sleeps the backoff from try 2 on
///     try { op(); break; }
///     catch (const net::TimeoutError&) {}  // loop retries
///   }
///
/// next() returns false once the policy's attempts are exhausted (counted
/// as net.retry.giveups). Each granted retry counts net.retry.attempts and
/// adds its wait to net.retry.backoff_wait_ms.
class Backoff {
 public:
  Backoff(const RetryPolicy& policy, util::Rng rng) noexcept
      : policy_(policy), rng_(rng) {}

  /// Grant the next attempt, sleeping the backoff first (no sleep before
  /// the first). False once max_attempts have been granted.
  bool next();

  /// Attempts granted so far.
  int attempts() const noexcept { return attempt_; }

  /// Forget the failure history (call after a success so a later failure
  /// starts from the base delay again).
  void reset() noexcept { attempt_ = 0; }

 private:
  RetryPolicy policy_;
  util::Rng rng_;
  int attempt_ = 0;
};

}  // namespace tvviz::fault
