// Workload definitions of the repository benchmark. Each workload is a
// deterministic function of its name and the run's seed: the testbed
// configuration, the table shape, the operation mix and the load pattern.
// The inputs (keys, values, op choices) come from the benchmark's own
// generators below, so a change to the program cannot change them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/testbed/testbed.h"

namespace perfbench {

/// xoshiro256** seeded through splitmix64: the benchmark's only source of
/// randomness, independent of the program's own generators.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    for (auto& s : s_) {
      seed += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      s = z ^ (z >> 31);
    }
  }
  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  std::uint64_t s_[4];
};

/// YCSB's scrambled zipfian (theta 0.99): popular items are spread over the
/// key space by a hash, so hot rows land in every region.
class ZipfianKeys {
 public:
  explicit ZipfianKeys(std::uint64_t n, double theta = 0.99);
  std::uint64_t next(Rng& rng) const;

 private:
  std::uint64_t n_;
  double theta_, zetan_, alpha_, eta_, half_pow_;
};

/// A `size`-byte lowercase ASCII value.
std::string make_value(Rng& rng, std::size_t size);

struct OpMix {
  double get = 0;
  double scan = 0;
  double update = 0;  ///< the remainder after get + scan
};

// Shared by every workload: 10-op transactions over 100-byte values,
// limit-10 scans, and 3 load threads (a traced run adds one probe thread,
// so at most 4 threads generate load on the 4-core reference machine).
inline constexpr std::size_t kValueSize = 100;
inline constexpr int kOpsPerTxn = 10;
inline constexpr std::size_t kScanLimit = 10;
inline constexpr int kLoadThreads = 3;

struct WorkloadSpec {
  std::string name;
  tfr::TestbedConfig config;
  std::uint64_t rows = 0;
  int regions = 8;
  OpMix mix;
  bool zipfian = false;
  double target_tps = 0;    ///< > 0: open loop at this rate; 0: closed loop
  double crash_at = 0;      ///< > 0: crash region server 0 at this share of the window
  /// > 0: cut server 0 off the network this long before crashing it, so no
  /// request is inside its handlers when it stops (see drive()).
  tfr::Micros isolate_before_crash = 0;
  tfr::Micros warmup = tfr::seconds(1);
  int setups = 3;           ///< set-ups per untraced run; setup_s is their median
};

/// The spec for `name`, or nullopt for an unknown workload.
std::optional<WorkloadSpec> workload_spec(const std::string& name);

/// One planned operation of a transaction.
struct Op {
  enum Kind { kGet, kScan, kUpdate } kind;
  std::uint64_t key;
  std::string value;  ///< kUpdate only
};

/// Draws keys and transactions for one load thread.
class TxnGenerator {
 public:
  TxnGenerator(const WorkloadSpec& spec, std::uint64_t seed);
  std::vector<Op> next_txn();
  std::uint64_t next_key();

 private:
  const WorkloadSpec* spec_;
  Rng rng_;
  std::optional<ZipfianKeys> zipf_;
};

}  // namespace perfbench
