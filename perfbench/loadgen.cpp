// loadgen.cpp — closed-loop load generator behind perfbench/run.py.
//
// Runs one benchmark workload through the simulator's public entry points
// (the hmcsim_* C API, or the hmc_cosim_* client library against a spawned
// hmcsim_server), checks every response against a shadow model, and prints
// one JSON object of measurements on stdout. run.py adds the counts it
// reads from the statistics files and prints the benchmark's result line.
//
//   perfbench_load --workload rw-saturated|cmc-mutex|cosim-2c --seed N
//                  --seconds S --trace 0|1 --server PATH --plugins DIR
//                  --workdir DIR
//
// --trace 0 runs one instance for S seconds, between two bursts of repeated
// set-ups (see kMinSetups). --trace 1 runs a fixed request budget three times — untraced,
// traced, untraced — and writes each pass's statistics JSON to --workdir so
// run.py can assert that timing the calls left the model untouched.
#include <fcntl.h>
#include <spawn.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "capi/hmc_cosim_client.h"
#include "capi/hmc_sim.h"
#include "common/rng.hpp"
#include "metrics/stat_registry.hpp"
#include "spec/packet.hpp"

extern char** environ;

namespace {

using Clock = std::chrono::steady_clock;

/// Set-ups per burst: at least kMinSetups, then more until kSetupBudgetS
/// is spent (capped at kMaxSetups). The median is reported, so a cold
/// first set-up or a burst of host noise does not move setup_s.
constexpr std::uint32_t kMinSetups = 5;
constexpr std::uint32_t kMaxSetups = 100;
constexpr double kSetupBudgetS = 0.75;
/// The timed phase is split into this many equal windows and the median
/// window rate is reported, so a short burst of host noise moves one
/// window, not the result.
constexpr std::uint32_t kWindows = 20;
constexpr std::size_t kMaxNotes = 8;
/// Requests of the traced pass re-timed through spec::build_request and
/// spec::packet_crc after the pass.
constexpr std::size_t kSpecSample = 50000;
constexpr std::uint32_t kSpecRepeats = 5;

// Independent RNG streams derived from --seed.
constexpr std::uint64_t kInitStream = 0x1A2B3C4D5E6F7081ULL;
constexpr std::uint64_t kRequestStream = 0x9E3779B97F4A7C15ULL;

std::uint64_t elapsed_ns(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

double seconds_since(Clock::time_point t0) {
  return static_cast<double>(elapsed_ns(t0)) * 1e-9;
}

double cpu_seconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  std::size_t rank =
      static_cast<std::size_t>(q * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// A KiB field of /proc/<pid>/status: "VmHWM:" (peak resident set) or
/// "VmRSS:" (current). ru_maxrss would also count the image a process had
/// before exec.
double status_kib(const std::string& pid, std::string_view field) {
  std::ifstream f("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::strtod(line.c_str() + field.size(), nullptr);
    }
  }
  return 0.0;
}

std::string format(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

/// Failed checks and error responses of one run, against the requests
/// attempted (the benchmark's failed_frac).
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;

  void fail(std::string msg) {
    ++failed;
    if (notes.size() < kMaxNotes) {
      notes.push_back(std::move(msg));
    }
  }
  void merge(const Checks& o) {
    attempted += o.attempted;
    for (const std::string& n : o.notes) {
      if (notes.size() < kMaxNotes) {
        notes.push_back(n);
      }
    }
    failed += o.failed;
  }
};

/// Calls into one entry point. The count is always kept; the wall time
/// only in the traced pass.
struct CallTimer {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
  [[nodiscard]] double ns_per_call() const {
    return ratio(static_cast<double>(ns), static_cast<double>(calls));
  }
};

template <bool kTraced, class F>
auto timed(CallTimer& t, F&& call) {
  ++t.calls;
  if constexpr (kTraced) {
    const auto t0 = Clock::now();
    auto rc = call();
    t.ns += elapsed_ns(t0);
    return rc;
  } else {
    return call();
  }
}

/// One request as handed to the program, kept for the spec.* timings.
struct Recorded {
  std::uint32_t rqst = 0;
  std::uint8_t cub = 0;
  std::uint16_t tag = 0;
  std::uint32_t words = 0;
  std::uint64_t addr = 0;
  std::uint64_t payload[8] = {};
};

/// Fingerprint of the request stream a pass sent (FNV-1a over the fields),
/// plus, in the traced pass, a sample of the requests themselves.
struct Stream {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  bool record = false;
  std::vector<Recorded> sample;

  void mix(std::uint64_t v) { hash = (hash ^ v) * 0x100000001B3ULL; }
  void add(std::uint32_t rqst, std::uint8_t cub, std::uint64_t addr,
           std::uint16_t tag, const std::uint64_t* payload,
           std::uint32_t words) {
    mix(rqst | (static_cast<std::uint64_t>(cub) << 8) |
        (static_cast<std::uint64_t>(tag) << 16));
    mix(addr);
    for (std::uint32_t i = 0; i < words; ++i) {
      mix(payload[i]);
    }
    if (record && sample.size() < kSpecSample) {
      Recorded r;
      r.rqst = rqst;
      r.cub = cub;
      r.tag = tag;
      r.addr = addr;
      r.words = std::min<std::uint32_t>(words, 8);
      std::copy_n(payload, r.words, r.payload);
      sample.push_back(r);
    }
  }
};

/// Closed-loop bookkeeping of the workloads whose reads are checked: a
/// shadow copy of every 64-byte block, at most one request in flight per
/// block (so the shadow predicts every read exactly), and a free-tag stack
/// with an in-flight table per issuing lane (a link, or a client).
class Blocks {
 public:
  enum class Op : std::uint8_t { kRead, kWrite, kInc };
  struct Request {
    Op op = Op::kRead;
    std::uint32_t block = 0;
    std::uint32_t word = 0;  ///< INC8 target word (even: 16-byte aligned).
    std::uint64_t data[8] = {};
  };

  /// Size the tables: shadow zeroed, nothing in flight, every tag free.
  void reset(std::uint32_t blocks, std::uint32_t lanes, std::uint32_t tags) {
    shadow_.assign(static_cast<std::size_t>(blocks) * 8, 0);
    busy_.assign(blocks, 0);
    lanes_.resize(lanes);
    for (Lane& l : lanes_) {
      l.inflight.assign(tags, Inflight{});
      l.free.clear();
      for (std::uint32_t t = tags; t-- > 0;) {
        l.free.push_back(static_cast<std::uint16_t>(t));
      }
    }
    outstanding_ = 0;
  }

  [[nodiscard]] std::uint64_t* shadow(std::uint32_t block) {
    return &shadow_[static_cast<std::size_t>(block) * 8];
  }
  [[nodiscard]] std::uint32_t outstanding() const { return outstanding_; }

  /// Draw a request on a block with nothing in flight: write_pct% WR64,
  /// inc_pct% INC8, the rest RD64. The block stays reserved until the
  /// request retires or is dropped.
  void draw(hmcsim::Xoshiro256& rng, std::uint32_t write_pct,
            std::uint32_t inc_pct, Request& r) {
    do {
      r.block = static_cast<std::uint32_t>(rng.below(busy_.size()));
    } while (busy_[r.block] != 0);
    busy_[r.block] = 1;
    const std::uint64_t u = rng.below(100);
    r.op = u < write_pct ? Op::kWrite
                         : (u < write_pct + inc_pct ? Op::kInc : Op::kRead);
    if (r.op == Op::kWrite) {
      for (std::uint64_t& d : r.data) {
        d = rng();
      }
    } else if (r.op == Op::kInc) {
      r.word = 2 * static_cast<std::uint32_t>(rng.below(4));
    }
  }
  /// A drawn request that will not be sent.
  void drop(const Request& r) { busy_[r.block] = 0; }

  [[nodiscard]] bool tag_free(std::uint32_t lane) const {
    return !lanes_[lane].free.empty();
  }
  [[nodiscard]] std::uint16_t next_tag(std::uint32_t lane) const {
    return lanes_[lane].free.back();
  }

  /// `r` went out on `lane` with next_tag(lane): hold the tag and apply
  /// `r` to the shadow.
  void sent(std::uint32_t lane, const Request& r) {
    Lane& l = lanes_[lane];
    l.inflight[l.free.back()] = Inflight{true, r.op, r.block};
    l.free.pop_back();
    ++outstanding_;
    if (r.op == Op::kWrite) {
      std::copy_n(r.data, 8, shadow(r.block));
    } else if (r.op == Op::kInc) {
      shadow(r.block)[r.word] += 1;
    }
  }

  /// Retire `tag` on `lane` and check its response. False if the tag was
  /// not in flight; a wrong response retires the tag and fails a check.
  bool retire(std::uint32_t lane, std::uint32_t tag, std::uint8_t cmd,
              const std::uint64_t* payload, std::uint32_t words,
              const char* who, Checks& checks) {
    Lane& l = lanes_[lane];
    if (tag >= l.inflight.size() || !l.inflight[tag].live) {
      checks.fail(format("%s: response tag %u on lane %u is not in flight",
                         who, tag, lane));
      return false;
    }
    Inflight& f = l.inflight[tag];
    f.live = false;
    l.free.push_back(static_cast<std::uint16_t>(tag));
    busy_[f.block] = 0;
    --outstanding_;
    if (cmd == HMC_RSP_ERROR) {
      checks.fail(format("%s: RSP_ERROR for block %u", who, f.block));
    } else if (f.op == Op::kRead
                   ? (cmd != HMC_RD_RS || words != 8 ||
                      std::memcmp(payload, shadow(f.block), 64) != 0)
                   : cmd != HMC_WR_RS) {
      checks.fail(format("%s: block %u: wrong response (cmd 0x%x, %u words)",
                         who, f.block, cmd, words));
    }
    return true;
  }

 private:
  struct Inflight {
    bool live = false;
    Op op = Op::kRead;
    std::uint32_t block = 0;
  };
  struct Lane {
    std::vector<Inflight> inflight;
    std::vector<std::uint16_t> free;
  };
  std::vector<std::uint64_t> shadow_;
  std::vector<std::uint8_t> busy_;
  std::vector<Lane> lanes_;
  std::uint32_t outstanding_ = 0;
};

/// Splits a timed phase into kWindows equal windows and records the
/// request rate of each.
class Meter {
 public:
  Meter(double seconds, std::uint64_t retired)
      : window_(std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(seconds / kWindows))),
        last_(Clock::now()),
        next_(last_ + window_),
        last_retired_(retired) {}

  /// False once the last window has closed.
  bool running(std::uint64_t retired) {
    const auto now = Clock::now();
    if (now < next_) {
      return true;
    }
    const double dt =
        std::chrono::duration<double>(now - last_).count();
    rates_.push_back(static_cast<double>(retired - last_retired_) / dt);
    last_ = now;
    last_retired_ = retired;
    next_ += window_;
    return rates_.size() < kWindows;
  }
  [[nodiscard]] Clock::time_point next() const { return next_; }
  [[nodiscard]] const std::vector<double>& rates() const { return rates_; }

 private:
  Clock::duration window_;
  Clock::time_point last_;
  Clock::time_point next_;
  std::uint64_t last_retired_;
  std::vector<double> rates_;
};

std::string quote(std::string_view v) {
  return "\"" + hmcsim::metrics::json_escape(v) + "\"";
}

/// Minimal JSON object writer; numbers keep all their digits.
class Json {
 public:
  Json& num(std::string_view k, double v) {
    return raw(k, format("%.17g", v));
  }
  Json& u64(std::string_view k, std::uint64_t v) {
    return raw(k, format("%" PRIu64, v));
  }
  /// Array of strings, or of raw JSON values when `quoted` is false.
  Json& list(std::string_view k, const std::vector<std::string>& v,
             bool quoted = true) {
    std::string a = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      a += (i == 0 ? "" : ", ") + (quoted ? quote(v[i]) : v[i]);
    }
    return raw(k, a + "]");
  }
  Json& obj(std::string_view k, const Json& o) { return raw(k, o.dump()); }
  Json& raw(std::string_view k, const std::string& v) {
    if (!body_.empty()) {
      body_ += ", ";
    }
    body_ += quote(k) + ": " + v;
    return *this;
  }
  [[nodiscard]] std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string server;
  std::string plugins;
  std::string workdir;
};

/// Set-up cost split by what the user pays for (zero where not paid).
struct SetupTimes {
  double create = 0;    ///< hmcsim_init
  double cmc_load = 0;  ///< hmcsim_load_cmc of the three mutex plugins
  double mem_init = 0;  ///< working-set initialisation
  double connect = 0;   ///< server spawn until every client is welcomed
  [[nodiscard]] double total() const {
    return create + cmc_load + mem_init + connect;
  }
};

/// What one pass measured. Timed passes fill the windows; traced passes
/// fill the layer timers.
struct PassResult {
  std::uint64_t requests = 0;  ///< Responses retired while issuing.
  double wall_s = 0;           ///< Issue + drain wall time.
  double cpu_s = 0;            ///< CPU of every benchmark process, issue phase.
  std::vector<double> window_rates;
  Json layers;
};

/// Stop rule of a pass: a wall-clock budget (timed) or a fixed number of
/// issue rounds (fixed; deterministic).
struct Limit {
  double seconds = 0;
  std::uint64_t rounds = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build a fresh instance (queues empty, working set initialised).
  virtual SetupTimes setup() = 0;
  /// Issue until the limit, then drain every outstanding request.
  virtual void run(bool traced, const Limit& limit, PassResult& out,
                   Checks& checks) = 0;
  /// Final checks, statistics to `stats_path` (empty: none), teardown.
  virtual void finish(const std::string& stats_path, Checks& checks) = 0;
  /// Tear down an instance that was set up and never run.
  virtual void discard(Checks& checks) = 0;
  /// Issue rounds of the fixed (traced-mode) pass.
  [[nodiscard]] virtual std::uint64_t fixed_rounds() const = 0;
  /// Deterministic per-pass numbers not in the statistics JSON.
  virtual void pass_counts(Json& out) const = 0;
  /// Peak resident set the simulator added to the benchmark's processes:
  /// this process's high-water mark less its own tables (own_kib).
  [[nodiscard]] virtual double peak_rss_kib() const {
    return status_kib("self", "VmHWM:") - own_kib;
  }
  [[nodiscard]] virtual std::uint64_t stream_hash() const {
    return stream.hash;
  }
  /// Statistics files of co-simulation servers mapped to the requests
  /// their clients sent (run.py checks that the two agree).
  virtual void servers(Json&) const {}

  /// The last pass's request stream (the sample only in a traced pass).
  Stream stream;
  /// Resident set once the workload's own tables exist, before the first
  /// set-up (the constructor allocates them).
  double own_kib = 0;
};

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  f << text;
  return static_cast<bool>(f);
}

/// Write hmcsim_stats_json to `path`.
void dump_stats(hmc_sim_t* sim, const std::string& path, Checks& checks) {
  const std::uint64_t need = hmcsim_stats_json(sim, nullptr, 0);
  std::string buf(need + 1, '\0');
  hmcsim_stats_json(sim, buf.data(), buf.size());
  buf.resize(need);
  if (need == 0 || !write_file(path, buf)) {
    checks.fail("cannot write statistics to " + path);
  }
}

/// C API calls of one pass.
struct CapiLayers {
  CallTimer send, recv, clock, next_event;
  std::uint64_t send_stalls = 0;
  std::uint64_t recv_empty = 0;
  std::uint64_t cycles = 0;
  std::uint64_t jumped = 0;

  void report(Json& j, double wall_s, std::uint64_t requests) const {
    const double clock_ns = static_cast<double>(clock.ns);
    j.num("capi.send_ns", send.ns_per_call())
        .num("capi.send_stall_frac",
             ratio(static_cast<double>(send_stalls),
                   static_cast<double>(send.calls)))
        .num("capi.recv_ns", recv.ns_per_call())
        .num("capi.recv_empty_frac",
             ratio(static_cast<double>(recv_empty),
                   static_cast<double>(recv.calls)))
        .num("capi.clock_ns_per_req",
             ratio(clock_ns, static_cast<double>(requests)))
        .num("capi.clock_ns_per_cycle",
             ratio(clock_ns, static_cast<double>(cycles)))
        .num("capi.next_event_ns", next_event.ns_per_call())
        .num("capi.clock_share", ratio(clock_ns * 1e-9, wall_s))
        .num("sim.jump_cycle_frac",
             ratio(static_cast<double>(jumped), static_cast<double>(cycles)));
    const double api_ns = static_cast<double>(send.ns + recv.ns + clock.ns +
                                              next_event.ns);
    j.num("gen.self_share", 1.0 - ratio(api_ns * 1e-9, wall_s));
  }
};

/// A workload that drives the C API in this process.
class CapiWorkload : public Workload {
 public:
  CapiWorkload() = default;
  ~CapiWorkload() override { hmcsim_free(sim_); }
  CapiWorkload(const CapiWorkload&) = delete;
  CapiWorkload& operator=(const CapiWorkload&) = delete;

  void finish(const std::string& stats_path, Checks& checks) override {
    final_checks(checks);
    if (!stats_path.empty()) {
      dump_stats(sim_, stats_path, checks);
    }
    hmcsim_free(sim_);
    sim_ = nullptr;
  }

  void discard(Checks&) override {
    hmcsim_free(sim_);
    sim_ = nullptr;
  }

 protected:
  /// Checks on the device state after the last request retired.
  virtual void final_checks(Checks&) {}

  /// Receive every response waiting on the links in `link_mask` and hand
  /// each to `retire(link, cmd, tag, payload, words)`.
  template <bool kTraced, class Retire>
  void drain(std::uint32_t link_mask, const char* who, Checks& checks,
             Retire&& retire) {
    std::uint64_t payload[32];
    for (std::uint32_t m = link_mask; m != 0; m &= m - 1) {
      const auto link = static_cast<std::uint32_t>(std::countr_zero(m));
      for (;;) {
        std::uint8_t cmd = 0;
        std::uint16_t tag = 0;
        std::uint32_t words = 32;
        const int rc = timed<kTraced>(layers_.recv, [&] {
          return hmcsim_recv(sim_, link, &cmd, &tag, payload, &words,
                             nullptr);
        });
        if (rc == HMC_NO_DATA) {
          ++layers_.recv_empty;
          break;
        }
        if (rc != HMC_OK) {
          checks.fail(format("%s: hmcsim_recv returned %d", who, rc));
          break;
        }
        retire(link, cmd, tag, payload, words);
      }
    }
  }

  hmc_sim_t* sim_ = nullptr;
  CapiLayers layers_;
};

// ---------------------------------------------------------------------------
// rw-saturated: C API, the paper's 8Link-8GB cube (64-byte blocks, vault
// queue 64, crossbar queue 128) chained four deep. Every link is kept at
// its admission limit with RD64/WR64/INC8 spread uniformly over a 4 MiB
// working set on all four cubes (1 MiB per cube, the synthetic frontend's
// default footprint). WR64 is 20% of requests (the synthetic frontend's
// default write_pct) and INC8 10%, so the amo path runs; the rest are RD64.
class RwSaturated final : public CapiWorkload {
 public:
  explicit RwSaturated(const Options& o) : seed_(o.seed) {
    blocks_.reset(kBlocks, kLinks, kTags);
  }

  SetupTimes setup() override {
    SetupTimes t;
    hmcsim_free(sim_);
    auto t0 = Clock::now();
    sim_ = hmcsim_init(kCubes, kLinks, 8, 64, 64, 128);
    t.create = seconds_since(t0);
    if (sim_ == nullptr) {
      throw std::runtime_error("hmcsim_init(4 cubes, 8 links) failed");
    }
    t0 = Clock::now();
    blocks_.reset(kBlocks, kLinks, kTags);
    hmcsim::Xoshiro256 rng(seed_ ^ kInitStream);
    for (std::uint32_t b = 0; b < kBlocks; ++b) {
      std::uint64_t* words = blocks_.shadow(b);
      for (std::uint32_t w = 0; w < 8; ++w) {
        words[w] = rng();
        if (hmcsim_util_mem_write(sim_, cube(b), addr(b) + 8 * w, words[w]) !=
            HMC_OK) {
          throw std::runtime_error("working-set write failed");
        }
      }
    }
    t.mem_init = seconds_since(t0);
    for (std::optional<Blocks::Request>& p : pending_) {
      p.reset();
    }
    rng_ = hmcsim::Xoshiro256(seed_ ^ kRequestStream);
    stream = Stream{};
    retired_ = 0;
    return t;
  }

  void run(bool traced, const Limit& limit, PassResult& out,
           Checks& checks) override {
    layers_ = CapiLayers{};
    stream.record = traced;
    traced ? loop<true>(limit, out, checks) : loop<false>(limit, out, checks);
    if (traced) {
      layers_.report(out.layers, out.wall_s, out.requests);
    }
  }

  [[nodiscard]] std::uint64_t fixed_rounds() const override {
    return kFixedCycles;
  }
  void pass_counts(Json&) const override {}

 private:
  static constexpr std::uint32_t kCubes = 4;
  static constexpr std::uint32_t kLinks = 8;
  static constexpr std::uint32_t kTags = 2048;
  static constexpr std::uint32_t kBlocksPerCube = 16384;  // 1 MiB per cube
  static constexpr std::uint32_t kBlocks = kCubes * kBlocksPerCube;
  static constexpr std::uint32_t kWritePct = 20;
  static constexpr std::uint32_t kIncPct = 10;
  static constexpr std::uint64_t kFixedCycles = 60000;
  static constexpr std::uint64_t kMaxDrainCycles = 1'000'000;

  static std::uint8_t cube(std::uint32_t block) {
    return static_cast<std::uint8_t>(block % kCubes);
  }
  static std::uint64_t addr(std::uint32_t block) {
    return static_cast<std::uint64_t>(block / kCubes) * 64;
  }

  /// Every block must hold what the shadow says: catches a write or an
  /// INC8 that was acknowledged but never applied.
  void final_checks(Checks& checks) override {
    std::uint64_t mismatches = 0;
    for (std::uint32_t b = 0; b < kBlocks; ++b) {
      for (std::uint32_t w = 0; w < 8; ++w) {
        std::uint64_t v = 0;
        if (hmcsim_util_mem_read(sim_, cube(b), addr(b) + 8 * w, &v) !=
                HMC_OK ||
            v != blocks_.shadow(b)[w]) {
          ++mismatches;
        }
      }
    }
    if (mismatches != 0) {
      checks.fail(format("rw-saturated: %" PRIu64
                         " working-set words differ from the shadow",
                         mismatches));
    }
  }

  template <bool kTraced>
  void issue(Checks& checks) {
    for (std::uint32_t link = 0; link < kLinks; ++link) {
      std::optional<Blocks::Request>& p = pending_[link];
      while (blocks_.tag_free(link)) {
        if (!p) {
          blocks_.draw(rng_, kWritePct, kIncPct, p.emplace());
        }
        const std::uint16_t tag = blocks_.next_tag(link);
        const hmc_rqst_t rqst =
            p->op == Blocks::Op::kRead
                ? HMC_RD64
                : (p->op == Blocks::Op::kWrite ? HMC_WR64 : HMC_INC8);
        const std::uint64_t a =
            addr(p->block) + (p->op == Blocks::Op::kInc ? 8 * p->word : 0);
        const std::uint32_t words = p->op == Blocks::Op::kWrite ? 8 : 0;
        const int rc = timed<kTraced>(layers_.send, [&] {
          return hmcsim_send(sim_, link, rqst, cube(p->block), a, tag,
                             words != 0 ? p->data : nullptr, words);
        });
        if (rc == HMC_STALL) {
          ++layers_.send_stalls;
          break;
        }
        ++checks.attempted;
        if (rc != HMC_OK) {
          blocks_.drop(*p);
          p.reset();
          checks.fail(format("rw-saturated: hmcsim_send returned %d", rc));
          break;
        }
        blocks_.sent(link, *p);
        stream.add(rqst, cube(p->block), a, tag, p->data, words);
        p.reset();
      }
    }
  }

  template <bool kTraced>
  void step(Checks& checks) {
    timed<kTraced>(layers_.clock, [&] { return hmcsim_clock(sim_); });
    ++layers_.cycles;
    drain<kTraced>((1U << kLinks) - 1, "rw-saturated", checks,
                   [&](std::uint32_t link, std::uint8_t cmd, std::uint16_t tag,
                       const std::uint64_t* payload, std::uint32_t words) {
                     if (blocks_.retire(link, tag, cmd, payload, words,
                                        "rw-saturated", checks)) {
                       ++retired_;
                     }
                   });
  }

  template <bool kTraced>
  void loop(const Limit& limit, PassResult& out, Checks& checks) {
    const auto t0 = Clock::now();
    const double cpu0 = cpu_seconds(RUSAGE_SELF);
    Meter meter(limit.seconds, retired_);
    for (std::uint64_t cycle = 0;; ++cycle) {
      if (limit.seconds > 0 ? (cycle % 16 == 0 && !meter.running(retired_))
                            : cycle >= limit.rounds) {
        break;
      }
      issue<kTraced>(checks);
      step<kTraced>(checks);
    }
    out.requests = retired_;
    out.cpu_s = cpu_seconds(RUSAGE_SELF) - cpu0;
    out.window_rates = meter.rates();
    // Requests drawn but refused by a full link are dropped unsent.
    for (std::optional<Blocks::Request>& p : pending_) {
      if (p) {
        blocks_.drop(*p);
        p.reset();
      }
    }
    for (std::uint64_t c = 0; blocks_.outstanding() > 0; ++c) {
      if (c == kMaxDrainCycles) {
        checks.fail(format("rw-saturated: %u requests never retired",
                           blocks_.outstanding()));
        break;
      }
      step<kTraced>(checks);
    }
    if (limit.seconds == 0) {
      out.requests = retired_;
    }
    out.wall_s = seconds_since(t0);
  }

  std::uint64_t seed_;
  hmcsim::Xoshiro256 rng_{0};
  Blocks blocks_;
  std::optional<Blocks::Request> pending_[kLinks];
  std::uint64_t retired_ = 0;
};

// ---------------------------------------------------------------------------
// cmc-mutex: the paper's mutex experiment (Algorithm 1) on its 4Link-4GB
// cube, lengthened. C API, the hmc_lock/hmc_trylock/hmc_unlock plugins
// loaded with hmcsim_load_cmc. kThreads simulated threads, all in this OS
// thread, run Algorithm 1 on one lock word: LOCK; on a loss, back off and
// retry with TRYLOCK until acquired; then UNLOCK. The critical section is
// zero cycles, as in Algorithm 1: UNLOCK goes out the cycle the acquiring
// response arrives. One epoch is one run of Algorithm 1, and epochs repeat
// until the budget is spent. Spans where every thread waits on a timer and
// nothing is in flight are jumped with hmcsim_next_event_cycle +
// hmcsim_clock_until.
class CmcMutex final : public CapiWorkload {
 public:
  explicit CmcMutex(const Options& o) : seed_(o.seed), plugins_(o.plugins) {}

  SetupTimes setup() override {
    SetupTimes t;
    hmcsim_free(sim_);
    auto t0 = Clock::now();
    sim_ = hmcsim_init(1, kLinks, 4, 64, 64, 128);
    t.create = seconds_since(t0);
    if (sim_ == nullptr) {
      throw std::runtime_error("hmcsim_init(1 cube, 4 links) failed");
    }
    t0 = Clock::now();
    for (const char* name : {"hmc_lock", "hmc_trylock", "hmc_unlock"}) {
      const std::string path = plugins_ + "/" + name + ".so";
      if (hmcsim_load_cmc(sim_, path.c_str()) != HMC_OK) {
        throw std::runtime_error("hmcsim_load_cmc failed for " + path);
      }
    }
    t.cmc_load = seconds_since(t0);
    t0 = Clock::now();
    if (hmcsim_util_mem_write(sim_, 0, kLockAddr, 0) != HMC_OK ||
        hmcsim_util_mem_write(sim_, 0, kLockAddr + 8, 0) != HMC_OK) {
      throw std::runtime_error("lock initialisation failed");
    }
    t.mem_init = seconds_since(t0);
    threads_.clear();
    for (std::uint32_t i = 0; i < kThreads; ++i) {
      threads_.push_back(Thread{
          .rng = hmcsim::Xoshiro256(seed_ ^ (kRequestStream * (i + 1)))});
    }
    stream = Stream{};
    holder_ = kNobody;
    acquisitions_ = 0;
    lock_sent_ = 0;
    retired_ = 0;
    return t;
  }

  void run(bool traced, const Limit& limit, PassResult& out,
           Checks& checks) override {
    layers_ = CapiLayers{};
    stream.record = traced;
    traced ? loop<true>(limit, out, checks) : loop<false>(limit, out, checks);
    if (traced) {
      layers_.report(out.layers, out.wall_s, out.requests);
    }
  }

  [[nodiscard]] std::uint64_t fixed_rounds() const override {
    return kFixedEpochs;
  }
  void pass_counts(Json& j) const override {
    j.num("core.lock_success_frac",
          ratio(static_cast<double>(acquisitions_),
                static_cast<double>(lock_sent_)));
  }

 private:
  static constexpr std::uint32_t kLinks = 4;
  /// As in bench_clock_scaling's BM_MutexSpinWait; inside the paper's
  /// 2..100-thread sweep.
  static constexpr std::uint32_t kThreads = 32;
  /// Backoff before a TRYLOCK retry: seeded in [128, 384) cycles, a mean
  /// of BM_MutexSpinWait's fixed 256.
  static constexpr std::uint64_t kBackoffMin = 128;
  static constexpr std::uint64_t kBackoffSpread = 256;
  static constexpr std::uint64_t kLockAddr = 0x1000;
  static constexpr std::uint64_t kFixedEpochs = 1200;
  /// An epoch that runs this long has a thread that can never acquire
  /// (host::MutexOptions' default watchdog bound).
  static constexpr std::uint64_t kMaxEpochCycles = 1'000'000;
  static constexpr std::uint32_t kNobody = UINT32_MAX;

  enum class St : std::uint8_t {
    kSendLock, kWaitLock, kBackoff, kSendTry, kWaitTry,
    kSendUnlock, kWaitUnlock, kDone
  };
  struct Thread {
    St st = St::kSendLock;
    std::uint64_t wake = 0;
    hmcsim::Xoshiro256 rng{0};
  };

  void acquire(std::uint32_t tid, Checks& checks) {
    if (holder_ != kNobody) {
      checks.fail(format("cmc-mutex: thread %u acquired the lock while "
                         "thread %u holds it",
                         tid, holder_));
    }
    holder_ = tid;
    ++acquisitions_;
    threads_[tid].st = St::kSendUnlock;
  }

  void back_off(Thread& t) {
    t.st = St::kBackoff;
    t.wake = hmcsim_cycle(sim_) + kBackoffMin + t.rng.below(kBackoffSpread);
  }

  /// Where the threads stand after issue().
  struct Scan {
    bool stalled = false;  ///< A send was refused; retry next cycle.
    std::uint32_t waiting = 0;  ///< Links with a request in flight.
    bool all_done = true;
    std::uint64_t wake = UINT64_MAX;  ///< Earliest timer.
  };

  /// Send every request that is due, in thread order.
  template <bool kTraced>
  Scan issue(Checks& checks) {
    const std::uint64_t now = hmcsim_cycle(sim_);
    Scan scan;
    for (std::uint32_t tid = 0; tid < kThreads; ++tid) {
      Thread& t = threads_[tid];
      if (t.st == St::kBackoff && t.wake <= now) {
        t.st = St::kSendTry;
      }
      if (t.st == St::kSendLock || t.st == St::kSendTry ||
          t.st == St::kSendUnlock) {
        send<kTraced>(tid, checks);
      }
      switch (t.st) {
        case St::kDone:
          continue;
        case St::kBackoff:
          scan.wake = std::min(scan.wake, t.wake);
          break;
        case St::kWaitLock:
        case St::kWaitTry:
        case St::kWaitUnlock:
          scan.waiting |= 1U << (tid % kLinks);
          break;
        default:  // A send that stalled.
          scan.stalled = true;
          break;
      }
      scan.all_done = false;
    }
    return scan;
  }

  template <bool kTraced>
  void send(std::uint32_t tid, Checks& checks) {
    Thread& t = threads_[tid];
    const hmc_rqst_t rqst =
        t.st == St::kSendLock
            ? HMC_CMC125
            : (t.st == St::kSendTry ? HMC_CMC126 : HMC_CMC127);
    const std::uint64_t payload[2] = {tid + 1ULL, 0};
    const auto tag = static_cast<std::uint16_t>(tid);
    const int rc = timed<kTraced>(layers_.send, [&] {
      return hmcsim_send(sim_, tid % kLinks, rqst, 0, kLockAddr, tag,
                         payload, 2);
    });
    if (rc == HMC_STALL) {
      ++layers_.send_stalls;
      return;
    }
    ++checks.attempted;
    if (rc != HMC_OK) {
      checks.fail(format("cmc-mutex: hmcsim_send returned %d", rc));
      t.st = St::kDone;
      return;
    }
    stream.add(rqst, 0, kLockAddr, tag, payload, 2);
    if (t.st == St::kSendUnlock) {
      if (holder_ != tid) {
        checks.fail(format("cmc-mutex: thread %u unlocks a lock it does "
                           "not hold",
                           tid));
      }
      holder_ = kNobody;
      t.st = St::kWaitUnlock;
    } else {
      ++lock_sent_;
      t.st = t.st == St::kSendLock ? St::kWaitLock : St::kWaitTry;
    }
  }

  void retire(std::uint16_t tid, std::uint8_t cmd,
              const std::uint64_t* payload, std::uint32_t words,
              Checks& checks) {
    Thread* t = tid < kThreads ? &threads_[tid] : nullptr;
    if (t == nullptr || (t->st != St::kWaitLock && t->st != St::kWaitTry &&
                         t->st != St::kWaitUnlock)) {
      checks.fail(format("cmc-mutex: response tag %u is not in flight", tid));
      return;
    }
    ++retired_;
    if (cmd == HMC_RSP_ERROR || words < 2) {
      checks.fail(format("cmc-mutex: error response 0x%x (%u words) for "
                         "thread %u",
                         cmd, words, tid));
      t->st = St::kDone;
      return;
    }
    switch (t->st) {
      case St::kWaitLock:
        if (payload[0] == 1) {
          acquire(tid, checks);
        } else {
          back_off(*t);
        }
        break;
      case St::kWaitTry:
        if (payload[0] == tid + 1ULL) {
          acquire(tid, checks);
        } else {
          if (payload[1] != 1) {
            checks.fail("cmc-mutex: TRYLOCK lost to a free lock");
          }
          back_off(*t);
        }
        break;
      default:  // kWaitUnlock
        if (payload[0] != 1) {
          checks.fail(format("cmc-mutex: UNLOCK by thread %u refused", tid));
        }
        t->st = St::kDone;
        break;
    }
  }

  /// Epoch boundary: every thread idle, the lock free, and exactly one
  /// acquisition per thread.
  void check_epoch(std::uint64_t acquisitions_at_start, Checks& checks) {
    std::uint64_t word = 1;
    if (hmcsim_util_mem_read(sim_, 0, kLockAddr, &word) != HMC_OK ||
        word != 0 || holder_ != kNobody) {
      checks.fail("cmc-mutex: lock word not free at the end of an epoch");
    }
    if (acquisitions_ - acquisitions_at_start != kThreads) {
      checks.fail(format("cmc-mutex: %" PRIu64 " acquisitions for %u threads",
                         acquisitions_ - acquisitions_at_start, kThreads));
    }
  }

  template <bool kTraced>
  void loop(const Limit& limit, PassResult& out, Checks& checks) {
    const auto t0 = Clock::now();
    const double cpu0 = cpu_seconds(RUSAGE_SELF);
    Meter meter(limit.seconds, retired_);
    bool stopping = false;
    std::uint64_t epochs = 0;
    std::uint64_t epoch_acq = acquisitions_;
    std::uint64_t epoch_start = hmcsim_cycle(sim_);
    const auto measured = [&] {
      out.requests = retired_;
      out.cpu_s = cpu_seconds(RUSAGE_SELF) - cpu0;
    };
    // Once the budget is spent the current epoch still runs to its end.
    for (std::uint64_t step = 0;; ++step) {
      if (!stopping && limit.seconds > 0 && step % 16 == 0 &&
          !meter.running(retired_)) {
        stopping = true;
        measured();
      }
      const Scan scan = issue<kTraced>(checks);
      const std::uint64_t now = hmcsim_cycle(sim_);
      if (scan.all_done) {
        check_epoch(epoch_acq, checks);
        ++epochs;
        if (stopping || (limit.seconds == 0 && epochs == limit.rounds)) {
          break;
        }
        epoch_acq = acquisitions_;
        epoch_start = now;
        for (Thread& t : threads_) {
          t.st = St::kSendLock;
        }
        continue;
      }
      if (now - epoch_start > kMaxEpochCycles) {
        checks.fail(format("cmc-mutex: an epoch ran past %" PRIu64
                           " cycles; the lock is never released",
                           kMaxEpochCycles));
        break;
      }
      std::uint64_t target = now + 1;
      if (!scan.stalled) {
        const std::uint64_t ev = timed<kTraced>(
            layers_.next_event, [&] { return hmcsim_next_event_cycle(sim_); });
        target = std::max(now + 1, std::min(ev, scan.wake));
        if (target == UINT64_MAX) {
          checks.fail("cmc-mutex: no thread can make progress");
          break;
        }
      }
      if (target == now + 1) {
        timed<kTraced>(layers_.clock, [&] { return hmcsim_clock(sim_); });
        ++layers_.cycles;
      } else {
        const std::uint64_t n = timed<kTraced>(
            layers_.clock, [&] { return hmcsim_clock_until(sim_, target); });
        layers_.cycles += n;
        layers_.jumped += n - 1;
      }
      drain<kTraced>(scan.waiting, "cmc-mutex", checks,
                     [&](std::uint32_t, std::uint8_t cmd, std::uint16_t tag,
                         const std::uint64_t* payload, std::uint32_t words) {
                       retire(tag, cmd, payload, words, checks);
                     });
    }
    if (!stopping) {
      measured();
    }
    out.window_rates = meter.rates();
    out.wall_s = seconds_since(t0);
  }

  std::uint64_t seed_;
  std::string plugins_;
  std::vector<Thread> threads_;
  std::uint32_t holder_ = kNobody;
  std::uint64_t acquisitions_ = 0;
  std::uint64_t lock_sent_ = 0;
  std::uint64_t retired_ = 0;
};

// ---------------------------------------------------------------------------
// cosim-2c: hmcsim_server with one cube and quantum 64; two client
// connections from this process, one thread each. Each client drives
// examples/cosim_client.c's default workload, seeded: its own 1 MiB
// window, a batch of 16 requests per quantum, half RD64 and half WR64,
// links in turn. The synthetic frontend's default window of 256 bounds
// what a client has outstanding. The device stays lightly loaded, so the
// per-barrier cost of the ipc layer and the server's Session shows.
class Cosim2c final : public Workload {
 public:
  explicit Cosim2c(const Options& o)
      : seed_(o.seed), server_path_(o.server), workdir_(o.workdir) {
    // Bounds a correct run can never reach: at most one barrier per
    // microsecond for the whole run.
    max_cycles_ =
        kQuantum * 1'000'000ULL * static_cast<std::uint64_t>(o.seconds + 120);
    for (Client& cl : clients_) {
      cl.blocks.reset(kBlocksPerClient, 1, kTagsPerClient);
    }
  }
  ~Cosim2c() override { kill_server(); }
  Cosim2c(const Cosim2c&) = delete;
  Cosim2c& operator=(const Cosim2c&) = delete;

  SetupTimes setup() override {
    SetupTimes t;
    ++instance_;
    sock_ = format("%s/s%u.sock", workdir_.c_str(), instance_);
    stats_ = format("%s/server%u.json", workdir_.c_str(), instance_);
    const std::string log =
        format("%s/server%u.log", workdir_.c_str(), instance_);
    const std::string quantum = std::to_string(kQuantum);
    const std::string max_cycles = std::to_string(max_cycles_);
    const std::string timeout = std::to_string(kClientTimeoutMs);
    std::vector<std::string> args = {
        server_path_, "--socket", sock_, "--clients", "2", "--quantum",
        quantum, "--links", "4", "--devs", "1", "--stats-json", stats_,
        "--max-cycles", max_cycles, "--client-timeout-ms", timeout};
    std::vector<char*> argv;
    for (std::string& a : args) {
      argv.push_back(a.data());
    }
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);

    children_cpu0_ = cpu_seconds(RUSAGE_CHILDREN);
    auto t0 = Clock::now();
    const int rc =
        posix_spawn(&server_, server_path_.c_str(), &fa, nullptr,
                    argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
      server_ = -1;
      throw std::runtime_error("cannot spawn " + server_path_);
    }
    // run.py removes a killed server's shared-memory segment by pid.
    std::ofstream(workdir_ + "/server.pids", std::ios::app) << server_ << "\n";
    // Wait for the socket instead of leaning on the client library's
    // 1..100 ms connect backoff, which would quantise set-up time.
    struct stat st {};
    while (::stat(sock_.c_str(), &st) != 0) {
      int status = 0;
      if (waitpid(server_, &status, WNOHANG) == server_) {
        server_ = -1;
        throw std::runtime_error("hmcsim_server exited during start-up");
      }
      if (seconds_since(t0) > 10.0) {
        throw std::runtime_error("hmcsim_server did not bind its socket");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    for (std::uint32_t c = 0; c < kClients; ++c) {
      Client& cl = clients_[c];
      cl.handle = hmc_cosim_connect(sock_.c_str(), c, 10000);
      if (cl.handle == nullptr) {
        throw std::runtime_error("hmc_cosim_connect failed");
      }
    }
    t.connect = seconds_since(t0);
    for (std::uint32_t c = 0; c < kClients; ++c) {
      clients_[c].reset(c, seed_);
    }
    return t;
  }

  void run(bool traced, const Limit& limit, PassResult& out,
           Checks& checks) override {
    std::atomic<bool> stop{false};
    std::atomic<std::uint32_t> done{0};
    const std::uint64_t rounds = limit.seconds > 0 ? 0 : limit.rounds;
    const auto t0 = Clock::now();
    const double cpu0 = cpu_seconds(RUSAGE_SELF);
    std::vector<std::thread> threads;
    for (Client& cl : clients_) {
      Client* c = &cl;
      threads.emplace_back([c, traced, rounds, &stop, &done] {
        traced ? c->loop<true>(rounds, stop) : c->loop<false>(rounds, stop);
        // Count the client done before its BYE: the server can then only
        // exit early (which watch() reports) by failing.
        done.fetch_add(1);
        hmc_cosim_disconnect(c->handle);
        c->handle = nullptr;
      });
    }
    if (limit.seconds > 0) {
      Meter meter(limit.seconds, 0);
      for (;;) {
        std::this_thread::sleep_until(meter.next());
        out.requests = retired();
        sample_server_rss();
        if (!meter.running(out.requests)) {
          break;
        }
        watch(done, threads, checks);
      }
      stop.store(true);
      client_cpu_s_ = cpu_seconds(RUSAGE_SELF) - cpu0;
      out.window_rates = meter.rates();
    }
    while (done.load() < kClients) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      watch(done, threads, checks);
      if (seconds_since(t0) > limit.seconds + kDrainDeadlineS) {
        abandon(threads, checks, "cosim clients did not finish");
      }
    }
    for (std::thread& th : threads) {
      th.join();
    }
    out.wall_s = seconds_since(t0);
    if (limit.seconds == 0) {
      out.requests = retired();
      client_cpu_s_ = cpu_seconds(RUSAGE_SELF) - cpu0;
    }
    for (Client& cl : clients_) {
      checks.merge(cl.checks);
      cl.checks = Checks{};
    }
    reap(checks);
    // The server ran only for this pass: its whole-life CPU belongs to it.
    out.cpu_s = client_cpu_s_ + server_cpu_s_;
    if (traced) {
      report(out);
    }
  }

  void finish(const std::string& stats_path, Checks& checks) override {
    if (stats_path.empty()) {
      return;
    }
    if (std::rename(stats_.c_str(), stats_path.c_str()) != 0) {
      checks.fail("cosim-2c: server statistics missing");
    }
    servers_.back().first = stats_path;
  }

  void discard(Checks& checks) override {
    for (Client& cl : clients_) {
      hmc_cosim_disconnect(cl.handle);
      cl.handle = nullptr;
    }
    reap(checks);
  }

  [[nodiscard]] std::uint64_t fixed_rounds() const override {
    return kFixedQuanta;
  }
  void pass_counts(Json& j) const override {
    std::uint64_t barriers = 0;
    for (const Client& cl : clients_) {
      barriers = std::max(barriers, cl.clocks.calls);
    }
    j.u64("ipc.barriers", barriers);
  }
  [[nodiscard]] std::uint64_t stream_hash() const override {
    Stream s;
    for (const Client& cl : clients_) {
      s.mix(cl.stream.hash);
    }
    return s.hash;
  }
  void servers(Json& j) const override {
    for (const auto& [path, sent] : servers_) {
      j.u64(path, sent);
    }
  }
  [[nodiscard]] double peak_rss_kib() const override {
    return Workload::peak_rss_kib() + server_rss_kib_;
  }

 private:
  static constexpr std::uint32_t kClients = 2;
  static constexpr std::uint64_t kQuantum = 64;
  static constexpr std::uint32_t kLinks = 4;
  static constexpr std::uint32_t kBatch = 16;
  static constexpr std::uint32_t kWindow = 256;
  static constexpr std::uint32_t kWritePct = 50;
  static constexpr std::uint32_t kTagsPerClient = 1024;
  static constexpr std::uint32_t kBlocksPerClient = 16384;  // 1 MiB each
  static constexpr std::uint64_t kFixedQuanta = 30000;
  static constexpr std::uint64_t kMaxDrainQuanta = 10000;
  static constexpr std::uint32_t kClientTimeoutMs = 10000;
  static constexpr double kDrainDeadlineS = 60.0;

  struct Client {
    hmc_cosim_t* handle = nullptr;
    std::uint32_t slot = 0;
    hmcsim::Xoshiro256 rng{0};
    Blocks blocks;  ///< One lane; the tags of this client.
    std::uint64_t retired = 0;
    std::uint64_t sent = 0;
    std::atomic<std::uint64_t> retired_pub{0};
    Checks checks;
    Stream stream;
    CallTimer sends, recvs, clocks;
    std::uint64_t send_stalls = 0;
    std::vector<double> barrier_us;
    double wall_s = 0;

    void reset(std::uint32_t s, std::uint64_t seed) {
      slot = s;
      rng = hmcsim::Xoshiro256(seed ^ (kRequestStream * (s + 1)));
      // The server's memory starts zeroed; so does the shadow.
      blocks.reset(kBlocksPerClient, 1, kTagsPerClient);
      retired = 0;
      sent = 0;
      retired_pub.store(0);
      checks = Checks{};
      stream = Stream{};
      sends = recvs = clocks = CallTimer{};
      send_stalls = 0;
      barrier_us.clear();
      wall_s = 0;
    }

    [[nodiscard]] std::uint64_t addr(std::uint32_t block) const {
      return (static_cast<std::uint64_t>(slot) * kBlocksPerClient + block) *
             64;
    }

    template <bool kTraced>
    void send_one() {
      Blocks::Request r;
      blocks.draw(rng, kWritePct, 0, r);
      const auto tag = static_cast<std::uint16_t>(slot * kTagsPerClient +
                                                  blocks.next_tag(0));
      const bool read = r.op == Blocks::Op::kRead;
      const std::uint32_t rqst = read ? HMC_RD64 : HMC_WR64;
      const std::uint32_t words = read ? 0 : 8;
      const int rc = timed<kTraced>(sends, [&] {
        return hmc_cosim_send(handle, (slot + sent) % kLinks, rqst, 0,
                              addr(r.block), tag, read ? nullptr : r.data,
                              words);
      });
      ++checks.attempted;
      if (rc != HMC_COSIM_OK) {
        blocks.drop(r);
        send_stalls += rc == HMC_COSIM_STALL ? 1 : 0;
        checks.fail(format("cosim-2c: hmc_cosim_send returned %d", rc));
        return;
      }
      ++sent;
      blocks.sent(0, r);
      stream.add(rqst, 0, addr(r.block), tag, r.data, words);
    }

    template <bool kTraced>
    void receive() {
      std::uint64_t payload[32];
      for (;;) {
        std::uint8_t cmd = 0;
        std::uint16_t tag = 0;
        std::uint32_t words = 32;
        const int rc = timed<kTraced>(recvs, [&] {
          return hmc_cosim_recv(handle, &cmd, &tag, payload, &words,
                                nullptr);
        });
        if (rc == HMC_COSIM_NO_DATA) {
          return;
        }
        if (rc != HMC_COSIM_OK) {
          checks.fail(format("cosim-2c: client %u: hmc_cosim_recv returned "
                             "%d",
                             slot, rc));
          return;
        }
        // A tag below this client's range wraps to one past every lane tag.
        const std::uint32_t local = tag - slot * kTagsPerClient;
        if (blocks.retire(0, local, cmd, payload, words, "cosim-2c",
                          checks)) {
          ++retired;
        }
      }
    }

    /// Issue for `rounds` quanta (0: until `stop`), then drain.
    template <bool kTraced>
    void loop(std::uint64_t rounds, const std::atomic<bool>& stop) {
      const auto t0 = Clock::now();
      stream.record = kTraced;
      std::uint64_t drain_quanta = 0;
      for (std::uint64_t q = 0;; ++q) {
        const bool issuing = rounds > 0
                                 ? q < rounds
                                 : !stop.load(std::memory_order_relaxed);
        const std::uint32_t outstanding = blocks.outstanding();
        if (!issuing && (outstanding == 0 || ++drain_quanta > kMaxDrainQuanta)) {
          if (outstanding != 0) {
            checks.fail(format("cosim-2c: client %u: %u requests never "
                               "retired",
                               slot, outstanding));
          }
          break;
        }
        if (issuing) {
          const std::uint32_t n =
              std::min(kBatch, kWindow - std::min(kWindow, outstanding));
          for (std::uint32_t i = 0; i < n; ++i) {
            send_one<kTraced>();
          }
        }
        const auto b0 = Clock::now();
        const int rc = timed<kTraced>(
            clocks, [&] { return hmc_cosim_clock(handle, kQuantum); });
        if constexpr (kTraced) {
          barrier_us.push_back(static_cast<double>(elapsed_ns(b0)) * 1e-3);
        }
        if (rc != HMC_COSIM_OK) {
          checks.fail(format("cosim-2c: hmc_cosim_clock returned %d", rc));
          break;
        }
        receive<kTraced>();
        retired_pub.store(retired, std::memory_order_relaxed);
      }
      wall_s = seconds_since(t0);
    }
  };

  std::uint64_t retired() const {
    std::uint64_t n = 0;
    for (const Client& cl : clients_) {
      n += cl.retired_pub.load(std::memory_order_relaxed);
    }
    return n;
  }

  void sample_server_rss() {
    if (server_ > 0) {
      server_rss_kib_ = std::max(server_rss_kib_,
                                 status_kib(std::to_string(server_), "VmHWM:"));
    }
  }

  /// A server that died under running clients leaves them blocked in
  /// hmc_cosim_clock, which has no timeout; end the run instead of hanging.
  void watch(const std::atomic<std::uint32_t>& done,
             std::vector<std::thread>& threads, Checks& checks) {
    int status = 0;
    if (done.load() < kClients && server_ > 0 &&
        waitpid(server_, &status, WNOHANG) == server_) {
      server_ = -1;
      abandon(threads, checks, format("hmcsim_server exited (status 0x%x) "
                                      "while clients were running",
                                      status));
    }
  }

  [[noreturn]] void abandon(std::vector<std::thread>& threads, Checks& checks,
                            const std::string& why) {
    // The client threads may still run, so their own checks are not read.
    checks.fail("cosim-2c: " + why);
    kill_server();
    Json j;
    j.u64("attempted", std::max<std::uint64_t>(checks.attempted, 1))
        .u64("failed", checks.failed)
        .list("notes", checks.notes);
    std::printf("%s\n", j.dump().c_str());
    std::fflush(stdout);
    for (std::thread& th : threads) {
      th.detach();  // Blocked in the client library; _Exit ends them.
    }
    std::_Exit(3);
  }

  void kill_server() {
    if (server_ > 0) {
      ::kill(server_, SIGKILL);
      waitpid(server_, nullptr, 0);
      shm_unlink(format("/hmcsim-cosim-%d", server_).c_str());
      ::unlink(sock_.c_str());
      server_ = -1;
    }
  }

  /// Wait for the server to exit after both clients said BYE; take its CPU
  /// from RUSAGE_CHILDREN once reaped; check it left nothing behind.
  void reap(Checks& checks) {
    const auto t0 = Clock::now();
    int status = 0;
    pid_t r = 0;
    while ((r = waitpid(server_, &status, WNOHANG)) == 0) {
      if (seconds_since(t0) > kDrainDeadlineS) {
        checks.fail("cosim-2c: hmcsim_server did not exit; killed");
        kill_server();
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    server_cpu_s_ = cpu_seconds(RUSAGE_CHILDREN) - children_cpu0_;
    const pid_t pid = server_;
    server_ = -1;
    if (r != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      checks.fail(format("cosim-2c: hmcsim_server exit status 0x%x", status));
    } else if (shm_unlink(format("/hmcsim-cosim-%d", pid).c_str()) == 0) {
      checks.fail("cosim-2c: hmcsim_server left its shm segment behind");
    }
    ::unlink(sock_.c_str());
    std::uint64_t sent = 0;
    for (const Client& cl : clients_) {
      sent += cl.sent;
    }
    servers_.emplace_back(stats_, sent);
  }

  void report(PassResult& out) {
    CallTimer sends, recvs, clocks;
    std::uint64_t stalls = 0;
    double self = 0;
    std::vector<double> barriers;
    stream.sample.clear();
    for (const Client& cl : clients_) {
      sends.calls += cl.sends.calls;
      sends.ns += cl.sends.ns;
      recvs.calls += cl.recvs.calls;
      recvs.ns += cl.recvs.ns;
      clocks.ns += cl.clocks.ns;
      stalls += cl.send_stalls;
      const double api_s =
          static_cast<double>(cl.sends.ns + cl.recvs.ns + cl.clocks.ns) * 1e-9;
      self += 1.0 - ratio(api_s, cl.wall_s);
      barriers.insert(barriers.end(), cl.barrier_us.begin(),
                      cl.barrier_us.end());
      stream.sample.insert(stream.sample.end(), cl.stream.sample.begin(),
                           cl.stream.sample.end());
    }
    const double wall = clients_[0].wall_s + clients_[1].wall_s;
    const auto reqs = static_cast<double>(out.requests);
    out.layers.num("ipc.send_ns", sends.ns_per_call())
        .num("ipc.send_stall_frac",
             ratio(static_cast<double>(stalls),
                   static_cast<double>(sends.calls)))
        .num("ipc.recv_ns", recvs.ns_per_call())
        .num("ipc.clock_share",
             ratio(static_cast<double>(clocks.ns) * 1e-9, wall))
        .num("ipc.barrier_rtt_p50_us", percentile(barriers, 0.50))
        .num("ipc.barrier_rtt_p99_us", percentile(barriers, 0.99))
        .num("ipc.server_cpu_us_per_req", ratio(server_cpu_s_ * 1e6, reqs))
        .num("ipc.client_cpu_us_per_req", ratio(client_cpu_s_ * 1e6, reqs))
        .num("gen.self_share", self / kClients);
  }

  std::uint64_t seed_;
  std::string server_path_;
  std::string workdir_;
  std::uint64_t max_cycles_ = 0;
  std::uint32_t instance_ = 0;
  pid_t server_ = -1;
  std::string sock_;
  std::string stats_;
  Client clients_[kClients];
  double children_cpu0_ = 0;
  double server_cpu_s_ = 0;
  double client_cpu_s_ = 0;
  double server_rss_kib_ = 0;  ///< Peak of the servers, sampled live.
  std::vector<std::pair<std::string, std::uint64_t>> servers_;
};

/// spec.build_request_ns / spec.packet_crc_ns over a pass's own requests.
void time_spec(const std::vector<Recorded>& reqs, Json& layers,
               Checks& checks) {
  if (reqs.empty()) {
    layers.num("spec.build_request_ns", 0).num("spec.packet_crc_ns", 0);
    return;
  }
  std::vector<hmcsim::spec::RqstPacket> pkts(reqs.size());
  std::vector<double> build_ns, crc_ns;
  std::uint64_t bad = 0;
  for (std::uint32_t rep = 0; rep < kSpecRepeats; ++rep) {
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const Recorded& r = reqs[i];
      hmcsim::spec::RqstParams p;
      p.rqst = static_cast<hmcsim::spec::Rqst>(r.rqst);
      p.addr = r.addr;
      p.tag = r.tag;
      p.cub = r.cub;
      if (r.words > 0) {
        p.payload = {r.payload, r.words};
      }
      // The mutex plugins register 2-FLIT requests.
      p.flits_override = r.rqst >= HMC_CMC125 ? 2 : 0;
      bad += hmcsim::spec::build_request(p, pkts[i]).ok() ? 0U : 1U;
    }
    build_ns.push_back(static_cast<double>(elapsed_ns(t0)) /
                       static_cast<double>(reqs.size()));
    t0 = Clock::now();
    std::uint32_t acc = 0;
    for (const hmcsim::spec::RqstPacket& pkt : pkts) {
      acc ^= hmcsim::spec::packet_crc(pkt);
    }
    crc_ns.push_back(static_cast<double>(elapsed_ns(t0)) /
                     static_cast<double>(reqs.size()));
    // The packets were sealed by build_request: the xor of their CRCs
    // must equal the xor of the CRCs computed again.
    std::uint32_t sealed = 0;
    for (const hmcsim::spec::RqstPacket& pkt : pkts) {
      sealed ^= static_cast<std::uint32_t>(pkt.tail >> 32);
    }
    bad += acc == sealed ? 0U : 1U;
  }
  if (bad != 0) {
    checks.fail("spec: rebuilding the request stream failed or changed CRCs");
  }
  layers.num("spec.build_request_ns", median(build_ns))
      .num("spec.packet_crc_ns", median(crc_ns));
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      o.seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      o.trace = std::string_view(v) == "1";
    } else if (k == "--server") {
      o.server = v;
    } else if (k == "--plugins") {
      o.plugins = v;
    } else if (k == "--workdir") {
      o.workdir = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0 &&
         !o.server.empty() && !o.plugins.empty() && !o.workdir.empty();
}

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "rw-saturated") {
    return std::make_unique<RwSaturated>(o);
  }
  if (o.workload == "cmc-mutex") {
    return std::make_unique<CmcMutex>(o);
  }
  if (o.workload == "cosim-2c") {
    return std::make_unique<Cosim2c>(o);
  }
  return nullptr;
}

/// Repeated set-ups (see kMinSetups); all but the last are torn down.
/// Returns the per-phase medians and fills `totals`.
SetupTimes repeat_setup(Workload& w, Checks& checks,
                        std::vector<double>& totals) {
  std::vector<double> create, cmc, mem, connect;
  const auto t0 = Clock::now();
  for (std::uint32_t i = 0;
       i < kMinSetups || (i < kMaxSetups && seconds_since(t0) < kSetupBudgetS);
       ++i) {
    if (i > 0) {
      w.discard(checks);
    }
    const SetupTimes t = w.setup();
    totals.push_back(t.total());
    create.push_back(t.create);
    cmc.push_back(t.cmc_load);
    mem.push_back(t.mem_init);
    connect.push_back(t.connect);
  }
  return SetupTimes{median(create), median(cmc), median(mem),
                    median(connect)};
}

Json server_checks(const Workload& w) {
  Json j;
  w.servers(j);
  return j;
}

std::string run_timed(Workload& w, const Options& o, Checks& checks) {
  // Set-up bursts before and after the timed phase: the host's speed
  // drifts within a run, and setup_s should sample both ends of it.
  std::vector<double> totals;
  repeat_setup(w, checks, totals);
  PassResult r;
  w.run(false, Limit{o.seconds, 0}, r, checks);
  w.finish("", checks);
  const double peak_kib = w.peak_rss_kib();
  repeat_setup(w, checks, totals);
  w.discard(checks);
  Json metrics;
  metrics.num("reqs_per_s", median(r.window_rates))
      .num("cpu_us_per_req",
           ratio(r.cpu_s * 1e6, static_cast<double>(r.requests)))
      .num("setup_s", median(totals))
      .num("peak_rss_mb", peak_kib / 1024.0);
  std::vector<std::string> windows, setups;
  for (const double v : r.window_rates) {
    windows.push_back(format("%.6g", v));
  }
  for (const double v : totals) {
    setups.push_back(format("%.6g", v));
  }
  Json out;
  out.obj("metrics", metrics)
      .list("window_rates", windows, false)
      .list("setup_totals_s", setups, false)
      .u64("requests", r.requests)
      .obj("servers", server_checks(w));
  return out.dump();
}

std::string run_traced(Workload& w, const Options& o, Checks& checks) {
  std::vector<double> totals;
  const SetupTimes s = repeat_setup(w, checks, totals);
  w.discard(checks);
  // Passes A (untraced), B (traced) and C (untraced) on one seed. run.py
  // asserts that their statistics, request streams and counts agree.
  std::vector<std::string> stats, hashes, counts;
  double wall[3] = {};
  Json layers;
  for (int pass = 0; pass < 3; ++pass) {
    const bool traced = pass == 1;
    w.setup();
    PassResult r;
    w.run(traced, Limit{0, w.fixed_rounds()}, r, checks);
    wall[pass] = r.wall_s;
    hashes.push_back(format("%016" PRIx64, w.stream_hash()));
    Json c;
    w.pass_counts(c);
    counts.push_back(c.dump());
    stats.push_back(
        format("%s/stats_%c.json", o.workdir.c_str(), 'A' + pass));
    w.finish(stats.back(), checks);
    if (traced) {
      layers = r.layers;
      time_spec(w.stream.sample, layers, checks);
    }
  }
  layers.num("setup.create_s", s.create)
      .num("setup.cmc_load_s", s.cmc_load)
      .num("setup.mem_init_s", s.mem_init)
      .num("setup.connect_s", s.connect)
      .num("trace.overhead_frac", ratio(wall[1], wall[0]) - 1.0);
  Json out;
  out.obj("layers", layers)
      .num("untraced_wall_s", wall[0])
      .list("counts", counts, false)
      .list("stats", stats)
      .list("stream_hashes", hashes)
      .obj("servers", server_checks(w));
  return out.dump();
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    std::fputs(
        "usage: perfbench_load --workload W --seed N --seconds S --trace 0|1 "
        "--server PATH --plugins DIR --workdir DIR\n",
        stderr);
    return 2;
  }
  std::unique_ptr<Workload> w = make_workload(o);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench_load: unknown workload '%s'\n",
                 o.workload.c_str());
    return 2;
  }
  w->own_kib = status_kib("self", "VmRSS:");
  Checks checks;
  std::string body;
  try {
    body = o.trace ? run_traced(*w, o, checks) : run_timed(*w, o, checks);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_load: %s\n", e.what());
    return 1;
  }
  Json head;
  head.u64("attempted", checks.attempted)
      .u64("failed", checks.failed)
      .list("notes", checks.notes);
  // Splice the two objects: {head..., body...}.
  std::string doc = head.dump();
  doc.pop_back();
  doc += ", " + body.substr(1);
  std::printf("%s\n", doc.c_str());
  return 0;
}
