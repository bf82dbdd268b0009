// FunctionPlatform's backlog: per-pool FIFO queues drained in arrival order.
//
// * Equivalence: the whole-backlog scan the per-pool queues replaced is kept
//   below as a test-local reference platform; both are driven with the same
//   seeded multi-pool scenarios and must start the same requests, in the
//   same order, on the same instances, and leave the same requests queued.
// * Golden: the FNV-1a of every InvocationRecord of seeded multi-pool runs,
//   recorded before the per-pool queues landed.
// * Complexity: a 100,000-deep single-instance backlog drains in FIFO order
//   within the ctest TIMEOUT, which a drain that rescans the backlog on
//   every completion cannot meet.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "golden.h"
#include "serverless/forecast.h"
#include "serverless/platform.h"
#include "sim/simulator.h"

namespace tangram::serverless {
namespace {

// The platform's dispatch logic as it stood before per-pool queues: every
// waiting request sits in ONE deque in arrival order, and every drain walks
// and compacts all of it, blocking a pool at its first entry that cannot
// start.  Reduced to the state that decides what starts where and when —
// pool accounting, instance selection, queue-pressure and windowed-max
// autoscaling with pre-warm; faults, billing and telemetry samplers are
// left out because the scenarios below use none of them.
class ReferencePlatform {
 public:
  using Callback = FunctionPlatform::Callback;

  ReferencePlatform(sim::Simulator& sim, PlatformConfig config,
                    LatencyModelParams latency, std::uint64_t seed)
      : sim_(sim), config_(config), latency_(latency, common::Rng(seed, 5)) {
    (void)define_pool(
        {FunctionPlatform::kDefaultPool, 0, config_.max_instances});
    for (const CapacityPoolConfig& pool : config_.pools)
      (void)define_pool(pool);
  }

  int define_pool(const CapacityPoolConfig& config) {
    Pool pool;
    pool.reserved = config.reserved;
    pool.burst_limit =
        config.burst_limit < 0 ? config_.max_instances : config.burst_limit;
    pool.headroom = config.forecast_headroom >= 0 ? config.forecast_headroom
                                                  : config_.autoscale.headroom;
    pool.limit = config_.autoscale.initial_limit == 0
                     ? pool.burst_limit
                     : std::clamp(config_.autoscale.initial_limit,
                                  std::max(1, pool.reserved),
                                  pool.burst_limit);
    pools_.push_back(pool);
    return static_cast<int>(pools_.size()) - 1;
  }

  void invoke(const RequestSpec& spec, int pool, Callback on_complete) {
    maybe_arm_autoscaler();
    Pending pending{spec, std::move(on_complete), sim_.now(), pool};
    Pool& p = pools_[static_cast<std::size_t>(pool)];
    if (p.backlogged > 0 || headroom(pool) <= 0) {
      ++p.backlogged;
      backlog_.push_back(std::move(pending));
    } else {
      dispatch(std::move(pending));
    }
    note_demand_peak(p);
  }

  [[nodiscard]] std::size_t pool_count() const { return pools_.size(); }
  [[nodiscard]] std::size_t queued_requests() const { return backlog_.size(); }
  [[nodiscard]] std::size_t backlogged(int pool) const {
    return pools_[static_cast<std::size_t>(pool)].backlogged;
  }

 private:
  struct Instance {
    double busy_until = 0.0;
    double warm_until = 0.0;
    bool started = false;
  };
  struct Pending {
    RequestSpec spec;
    Callback callback;
    double submit_time = 0.0;
    int pool = 0;
  };
  struct Pool {
    int reserved = 0;
    int burst_limit = 0;
    int headroom = 0;
    int limit = 0;
    int in_use = 0;
    int prewarming = 0;
    std::size_t backlogged = 0;
    double demand_peak = 0.0;
    std::vector<double> demand_history;
    std::vector<double> forecast_history;
  };

  [[nodiscard]] int headroom(int pool) const {
    const Pool& p = pools_[static_cast<std::size_t>(pool)];
    int unmet_others = 0;
    for (std::size_t i = 0; i < pools_.size(); ++i)
      if (static_cast<int>(i) != pool)
        unmet_others += std::max(0, pools_[i].reserved - pools_[i].in_use);
    const int guaranteed = std::max(0, p.reserved - p.in_use);
    const int unreserved_free = config_.max_instances - total_in_use_ -
                                guaranteed - unmet_others;
    const int physical =
        std::min(config_.max_instances - total_in_use_,
                 guaranteed + std::max(0, unreserved_free));
    return std::max(0, std::min(p.limit - p.in_use, physical));
  }

  // The drain under test's predecessor: one pass over the whole backlog.
  void drain() {
    if (backlog_.empty()) return;
    std::vector<char> blocked(pools_.size(), 0);
    std::size_t write = 0;
    for (std::size_t read = 0; read < backlog_.size(); ++read) {
      Pending& entry = backlog_[read];
      const auto pool = static_cast<std::size_t>(entry.pool);
      if (blocked[pool] == 0 && headroom(entry.pool) > 0) {
        --pools_[pool].backlogged;
        dispatch(std::move(entry));
        continue;
      }
      blocked[pool] = 1;
      if (write != read) backlog_[write] = std::move(entry);
      ++write;
    }
    backlog_.resize(write);
  }

  int find_idle_warm_instance() {
    const int n = static_cast<int>(instances_.size());
    for (int step = 0; step < n; ++step) {
      const int i = (round_robin_ + step) % n;
      const Instance& inst = instances_[static_cast<std::size_t>(i)];
      if (inst.started && inst.busy_until <= sim_.now() &&
          inst.warm_until > sim_.now()) {
        round_robin_ = (i + 1) % n;
        return i;
      }
    }
    return -1;
  }

  [[nodiscard]] int find_cooled_slot() const {
    for (std::size_t i = 0; i < instances_.size(); ++i)
      if (instances_[i].busy_until <= sim_.now() &&
          instances_[i].warm_until <= sim_.now())
        return static_cast<int>(i);
    return -1;
  }

  void dispatch(Pending pending) {
    const int warm = find_idle_warm_instance();
    if (warm >= 0) return start(warm, std::move(pending), false);
    const int cooled = find_cooled_slot();
    if (cooled >= 0) return start(cooled, std::move(pending), true);
    instances_.push_back(Instance{});
    start(static_cast<int>(instances_.size()) - 1, std::move(pending), true);
  }

  void start(int instance, Pending pending, bool cold) {
    Instance& inst = instances_[static_cast<std::size_t>(instance)];
    const double setup = cold ? config_.cold_start_s : 0.0;
    const double exec = latency_.sample_batch_latency(
        pending.spec.num_canvases, pending.spec.canvas);
    InvocationRecord record;
    record.id = inflight_.size();
    record.submit_time = pending.submit_time;
    record.start_time = sim_.now() + setup;
    record.finish_time = record.start_time + exec;
    record.execution_s = exec;
    record.setup_s = setup;
    record.instance_id = instance;
    record.pool = pending.pool;
    record.cold_start = cold;
    record.spec = pending.spec;
    inst.started = true;
    inst.busy_until = record.finish_time;
    inst.warm_until = record.finish_time + config_.keepalive_s;
    ++total_in_use_;
    ++pools_[static_cast<std::size_t>(pending.pool)].in_use;
    inflight_.push_back({record, std::move(pending.callback)});
    const std::uint64_t id = record.id;
    sim_.schedule_at(record.finish_time, [this, id] { finish(id); });
  }

  void finish(std::uint64_t id) {
    const InvocationRecord record = inflight_[id].first;
    const Callback cb = std::move(inflight_[id].second);
    --total_in_use_;
    --pools_[static_cast<std::size_t>(record.pool)].in_use;
    if (cb) cb(record);
    drain();
  }

  void note_demand_peak(Pool& pool) {
    if (!config_.autoscale.forecasting()) return;
    pool.demand_peak =
        std::max(pool.demand_peak,
                 static_cast<double>(pool.in_use - pool.prewarming) +
                     static_cast<double>(pool.backlogged));
  }

  void maybe_arm_autoscaler() {
    if (config_.autoscale.kind == AutoscalePolicy::Kind::kStatic) return;
    if (timer_.pending()) return;
    timer_ = sim_.schedule_in(config_.autoscale.interval_s, [this] { tick(); });
  }

  void tick() {
    const AutoscalePolicy& policy = config_.autoscale;
    const bool forecasting = policy.forecasting();
    bool limits_moved = false;
    bool saw_demand = false;
    for (Pool& pool : pools_) {
      int next = pool.limit;
      if (forecasting) {
        const double now_demand =
            static_cast<double>(pool.in_use - pool.prewarming) +
            static_cast<double>(pool.backlogged);
        pool.demand_history.push_back(std::max(pool.demand_peak, now_demand));
        pool.demand_peak = now_demand;
        pool.forecast_history.push_back(
            forecast::windowed_max(pool.demand_history, policy.window));
        saw_demand |= pool.demand_history.back() > 0.0;
        next = std::clamp(
            static_cast<int>(std::ceil(pool.forecast_history.back() - 1e-9)) +
                pool.headroom,
            std::max(1, pool.reserved), pool.burst_limit);
      } else {
        if (pool.backlogged >= policy.backlog_scale_up) {
          ++next;
        } else if (pool.backlogged == 0 && pool.in_use < next) {
          --next;
        }
        next = std::clamp(next, std::max(1, pool.reserved), pool.burst_limit);
      }
      limits_moved |= next != pool.limit;
      pool.limit = next;
    }
    const std::size_t backlog_before = backlog_.size();
    drain();
    if (forecasting && policy.prewarm) prewarm();
    const bool progressed = limits_moved || backlog_.size() != backlog_before;
    const bool starved = total_in_use_ == 0 && !backlog_.empty() && !progressed;
    idle_ticks_ = saw_demand && !starved ? 0 : idle_ticks_ + 1;
    bool predicts_demand = false;
    if (forecasting && policy.prewarm && idle_ticks_ <= 2 * policy.window)
      for (const Pool& pool : pools_)
        predicts_demand |=
            !pool.forecast_history.empty() &&
            static_cast<int>(std::ceil(pool.forecast_history.back() - 1e-9)) >
                0;
    if (total_in_use_ > 0 || predicts_demand ||
        (!backlog_.empty() && progressed))
      timer_ = sim_.schedule_in(policy.interval_s, [this] { tick(); });
  }

  void prewarm() {
    int idle_warm = 0;
    for (const Instance& inst : instances_)
      if (inst.started && inst.busy_until <= sim_.now() &&
          inst.warm_until > sim_.now())
        ++idle_warm;
    int bootable =
        std::max(0, config_.max_instances - total_in_use_ - idle_warm);
    for (std::size_t i = 0; i < pools_.size(); ++i) {
      Pool& pool = pools_[i];
      if (pool.forecast_history.empty()) continue;
      const int target = std::min(
          static_cast<int>(std::ceil(pool.forecast_history.back() - 1e-9)),
          pool.limit);
      int shortfall = target - pool.in_use;
      const int claimed = std::min(idle_warm, std::max(0, shortfall));
      idle_warm -= claimed;
      shortfall -= claimed;
      while (shortfall > 0 && bootable > 0 &&
             headroom(static_cast<int>(i)) > 0) {
        const int slot = find_cooled_slot();
        if (slot < 0) break;
        Instance& inst = instances_[static_cast<std::size_t>(slot)];
        inst.started = true;
        inst.busy_until = sim_.now() + config_.cold_start_s;
        inst.warm_until = inst.busy_until + config_.keepalive_s;
        ++total_in_use_;
        ++pool.in_use;
        ++pool.prewarming;
        const int pool_idx = static_cast<int>(i);
        sim_.schedule_at(inst.busy_until, [this, pool_idx] {
          Pool& p = pools_[static_cast<std::size_t>(pool_idx)];
          --p.prewarming;
          --p.in_use;
          --total_in_use_;
          drain();
        });
        --shortfall;
        --bootable;
      }
    }
  }

  sim::Simulator& sim_;
  PlatformConfig config_;
  InferenceLatencyModel latency_;
  std::vector<Instance> instances_;
  std::vector<Pool> pools_;
  std::deque<Pending> backlog_;
  std::vector<std::pair<InvocationRecord, Callback>> inflight_;
  sim::EventHandle timer_;
  std::size_t idle_ticks_ = 0;
  int round_robin_ = 0;
  int total_in_use_ = 0;
};

[[nodiscard]] std::size_t backlogged(const FunctionPlatform& platform,
                                     int pool) {
  return platform.pool_telemetry(pool).backlogged;
}
[[nodiscard]] std::size_t backlogged(const ReferencePlatform& platform,
                                     int pool) {
  return platform.backlogged(pool);
}

// A seeded multi-pool workload: three named pools whose reservations sum to
// within two instances of the fleet, one more pool defined mid-run while
// requests are queued, arrivals on a 1/8 s grid (so many share a timestamp
// with each other, with completions and with autoscale ticks), and
// completion callbacks that submit again at their own timestamp — before
// the completion's drain runs.
struct Scenario {
  struct Arrival {
    double time = 0.0;
    int pool = 0;
    int canvases = 1;
  };
  PlatformConfig config;
  LatencyModelParams latency;
  std::vector<Arrival> arrivals;
  double define_at = 0.0;
  CapacityPoolConfig late_pool;
  std::uint64_t seed = 0;
};

Scenario make_scenario(std::uint64_t seed) {
  common::Rng rng(seed, 91);
  Scenario s;
  s.seed = seed;
  PlatformConfig& c = s.config;
  c.max_instances = rng.uniform_int(4, 10);
  c.cold_start_s = 0.5;
  c.keepalive_s = 0.125 * rng.uniform_int(8, 24);
  const std::uint64_t kind = seed % 3;
  // The late pool reserves one more instance.  Static and queue-pressure
  // fleets may end up fully reserved, which starves the default pool for
  // good; windowed-max fleets keep one more instance unreserved.  Starved
  // pre-warm fleets terminate as well (pinned by
  // Autoscale.TerminatesOnPermanentlyStarvedBacklog), but
  // Backlog.MultiPoolRunGolden hashes these scenarios, so they stay as
  // generated.
  const int unreserved = 1 + rng.uniform_int(0, 1) + (kind == 2 ? 1 : 0);
  int reservable = c.max_instances - unreserved;
  const char* const names[] = {"p0", "p1", "p2"};
  for (int i = 0; i < 3; ++i) {
    const int reserved = i == 2 ? reservable : rng.uniform_int(0, reservable);
    reservable -= reserved;
    const int burst =
        rng.bernoulli(0.3)
            ? -1
            : rng.uniform_int(std::max(1, reserved), c.max_instances);
    c.pools.push_back({names[i], reserved, burst});
  }
  s.late_pool = {"late", 1, rng.uniform_int(1, c.max_instances)};
  switch (kind) {
    case 0:
      break;  // static limits
    case 1:
      c.autoscale = AutoscalePolicy::queue_pressure(
          static_cast<std::size_t>(rng.uniform_int(1, 3)), 0.5,
          rng.uniform_int(1, 2));
      break;
    default:
      c.autoscale = AutoscalePolicy::windowed_max(
          static_cast<std::size_t>(rng.uniform_int(2, 6)), 0.5, 1);
      c.autoscale.prewarm = true;
      c.autoscale.headroom = rng.uniform_int(0, 2);
      break;
  }
  // Even seeds: exact binary-fraction latencies (0.25 + 0.125 * canvases),
  // so completions land on the arrival grid; odd seeds: jittered latencies.
  if (seed % 2 == 0) {
    s.latency.overhead_s = 0.25;
    s.latency.per_canvas_s = 0.125;
    s.latency.batch_alpha = 1.0;
    s.latency.jitter_sigma = 0.0;
  }
  s.define_at = 0.125 * rng.uniform_int(24, 48);
  const int n = rng.uniform_int(150, 300);
  for (int i = 0; i < n; ++i) {
    Scenario::Arrival a;
    a.time = 0.125 * rng.uniform_int(0, 96);
    a.pool = rng.uniform_int(0, 3);
    a.canvases = rng.uniform_int(1, 3);
    // Some traffic for the late pool, strictly after it exists.
    if (a.time > s.define_at && rng.bernoulli(0.2)) a.pool = 4;
    s.arrivals.push_back(a);
  }
  return s;
}

struct Outcome {
  std::vector<InvocationRecord> records;  // completion order
  std::vector<std::size_t> backlogged;    // per pool, after the run
  std::size_t queued = 0;
  std::size_t queued_at_define = 0;  // waiting when the late pool appeared
};

template <class Platform>
Outcome run_scenario(const Scenario& s) {
  sim::Simulator sim;
  Platform platform(sim, s.config, s.latency, s.seed);
  Outcome out;
  int next_tag = 0;
  int echoes = 0;
  std::function<void(const InvocationRecord&)> on_complete;
  const auto submit = [&](int pool, int canvases) {
    RequestSpec spec;
    spec.num_canvases = canvases;
    spec.num_items = next_tag++;  // identifies the request in its record
    platform.invoke(spec, pool, on_complete);
  };
  on_complete = [&](const InvocationRecord& r) {
    out.records.push_back(r);
    // Resubmit at the completion's own timestamp, ahead of its drain.
    if ((r.id * 2654435761u + s.seed) % 5 == 0 && echoes < 200) {
      ++echoes;
      submit(static_cast<int>(r.id % platform.pool_count()),
             1 + static_cast<int>(r.id % 3));
    }
  };
  sim.schedule_at(s.define_at, [&] {
    out.queued_at_define = platform.queued_requests();
    EXPECT_EQ(platform.define_pool(s.late_pool), 4);
  });
  for (const Scenario::Arrival& a : s.arrivals)
    sim.schedule_at(a.time, [&submit, a] { submit(a.pool, a.canvases); });
  sim.run();
  out.queued = platform.queued_requests();
  for (std::size_t i = 0; i < platform.pool_count(); ++i)
    out.backlogged.push_back(backlogged(platform, static_cast<int>(i)));
  return out;
}

std::string record_line(const InvocationRecord& r) {
  char line[192];
  std::snprintf(line, sizeof(line), "%llu %d %.17g %.17g %.17g %d %d %d\n",
                static_cast<unsigned long long>(r.id), r.pool, r.submit_time,
                r.start_time, r.finish_time, r.instance_id,
                r.cold_start ? 1 : 0, r.spec.num_items);
  return line;
}

TEST(Backlog, PerPoolQueuesMatchWholeBacklogScan) {
  std::size_t dispatched = 0;
  std::size_t left_queued = 0;
  int defined_over_backlog = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const Scenario s = make_scenario(seed);
    const Outcome expected = run_scenario<ReferencePlatform>(s);
    const Outcome actual = run_scenario<FunctionPlatform>(s);
    ASSERT_EQ(actual.records.size(), expected.records.size())
        << "seed " << seed;
    for (std::size_t i = 0; i < expected.records.size(); ++i)
      ASSERT_EQ(record_line(actual.records[i]),
                record_line(expected.records[i]))
          << "seed " << seed << " completion " << i;
    EXPECT_EQ(actual.queued, expected.queued) << "seed " << seed;
    EXPECT_EQ(actual.backlogged, expected.backlogged) << "seed " << seed;
    dispatched += expected.records.size();
    left_queued += expected.queued;
    defined_over_backlog += expected.queued_at_define > 0 ? 1 : 0;
  }
  // The scenarios exercise a draining and a starved backlog, and a pool
  // defined (reallocating the pool table) while requests wait.
  EXPECT_GT(dispatched, 10000u);
  EXPECT_GT(left_queued, 0u);
  EXPECT_GT(defined_over_backlog, 10);
}

TEST(Backlog, MultiPoolRunGolden) {
  // One scenario per autoscale kind (static, queue pressure, windowed max
  // with pre-warm), each with grid-aligned and jittered latencies.
  std::string log;
  for (const std::uint64_t seed : {6u, 7u, 10u, 11u, 14u, 15u}) {
    const Outcome out = run_scenario<FunctionPlatform>(make_scenario(seed));
    for (const InvocationRecord& r : out.records) log += record_line(r);
    log += "queued " + std::to_string(out.queued) + "\n";
  }
  EXPECT_EQ(golden::fnv1a(log), 0x3f2b3bc0b8787f67ull);
}

TEST(Backlog, DeepBacklogDrainsInLinearTime) {
  constexpr int kRequests = 100000;
  sim::Simulator sim;
  PlatformConfig config;
  config.max_instances = 1;
  LatencyModelParams latency;
  latency.jitter_sigma = 0.0;
  FunctionPlatform platform(sim, config, latency);
  std::vector<int> order;
  order.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    RequestSpec spec;
    spec.num_canvases = 1;
    spec.num_items = i;
    platform.invoke(spec, [&order](const InvocationRecord& r) {
      order.push_back(r.spec.num_items);
    });
  }
  EXPECT_EQ(platform.queued_requests(),
            static_cast<std::size_t>(kRequests - 1));
  sim.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) ASSERT_EQ(order[i], i);
  EXPECT_EQ(platform.queued_requests(), 0u);
  EXPECT_EQ(platform.pool_telemetry(0).backlogged, 0u);
}

}  // namespace
}  // namespace tangram::serverless
