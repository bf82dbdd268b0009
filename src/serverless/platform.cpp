#include "serverless/platform.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/hot_path.h"
#include "serverless/forecast.h"

namespace tangram::serverless {

namespace {

// Resolve + validate a pool definition against the fleet cap.
CapacityPoolConfig resolve_pool(const CapacityPoolConfig& pool,
                                int max_instances) {
  if (pool.name.empty())
    throw std::invalid_argument("CapacityPool: name must be non-empty");
  CapacityPoolConfig resolved = pool;
  if (resolved.burst_limit < 0) resolved.burst_limit = max_instances;
  if (resolved.reserved < 0)
    throw std::invalid_argument("CapacityPool '" + pool.name +
                                "': reserved must be >= 0");
  if (resolved.burst_limit < 1)
    throw std::invalid_argument("CapacityPool '" + pool.name +
                                "': burst_limit must be >= 1");
  if (resolved.burst_limit > max_instances)
    throw std::invalid_argument("CapacityPool '" + pool.name +
                                "': burst_limit exceeds max_instances");
  if (resolved.reserved > resolved.burst_limit)
    throw std::invalid_argument("CapacityPool '" + pool.name +
                                "': reserved exceeds burst_limit");
  if (resolved.forecast_headroom < -1)
    throw std::invalid_argument("CapacityPool '" + pool.name +
                                "': forecast_headroom must be >= -1");
  return resolved;
}

}  // namespace

FunctionPlatform::FunctionPlatform(sim::Simulator& simulator,
                                   PlatformConfig config,
                                   LatencyModelParams latency_params,
                                   std::uint64_t seed)
    : sim_(simulator),
      config_(config),
      latency_(latency_params, common::Rng(seed, 5)),
      fault_rng_(seed ^ 0xFA17ED, 15),
      execution_latency_(config.telemetry_reservoir),
      cold_start_setup_(config.telemetry_reservoir) {
  if (config_.max_instances < 1)
    throw std::invalid_argument("FunctionPlatform: max_instances must be >=1");
  const AutoscalePolicy& scale = config_.autoscale;
  // Written as !(> 0) so a NaN interval is rejected too.
  if (scale.kind != AutoscalePolicy::Kind::kStatic && !(scale.interval_s > 0.0))
    throw std::invalid_argument(
        "FunctionPlatform: autoscale interval_s must be > 0");
  if (scale.forecasting()) {
    // Only kEwma reads alpha; window serves every forecast kind (the
    // pre-warm idle budget).
    if (scale.kind == AutoscalePolicy::Kind::kEwma &&
        (!(scale.alpha > 0.0) || scale.alpha > 1.0))
      throw std::invalid_argument(
          "FunctionPlatform: autoscale alpha must be in (0, 1]");
    if (scale.window < 1)
      throw std::invalid_argument(
          "FunctionPlatform: autoscale window must be >= 1");
    if (scale.headroom < 0)
      throw std::invalid_argument(
          "FunctionPlatform: autoscale headroom must be >= 0");
  } else if (scale.prewarm) {
    throw std::invalid_argument(
        "FunctionPlatform: prewarm requires a forecast-driven autoscale "
        "policy");
  }
  // The default pool always exists and spans the whole fleet, so an
  // un-pooled platform behaves exactly as before pools existed.
  (void)define_pool({kDefaultPool, 0, config_.max_instances});
  for (const CapacityPoolConfig& pool : config_.pools) (void)define_pool(pool);
}

int FunctionPlatform::define_pool(const CapacityPoolConfig& config) {
  const CapacityPoolConfig resolved =
      resolve_pool(config, config_.max_instances);
  int reserved_total = resolved.reserved;
  for (std::size_t i = 0; i < pools_.size(); ++i) {
    const Pool& existing = pools_[i];
    if (existing.name == resolved.name) {
      if (existing.reserved != resolved.reserved ||
          existing.burst_limit != resolved.burst_limit)
        throw std::invalid_argument("CapacityPool '" + resolved.name +
                                    "': redefined with different limits");
      return static_cast<int>(i);
    }
    reserved_total += existing.reserved;
  }
  if (reserved_total > config_.max_instances)
    throw std::invalid_argument(
        "CapacityPool '" + resolved.name +
        "': pool reservations exceed max_instances (" +
        std::to_string(reserved_total) + " > " +
        std::to_string(config_.max_instances) + ")");

  Pool pool;
  pool.name = resolved.name;
  pool.reserved = resolved.reserved;
  pool.burst_limit = resolved.burst_limit;
  pool.headroom = resolved.forecast_headroom >= 0
                      ? resolved.forecast_headroom
                      : config_.autoscale.headroom;
  pool.backlog_depth = common::Sampler(config_.telemetry_reservoir);
  const int floor_limit = std::max(1, pool.reserved);
  pool.limit = config_.autoscale.initial_limit == 0
                   ? pool.burst_limit
                   : std::clamp(config_.autoscale.initial_limit, floor_limit,
                                pool.burst_limit);
  pools_.push_back(std::move(pool));
  return static_cast<int>(pools_.size()) - 1;
}

int FunctionPlatform::unmet_reservations_excluding(int pool) const {
  int unmet = 0;
  for (std::size_t i = 0; i < pools_.size(); ++i) {
    if (static_cast<int>(i) == pool) continue;
    unmet += std::max(0, pools_[i].reserved - pools_[i].in_use);
  }
  return unmet;
}

int FunctionPlatform::pool_headroom(int pool) const {
  const Pool& p = pools_.at(static_cast<std::size_t>(pool));
  // Guaranteed lane: slack below the pool's own reservation.  Unreserved
  // lane: fleet slots not in use and not owed to any pool's reservation
  // (including this pool's own unmet share, which the guaranteed term
  // already counts).  Both are capped by the slots actually free: a pool
  // defined while earlier work saturates the fleet is owed its reservation
  // but gets it only as that work drains (reservations never pre-empt).
  const int guaranteed = std::max(0, p.reserved - p.in_use);
  const int unreserved_free =
      config_.max_instances - total_in_use_ - guaranteed -
      unmet_reservations_excluding(pool);
  const int physical = std::min(config_.max_instances - total_in_use_,
                                guaranteed + std::max(0, unreserved_free));
  return std::max(0, std::min(p.limit - p.in_use, physical));
}

PoolTelemetry FunctionPlatform::pool_telemetry(int pool) const {
  const Pool& p = pools_.at(static_cast<std::size_t>(pool));
  PoolTelemetry t;
  t.name = p.name;
  t.reserved = p.reserved;
  t.burst_limit = p.burst_limit;
  t.limit = p.limit;
  t.in_use = p.in_use;
  t.peak_in_use = p.peak_in_use;
  t.dispatched = p.dispatched;
  t.cold_starts = p.cold_starts;
  t.backlogged = p.queue.size();
  t.backlog_depth = p.backlog_depth;
  t.series = p.series;
  t.demand_history = p.demand_history;
  t.forecast_history = p.forecast_history;
  t.prewarm_boots = p.prewarm_boots;
  t.prewarm_cost = p.prewarm_cost;
  return t;
}

std::uint64_t FunctionPlatform::prewarm_boots() const {
  std::uint64_t total = 0;
  for (const Pool& pool : pools_) total += pool.prewarm_boots;
  return total;
}

double FunctionPlatform::prewarm_cost() const {
  double total = 0.0;
  for (const Pool& pool : pools_) total += pool.prewarm_cost;
  return total;
}

std::vector<PoolTelemetry> FunctionPlatform::pool_telemetry() const {
  std::vector<PoolTelemetry> all;
  all.reserve(pools_.size());
  for (std::size_t i = 0; i < pools_.size(); ++i)
    all.push_back(pool_telemetry(static_cast<int>(i)));
  return all;
}

int FunctionPlatform::max_canvases_per_batch(common::Size canvas) const {
  const double free_gb = config_.resources.gpu_gb - config_.model_gpu_gb;
  if (free_gb <= 0) return 0;
  const double per_canvas_gb = config_.canvas_gpu_gb *
                               static_cast<double>(canvas.area()) /
                               (1024.0 * 1024.0);
  // canvas_gpu_gb == 0 (or a zero-area canvas) models canvases that cost no
  // VRAM: batches are unconstrained rather than a division by zero.
  if (per_canvas_gb <= 0.0) return std::numeric_limits<int>::max();
  return static_cast<int>(
      std::floor(std::min(free_gb / per_canvas_gb,
                          static_cast<double>(
                              std::numeric_limits<int>::max()))));
}

int FunctionPlatform::find_idle_warm_instance() {
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

void FunctionPlatform::invoke(const RequestSpec& spec, Callback on_complete) {
  invoke_on_pool(spec, 0, std::move(on_complete));
}

void FunctionPlatform::invoke(const RequestSpec& spec, int pool,
                              Callback on_complete) {
  if (pool < 0 || static_cast<std::size_t>(pool) >= pools_.size())
    throw std::out_of_range("FunctionPlatform: capacity pool index " +
                            std::to_string(pool) + " out of range");
  invoke_on_pool(spec, pool, std::move(on_complete));
}

TANGRAM_HOT_PATH void FunctionPlatform::invoke_on_pool(const RequestSpec& spec,
                                                       int pool,
                                                       Callback on_complete) {
  if (spec.num_canvases > 0 &&
      spec.num_canvases > max_canvases_per_batch(spec.canvas))
    throw std::invalid_argument(
        "FunctionPlatform::invoke: batch exceeds GPU memory (constraint 5)");
  if (spec.num_canvases <= 0 && spec.image_megapixels <= 0.0)
    throw std::invalid_argument("FunctionPlatform::invoke: empty request");

  maybe_arm_autoscaler();
  Pending pending{spec, std::move(on_complete), sim_.now(), pool};
  Pool& p = pools_[static_cast<std::size_t>(pool)];
  // FIFO: a new arrival never jumps ahead of its pool's waiting requests.
  // The queue check matters at completion timestamps — an arrival
  // sequenced before the completion's drain callback would otherwise see
  // the freed instance and dispatch past the backlog head.
  if (!p.queue.empty() || !pool_has_capacity(pool)) {
    pending.seq = next_seq_++;
    // reserve: the pool's ring keeps its high-water capacity across drains
    p.queue.push_back(std::move(pending));
    ++queued_;
    p.backlog_depth.add(static_cast<double>(p.queue.size()));
    note_demand_peak(p);
    return;
  }
  dispatch(std::move(pending));
  note_demand_peak(p);
}

void FunctionPlatform::note_demand_peak(Pool& pool) {
  if (!config_.autoscale.forecasting()) return;
  const double demand = static_cast<double>(pool.in_use - pool.prewarming) +
                        static_cast<double>(pool.queue.size());
  pool.demand_peak = std::max(pool.demand_peak, demand);
}

int FunctionPlatform::find_cooled_slot() const {
  for (int i = 0; i < static_cast<int>(instances_.size()); ++i) {
    const Instance& inst = instances_[static_cast<std::size_t>(i)];
    if (inst.busy_until <= sim_.now() && inst.warm_until <= sim_.now())
      return i;
  }
  return -1;
}

TANGRAM_HOT_PATH void FunctionPlatform::dispatch(Pending pending) {
  const int warm = find_idle_warm_instance();
  if (warm >= 0) {
    start_on_instance(warm, std::move(pending), /*cold=*/false);
    return;
  }
  // Reuse an expired (cooled-down) slot or grow the fleet: both pay a cold
  // start.  An expired slot is equivalent to a fresh instance.
  const int cooled = find_cooled_slot();
  if (cooled >= 0) {
    start_on_instance(cooled, std::move(pending), /*cold=*/true);
    return;
  }
  if (static_cast<int>(instances_.size()) >= config_.max_instances)
    throw std::logic_error("FunctionPlatform::dispatch without capacity");
  // reserve: fleet growth is capped at max_instances, then slots recycle
  instances_.push_back(Instance{});
  start_on_instance(static_cast<int>(instances_.size()) - 1,
                    std::move(pending), /*cold=*/true);
}

void FunctionPlatform::PendingRing::push_back(Pending&& pending) {
  if (size_ == slots_.size()) {
    // Full: double the storage, unrolling the ring so the head lands at 0.
    std::vector<Pending> grown(std::max<std::size_t>(8, 2 * slots_.size()));
    for (std::size_t i = 0; i < size_; ++i)
      grown[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    slots_ = std::move(grown);
    head_ = 0;
  }
  slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(pending);
  ++size_;
}

TANGRAM_HOT_PATH void FunctionPlatform::drain_backlog() {
  if (queued_ == 0) return;
  // One pass over the backlog in arrival order, visiting only pool heads:
  // the next entry is the earliest-arrived head among pools not yet
  // blocked.  It starts if its pool has capacity; otherwise its pool is
  // blocked for the rest of the pass, so every later entry of that pool
  // stays queued (strict FIFO within a pool) while other pools keep
  // draining past it.  Dispatching only consumes capacity, so a blocked
  // pool could not start anything later in the pass anyway.
  drain_scratch_.assign(pools_.size(), 0);
  for (;;) {
    std::size_t next = pools_.size();
    std::uint64_t next_seq = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t i = 0; i < pools_.size(); ++i) {
      const PendingRing& queue = pools_[i].queue;
      if (drain_scratch_[i] == 0 && !queue.empty() &&
          queue.front().seq < next_seq) {
        next = i;
        next_seq = queue.front().seq;
      }
    }
    if (next == pools_.size()) return;
    if (!pool_has_capacity(static_cast<int>(next))) {
      drain_scratch_[next] = 1;
      continue;
    }
    --queued_;
    dispatch(pools_[next].queue.pop_front());
  }
}

TANGRAM_HOT_PATH void FunctionPlatform::start_on_instance(int instance,
                                                          Pending pending,
                                                          bool cold) {
  Instance& inst = instances_[static_cast<std::size_t>(instance)];
  Pool& pool = pools_[static_cast<std::size_t>(pending.pool)];

  const auto sample_exec = [&] {
    return pending.spec.num_canvases > 0
               ? latency_.sample_batch_latency(pending.spec.num_canvases,
                                               pending.spec.canvas)
               : latency_.sample_image_latency(pending.spec.image_megapixels);
  };

  double setup = cold ? config_.cold_start_s : 0.0;
  double exec = sample_exec();
  bool straggler = false;
  int attempts = 1;
  const FailureInjection& faults = config_.faults;
  if (faults.enabled()) {
    if (cold && fault_rng_.bernoulli(faults.cold_spike_probability))
      setup *= faults.cold_spike_factor;
    if (fault_rng_.bernoulli(faults.straggler_probability)) {
      exec *= faults.straggler_factor;
      straggler = true;
      ++stragglers_;
    }
    if (fault_rng_.bernoulli(faults.failure_probability)) {
      // Transient failure: the attempt runs to completion, fails, and the
      // platform retries once; both attempts are billed.
      exec += faults.retry_delay_s + sample_exec();
      attempts = 2;
      ++retries_;
    }
  }

  InvocationRecord record;
  record.id = next_id_++;
  record.submit_time = pending.submit_time;
  record.start_time = sim_.now() + setup;
  record.finish_time = record.start_time + exec;
  record.execution_s = exec;
  record.setup_s = setup;
  record.cost = invocation_cost(exec, config_.resources, config_.pricing);
  record.instance_id = instance;
  record.pool = pending.pool;
  record.cold_start = cold;
  record.straggler = straggler;
  record.attempts = attempts;
  record.spec = pending.spec;

  inst.started = true;
  inst.busy_until = record.finish_time;
  inst.warm_until = record.finish_time + config_.keepalive_s;

  ++total_in_use_;
  ++pool.in_use;
  pool.peak_in_use = std::max(pool.peak_in_use, pool.in_use);
  ++pool.dispatched;
  if (cold) {
    // Every cold start boots a fresh execution environment, whether the slot
    // is new or a cooled-down one being re-provisioned.
    ++cold_starts_;
    ++pool.cold_starts;
    cold_start_setup_.add(setup);
  }

  total_cost_ += record.cost;
  busy_seconds_ += exec;
  execution_latency_.add(exec);

  const std::uint32_t slot = acquire_completion();
  completions_[slot].record = record;
  completions_[slot].callback = std::move(pending.callback);
  sim_.schedule_at(record.finish_time,
                   [this, slot] { finish_invocation(slot); });
}

TANGRAM_HOT_PATH std::uint32_t FunctionPlatform::acquire_completion() {
  if (completion_free_.empty()) {
    completions_.emplace_back();
    return static_cast<std::uint32_t>(completions_.size() - 1);
  }
  const std::uint32_t slot = completion_free_.back();
  completion_free_.pop_back();
  return slot;
}

TANGRAM_HOT_PATH void FunctionPlatform::finish_invocation(std::uint32_t slot) {
  // Copy out and release the slot first: the callback (or the drain it
  // triggers) may invoke again and legitimately reuse this very slot.
  const InvocationRecord record = completions_[slot].record;
  Callback cb = std::move(completions_[slot].callback);
  completions_[slot].callback = nullptr;
  // reserve: slot freelist keeps the completion high-water capacity
  completion_free_.push_back(slot);
  // Free the capacity before the callback runs, so work the callback
  // submits sees the slot (and drain below keeps FIFO for anything already
  // waiting).
  --total_in_use_;
  --pools_[static_cast<std::size_t>(record.pool)].in_use;
  if (cb) cb(record);
  drain_backlog();
}

void FunctionPlatform::maybe_arm_autoscaler() {
  if (config_.autoscale.kind == AutoscalePolicy::Kind::kStatic) return;
  if (autoscale_timer_.pending()) return;
  autoscale_timer_ =
      sim_.schedule_in(config_.autoscale.interval_s, [this] {
        autoscale_tick();
      });
}

int FunctionPlatform::autoscale_decision(const Pool& pool) const {
  const AutoscalePolicy& policy = config_.autoscale;
  const int floor_limit = std::max(1, pool.reserved);
  int limit = pool.limit;
  switch (policy.kind) {
    case AutoscalePolicy::Kind::kStatic:
      return limit;
    case AutoscalePolicy::Kind::kQueuePressure: {
      if (pool.queue.size() >= policy.backlog_scale_up) {
        ++limit;
      } else if (pool.queue.empty() && pool.in_use < limit) {
        --limit;
      }
      break;
    }
    case AutoscalePolicy::Kind::kEwma:
    case AutoscalePolicy::Kind::kWindowedMax:
      // Forecast kinds are decided in autoscale_tick() from the value
      // observe_and_forecast() just recorded.
      return limit;
  }
  return std::clamp(limit, floor_limit, pool.burst_limit);
}

double FunctionPlatform::observe_and_forecast(Pool& pool) {
  const AutoscalePolicy& policy = config_.autoscale;
  // Demand = instances serving this pool + requests waiting on it, taken as
  // the high-watermark since the previous observation: bursts shorter than
  // the observation interval are the exact thing pre-warming exists for,
  // and an instant sample at the boundary would miss them entirely.
  // Pre-warming instances are excluded: they are supply provisioned against
  // the forecast, and counting them as demand would feed the forecast back
  // into itself.
  const double now_demand =
      static_cast<double>(pool.in_use - pool.prewarming) +
      static_cast<double>(pool.queue.size());
  const double demand = std::max(pool.demand_peak, now_demand);
  pool.demand_peak = now_demand;  // the level carries into the next span
  pool.demand_history.push_back(demand);
  double predicted = 0.0;
  switch (policy.kind) {
    case AutoscalePolicy::Kind::kEwma:
      predicted = forecast::ewma(pool.demand_history, policy.alpha);
      break;
    case AutoscalePolicy::Kind::kWindowedMax:
      predicted = forecast::windowed_max(pool.demand_history, policy.window);
      break;
    case AutoscalePolicy::Kind::kStatic:
    case AutoscalePolicy::Kind::kQueuePressure:
      break;  // non-forecast kinds never reach here
  }
  pool.forecast_history.push_back(predicted);
  return predicted;
}

void FunctionPlatform::prewarm_pools() {
  // Warm capacity is fungible across pools, so only pre-warm what idle-warm
  // instances cannot already cover.
  int idle_warm = 0;
  for (const Instance& inst : instances_)
    if (inst.started && inst.busy_until <= sim_.now() &&
        inst.warm_until > sim_.now())
      ++idle_warm;
  // Pre-warming re-warms COOLED capacity only — it never grows the fleet.
  // Speculatively booting brand-new instances would bill provisioned time on
  // workloads a reactive policy serves with on-demand cold starts, so a
  // forecaster could not meet "cost no higher than reactive"; re-warming
  // slots the keepalive already cooled pays the same setup the next wave
  // would have paid anyway, just before the arrivals instead of under them.
  int bootable = std::max(0, config_.max_instances - total_in_use_ - idle_warm);
  for (std::size_t i = 0; i < pools_.size(); ++i) {
    Pool& pool = pools_[i];
    if (pool.forecast_history.empty()) continue;
    const int target =
        std::min(static_cast<int>(std::ceil(pool.forecast_history.back() -
                                            1e-9)),
                 pool.limit);
    int shortfall = target - pool.in_use;
    const int claimed = std::min(idle_warm, std::max(0, shortfall));
    idle_warm -= claimed;
    shortfall -= claimed;
    while (shortfall > 0 && bootable > 0 &&
           pool_headroom(static_cast<int>(i)) > 0) {
      const int slot = find_cooled_slot();
      if (slot < 0) break;  // no cooled capacity to re-warm
      Instance& inst = instances_[static_cast<std::size_t>(slot)];
      // Deterministic setup: pre-warm boots draw no fault RNG (no
      // cold-spike), so enabling pre-warm never perturbs the fault stream
      // of the real invocations.
      const double setup = config_.cold_start_s;
      inst.started = true;
      inst.busy_until = sim_.now() + setup;
      inst.warm_until = inst.busy_until + config_.keepalive_s;
      // A pre-warming instance occupies its pool's concurrency until the
      // boot completes — exactly like a dispatched request — so the
      // headroom/dispatch invariants hold throughout the warm-up.
      ++total_in_use_;
      ++pool.in_use;
      ++pool.prewarming;
      ++pool.prewarm_boots;
      // Billed by setup duration at the resource rate (provisioned
      // capacity, not an invocation: no per-request fee) and attributed to
      // the pool — never to cold_starts()/cold_start_setup().
      const double cost =
          setup * resource_rate(config_.resources, config_.pricing);
      pool.prewarm_cost += cost;
      total_cost_ += cost;
      const int pool_idx = static_cast<int>(i);
      sim_.schedule_at(inst.busy_until,
                       [this, pool_idx] { finish_prewarm(pool_idx); });
      --shortfall;
      --bootable;
    }
  }
}

void FunctionPlatform::finish_prewarm(int pool) {
  Pool& p = pools_[static_cast<std::size_t>(pool)];
  --p.prewarming;
  --p.in_use;
  --total_in_use_;
  // The slot is idle-warm from here on; anything backlogged behind the
  // borrowed concurrency can start (on it, or wherever drain lands it).
  drain_backlog();
}

void FunctionPlatform::autoscale_tick() {
  const bool forecasting = config_.autoscale.forecasting();
  bool limits_moved = false;
  bool saw_demand = false;
  for (Pool& pool : pools_) {
    int next;
    if (forecasting) {
      // Provision the forecast: the limit becomes the predicted demand,
      // clamped to the pool's configured band.
      const double predicted = observe_and_forecast(pool);
      saw_demand |= pool.demand_history.back() > 0.0;
      // Actuate with the pool's headroom of spare slots above the point
      // forecast: a record-breaking burst exceeds every historical
      // observation by definition, so an exact-forecast limit throttles
      // each new high-water mark once.  Headroom is limit-only (free);
      // pre-warming still targets the point forecast, so it never bills
      // speculative slack.
      next = std::clamp(
          static_cast<int>(std::ceil(predicted - 1e-9)) + pool.headroom,
          std::max(1, pool.reserved), pool.burst_limit);
    } else {
      next = autoscale_decision(pool);
    }
    limits_moved |= next != pool.limit;
    pool.limit = next;
    pool.series.push_back(AutoscaleSample{sim_.now(), pool.in_use, pool.limit,
                                          pool.queue.size(),
                                          pool.cold_starts});
  }
  // Raised limits may unblock waiting requests.
  const std::size_t backlog_before = queued_;
  drain_backlog();
  // Pre-warm AFTER the drain: booting borrows pool concurrency, and queued
  // work must never wait a setup period behind a boot it could have
  // displaced.
  if (forecasting && config_.autoscale.prewarm) prewarm_pools();
  // Self-stopping: re-arm only while a future tick can observe something
  // new.  With nothing in flight, no limit moving, and nothing drained, the
  // platform is at a fixed point — ticks are a deterministic function of
  // (in_use, limit, backlog), so the next tick would decide identically
  // forever.  That covers both the drained-workload case and a permanently
  // starved backlog (e.g. reservations summing to the whole fleet): the
  // simulation terminates with queued_requests() > 0 instead of ticking
  // unboundedly.  A later invoke() re-arms the timer.
  //
  // A pre-warming forecaster additionally ticks while it still predicts
  // demand: holding capacity warm across an idle valley ahead of the next
  // wave is the action the forecast exists for.  Termination stays
  // guaranteed by the idle-tick budget — an EWMA decays toward zero only
  // geometrically, and a starved backlog keeps the observed demand above
  // zero forever — so after two windows of idle ticks the workload is
  // treated as over and the timer is allowed to stop.  A tick is idle when
  // it saw no demand, or when its only demand is a backlog that cannot
  // start with nothing in flight: then other pools' reservations cover the
  // whole fleet, and that never ends.
  const bool progressed = limits_moved || queued_ != backlog_before;
  const bool starved = total_in_use_ == 0 && queued_ > 0 && !progressed;
  idle_ticks_ = saw_demand && !starved ? 0 : idle_ticks_ + 1;
  bool predicts_demand = false;
  if (forecasting && config_.autoscale.prewarm &&
      idle_ticks_ <= 2 * config_.autoscale.window)
    for (const Pool& pool : pools_)
      predicts_demand |=
          !pool.forecast_history.empty() &&
          static_cast<int>(std::ceil(pool.forecast_history.back() - 1e-9)) > 0;
  if (total_in_use_ > 0 || predicts_demand || (queued_ > 0 && progressed))
    autoscale_timer_ =
        sim_.schedule_in(config_.autoscale.interval_s, [this] {
          autoscale_tick();
        });
}

}  // namespace tangram::serverless
