// Serverless function platform simulator (Alibaba Function Compute stand-in).
//
// Models the properties the paper's scheduler depends on:
//  * elastic scale-out: a new function instance spins up in
//    `cold_start_s` when no warm instance is idle (the "tens of
//    milliseconds to low seconds" serverless start-up band),
//  * keep-alive: instances stay warm for `keepalive_s` after last use and
//    are then reclaimed,
//  * per-instance concurrency = 1 (the paper's configuration), with FIFO
//    queueing once capacity is exhausted,
//  * GPU memory constraint: a batch of B canvases needs
//    B * canvas_gpu_gb + model_gpu_gb <= resources.gpu_gb (constraint (5)),
//  * pay-per-use billing via cost.h (Eqn. (1)).
//
// Dispatch across warm instances is round-robin, standing in for the
// prototype's NGINX default load balancing.
//
// Capacity pools (reserved concurrency).  `max_instances` caps the whole
// fleet; named CapacityPools carve that total into per-class concurrency
// domains, the platform analogue of AWS Lambda's reserved concurrency /
// Alibaba FC's provisioned instances.  A pool guarantees `reserved`
// concurrent instances (other pools can never occupy them) and is capped at
// `burst_limit` concurrent instances (it can never occupy more, however idle
// the fleet).  Physical instances stay fungible — a warm instance serves any
// pool, since every pool runs the same function image — only the concurrency
// accounting is partitioned.  The "default" pool (reserved 0, burst
// `max_instances`) always exists and reproduces the un-pooled platform
// exactly; `invoke()` without a pool id lands there.
//
// Queueing conventions (FIFO, no queue-jumping):
//  * A request that cannot start — its pool is at its limit, blocked by
//    other pools' unmet reservations, or the fleet is saturated — joins the
//    backlog.  A request whose pool already has backlogged requests ALSO
//    joins, even if capacity is momentarily free: an arrival at the same
//    simulated timestamp as a completion (but sequenced before the
//    completion's drain callback) must not jump the queue ahead of older
//    waiting requests.
//  * The backlog drains strictly FIFO within each pool; a pool blocked at
//    the head of the queue never blocks another pool's older requests.
//    Across pools, requests start in arrival order: every drain dispatches
//    the earliest-arrived waiting request whose pool is not yet blocked.
//
// Billing conventions: `execution_s` is billed GPU time only — cold-start
// `setup_s` seconds (and cold-spike inflation) delay `start_time` but are
// explicitly NOT billed and NOT part of `execution_s`, matching
// pay-per-use serverless GPU pricing where start-up is the provider's cost.
// Cold starts are surfaced through `cold_starts()` / `cold_start_setup()`
// and per-pool telemetry instead.
//
// Autoscaling.  `AutoscalePolicy` adjusts each pool's current concurrency
// limit on a repeating sim-timer (between max(1, reserved) and the pool's
// burst_limit): kStatic never moves it (and schedules no timer, so the
// default configuration is event-for-event identical to the pre-pool
// platform), kQueuePressure reacts to per-pool backlog depth, and the
// forecast kinds provision a demand forecast.  Every tick appends an
// AutoscaleSample per pool, giving instance-count dynamics as a time series.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "serverless/cost.h"
#include "serverless/latency_model.h"
#include "sim/simulator.h"

namespace tangram::serverless {

// Fault model for robustness experiments: real serverless platforms exhibit
// execution stragglers (noisy neighbours, GC pauses), occasional cold-start
// spikes (image pulls), and transient failures that the platform retries.
struct FailureInjection {
  double straggler_probability = 0.0;   // invocation runs `straggler_factor`x
  double straggler_factor = 3.0;
  double cold_spike_probability = 0.0;  // cold start takes `cold_spike_factor`x
  double cold_spike_factor = 5.0;
  double failure_probability = 0.0;     // attempt fails; retried once
  double retry_delay_s = 0.05;

  [[nodiscard]] bool enabled() const {
    return straggler_probability > 0 || cold_spike_probability > 0 ||
           failure_probability > 0;
  }
};

// One named concurrency domain carved out of max_instances.
struct CapacityPoolConfig {
  std::string name;
  // Concurrent instances guaranteed to this pool: once reserved, other
  // pools can never occupy them, so a request here (below `reserved`
  // in-flight) starts immediately when submitted — at worst paying a cold
  // start.  Reservations are not retroactive: work dispatched BEFORE the
  // pool was defined is never pre-empted, so a pool created mid-run on a
  // saturated fleet gains its guarantee as that pre-existing load drains.
  int reserved = 0;
  // Hard cap on this pool's concurrent instances; -1 means max_instances.
  int burst_limit = -1;
  // Spare instances this pool's limit keeps above the point forecast when a
  // forecast-driven AutoscalePolicy actuates it; -1 inherits
  // AutoscalePolicy::headroom.  Latency-critical pools want slack here (a
  // record-breaking burst exceeds every historical observation, so an
  // exact-forecast limit throttles each new high once); throughput pools
  // want 0 so their backlog cannot crowd the fleet.
  int forecast_headroom = -1;
};

// Pluggable per-pool limit controller, evaluated every `interval_s` of
// simulated time while the platform has work in flight (the timer is
// self-stopping: it re-arms only while instances are busy or requests are
// backlogged, so a run() that drains the workload terminates).
//
// The forecast-driven kinds (kEwma / kWindowedMax, see serverless/forecast.h)
// record per-pool demand = serving instances + backlog at every tick and set
// the pool's limit to the forecast.  With `prewarm` enabled they
// additionally boot instances AHEAD of the predicted wave, so cold-start
// setup is paid before arrivals land; pre-warm boots are billed by setup
// duration (resource_rate, no per-request fee), attributed separately in
// pool telemetry, and never counted in cold_starts().
struct AutoscalePolicy {
  enum class Kind {
    kStatic,         // limits never move; NO timer is scheduled
    kQueuePressure,  // react to per-pool backlog depth
    kEwma,           // limit = EWMA demand forecast
    kWindowedMax,    // limit = trailing-window peak demand
  };

  Kind kind = Kind::kStatic;
  double interval_s = 0.5;  // evaluation period (must be > 0 when non-static)
  // kQueuePressure: raise the limit by one when the pool's backlog >= this
  // many requests; lower it by one when the backlog is empty and the pool
  // has idle headroom.
  std::size_t backlog_scale_up = 1;
  // Starting limit for every pool: 0 = the pool's burst_limit (so kStatic
  // reproduces the fixed-capacity platform); otherwise clamped to
  // [max(1, reserved), burst_limit].
  int initial_limit = 0;

  // --- forecast-driven kinds only -------------------------------------------
  double alpha = 0.5;  // level smoothing (kEwma), (0, 1]
  // Trailing window in ticks (kWindowedMax); also sizes the pre-warm
  // idle-tick budget of every forecast kind.
  std::size_t window = 8;
  // Default spare instances provisioned above the point forecast when
  // actuating pool limits (forecast kinds only); pools override it with
  // CapacityPoolConfig::forecast_headroom.  Limits are free until used, so
  // headroom absorbs record-breaking bursts no trailing forecaster can have
  // seen; pre-warming ignores it and only boots up to the point forecast.
  int headroom = 0;
  // Boot instances ahead of the forecast wave (forecast kinds only).
  bool prewarm = false;

  [[nodiscard]] bool forecasting() const {
    return kind == Kind::kEwma || kind == Kind::kWindowedMax;
  }

  [[nodiscard]] static AutoscalePolicy static_policy() { return {}; }
  [[nodiscard]] static AutoscalePolicy queue_pressure(
      std::size_t backlog_high = 1, double interval_s = 0.5,
      int initial_limit = 1) {
    AutoscalePolicy p;
    p.kind = Kind::kQueuePressure;
    p.backlog_scale_up = backlog_high;
    p.interval_s = interval_s;
    p.initial_limit = initial_limit;
    return p;
  }
  [[nodiscard]] static AutoscalePolicy ewma(double alpha = 0.5,
                                            double interval_s = 0.5,
                                            int initial_limit = 1) {
    AutoscalePolicy p;
    p.kind = Kind::kEwma;
    p.alpha = alpha;
    p.interval_s = interval_s;
    p.initial_limit = initial_limit;
    return p;
  }
  [[nodiscard]] static AutoscalePolicy windowed_max(std::size_t window = 8,
                                                    double interval_s = 0.5,
                                                    int initial_limit = 1) {
    AutoscalePolicy p;
    p.kind = Kind::kWindowedMax;
    p.window = window;
    p.interval_s = interval_s;
    p.initial_limit = initial_limit;
    return p;
  }
};

// One autoscaler tick's observation of one pool (post-decision limit).
struct AutoscaleSample {
  double time = 0.0;
  int in_use = 0;
  int limit = 0;
  std::size_t backlog = 0;
  std::uint64_t cold_starts = 0;  // cumulative
};

// Snapshot of one pool's configuration + lifetime telemetry.
struct PoolTelemetry {
  std::string name;
  int reserved = 0;
  int burst_limit = 0;
  int limit = 0;    // current (autoscaled) concurrency limit
  int in_use = 0;   // instances currently running this pool's requests
  int peak_in_use = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t cold_starts = 0;
  std::size_t backlogged = 0;        // currently waiting
  common::Sampler backlog_depth;     // pool backlog length at each enqueue
  std::vector<AutoscaleSample> series;  // one entry per autoscaler tick
  // Forecast-driven provisioning (forecast kinds only; empty/zero
  // otherwise).  demand_history[t] is the pool's observed demand at
  // evaluation t (serving + backlogged, pre-warming excluded);
  // forecast_history[t] is the policy's prediction made at t, the same for
  // every later evaluation (both forecasters are flat) — score them with
  // forecast::accuracy().
  std::vector<double> demand_history;
  std::vector<double> forecast_history;
  std::uint64_t prewarm_boots = 0;  // instances booted ahead of demand
  double prewarm_cost = 0.0;        // billed setup time of those boots ($)
};

struct PlatformConfig {
  ResourceConfig resources;
  Pricing pricing;
  double cold_start_s = 0.45;
  double keepalive_s = 60.0;
  int max_instances = 64;
  double canvas_gpu_gb = 0.50;  // w: VRAM per canvas in a batch
  double model_gpu_gb = 1.50;   // tau: resident model weights
  FailureInjection faults;
  // Capacity pools beyond the always-present default pool (id 0).  Entry i
  // gets PoolId i + 1 when every name is distinct (define_pool returns an
  // existing name's id).  Reservations must sum to <= max_instances.
  std::vector<CapacityPoolConfig> pools;
  // Per-pool limit controller (applies to every pool, default included).
  AutoscalePolicy autoscale;
  // Reservoir capacity for the platform's telemetry Samplers (execution
  // latency, cold-start setup, per-pool backlog depth).
  // 0 = retain every sample (legacy, exact quantiles); > 0 bounds per-sim
  // telemetry memory for city-scale sweeps (see common/stats.h).
  std::size_t telemetry_reservoir = 0;
};

// One inference request.  num_canvases > 0 selects the canvas-batch latency
// path; otherwise image_megapixels describes a single variable-size input.
struct RequestSpec {
  int num_canvases = 0;
  common::Size canvas{1024, 1024};
  double image_megapixels = 0.0;
  int num_items = 0;  // carried metadata (e.g. patches inside the batch)
};

struct InvocationRecord {
  std::uint64_t id = 0;
  double submit_time = 0.0;
  double start_time = 0.0;   // when execution began (after queue + cold start)
  double finish_time = 0.0;
  double execution_s = 0.0;  // billed time (includes retried attempts,
                             // EXCLUDES cold-start setup)
  double setup_s = 0.0;      // cold-start seconds paid before start_time
  double cost = 0.0;
  int instance_id = -1;
  int pool = 0;              // capacity-pool index (0 = default)
  bool cold_start = false;
  bool straggler = false;    // fault injection hit this invocation
  int attempts = 1;          // > 1 when a transient failure was retried
  RequestSpec spec;
};

class FunctionPlatform {
 public:
  using Callback = std::function<void(const InvocationRecord&)>;
  // Dense index of a capacity pool, returned once at wiring time by
  // define_pool().  Every entry point (invoke, pool_headroom, the
  // autoscaler, completion accounting) works on PoolIds — the pool name
  // exists only for wiring and telemetry.
  using PoolId = int;

  static constexpr const char* kDefaultPool = "default";

  FunctionPlatform(sim::Simulator& simulator, PlatformConfig config,
                   LatencyModelParams latency_params = {},
                   std::uint64_t seed = 2024);

  // Submit a request to the default pool; `on_complete` fires at finish time
  // (may be empty).
  void invoke(const RequestSpec& spec, Callback on_complete);
  // Submit against a capacity pool by the index define_pool returned;
  // throws std::out_of_range for an index no pool has.
  void invoke(const RequestSpec& spec, int pool, Callback on_complete);

  // Create a capacity pool at runtime (the system facade wires one per
  // invoker shard).  Returns the pool index; re-defining an existing name
  // with the same limits returns the existing index, different limits throw.
  int define_pool(const CapacityPoolConfig& config);

  // Largest batch the GPU memory constraint admits for canvases of the given
  // size (canvas_gpu_gb is calibrated for a 1024x1024 canvas and scales with
  // area).
  [[nodiscard]] int max_canvases_per_batch(
      common::Size canvas = {1024, 1024}) const;

  [[nodiscard]] const PlatformConfig& config() const { return config_; }
  [[nodiscard]] InferenceLatencyModel& latency_model() { return latency_; }

  // --- capacity pools -------------------------------------------------------
  [[nodiscard]] std::size_t pool_count() const { return pools_.size(); }
  // Additional invocations the pool could start right now (0 when a new
  // request would join the backlog): bounded by the pool's current limit,
  // other pools' unmet reservations, and the fleet cap.
  [[nodiscard]] int pool_headroom(int pool) const;
  [[nodiscard]] PoolTelemetry pool_telemetry(int pool) const;
  [[nodiscard]] std::vector<PoolTelemetry> pool_telemetry() const;

  // --- accounting -----------------------------------------------------------
  [[nodiscard]] double total_cost() const { return total_cost_; }
  [[nodiscard]] std::uint64_t invocations() const { return next_id_; }
  // Execution environments created over the platform's lifetime.  Every cold
  // start boots a fresh environment — including reuse of a cooled-down slot,
  // which the historical instances_.size() accounting missed.
  [[nodiscard]] int instances_created() const {
    return static_cast<int>(cold_starts_);
  }
  // Instance slots in the fleet (never shrinks; the concurrency high-water
  // mark of the run).
  [[nodiscard]] int fleet_size() const {
    return static_cast<int>(instances_.size());
  }
  [[nodiscard]] int instances_in_use() const { return total_in_use_; }
  [[nodiscard]] std::uint64_t cold_starts() const { return cold_starts_; }
  // Pre-warm boots / billed pre-warm setup cost, summed across EVERY pool
  // (never a pool-0-only number).  Disjoint from cold_starts(): a pre-warmed
  // boot is paid here instead of surfacing as a request cold start.
  [[nodiscard]] std::uint64_t prewarm_boots() const;
  [[nodiscard]] double prewarm_cost() const;
  // Cold-start setup seconds per cold start (cold-spike inflation included).
  [[nodiscard]] const common::Sampler& cold_start_setup() const {
    return cold_start_setup_;
  }
  [[nodiscard]] std::size_t queued_requests() const { return queued_; }
  [[nodiscard]] const common::Sampler& execution_latency() const {
    return execution_latency_;
  }
  [[nodiscard]] double busy_seconds() const { return busy_seconds_; }
  [[nodiscard]] std::size_t stragglers() const { return stragglers_; }
  [[nodiscard]] std::size_t retries() const { return retries_; }

 private:
  struct Instance {
    double busy_until = 0.0;
    double warm_until = 0.0;
    bool started = false;  // has finished its first cold start
  };
  struct Pending {
    RequestSpec spec;
    Callback callback;
    double submit_time = 0.0;
    int pool = 0;
    std::uint64_t seq = 0;  // arrival order across every pool's queue
  };
  // One pool's waiting requests in FIFO order, on ring storage that keeps
  // its high-water capacity: once the deepest backlog of a run has been
  // seen, queueing and draining never allocate.  Dequeued slots are
  // moved-from, so they hold no callback state.
  class PendingRing {
   public:
    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] const Pending& front() const { return slots_[head_]; }
    void push_back(Pending&& pending);
    [[nodiscard]] Pending pop_front() {
      Pending pending = std::move(slots_[head_]);
      head_ = (head_ + 1) & (slots_.size() - 1);
      --size_;
      return pending;
    }

   private:
    std::vector<Pending> slots_;  // empty or a power-of-two length
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };
  struct Pool {
    std::string name;
    int reserved = 0;
    int burst_limit = 0;  // resolved (never -1)
    int headroom = 0;     // resolved forecast headroom (never -1)
    int limit = 0;        // current autoscaled limit
    int in_use = 0;
    int peak_in_use = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t cold_starts = 0;
    PendingRing queue;  // this pool's backlog
    common::Sampler backlog_depth;
    std::vector<AutoscaleSample> series;
    // Forecast-driven provisioning state (forecast kinds only).
    int prewarming = 0;  // instances booting ahead of demand right now
    std::uint64_t prewarm_boots = 0;
    double prewarm_cost = 0.0;
    // High-watermark of (in_use - prewarming) + queue length since the last
    // observation, maintained at arrivals: sampling demand only at tick
    // instants aliases away bursts shorter than the tick interval, and the
    // resulting under-forecast throttles the limit, which suppresses the
    // observed in_use even further — a self-locking feedback loop.
    double demand_peak = 0.0;
    std::vector<double> demand_history;
    std::vector<double> forecast_history;
  };

  // In-flight invocation state parked until the completion event fires.
  // Slots are recycled through completion_free_, so the completion event
  // only captures [this, slot] — small and trivially copyable, it stays
  // inside the simulator's InlineTask buffer: no per-completion heap
  // allocation, regardless of how large the caller's Callback is.
  struct Completion {
    InvocationRecord record;
    Callback callback;
  };

  void invoke_on_pool(const RequestSpec& spec, int pool, Callback on_complete);
  // True if a request for `pool` could start immediately.  Ignores the
  // backlog: callers must keep FIFO by checking the pool's queue first.
  [[nodiscard]] bool pool_has_capacity(int pool) const {
    return pool_headroom(pool) > 0;
  }
  // Instances other pools are owed before `pool` may use unreserved slots.
  [[nodiscard]] int unmet_reservations_excluding(int pool) const;
  // Start `pending` now; requires pool_has_capacity(pending.pool).
  void dispatch(Pending pending);
  void start_on_instance(int instance, Pending pending, bool cold);
  // Check a Completion slot out of the freelist (growing only past the
  // concurrency high-water mark).
  [[nodiscard]] std::uint32_t acquire_completion();
  // The completion event: free capacity and the slot, run the callback,
  // drain the backlog.  The slot is released before the callback so
  // re-entrant invokes reuse it.
  void finish_invocation(std::uint32_t slot);
  // Dispatch backlogged requests in arrival order, strictly FIFO within each
  // pool; a pool without capacity never blocks another pool's entries.
  // Costs O(pools) per dispatch and per blocked pool, independent of the
  // backlog's depth.
  void drain_backlog();
  int find_idle_warm_instance();
  int find_cooled_slot() const;
  void maybe_arm_autoscaler();
  void autoscale_tick();
  [[nodiscard]] int autoscale_decision(const Pool& pool) const;
  // Record demand and evaluate the forecaster for one pool (appends to
  // demand_history / forecast_history, returns the forecast).
  double observe_and_forecast(Pool& pool);
  // Fold the pool's current demand into its since-last-observation
  // high-watermark (forecast kinds only; called at arrivals, the only
  // events that raise demand).
  void note_demand_peak(Pool& pool);
  // Boot instances ahead of the per-pool forecasts just recorded (actuating
  // forecast kinds with prewarm only).  A pre-warming instance occupies its
  // pool's concurrency (so dispatch invariants hold) and releases it at
  // boot completion.
  void prewarm_pools();
  void finish_prewarm(int pool);

  sim::Simulator& sim_;
  PlatformConfig config_;
  InferenceLatencyModel latency_;
  common::Rng fault_rng_;
  std::vector<Instance> instances_;
  std::vector<Pool> pools_;  // pools_[0] is the default pool
  // Requests waiting across every pool, and the next Pending::seq to stamp.
  std::size_t queued_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<char> drain_scratch_;  // per-pool blocked flags during drain
  std::vector<Completion> completions_;        // slot pool (see Completion)
  std::vector<std::uint32_t> completion_free_;
  sim::EventHandle autoscale_timer_;
  // Consecutive autoscale ticks with zero demand across every pool, or with
  // a starved backlog and nothing in flight; bounds how long a pre-warming
  // forecaster may keep ticking over a fleet that cannot make progress.
  std::size_t idle_ticks_ = 0;
  int round_robin_ = 0;
  int total_in_use_ = 0;
  std::uint64_t next_id_ = 0;
  std::uint64_t cold_starts_ = 0;
  double total_cost_ = 0.0;
  double busy_seconds_ = 0.0;
  std::size_t stragglers_ = 0;
  std::size_t retries_ = 0;
  common::Sampler execution_latency_;
  common::Sampler cold_start_setup_;
};

}  // namespace tangram::serverless
