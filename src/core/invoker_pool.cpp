#include "core/invoker_pool.h"

#include <cstdio>
#include <stdexcept>

namespace tangram::core {

namespace {

// Exact key for an SLO class: hexfloat round-trips every double bit-for-bit,
// unlike std::to_string's fixed 6 decimals, which would silently alias
// classes closer than 1e-6 onto one shard.
std::string slo_class_key(double slo_s) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "slo=%a", slo_s);
  return buf;
}

}  // namespace

InvokerPool::InvokerPool(sim::Simulator& simulator, PackHeuristic heuristic,
                         const LatencyEstimator& estimator,
                         InvokerConfig config, ShardPolicy policy,
                         ShardInvokeFn invoke, ShardSetupFn shard_setup,
                         RebalancePolicy rebalance, MigrateFn on_migrate)
    : sim_(simulator),
      heuristic_(heuristic),
      estimator_(estimator),
      config_(std::move(config)),
      policy_(std::move(policy)),
      rebalance_(rebalance),
      invoke_(std::move(invoke)),
      shard_setup_(std::move(shard_setup)),
      on_migrate_(std::move(on_migrate)) {
  if (!invoke_)
    throw std::invalid_argument("InvokerPool: invoke callback required");
  if (policy_.kind == ShardPolicy::Kind::kHashStream && policy_.hash_shards < 1)
    throw std::invalid_argument("InvokerPool: hash_shards must be >= 1");
  // Written as !(> 0) so a NaN interval is rejected too.
  if (rebalance_.active() && !(rebalance_.interval_s > 0.0))
    throw std::invalid_argument(
        "InvokerPool: rebalance interval_s must be > 0");
  // The legacy layout's one invoker exists from construction; reproduce that
  // exactly so a single-shard pool is indistinguishable from the old code.
  if (policy_.kind == ShardPolicy::Kind::kSingle)
    (void)shard_for_key("all", StreamConfig{});
}

std::string InvokerPool::key_for(StreamId stream,
                                 const StreamConfig& config) const {
  switch (policy_.kind) {
    case ShardPolicy::Kind::kSingle:
      return "all";
    case ShardPolicy::Kind::kPerSloClass:
      // slo_s <= 0 means "per-patch SLOs"; those streams share one shard.
      return config.slo_s > 0.0 ? slo_class_key(config.slo_s)
                                : "slo=per-patch";
    case ShardPolicy::Kind::kHashStream:
      return "hash=" + std::to_string(static_cast<unsigned>(stream) %
                                      static_cast<unsigned>(
                                          policy_.hash_shards));
  }
  throw std::logic_error("InvokerPool: unknown shard policy");
}

int InvokerPool::shard_for_key(const std::string& key,
                               const StreamConfig& first_stream) {
  for (std::size_t i = 0; i < keys_.size(); ++i)
    if (keys_[i] == key) return static_cast<int>(i);
  const int index = static_cast<int>(shards_.size());
  // Capacity wiring point: the owner maps the new shard to its pool.
  if (shard_setup_) shard_setup_(index, key, first_stream);
  keys_.push_back(key);
  shards_.push_back(std::make_unique<SloAwareInvoker>(
      sim_, heuristic_, estimator_, config_,
      [this, index](Batch&& batch) { invoke_(index, std::move(batch)); }));
  shard_streams_.push_back(0);
  occupancy_.emplace_back();
  return index;
}

int InvokerPool::route(StreamId stream, const StreamConfig& config) {
  const int shard = shard_for_key(key_for(stream, config), config);
  if (stream >= 0) {
    const auto idx = static_cast<std::size_t>(stream);
    if (idx >= stream_shard_.size()) stream_shard_.resize(idx + 1, -1);
    if (stream_shard_[idx] >= 0)  // re-registration: leave the old shard
      --shard_streams_[static_cast<std::size_t>(stream_shard_[idx])];
    stream_shard_[idx] = shard;
    ++shard_streams_[static_cast<std::size_t>(shard)];
  }
  return shard;
}

int InvokerPool::shard_of(StreamId stream) const {
  if (stream < 0 || static_cast<std::size_t>(stream) >= stream_shard_.size() ||
      stream_shard_[static_cast<std::size_t>(stream)] < 0)
    throw std::out_of_range("InvokerPool: unknown or deregistered stream");
  return stream_shard_[static_cast<std::size_t>(stream)];
}

void InvokerPool::submit(StreamId stream, Patch patch) {
  const int shard = shard_of(stream);
  // Stamp ownership here, not just in TangramSystem: detach_stream
  // identifies a stream's pending patches by this field.
  patch.stream_id = stream;
  if (rebalance_.kind == RebalancePolicy::Kind::kClassMixDrift) {
    const auto idx = static_cast<std::size_t>(stream);
    if (idx >= drift_.size()) drift_.resize(idx + 1);
    StreamDrift& drift = drift_[idx];
    if (drift.run == 0 || drift.last_slo != patch.slo) {
      drift.last_slo = patch.slo;
      drift.run = 1;
    } else {
      ++drift.run;
    }
  }
  shards_[static_cast<std::size_t>(shard)]->on_patch(std::move(patch));
  maybe_arm_rebalancer();
}

void InvokerPool::deregister(StreamId stream) {
  const int shard = shard_of(stream);
  // Pending patches leave with the stream (the camera is gone); batches
  // already invoked complete and report telemetry normally.
  (void)shards_[static_cast<std::size_t>(shard)]->detach_stream(stream);
  stream_shard_[static_cast<std::size_t>(stream)] = -1;
  --shard_streams_[static_cast<std::size_t>(shard)];
  if (static_cast<std::size_t>(stream) < drift_.size())
    drift_[static_cast<std::size_t>(stream)] = StreamDrift{};
}

void InvokerPool::flush() {
  for (const auto& shard : shards_) shard->flush();
}

std::size_t InvokerPool::pending_patches() const {
  std::size_t pending = 0;
  for (const auto& shard : shards_) pending += shard->pending_patches();
  return pending;
}

InvokerStats InvokerPool::aggregate_stats() const {
  InvokerStats stats;
  for (const auto& shard : shards_) stats.merge(shard->stats());
  return stats;
}

void InvokerPool::maybe_arm_rebalancer() {
  if (!rebalance_.active()) return;  // none + stealing off: no timer, ever
  if (rebalance_timer_.pending()) return;
  rebalance_timer_ =
      sim_.schedule_in(rebalance_.interval_s, [this] { rebalance_tick(); });
}

void InvokerPool::migrate_stream(StreamId stream, int to) {
  const auto idx = static_cast<std::size_t>(stream);
  const int from = stream_shard_[idx];
  if (from == to) return;
  SloAwareInvoker& source = *shards_[static_cast<std::size_t>(from)];
  // Detach first (drains the stream's pending work off the old shard), THEN
  // re-route, then attach: in-flight batches finish on the old shard, and
  // every pending patch crosses with its original arrival_time — a patch is
  // re-routed whole or not at all.
  // The source shard's compaction scratch: stable until its next detach,
  // and the target is a different shard, so attaching below cannot
  // invalidate it.  Patch holds no heap state — the copies are free.
  const std::vector<Patch>& pending = source.detach_stream(stream);
  source.record_migration();
  stream_shard_[idx] = to;
  --shard_streams_[static_cast<std::size_t>(from)];
  ++shard_streams_[static_cast<std::size_t>(to)];
  for (const Patch& patch : pending)
    shards_[static_cast<std::size_t>(to)]->attach_patch(patch);
  if (on_migrate_) on_migrate_(stream, from, to);
}

bool InvokerPool::rebalance_by_drift() {
  bool migrated = false;
  // Ascending stream id: deterministic migration order.  shard_for_key may
  // create the class shard on demand (the shard-setup hook sees a synthetic
  // StreamConfig carrying the observed class, so capacity plans keyed on
  // slo_s provision it like a registered class).
  for (std::size_t s = 0; s < stream_shard_.size(); ++s) {
    const int from = stream_shard_[s];
    if (from < 0 || s >= drift_.size()) continue;
    const StreamDrift& drift = drift_[s];
    if (drift.run < rebalance_.min_run || drift.last_slo <= 0.0) continue;
    const std::string key = slo_class_key(drift.last_slo);
    if (keys_[static_cast<std::size_t>(from)] == key) continue;
    StreamConfig observed;
    observed.slo_s = drift.last_slo;
    const int to = shard_for_key(key, observed);
    migrate_stream(static_cast<StreamId>(s), to);
    migrated = true;
  }
  return migrated;
}

bool InvokerPool::run_steals() {
  bool stole = false;
  for (std::size_t thief = 0; thief < shards_.size(); ++thief) {
    if (shards_[thief]->pending_patches() != 0) continue;
    // Most backlogged peer (ties -> lowest index).
    std::size_t victim = shards_.size();
    std::size_t depth = 0;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (i == thief) continue;
      if (shards_[i]->pending_patches() > depth) {
        depth = shards_[i]->pending_patches();
        victim = i;
      }
    }
    if (victim == shards_.size() || depth < rebalance_.steal.min_victim_backlog)
      continue;
    stole |= shards_[thief]->steal_from(*shards_[victim],
                                        rebalance_.steal.max_patches) > 0;
  }
  return stole;
}

void InvokerPool::rebalance_tick() {
  ++rebalance_ticks_;
  bool acted = false;
  switch (rebalance_.kind) {
    case RebalancePolicy::Kind::kNone:
      break;
    case RebalancePolicy::Kind::kClassMixDrift:
      acted = rebalance_by_drift();
      break;
  }
  if (rebalance_.steal.enabled) acted |= run_steals();
  for (std::size_t i = 0; i < shards_.size(); ++i)
    occupancy_[i].push_back(ShardOccupancySample{
        sim_.now(), shards_[i]->pending_patches(), shard_streams_[i]});
  // Self-stopping (the platform autoscaler idiom): re-arm only while a
  // future tick could decide differently — pending work that batch timers
  // will reshape, or this tick's own migrations/steals still settling.
  // Decisions are a function of (queues, drift runs) and drift runs only
  // move on submit(), which re-arms — so an idle pool reaches a fixed point
  // and the simulation terminates instead of ticking forever.
  if (pending_patches() > 0 || acted)
    rebalance_timer_ =
        sim_.schedule_in(rebalance_.interval_s, [this] { rebalance_tick(); });
}

}  // namespace tangram::core
