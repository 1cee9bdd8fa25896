// BatchQueue — a bounded MPMC queue that coalesces same-cluster decode
// requests into batches, with per-tenant QoS.
//
// Producers push from any thread; push never blocks — admission is governed
// by each tenant's TenantPolicy: a tenant over its queue quota is shed, and
// when the whole queue is at capacity an arriving request evicts the newest
// pending request of a strictly lower-priority tenant (handed back to the
// caller to answer kShed) before being shed itself. A consumer pops a
// *batch*: all requests in it belong to one cluster (hence one decoder
// model), so the shard can decode them with a single batched GEMM. The
// cluster is chosen by weighted priority with an aging term — high-priority
// tenants go first, but a waiting head request's score grows with its age so
// low-priority tenants cannot starve.
//
// Batching is work-conserving and burst-aware. Each lane remembers the mean
// arrival gap of its previous batch (zero after a single-request batch) and
// the service time of its last batch the consumer reported as served
// (batch_served). After the first extract, pop_batch lingers for more of
// the same lane only when that gap is non-zero and max_batch of them fit
// in the service time: at that rate a whole batch arrives while the
// consumer would still be busy had it served the batch at once, whereas a
// trickle would add head-of-line wait for a batch of two or three. It
// keeps collecting while the batch is below max_batch, the queue is open
// and no other lane has queued work; each wait lasts at most twice the
// remembered gap, the first wait in which nothing arrives ends the batch,
// and the whole linger never exceeds the service time, so a steady stream
// cannot hold a batch open. A lone request on a quiet lane is therefore
// popped at once, while a round of back-to-back latents from one producer
// still leaves as one batch.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "serve/request.h"
#include "serve/tenant_policy.h"

namespace orco::serve {

struct BatchQueueConfig {
  std::size_t capacity = 1024;   // pending requests before shedding
  std::size_t max_batch = 32;    // coalescing ceiling per pop
  /// Microseconds of head-of-line wait that double a cluster's scheduling
  /// score. Smaller values age faster (fairer, less strict priority);
  /// 0 disables aging (pure weighted priority + FIFO tie-break).
  std::uint64_t aging_us = 1000;
  /// Policy applied to clusters that were never given one via set_policy.
  TenantPolicy default_policy;
};

enum class PushResult { kAccepted, kShed, kClosed };

class BatchQueue {
 public:
  explicit BatchQueue(const BatchQueueConfig& config);

  /// Thread-safe, non-blocking. kShed when the tenant is over quota or the
  /// queue is full of same-or-higher-priority work; kClosed after close().
  /// When admission at capacity evicts a lower-priority pending request, it
  /// is appended to `evicted` for the caller to answer kShed (and count in
  /// telemetry); with a null `evicted` the queue answers the promise itself.
  PushResult push(PendingRequest&& pending,
                  std::vector<PendingRequest>* evicted = nullptr);

  /// Blocks until at least one request is available (or the queue is closed
  /// and drained — then returns empty). Returns up to max_batch requests,
  /// all for the same cluster, preserving per-cluster FIFO order. Other
  /// clusters' requests keep their positions. The cluster is picked by
  /// schedule_weight() x an aging factor of its head request's wait; the
  /// batch then lingers for the lane's burst as described above. Every
  /// request's popped_at is stamped as the batch leaves, after any linger.
  std::vector<PendingRequest> pop_batch();

  /// Reports that the consumer has finished serving the batch pop_batch
  /// returned for `cluster` with the given popped_at stamp; the time since
  /// then becomes the lane's service time, which bounds its next linger.
  /// Ignored unless that batch is still the lane's latest (not after a
  /// newer pop, nor on a lane erased and recreated since).
  void batch_served(ClusterId cluster,
                    std::chrono::steady_clock::time_point popped_at);

  /// Stops intake and wakes consumers; queued requests remain poppable so a
  /// graceful shutdown can drain in-flight work.
  void close();

  /// Installs (or replaces) a tenant's QoS policy. Applies to requests
  /// already queued for that cluster as well.
  void set_policy(ClusterId cluster, const TenantPolicy& policy);
  TenantPolicy policy(ClusterId cluster) const;

  /// Drops an *empty* tenant lane (policy + deque), reclaiming its slot —
  /// without this, 100k cold-tier demote/wake cycles would leave 100k dead
  /// lanes that every pop_batch scan walks. Returns false (and changes
  /// nothing) when the lane still holds queued requests or never existed.
  bool erase_lane(ClusterId cluster);

  bool closed() const;
  std::size_t size() const;
  std::size_t size(ClusterId cluster) const;
  std::size_t capacity() const noexcept { return config_.capacity; }
  const BatchQueueConfig& config() const noexcept { return config_; }

 private:
  struct Entry {
    PendingRequest pending;
    std::uint64_t seq = 0;  // global arrival order, for FIFO tie-breaks
    std::chrono::steady_clock::time_point queued_at;
  };
  /// One tenant's FIFO lane plus its policy and burst history. Lanes are
  /// created on first push or set_policy and live until erase_lane (the
  /// fleet's demotion path) reclaims them once drained.
  struct Lane {
    TenantPolicy policy;
    std::deque<Entry> entries;
    /// Unique per lane ever created: tells a lane recreated under the same
    /// cluster id (after erase_lane) from the one a linger started on.
    std::uint64_t generation = 0;
    /// Mean arrival gap of the lane's previous batch; zero when it held a
    /// single request (or the lane has not been popped yet).
    std::chrono::steady_clock::duration burst_gap{};
    /// popped_at stamp of the lane's latest batch, and how long the last
    /// batch reported through batch_served took to serve (zero until then).
    std::chrono::steady_clock::time_point popped_at;
    std::chrono::steady_clock::duration service{};
  };

  /// Creates the lane with the default policy if new.
  Lane& lane_for(ClusterId cluster) ORCO_REQUIRES(mu_);
  /// The lane for `cluster` if it is still the one created as
  /// `generation`, else null.
  Lane* find_lane(ClusterId cluster, std::uint64_t generation)
      ORCO_REQUIRES(mu_);
  /// Picks the non-empty lane with the highest aged score. At least one
  /// lane must be non-empty.
  ClusterId pick_cluster() const ORCO_REQUIRES(mu_);
  /// Moves requests from `lane` into out until it is empty or out holds
  /// max_batch; returns the queued_at stamp of the last one moved.
  std::chrono::steady_clock::time_point extract(
      Lane& lane, std::vector<PendingRequest>& out) ORCO_REQUIRES(mu_);

  BatchQueueConfig config_;
  mutable common::Mutex mu_;
  std::condition_variable cv_;
  std::map<ClusterId, Lane> lanes_ ORCO_GUARDED_BY(mu_);
  std::size_t total_ ORCO_GUARDED_BY(mu_) = 0;
  std::uint64_t next_seq_ ORCO_GUARDED_BY(mu_) = 0;
  std::uint64_t next_generation_ ORCO_GUARDED_BY(mu_) = 0;
  bool closed_ ORCO_GUARDED_BY(mu_) = false;
};

}  // namespace orco::serve
