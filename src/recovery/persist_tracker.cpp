#include "src/recovery/persist_tracker.h"

#include "src/common/logging.h"
#include "src/common/metrics.h"

namespace tfr {

PersistTracker::PersistTracker(RegionServer& server, std::function<Timestamp()> fetch_global_tf,
                               Timestamp initial_tp)
    : server_(&server), fetch_global_tf_(std::move(fetch_global_tf)), tp_(initial_tp) {}

void PersistTracker::install() {
  // Algorithm 3: an inherited (lowered) threshold is reported to the
  // recovery manager immediately, not at the next periodic heartbeat. The
  // observer only records it; the server heartbeats once per received
  // batch, after all of its slices (RegionServer::apply_batch).
  server_->set_writeset_observer([this](Timestamp ts, std::optional<Timestamp> piggyback) {
    return on_received(ts, piggyback);
  });
  server_->set_pre_heartbeat_hook([this] { return heartbeat_payload(); });
}

bool PersistTracker::on_received(Timestamp commit_ts, std::optional<Timestamp> piggyback_tp) {
  MutexLock lock(mutex_);
  pq_.push(commit_ts);
  if (piggyback_tp && *piggyback_tp < tp_) {
    // Inherit responsibility for the failed server's un-persisted window.
    TFR_LOG(INFO, "tracker") << server_->id() << " inherits TP " << *piggyback_tp
                             << " (was " << tp_ << ")";
    tp_ = *piggyback_tp;
    inherited_unreported_ = true;
    return true;  // Algorithm 3: heartbeat() right away
  }
  return false;
}

Timestamp PersistTracker::heartbeat_payload() {
  // Fetch TF first: every transaction with T <= TF has been fully flushed,
  // so after the WAL sync below everything this server received up to TF is
  // durable.
  const Timestamp tf = fetch_global_tf_ ? fetch_global_tf_() : kNoTimestamp;

  // Holding the mutex across the WAL sync serializes this step against
  // threshold inheritance. Why that matters: a replayed update u with
  // commit timestamp T > TP(s_failed) that arrives *after* our sync is not
  // yet durable here; if we then advanced TP(s) to a TF >= T, a crash of
  // this server would lose u — recovery would only replay after TP(s) >= T.
  // With the mutex held, u's WAL append (which precedes its observer call)
  // either lands before our sync (durable, fine) or its inheritance runs
  // after our advance and lowers TP(s) again (conservative, fine).
  MutexLock lock(mutex_);
  if (inherited_unreported_) {
    // This heartbeat carries (or, after the sync below, supersedes) an
    // inherited threshold: one per replay batch, however many slices.
    static Counter& inherit_heartbeats = global_counter("tracker.inherit_heartbeats");
    inherit_heartbeats.add();
    inherited_unreported_ = false;
  }
  if (tf == kNoTimestamp || tf <= tp_) {
    // Nothing new to learn; still report the (possibly inherited) TP.
    return tp_;
  }
  // tfr-lint: blocking-ok(Algorithm 3 probe-and-publish: the tracker mutex must
  // be held across the sync so a concurrent inheritance serializes with the
  // TP advance; kRecoveryTracker is may_block=true in the rank table)
  Status synced = server_->persist_wal();
  if (!synced.is_ok()) {
    TFR_LOG(WARN, "tracker") << server_->id() << " persist failed: " << synced;
    return tp_;
  }
  pq_.pop_through(tf);  // received and now persisted, covered by TP(s)
  tp_ = tf;
  return tp_;
}

Timestamp PersistTracker::tp() const {
  MutexLock lock(mutex_);
  return tp_;
}

}  // namespace tfr
