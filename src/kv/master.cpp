#include "src/kv/master.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "src/common/backoff.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"

namespace tfr {

namespace {
// Concurrent region recoveries per failed server: enough to overlap several
// open_region replays without flooding a small cluster's handler pools.
constexpr std::size_t kRecoveryWorkers = 4;
}  // namespace

Master::Master(Dfs& dfs, Coord& coord) : dfs_(&dfs), coord_(&coord) {}

Master::~Master() { stop(); }

void Master::start() {
  listener_id_ = coord_->add_listener("servers", [this](const SessionInfo& info, bool expired) {
    on_session_event(info, expired);
  });
  worker_ = std::thread([this] { recovery_worker(); });
}

void Master::stop() {
  // The balancer first: a tick in flight may be mid-split, about to call
  // into servers and hooks that the rest of the shutdown tears down.
  disable_balancer();
  if (listener_id_ != 0) {
    coord_->remove_listener("servers", listener_id_);
    listener_id_ = 0;
  }
  {
    MutexLock lock(mutex_);
    stopping_ = true;  // release a recovery held for hooks that won't come
  }
  idle_cv_.notify_all();
  failures_.close();
  if (worker_.joinable()) worker_.join();
}

void Master::add_server(RegionServer* server) {
  MutexLock lock(mutex_);
  servers_[server->id()] = server;
  server_alive_[server->id()] = true;
  server_wal_paths_[server->id()] = server->wal_path();
  // A fresh incarnation of the id may fail again; forget the old one.
  downs_handled_.erase(server->id());
}

std::uint64_t Master::bump_epoch_locked(const std::string& region_name) {
  auto it = assignment_.find(region_name);
  if (it == assignment_.end()) return 0;
  publish_epoch_locked(region_name, ++it->second.epoch);
  return it->second.epoch;
}

void Master::publish_epoch_locked(const std::string& region_name, std::uint64_t epoch) {
  // Arm the storage-side fencing check, then record the grant durably so a
  // restarted master (or the recovery manager) can learn the fenced epoch.
  if (epochs_ != nullptr) epochs_->advance_to(region_name, epoch);
  coord_->put(kEpochPrefix + region_name, static_cast<std::int64_t>(epoch));
}

std::uint64_t Master::region_epoch(const std::string& region_name) const {
  MutexLock lock(mutex_);
  auto it = assignment_.find(region_name);
  return it == assignment_.end() ? 0 : it->second.epoch;
}

void Master::report_server_down(const std::string& server_id, bool crashed) {
  {
    MutexLock lock(mutex_);
    server_alive_[server_id] = false;
    ++in_flight_recoveries_;
  }
  failures_.push({server_id, crashed});
}

void Master::set_hooks(MasterHooks* hooks) {
  MutexLock lock(mutex_);
  // Quiesce: the recovery worker snapshots hooks_ before calling into it, so
  // wait out any in-flight invocation before letting the caller retire the
  // old hooks object.
  while (hook_calls_in_flight_ != 0) idle_cv_.wait(lock);
  hooks_ = hooks;
  if (hooks != nullptr) hooks_ever_set_ = true;
  lock.unlock();
  // Wake a recovery held in handle_server_down for the hooks to come back.
  idle_cv_.notify_all();
}

std::string Master::pick_live_server_locked(std::size_t salt) const {
  std::vector<std::string> live;
  for (const auto& [id, alive] : server_alive_) {
    if (alive) live.push_back(id);
  }
  if (live.empty()) return {};
  return live[salt % live.size()];
}

Status Master::create_table(const std::string& table, const std::vector<std::string>& split_keys) {
  std::vector<std::string> keys = split_keys;
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  std::vector<RegionDescriptor> descs;
  std::string start;
  for (const auto& k : keys) {
    descs.push_back(RegionDescriptor{table, start, k});
    start = k;
  }
  descs.push_back(RegionDescriptor{table, start, ""});

  std::vector<std::pair<RegionDescriptor, RegionServer*>> plan;
  {
    MutexLock lock(mutex_);
    for (const auto& d : descs) {
      if (assignment_.count(d.name())) {
        return Status::already_exists("table exists: " + table);
      }
    }
    std::size_t i = 0;
    for (const auto& d : descs) {
      const std::string target = pick_live_server_locked(i++);
      if (target.empty()) return Status::unavailable("no live region servers");
      plan.emplace_back(d, servers_.at(target));
      assignment_[d.name()] = RegionLocation{d.name(), d, target};
    }
  }
  for (auto& [desc, server] : plan) {
    TFR_RETURN_IF_ERROR(server->open_region(desc, {}, /*epoch=*/1));
  }
  TFR_LOG(INFO, "master") << "table " << table << " created with " << descs.size() << " regions";
  return Status::ok();
}

Result<RegionLocation> Master::locate(const std::string& table, const std::string& row) const {
  MutexLock lock(mutex_);
  for (const auto& [name, loc] : assignment_) {
    if (loc.descriptor.table == table && loc.descriptor.contains(row)) return loc;
  }
  return Status::not_found("no region for " + table + "/" + row);
}

std::vector<RegionLocation> Master::table_regions(const std::string& table) const {
  MutexLock lock(mutex_);
  std::vector<RegionLocation> out;
  for (const auto& [name, loc] : assignment_) {
    if (loc.descriptor.table == table) out.push_back(loc);
  }
  return out;
}

Result<RegionLocation> Master::region_by_name(const std::string& region_name) const {
  MutexLock lock(mutex_);
  auto it = assignment_.find(region_name);
  if (it == assignment_.end()) return Status::not_found("unknown region: " + region_name);
  return it->second;
}

RegionServer* Master::server_stub(const std::string& server_id) const {
  MutexLock lock(mutex_);
  auto it = servers_.find(server_id);
  return it == servers_.end() ? nullptr : it->second;
}

std::vector<std::string> Master::live_servers() const {
  MutexLock lock(mutex_);
  std::vector<std::string> out;
  for (const auto& [id, alive] : server_alive_) {
    if (alive) out.push_back(id);
  }
  return out;
}

class Master::HookCall {
 public:
  explicit HookCall(Master& master) TFR_REQUIRES(master.mutex_)
      : master_(master), hooks_(master.hooks_) {
    if (hooks_ != nullptr) ++master.hook_calls_in_flight_;
  }
  ~HookCall() {
    if (hooks_ == nullptr) return;
    {
      MutexLock lock(master_.mutex_);
      --master_.hook_calls_in_flight_;
    }
    master_.idle_cv_.notify_all();
  }
  HookCall(const HookCall&) = delete;
  HookCall& operator=(const HookCall&) = delete;

  explicit operator bool() const { return hooks_ != nullptr; }
  MasterHooks* operator->() const { return hooks_; }

 private:
  Master& master_;
  MasterHooks* const hooks_;
};

Result<Master::Parents> Master::snapshot_parents(const std::vector<std::string>& names) const {
  MutexLock lock(mutex_);
  Parents parents;
  for (const auto& name : names) {
    auto it = assignment_.find(name);
    if (it == assignment_.end()) return Status::not_found("unknown region: " + name);
    if (!parents.locs.empty() && it->second.server_id != parents.locs.front().server_id) {
      return Status::unavailable("parents not co-located");
    }
    parents.locs.push_back(it->second);
  }
  const std::string& host = parents.locs.front().server_id;
  auto sit = servers_.find(host);
  if (sit == servers_.end() || !server_alive_.at(host)) {
    return Status::unavailable("host down for topology change: " + host);
  }
  parents.host = sit->second;
  return parents;
}

Status Master::commit_replacement(const Parents& parents,
                                  const std::vector<RegionDescriptor>& children) {
  const std::string& host = parents.locs.front().server_id;
  std::vector<std::string> parent_names;
  std::vector<std::string> child_names;
  for (const auto& loc : parents.locs) parent_names.push_back(loc.region_name);
  for (const auto& child : children) child_names.push_back(child.name());
  std::uint64_t new_epoch = 0;
  {
    MutexLock lock(mutex_);
    for (const auto& loc : parents.locs) {
      auto it = assignment_.find(loc.region_name);
      if (it == assignment_.end() || it->second.epoch != loc.epoch) {
        // A failure recovery re-fenced a parent while the server-side half
        // ran (the host was declared dead — it may be a zombie behind a
        // partition). That recovery owns the parents now and reopens them
        // from their untouched dirs under its higher epoch; abandon the
        // transition and the children's markers.
        lock.unlock();
        clear_unregistered_region_dirs(*dfs_, children);
        return Status::unavailable("replacement of " + loc.region_name +
                                   " superseded by failure recovery");
      }
      new_epoch = std::max(new_epoch, loc.epoch + 1);
    }
    // Commit: one epoch for the whole transition. The children are fenced
    // forward, and the RETIRED parent names are bumped too so any
    // straggling store-file finalize from a resumed parent compaction is
    // rejected.
    for (const auto& name : parent_names) assignment_.erase(name);
    for (const auto& child : children) {
      assignment_[child.name()] = RegionLocation{child.name(), child, host, new_epoch};
    }
    for (const auto& r : child_names) publish_epoch_locked(r, new_epoch);
    for (const auto& r : parent_names) {
      publish_epoch_locked(r, new_epoch);
      coord_->put(kRetiredRecordPrefix + r, static_cast<std::int64_t>(new_epoch));
    }
    HookCall hooks(*this);
    lock.unlock();
    // Floors before gates: the recovery middleware migrates any pending
    // replay floor from the parents to the children before any child can
    // run its gate.
    if (hooks) hooks->on_regions_replaced(parent_names, child_names, new_epoch);
  }
  global_counter(children.size() > parents.locs.size() ? "master.region_splits"
                                                       : "master.region_merges")
      .add();
  for (const RegionDescriptor& child : children) {
    Status opened = parents.host->open_region(child, {}, new_epoch);
    if (!opened.is_ok()) {
      // The children stay assigned (epochs and floors intact); if the host
      // is dying, its failure recovery re-homes them like any other region.
      TFR_LOG(WARN, "master") << child.name() << " failed to open on " << host << ": "
                              << opened << "; failure recovery will re-home it";
      return opened;
    }
  }
  TFR_LOG(INFO, "master") << parent_names.front() << " (+" << parent_names.size() - 1
                          << ") replaced by " << child_names.front() << " (+"
                          << child_names.size() - 1 << "), epoch " << new_epoch;
  return Status::ok();
}

Status Master::split_region(const std::string& region_name) {
  auto parents = snapshot_parents({region_name});
  if (!parents.is_ok()) return parents.status();
  // Server-side half: localize, fence + flush the parent, choose the key,
  // write the daughters' store-file reference markers. The parent's dir is
  // never modified, so every abort path leaves it reopenable as-is.
  auto children = parents.value().host->split_region(region_name);
  if (!children.is_ok()) return children.status();
  return commit_replacement(parents.value(), {children.value().first, children.value().second});
}

Status Master::merge_regions(const std::string& left_region, const std::string& right_region) {
  auto left = region_by_name(left_region);
  if (!left.is_ok()) return left.status();
  auto right = region_by_name(right_region);
  if (!right.is_ok()) return right.status();
  if (!left.value().descriptor.precedes(right.value().descriptor)) {
    return Status::invalid_argument("regions not adjacent: " + left_region + " + " +
                                    right_region);
  }
  {
    MutexLock lock(mutex_);
    HookCall hooks(*this);
    lock.unlock();
    // A recovering region's pending replay floor pins the TM-log GC until
    // its gate runs; merging it away would hand that obligation to a region
    // whose own gate may already have passed. Refuse — the merge can retry
    // once recovery drains. (A failure can still land between this check
    // and the commit; on_regions_replaced min-inherits floors defensively.)
    if (hooks && (hooks->is_region_recovering(left_region) ||
                  hooks->is_region_recovering(right_region))) {
      return Status::unavailable("refusing to merge while a region is recovering: " +
                                 left_region + " + " + right_region);
    }
  }
  // Co-locate both parents on the left region's host.
  const std::string& host = left.value().server_id;
  if (right.value().server_id != host) TFR_RETURN_IF_ERROR(move_region(right_region, host));
  auto parents = snapshot_parents({left_region, right_region});
  if (!parents.is_ok()) return parents.status();
  // Server-side half (fence + flush both parents, write the merged dir's
  // reference markers); neither parent dir is modified.
  auto merged = parents.value().host->merge_regions(left_region, right_region);
  if (!merged.is_ok()) return merged.status();
  return commit_replacement(parents.value(), {merged.value()});
}

Status Master::move_region(const std::string& region_name, const std::string& target_server) {
  RegionLocation loc;
  RegionServer* source = nullptr;
  RegionServer* target = nullptr;
  {
    MutexLock lock(mutex_);
    auto it = assignment_.find(region_name);
    if (it == assignment_.end()) return Status::not_found("unknown region: " + region_name);
    loc = it->second;
    if (loc.server_id == target_server) return Status::ok();
    auto sit = servers_.find(loc.server_id);
    auto tit = servers_.find(target_server);
    if (sit == servers_.end() || tit == servers_.end() || !server_alive_.at(target_server)) {
      return Status::unavailable("source or target unavailable for move");
    }
    source = sit->second;
    target = tit->second;
  }
  // Flush + close at the source, then publish the new location so client
  // retries land on the target while it opens the region from store files.
  TFR_RETURN_IF_ERROR(source->offload_region(region_name));
  std::uint64_t new_epoch;
  {
    MutexLock lock(mutex_);
    // New owner, new epoch: any straggling write from the source (flushed
    // and closed above, but belt-and-braces) is fenced out.
    new_epoch = bump_epoch_locked(region_name);
    assignment_[region_name] =
        RegionLocation{region_name, loc.descriptor, target_server, new_epoch};
  }
  Status opened = target->open_region(loc.descriptor, {}, new_epoch);
  if (!opened.is_ok()) {
    // Roll back the routing; the region is homeless until an operator or a
    // failure-recovery pass fixes it, so surface the error loudly.
    TFR_LOG(ERROR, "master") << "move of " << region_name << " to " << target_server
                             << " failed: " << opened;
    return opened;
  }
  global_counter("master.region_moves").add();
  TFR_LOG(INFO, "master") << region_name << " moved " << loc.server_id << " -> "
                          << target_server;
  return Status::ok();
}

Result<int> Master::rebalance() {
  // Build the per-server load map.
  std::map<std::string, std::vector<std::string>> by_server;
  {
    MutexLock lock(mutex_);
    for (const auto& [id, alive] : server_alive_) {
      if (alive) by_server[id];
    }
    for (const auto& [name, loc] : assignment_) {
      auto it = by_server.find(loc.server_id);
      if (it != by_server.end()) it->second.push_back(name);
    }
  }
  if (by_server.empty()) return Status::unavailable("no live servers");

  int moved = 0;
  for (;;) {
    auto most = by_server.begin();
    auto least = by_server.begin();
    for (auto it = by_server.begin(); it != by_server.end(); ++it) {
      if (it->second.size() > most->second.size()) most = it;
      if (it->second.size() < least->second.size()) least = it;
    }
    if (most->second.size() <= least->second.size() + 1) break;
    const std::string region = most->second.back();
    TFR_RETURN_IF_ERROR(move_region(region, least->first));
    most->second.pop_back();
    least->second.push_back(region);
    ++moved;
  }
  if (moved > 0) TFR_LOG(INFO, "master") << "rebalance moved " << moved << " regions";
  return moved;
}

void Master::enable_balancer(const BalancerConfig& config) {
  disable_balancer();
  {
    MutexLock lock(balancer_mutex_);
    balancer_config_ = config;
    balancer_last_traffic_.clear();
    balancer_last_server_load_.clear();
  }
  if (config.interval > 0) {
    balancer_task_ = std::make_unique<PeriodicTask>([this] { balance_once(); }, config.interval);
    balancer_task_->start();
  }
}

void Master::disable_balancer() {
  if (balancer_task_ != nullptr) {
    balancer_task_->stop();
    balancer_task_.reset();
  }
}

void Master::balance_once() {
  // One tick is one serialized topology transaction batch: the tick lock is
  // held across split/merge/move RPCs including gated daughter opens (rank
  // kBalancer sits above the harness/RM ranks those gates take).
  MutexLock tick(balancer_mutex_);
  const BalancerConfig cfg = balancer_config_;
  const int max_actions = std::max(1, cfg.max_actions_per_tick);
  int actions = 0;

  std::map<std::string, RegionServer*> stubs;  // live servers only
  std::map<std::string, RegionLocation> assigned;
  {
    MutexLock lock(mutex_);
    for (const auto& [id, alive] : server_alive_) {
      if (alive) stubs[id] = servers_.at(id);
    }
    assigned = assignment_;
  }

  // Per-region samples: size from the stub, per-tick traffic by differencing
  // this tick's cumulative counters against the last tick's. A region whose
  // cumulative count went DOWN restarted its counters on a new host (move/
  // split) — its whole count is this incarnation's traffic.
  struct Sample {
    RegionLocation loc;
    std::uint64_t bytes = 0;
    std::uint64_t delta = 0;
    bool online = false;
  };
  std::vector<Sample> samples;
  std::map<std::string, std::uint64_t> traffic_now;
  for (const auto& [id, stub] : stubs) {
    for (const auto& rl : stub->region_loads()) {
      auto ait = assigned.find(rl.region);
      if (ait == assigned.end() || ait->second.server_id != id) continue;  // mid-transition
      const std::uint64_t total = rl.reads + rl.writes;
      auto lit = balancer_last_traffic_.find(rl.region);
      const std::uint64_t delta =
          (lit != balancer_last_traffic_.end() && total >= lit->second) ? total - lit->second
                                                                        : total;
      traffic_now[rl.region] = total;
      samples.push_back({ait->second, rl.store_bytes, delta, rl.online});
    }
  }
  // Per-server hotness from the heartbeat-piggybacked coord load reports,
  // differenced the same way.
  std::map<std::string, std::uint64_t> server_delta;
  std::map<std::string, std::int64_t> server_load_now;
  for (const auto& [id, stub] : stubs) {
    const std::int64_t reported = coord_->get(kServerLoadPrefix + id).value_or(0);
    auto lit = balancer_last_server_load_.find(id);
    const std::int64_t last = lit == balancer_last_server_load_.end() ? 0 : lit->second;
    server_delta[id] = static_cast<std::uint64_t>(reported >= last ? reported - last : reported);
    server_load_now[id] = reported;
  }
  balancer_last_traffic_ = std::move(traffic_now);  // also prunes vanished regions
  balancer_last_server_load_ = std::move(server_load_now);

  // --- splits: oversized regions -----------------------------------------
  for (const auto& s : samples) {
    if (actions >= max_actions) break;
    if (!s.online) continue;
    if (cfg.split_store_bytes == 0 || s.bytes <= cfg.split_store_bytes) continue;
    // InvalidArgument (fewer than two rows) and Unavailable (mid-transition,
    // racing a failure) are normal here; the next tick retries.
    if (split_region(s.loc.region_name).is_ok()) ++actions;
  }

  // --- merges: adjacent cold pairs ----------------------------------------
  if (cfg.merge_traffic_ops != 0 && cfg.merge_store_bytes != 0) {
    std::map<std::string, std::map<std::string, const Sample*>> by_table;  // start_key order
    for (const auto& s : samples) {
      by_table[s.loc.descriptor.table][s.loc.descriptor.start_key] = &s;
    }
    for (auto& [table, regions] : by_table) {
      const Sample* prev = nullptr;
      for (auto& [start, cur] : regions) {
        if (actions >= max_actions) break;
        if (prev != nullptr && prev->online && cur->online &&
            prev->loc.descriptor.precedes(cur->loc.descriptor) &&
            prev->delta < cfg.merge_traffic_ops && cur->delta < cfg.merge_traffic_ops &&
            prev->bytes + cur->bytes <= cfg.merge_store_bytes) {
          if (merge_regions(prev->loc.region_name, cur->loc.region_name).is_ok()) {
            ++actions;
            prev = nullptr;  // the pair is consumed; don't chain into cur
            continue;
          }
        }
        prev = cur;
      }
    }
  }

  // --- moves ---------------------------------------------------------------
  std::map<std::string, std::vector<const Sample*>> per_server;
  for (const auto& [id, stub] : stubs) per_server[id];
  for (const auto& s : samples) per_server[s.loc.server_id].push_back(&s);
  auto coldest_region_of = [](const std::vector<const Sample*>& regions) -> const Sample* {
    const Sample* coldest = nullptr;
    for (const Sample* s : regions) {
      if (!s->online) continue;
      if (coldest == nullptr || s->delta < coldest->delta) coldest = s;
    }
    return coldest;
  };
  if (actions < max_actions && per_server.size() >= 2) {
    // Region-count evenness (the scale-out balancer), one move per tick.
    auto most = per_server.begin();
    auto least = per_server.begin();
    for (auto it = per_server.begin(); it != per_server.end(); ++it) {
      if (it->second.size() > most->second.size()) most = it;
      if (it->second.size() < least->second.size()) least = it;
    }
    if (most->second.size() > least->second.size() + 1) {
      if (const Sample* victim = coldest_region_of(most->second)) {
        if (move_region(victim->loc.region_name, least->first).is_ok()) ++actions;
      }
    }
  }
  if (cfg.move_load_ratio > 0 && actions < max_actions && per_server.size() >= 2) {
    // Traffic imbalance: shed the coldest region of the hottest server onto
    // the coldest server. Moving the coldest (not the hottest) region keeps
    // the move cheap and convergent.
    std::string hot, cold;
    for (const auto& [id, d] : server_delta) {
      if (hot.empty() || d > server_delta[hot]) hot = id;
      if (cold.empty() || d < server_delta[cold]) cold = id;
    }
    if (!hot.empty() && hot != cold && server_delta[hot] >= cfg.move_min_ops &&
        static_cast<double>(server_delta[hot]) >
            cfg.move_load_ratio * static_cast<double>(std::max<std::uint64_t>(
                                      server_delta[cold], 1)) &&
        per_server[hot].size() >= 2) {
      if (const Sample* victim = coldest_region_of(per_server[hot])) {
        if (move_region(victim->loc.region_name, cold).is_ok()) ++actions;
      }
    }
  }

  janitor_sweep();
}

void Master::janitor_sweep() {
  // Reclaim retired parent dirs. Records are listed BEFORE markers: a
  // transition writes its children's markers before its durable records,
  // so any record visible here already has its markers visible — or they
  // were consumed by child compactions, at which point the parent's files
  // are genuinely dead.
  const auto records = coord_->list(kRetiredRecordPrefix);
  if (records.empty()) return;

  std::set<std::string> referenced;  // data dirs some live marker points into
  for (const auto& path : dfs_->list("/data/")) {
    const auto slash = path.rfind('/');
    if (slash == std::string::npos || path.compare(slash + 1, 4, "ref-") != 0) continue;
    auto target = dfs_->read_all(path);
    if (!target.is_ok()) return;  // flaky DFS: stay conservative, retry next tick
    const auto rslash = target.value().rfind('/');
    if (rslash != std::string::npos) referenced.insert(target.value().substr(0, rslash + 1));
  }
  std::set<std::string> assigned;
  {
    MutexLock lock(mutex_);
    for (const auto& [name, loc] : assignment_) assigned.insert(name);
  }
  for (const auto& [key, epoch] : records) {
    const std::string retired = key.substr(std::string(kRetiredRecordPrefix).size());
    const std::string dir = region_data_dir(retired);
    if (assigned.count(retired) != 0 || referenced.count(dir) != 0) continue;
    const std::size_t purged = dfs_->purge_prefix(dir);
    coord_->erase(key);
    if (purged > 0) {
      global_counter("master.janitor_purged_files").add(static_cast<std::int64_t>(purged));
      TFR_LOG(INFO, "master") << "janitor reclaimed " << purged
                              << " files of retired region " << retired;
    }
  }
}

void Master::on_session_event(const SessionInfo& info, bool expired) {
  {
    MutexLock lock(mutex_);
    auto it = server_alive_.find(info.name);
    if (it == server_alive_.end() || !it->second) return;  // unknown or already handled
    it->second = false;
    ++in_flight_recoveries_;
  }
  TFR_LOG(INFO, "master") << "server " << info.name << (expired ? " FAILED" : " left cleanly");
  failures_.push({info.name, expired});
}

void Master::recovery_worker() {
  // One handler thread per failure: cascading failures must overlap. A
  // second server dying while the first recovery is still replaying would
  // otherwise deadlock the cluster — the first handler can be blocked in a
  // replay gate writing to a region it just placed on the second (now dead)
  // server, and that region is only re-homed by the second failure's
  // handling, which a serial queue would park behind the first.
  std::vector<std::thread> handlers;
  while (auto item = failures_.pop()) {
    handlers.emplace_back([this, failed = *item] {
      handle_server_down(failed.first, failed.second);
      {
        MutexLock lock(mutex_);
        --in_flight_recoveries_;
      }
      idle_cv_.notify_all();
    });
  }
  for (auto& t : handlers) t.join();
}

void Master::wait_for_idle() const {
  MutexLock lock(mutex_);
  while (in_flight_recoveries_ != 0) idle_cv_.wait(lock);
}

bool Master::replay_superseded_edits(const std::string& table,
                                     const std::vector<WalRecord>& records) {
  // Mirrors KvClient's routed flush, bounded: this runs on a recovery
  // worker, and an unreachable cluster (no live server left) must degrade
  // to "segments kept, operator required" rather than park the thread.
  constexpr int kMaxAttempts = 2000;  // ~2 s per record at the 1 ms backoff
  for (const WalRecord& rec : records) {
    std::vector<Mutation> pending;
    pending.reserve(rec.cells.size());
    for (const Cell& c : rec.cells) {
      pending.push_back(Mutation{c.row, c.column, c.value, c.tombstone});
    }
    for (int attempt = 0; !pending.empty(); ++attempt) {
      if (attempt >= kMaxAttempts) return false;
      // Route each row against the *current* assignment: the region may
      // have been re-split, merged or moved since the record was written.
      std::map<std::string, std::vector<Mutation>> by_server;
      bool routed = true;
      for (const auto& m : pending) {
        auto loc = locate(table, m.row);
        if (!loc.is_ok()) {
          routed = false;
          break;
        }
        by_server[loc.value().server_id].push_back(m);
      }
      if (routed) {
        std::vector<Mutation> still_pending;
        for (auto& [target, muts] : by_server) {
          RegionServer* stub = server_stub(target);
          Status s =
              stub == nullptr ? Status::unavailable("unknown server " + target) : Status::ok();
          if (s.is_ok()) {
            ApplyRequest req;
            req.txn_id = rec.txn_id;
            req.client_id = rec.client_id;
            req.commit_ts = rec.commit_ts;
            req.table = table;
            req.mutations = muts;
            req.recovery_replay = true;  // idempotent: the owner may have some already
            s = stub->apply_writeset(req);
          }
          if (!s.is_ok()) {
            if (!s.is_unavailable() && !s.is_wrong_epoch()) return false;  // permanent
            still_pending.insert(still_pending.end(), muts.begin(), muts.end());
          }
        }
        pending = std::move(still_pending);
        if (pending.empty()) break;
      }
      sleep_millis(1);
    }
  }
  return true;
}

void Master::handle_server_down(const std::string& server_id, bool crashed) {
  // Snapshot the affected regions and the hook.
  std::vector<RegionLocation> affected;
  std::string wal_path;
  {
    MutexLock lock(mutex_);
    // A crash landing in the recovery middleware's restart window — hooks
    // detached, the fresh instance not yet installed — must not proceed
    // hook-less: no pending-region entry or durable /tfr/recovering marker
    // would ever be written, so the gate would find nothing pending and the
    // regions would come online without transactional replay. Hold the
    // recovery until the new hooks arrive (or the master shuts down).
    if (crashed && hooks_ever_set_) {
      while (hooks_ == nullptr && !stopping_) idle_cv_.wait(lock);
    }
    // Idempotence under duplicate failure deliveries: the coordination
    // service (or an operator via report_server_down) may report the same
    // dead incarnation more than once. Only the first report runs the WAL
    // split and reassignment; add_server clears the mark when the id
    // re-registers.
    if (!downs_handled_.insert(server_id).second) {
      TFR_LOG(INFO, "master") << "duplicate failure report for " << server_id << " ignored";
      return;
    }
    for (auto& [name, loc] : assignment_) {
      if (loc.server_id == server_id) {
        // Fence before anything else: from here on, the new epoch is in
        // force and any write the dead (or zombie) owner still manages to
        // push is rejected at the WAL / store-file boundary. The hook below
        // reads the already-bumped epoch via region_epoch().
        bump_epoch_locked(name);
        affected.push_back(loc);
      }
    }
    wal_path = server_wal_paths_[server_id];
    HookCall hooks(*this);
    lock.unlock();

    // A crashed server may still be running (zombie behind a partition):
    // close its WAL files at the DFS and reject its future appends/syncs, so
    // edits it acks after this point can never become durable (HDFS lease
    // recovery).
    if (crashed && !wal_path.empty()) dfs_->fence_prefix(wal_path);

    // Notify the recovery middleware *before* regions start coming back
    // (it snapshots TP(s) for the replay bound).
    if (hooks && crashed) {
      std::vector<std::string> region_names;
      for (const auto& loc : affected) region_names.push_back(loc.region_name);
      hooks->on_server_failure(server_id, region_names);
    }
  }

  // HBase log splitting: group the failed server's durable WAL records by
  // region (§2.1), fanning out per source segment across Wal::split's
  // worker pool. Clean shutdowns flushed their memstores, so their edits
  // are redundant — replaying them anyway is idempotent and exercises the
  // same path. The split is all-or-nothing: a worker that exhausts its
  // per-segment retries fails the whole split, and this outer loop retries
  // it from scratch — assigning regions from a partial edit map would
  // silently drop *durable* edits.
  const Micros split_start = now_micros();
  std::map<std::string, std::vector<WalRecord>> edits;
  if (!wal_path.empty()) {
    Backoff backoff(millis(1), millis(64));
    for (;;) {
      auto split = Wal::split(*dfs_, wal_path);
      if (split.is_ok()) {
        edits = std::move(split).value();
        global_counter("master.wal_splits").add();
        break;
      }
      if (split.status().is_not_found()) break;  // server never wrote a WAL
      if (backoff.attempts() >= 20) {
        // Exhausted: proceeding with an empty edit map would silently drop
        // the durable edits this loop exists to protect. Fail the recovery
        // visibly instead — the regions stay assigned to the dead server
        // (clients keep retrying, the RM keeps them pending and TP pinned)
        // and the counter lets tests and operators catch it.
        global_counter("master.wal_split_failures").add();
        TFR_LOG(ERROR, "master") << "WAL split failed for " << server_id << ": "
                                 << split.status() << "; giving up after "
                                 << backoff.attempts()
                                 << " attempts; regions left unassigned, operator "
                                    "intervention required";
        return;
      }
      TFR_LOG(WARN, "master") << "WAL split failed for " << server_id << ": "
                              << split.status() << "; retrying";
      backoff.sleep();
    }
  }
  const Micros split_us = now_micros() - split_start;
  global_gauge("master.last_split_us").set(split_us);
  global_histogram("master.split_us").record(split_us);

  // Reassign and recover the affected regions concurrently (Algorithm 4).
  // Region recoveries are independent: each open_region replays its own WAL
  // edits and fires its own replay gate, and the recovery middleware's
  // per-region state tolerates concurrent gates. Workers claim regions off
  // a shared cursor so one slow open does not serialize the rest.
  const Micros replay_start = now_micros();
  const std::size_t salt_base = std::hash<std::string>{}(server_id);
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> salt_counter{0};
  std::atomic<bool> all_recovered{true};
  auto recover_regions = [&] {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= affected.size()) return;
      const RegionLocation& loc = affected[i];
      for (;;) {
        std::string target;
        RegionServer* stub = nullptr;
        bool superseded = false;
        const std::size_t salt =
            salt_base + salt_counter.fetch_add(1, std::memory_order_relaxed);
        {
          MutexLock lock(mutex_);
          // Cascade check: if a later failure re-fenced the region (its new
          // owner died too before we placed it, or while our gate replay was
          // in flight), that failure's handler owns the reassignment now.
          // Publishing our stale epoch here would fence every write at the
          // owner it picked.
          auto ait = assignment_.find(loc.region_name);
          if (ait == assignment_.end() || ait->second.epoch > loc.epoch) {
            superseded = true;
          } else {
            target = pick_live_server_locked(salt);
            if (!target.empty()) {
              stub = servers_.at(target);
              // Publish the new location in the same critical section as the
              // epoch check: clients retrying against the dead server
              // re-locate here and keep retrying until the region is online.
              assignment_[loc.region_name] =
                  RegionLocation{loc.region_name, loc.descriptor, target, loc.epoch};
            }
          }
        }
        if (superseded) {
          TFR_LOG(INFO, "master") << loc.region_name
                                  << " re-fenced by a later failure; leaving it to "
                                     "that recovery";
          // The later handler owns the *reassignment* — but not our edits.
          // The TM-log floor only covers write-sets above the inherited
          // TPr; records the TM already GC'd exist solely in the dead
          // server's WAL, i.e. in the `edits` we split out of it. The
          // superseding handler splits only ITS dead server's WAL, and if
          // our earlier open died before syncing (the cascade: the new
          // owner crashed mid-open, dropping the replayed records as
          // un-synced bytes), those WALs never got them. Re-flush them
          // through the data path as idempotent recovery replays against
          // whoever ends up owning the rows: each ack lands the record in
          // a live owner's WAL and memstore, closing the gap.
          auto eit = edits.find(loc.region_name);
          if (eit != edits.end() && !eit->second.empty()) {
            if (replay_superseded_edits(loc.descriptor.table, eit->second)) {
              global_counter("master.superseded_edit_replays")
                  .add(static_cast<std::int64_t>(eit->second.size()));
              TFR_LOG(INFO, "master")
                  << loc.region_name << ": re-flushed " << eit->second.size()
                  << " split-WAL edits to the superseding owner";
            } else {
              TFR_LOG(ERROR, "master")
                  << loc.region_name << ": could not re-flush " << eit->second.size()
                  << " split-WAL edits after supersession; WAL segments kept, operator "
                     "intervention required";
            }
          }
          // Keep the dead server's segments either way (skip the purge
          // below): they stay the recovery source of record until an
          // operator confirms the handoff.
          all_recovered.store(false, std::memory_order_relaxed);
          break;
        }
        if (!stub) {
          TFR_LOG(ERROR, "master") << "no live server to host " << loc.region_name
                                   << "; operator intervention required";
          all_recovered.store(false, std::memory_order_relaxed);
          break;
        }
        auto it = edits.find(loc.region_name);
        const auto& region_edits =
            it == edits.end() ? std::vector<WalRecord>{} : it->second;
        Status s = stub->open_region(loc.descriptor, region_edits, loc.epoch);
        if (s.is_ok()) {
          TFR_LOG(INFO, "master") << loc.region_name << " reassigned " << server_id << " -> "
                                  << target;
          break;
        }
        TFR_LOG(WARN, "master") << "open_region " << loc.region_name << " on " << target
                                << " failed: " << s << "; retrying elsewhere";
        bool report_dead = false;
        {
          MutexLock lock(mutex_);
          // Treat the uncooperative target as suspect only if it is dead;
          // otherwise (e.g. already-open race) move on. Marking it dead is
          // not enough: the flag must come with a failure report, because
          // on_session_event coalesces on the flag — if we flip it silently
          // here, the coord expiry that arrives moments later is dropped as
          // "already handled" and the server's own regions are never
          // recovered (the cascade wedge). Whichever of this path and the
          // expiry flips the flag first enqueues the handling; the other
          // coalesces, and downs_handled_ absorbs duplicates beyond that.
          if (!stub->alive() && server_alive_[target]) {
            server_alive_[target] = false;
            ++in_flight_recoveries_;
            report_dead = true;
          }
        }
        if (report_dead) failures_.push({target, true});
        sleep_millis(1);
      }
    }
  };
  const std::size_t workers = std::min<std::size_t>(kRecoveryWorkers, affected.size());
  if (workers <= 1) {
    recover_regions();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(recover_regions);
    for (auto& t : pool) t.join();
  }
  const Micros replay_us = now_micros() - replay_start;
  global_gauge("master.last_replay_us").set(replay_us);
  global_histogram("master.reassign_replay_us").record(replay_us);

  // The old WAL is dead once every affected region is open elsewhere: the
  // split replayed its durable records into the new owners' memstores and
  // WALs, and the fence stops the old incarnation from writing more. Purge
  // it so a dead server's WAL does not pin DFS space forever — the
  // recycling counterpart of truncate_obsolete for servers that never come
  // back. Skipped if any region could not be placed: the next operator
  // action may need the segments.
  if (!wal_path.empty() && all_recovered.load(std::memory_order_relaxed)) {
    const std::size_t purged = dfs_->purge_prefix(wal_path + ".");
    if (purged > 0) {
      global_counter("master.wal_purged_segments").add(static_cast<std::int64_t>(purged));
      TFR_LOG(INFO, "master") << "purged " << purged << " WAL segments of " << server_id;
    }
  }
}

}  // namespace tfr
