#include "src/kv/region.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/metrics.h"

namespace tfr {

std::string_view region_state_name(RegionState s) {
  switch (s) {
    case RegionState::kOpening: return "opening";
    case RegionState::kGated: return "gated";
    case RegionState::kOnline: return "online";
    case RegionState::kOffline: return "offline";
  }
  return "?";
}

namespace {
/// DFS paths may not love arbitrary key bytes; region names are restricted
/// to printable benchmark keys, so a simple substitution suffices.
std::string sanitize(std::string name) {
  for (auto& c : name) {
    if (c == '/' || c == ' ') c = '_';
  }
  return name;
}

/// True for a split/merge inheritance marker ("ref-N") in a data dir.
bool is_ref_marker(const std::string& path) {
  const auto slash = path.rfind('/');
  return path.compare(slash == std::string::npos ? 0 : slash + 1, 4, "ref-") == 0;
}
}  // namespace

std::string region_data_dir(const std::string& region_name) {
  return "/data/" + sanitize(region_name) + "/";
}

void clear_unregistered_region_dirs(Dfs& dfs, const std::vector<RegionDescriptor>& regions) {
  for (const auto& region : regions) {
    for (const auto& path : dfs.list(region_data_dir(region.name()))) {
      TFR_IGNORE_STATUS(dfs.remove(path),
                        "abandoned topology transition; markers in a never-registered "
                        "dir are dead weight, not state — the region was never routed to");
    }
  }
}

Region::Region(RegionDescriptor desc, Dfs& dfs, BlockCache& cache,
               std::size_t store_block_bytes)
    : desc_(std::move(desc)), dfs_(&dfs), cache_(&cache),
      store_block_bytes_(store_block_bytes) {}

std::string Region::data_dir() const { return region_data_dir(desc_.name()); }

Status Region::load_store_files() {
  MutexLock lock(mutex_);
  files_.clear();
  ref_markers_.clear();
  // Store files are numbered; open in path order (oldest first) and flip
  // once at the end — front-inserting each file would be quadratic in the
  // file count. "ref-" sorts before "sf-", so a daughter's inherited
  // snapshot (the markers, numbered oldest-first by the split) stays older
  // than every file the daughter wrote itself.
  auto paths = dfs_->list(data_dir());
  std::sort(paths.begin(), paths.end());
  std::uint64_t max_id = 0;
  for (const auto& p : paths) {
    std::string target = p;
    if (is_ref_marker(p)) {
      // The marker's content is the real path of a retired parent's store
      // file (already resolved — markers never chain ref -> ref).
      // tfr-lint: blocking-ok(open-time load: the region is not serving yet, and the
      // lock only orders this against a concurrent open — kRegion is a leaf rank)
      auto real = dfs_->read_all(p);
      if (!real.is_ok()) return real.status();
      target = real.value();
    }
    auto reader = StoreFileReader::open(*dfs_, target);
    if (!reader.is_ok()) return reader.status();
    files_.push_back(reader.value());
    if (target != p) {
      ref_markers_[target] = p;
      continue;  // markers do not advance the owned-file id sequence
    }
    // Path suffix is the numeric file id.
    const auto pos = p.rfind("sf-");
    if (pos != std::string::npos) {
      max_id = std::max<std::uint64_t>(max_id, std::strtoull(p.c_str() + pos + 3, nullptr, 10));
    }
  }
  std::reverse(files_.begin(), files_.end());  // newest first
  next_file_id_ = max_id + 1;
  return Status::ok();
}

bool Region::apply(const std::vector<Cell>& cells, std::uint64_t wal_seq) {
  MutexLock lock(mutex_);
  // Reject under the same lock a topology transition's fencing flush holds:
  // once a split/merge/offload has marked the region offline and drained
  // the memstore, a racing apply must not repopulate it — the cells would
  // be dropped with the region object. The caller surfaces Unavailable and
  // the client re-locates; the already-written WAL record is harmless
  // (replay is idempotent and the write was never acked).
  if (state_.load(std::memory_order_acquire) == RegionState::kOffline) return false;
  for (const auto& c : cells) memstore_.apply(c);
  if (wal_seq != 0 && min_unflushed_wal_seq_ == 0) min_unflushed_wal_seq_ = wal_seq;
  write_ops_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::uint64_t Region::min_unflushed_wal_seq() const {
  MutexLock lock(mutex_);
  return min_unflushed_wal_seq_;
}

Result<std::optional<Cell>> Region::get(const std::string& row, const std::string& column,
                                        Timestamp read_ts) {
  read_ops_.fetch_add(1, std::memory_order_relaxed);
  std::optional<Cell> best;
  std::vector<std::shared_ptr<StoreFileReader>> files;
  {
    MutexLock lock(mutex_);
    best = memstore_.get(row, column, read_ts);
    files = files_;  // cheap shared_ptr copies; DFS reads happen unlocked
  }
  for (const auto& f : files) {
    // `<=` is deliberate: a file with max_ts == best->ts cannot hold a
    // version that beats `best`. A strictly newer version would need
    // ts > max_ts, which the file cannot contain; and a same-ts version of
    // the same (row, column) can only be a byte-identical duplicate,
    // because commit timestamps are unique per transaction and a
    // transaction writes a cell at most once — duplicates across files
    // arise only from idempotent replay (see the GetDuplicateCellAcross
    // Files regression test). Skipping the tie therefore never changes the
    // result, only saves the block fetch.
    if (best && f->max_ts() <= best->ts) continue;
    auto from_file = f->get(*cache_, row, column, read_ts);
    if (!from_file.is_ok()) return from_file.status();
    if (from_file.value() && (!best || from_file.value()->ts > best->ts)) {
      best = from_file.value();
    }
  }
  if (best && best->tombstone) best.reset();
  return best;
}

Result<std::vector<Cell>> Region::scan(const std::string& start_in, const std::string& end_in,
                                       Timestamp read_ts, std::size_t limit) {
  read_ops_.fetch_add(1, std::memory_order_relaxed);
  // Clip to the region's own range: inherited (referenced) parent store
  // files can hold the sibling daughter's rows, which must never leak out.
  const std::string& start = start_in < desc_.start_key ? desc_.start_key : start_in;
  std::string end = end_in;
  if (!desc_.end_key.empty() && (end.empty() || end > desc_.end_key)) end = desc_.end_key;
  // Snapshot the memstore's slice and the file list under the lock, then
  // merge lazily — block fetches happen outside the lock and stop as soon
  // as `limit` rows are complete.
  std::vector<Cell> mem;
  std::vector<std::shared_ptr<StoreFileReader>> files;
  {
    MutexLock lock(mutex_);
    mem = memstore_.range_snapshot(start, end);
    files = files_;
  }
  std::vector<std::unique_ptr<CellIterator>> iters;
  iters.reserve(files.size() + 1);
  // Newest source first (memstore, then files newest-first): merge ties on
  // identical (row, column, ts) resolve deterministically to the newest.
  iters.push_back(std::make_unique<VectorCellIterator>(std::move(mem)));
  for (const auto& f : files) {
    if (!f->range_overlaps(start, end)) {
      static Counter& range_skips = global_counter("kv.sf_range_skips");
      range_skips.add();
      continue;
    }
    auto it = f->iterate(*cache_, start, end);
    if (!it.is_ok()) return it.status();
    iters.push_back(std::move(it.value()));
  }
  MergingCellIterator merged(std::move(iters));
  std::vector<Cell> out;
  TFR_RETURN_IF_ERROR(collect_visible(merged, read_ts, limit, &out));
  return out;
}

Status Region::finalize_store_file(StoreFileWriter& writer, const std::string& path) {
  TFR_BLOCKING_POINT("region.finalize_store_file");
  if (epochs_ == nullptr) return writer.finish(*dfs_, path);
  // Write to a tmp path outside the data dir (a half-written tmp file left
  // by a crashed owner must never be picked up by load_store_files), then
  // re-check our epoch and rename into the live namespace. The rename is
  // the commit point: a finalize racing the master's fence either renames
  // before the new owner attached files (its data is simply a valid extra
  // store file of the old epoch's admitted writes) or is rejected here.
  const std::string tmp = "/tmp" + path;
  TFR_RETURN_IF_ERROR(writer.finish(*dfs_, tmp));
  Status fence = epochs_->validate(name(), epoch());
  if (fence.is_ok()) fence = dfs_->rename(tmp, path);
  if (!fence.is_ok()) {
    TFR_IGNORE_STATUS(dfs_->remove(tmp),
                      "tmp cleanup after a failed finalize; /tmp is outside the data dir and "
                      "never loaded, an orphan only wastes space");
    if (fence.is_wrong_epoch()) {
      static Counter& rejects = global_counter("kv.epoch_rejects");
      rejects.add();
      TFR_LOG(WARN, "region") << name() << " store-file finalize fenced: " << fence;
    }
  }
  return fence;
}

Status Region::flush_memstore() {
  std::shared_ptr<StoreFileReader> attached;
  StoreFileWriter writer(store_block_bytes_);
  {
    MutexLock lock(mutex_);
    if (memstore_.cell_count() == 0) return Status::ok();
    for (const auto& c : memstore_.snapshot()) writer.add(c);
    const std::string path = data_dir() + "sf-" + std::to_string(next_file_id_++);
    // tfr-lint: blocking-ok(region lock held across the DFS write by design — writes must
    // not land between snapshot and swap; kRegion is may_block=true in the rank table)
    TFR_RETURN_IF_ERROR(finalize_store_file(writer, path));
    auto reader = StoreFileReader::open_written(*dfs_, path, writer);
    if (!reader.is_ok()) return reader.status();
    attached = reader.value();
    files_.insert(files_.begin(), attached);
    TFR_LOG(DEBUG, "region") << name() << " flushed " << memstore_.cell_count() << " cells to "
                             << path;
    memstore_.clear();
    // Everything this region had in the WAL is now in a durable store file.
    min_unflushed_wal_seq_ = 0;
  }
  // Cache-on-write, outside the region lock. Holding `attached` orders the
  // inserts before the erase a later compaction's deferred delete of this
  // file performs, so no block of a deleted file is left behind.
  attached->cache_written_blocks(*cache_, writer);
  return Status::ok();
}

Status Region::compact(Timestamp prune_before_ts) {
  // Snapshot the immutable inputs, merge outside the lock, then swap in the
  // result only if no flush changed the file set meanwhile. The merge
  // streams block-by-block through the shared iterators, so peak memory is
  // O(block) per input file instead of O(region).
  std::vector<std::shared_ptr<StoreFileReader>> inputs;
  {
    MutexLock lock(mutex_);
    // A single file normally needs no compaction — unless it is a split/
    // merge reference, in which case compacting localizes the data (and
    // dropping the marker is what lets the janitor reclaim the parent dir).
    if (files_.empty() || (files_.size() < 2 && ref_markers_.empty())) return Status::ok();
    inputs = files_;
  }

  // A fenced successor (a move's new host, or a daughter after a split) may
  // attach these same paths, compact them, and delete them out from under
  // our merge. A NotFound mid-merge in that situation is a symptom of the
  // race, not of the data — report Unavailable so the apply path defers the
  // compaction instead of failing the client call with NotFound.
  auto raced = [&](Status s) -> Status {
    if (!s.is_not_found()) return s;
    MutexLock lock(mutex_);
    if (state_.load(std::memory_order_acquire) == RegionState::kOffline ||
        files_.size() != inputs.size() ||
        !std::equal(files_.begin(), files_.end(), inputs.begin())) {
      return Status::unavailable("compaction input vanished under a fenced successor on " +
                                 name() + ": " + s.to_string());
    }
    return s;
  };

  StoreFileWriter writer(store_block_bytes_);
  std::size_t kept = 0, dropped = 0, pruned = 0;
  {
    std::vector<std::unique_ptr<CellIterator>> iters;
    iters.reserve(inputs.size());
    for (const auto& f : inputs) {
      auto it = f->iterate(*cache_, "", "");
      if (!it.is_ok()) return raced(it.status());
      iters.push_back(std::move(it.value()));
    }
    MergingCellIterator merged(std::move(iters));
    while (merged.valid()) {
      const std::string row = merged.cell().row;
      const std::string column = merged.cell().column;
      // Clip to the region's range: referenced parent files carry the
      // sibling daughter's rows too, and a daughter's own output must not
      // re-own them.
      const bool in_range = desc_.contains(row);
      // Versions of one column arrive newest-first. Keep everything newer
      // than the prune horizon plus the newest survivor at/below it.
      // Idempotent replay can leave byte-identical cells in several input
      // files; the merge emits them adjacently and we collapse them here.
      bool survivor_taken = false;
      Timestamp prev_ts = 0;
      bool have_prev = false;
      while (merged.valid() && merged.cell().row == row && merged.cell().column == column) {
        const Cell& c = merged.cell();
        if (have_prev && c.ts == prev_ts) {
          TFR_RETURN_IF_ERROR(raced(merged.advance()));  // duplicate across files
          continue;
        }
        prev_ts = c.ts;
        have_prev = true;
        bool keep;
        if (prune_before_ts == kNoTimestamp || c.ts > prune_before_ts) {
          keep = true;
        } else if (!survivor_taken) {
          survivor_taken = true;
          keep = !c.tombstone;  // a tombstone survivor means: fully deleted
        } else {
          keep = false;
        }
        if (keep && in_range) {
          writer.add(c);
          ++kept;
        } else {
          ++dropped;
          if (in_range) ++pruned;
        }
        TFR_RETURN_IF_ERROR(raced(merged.advance()));
      }
    }
  }  // the merge's iterators reference `inputs`; they end before the swap

  std::string path;
  {
    MutexLock lock(mutex_);
    path = data_dir() + "sf-" + std::to_string(next_file_id_++);
  }
  TFR_RETURN_IF_ERROR(finalize_store_file(writer, path));
  auto reader = StoreFileReader::open_written(*dfs_, path, writer);
  if (!reader.is_ok()) return reader.status();

  std::vector<std::string> obsolete_markers;
  {
    MutexLock lock(mutex_);
    // A split/merge/move fenced this region mid-compaction: the inputs now
    // belong to the successor (daughter ref markers or the new host), so
    // deleting them — or even our own just-renamed output, which the
    // successor may already have listed and attached as an extra
    // (idempotent-duplicate) store file — is off the table. Leak the
    // output; the janitor reclaims it with the retired dir.
    if (state_.load(std::memory_order_acquire) == RegionState::kOffline) {
      return Status::unavailable("region went offline mid-compaction: " + name());
    }
    // A flush that landed mid-compaction added a file we have not merged;
    // bail out (the new merged file is discarded) and let the caller retry.
    if (files_.size() != inputs.size() ||
        !std::equal(files_.begin(), files_.end(), inputs.begin())) {
      TFR_IGNORE_STATUS(dfs_->remove(path),
                        "discarding the unmerged compaction output; it was never attached, an "
                        "orphan only wastes space");
      return Status::unavailable("compaction raced a flush on " + name());
    }
    for (const auto& f : files_) {
      auto ref = ref_markers_.find(f->path());
      if (ref == ref_markers_.end()) {
        // Replaced input we own: delete it when the last reference drops.
        // In the common case that is when our `inputs` copy is released
        // below; under a racing get/scan/compaction that snapshotted files_,
        // the reader keeps the file alive until that operation finishes.
        f->remove_on_last_ref(cache_);
      } else {
        // Inherited input: drop only OUR marker. The referenced parent file
        // stays — the sibling daughter may still read through it; the
        // master's janitor deletes the parent dir once no marker anywhere
        // references it.
        obsolete_markers.push_back(ref->second);
      }
    }
    ref_markers_.clear();
    files_.clear();
    files_.push_back(reader.value());
  }
  TFR_LOG(INFO, "region") << name() << " compacted " << inputs.size() << " files -> 1 ("
                          << kept << " cells kept, " << dropped << " dropped, " << pruned
                          << " below the horizon)";
  static Counter& versions_pruned = global_counter("kv.compaction.versions_pruned");
  versions_pruned.add(static_cast<std::int64_t>(pruned));
  // Release the replaced inputs first (their blocks leave the cache unless
  // a concurrent read still holds them), then cache the output: the cache
  // makes room from what is dead, not from the LRU tail of live files.
  inputs.clear();
  reader.value()->cache_written_blocks(*cache_, writer);
  for (const auto& m : obsolete_markers) {
    TFR_IGNORE_STATUS(dfs_->remove(m),
                      "the inherited data was just rewritten locally; a leftover marker only "
                      "delays the janitor's parent-dir reclaim, it cannot corrupt reads");
  }
  return Status::ok();
}

Result<std::vector<Cell>> Region::dump_cells() {
  std::vector<std::shared_ptr<StoreFileReader>> files;
  std::vector<Cell> mem;
  {
    MutexLock lock(mutex_);
    files = files_;
    mem = memstore_.snapshot();
  }
  std::vector<std::unique_ptr<CellIterator>> iters;
  iters.reserve(files.size() + 1);
  iters.push_back(std::make_unique<VectorCellIterator>(std::move(mem)));
  for (const auto& f : files) {
    auto it = f->iterate(*cache_, "", "");
    if (!it.is_ok()) return it.status();
    iters.push_back(std::move(it.value()));
  }
  MergingCellIterator merged(std::move(iters));
  // The merge emits duplicates (identical cells replayed into several
  // sources) adjacently; collapse them as the stream drains. Out-of-range
  // rows (a referenced parent file's sibling share) are dropped.
  std::vector<Cell> out;
  while (merged.valid()) {
    const Cell& c = merged.cell();
    if (desc_.contains(c.row) &&
        (out.empty() || out.back().row != c.row || out.back().column != c.column ||
         out.back().ts != c.ts)) {
      out.push_back(c);
    }
    TFR_RETURN_IF_ERROR(merged.advance());
  }
  return out;
}

Result<std::string> Region::choose_split_key() {
  std::vector<std::shared_ptr<StoreFileReader>> files;
  {
    MutexLock lock(mutex_);
    files = files_;
  }
  // Prefer pure metadata: the midpoint block boundary of the largest
  // multi-block store file (index metadata — no block reads). Single-block
  // files have no interior boundary, and a midpoint outside (start, end)
  // would make a degenerate daughter; such files fall through.
  std::stable_sort(files.begin(), files.end(),
                   [](const std::shared_ptr<StoreFileReader>& a,
                      const std::shared_ptr<StoreFileReader>& b) {
                     return a->data_bytes() > b->data_bytes();
                   });
  for (const auto& f : files) {
    if (f->block_count() < 2) continue;
    const std::string mid = f->midpoint_row();
    if (mid > desc_.start_key && desc_.contains(mid)) return mid;
  }
  // Small regions: the median distinct row of a full
  // (range-clipped) dump. With at least two distinct rows the median
  // differs from the smallest row, so both daughters are non-degenerate.
  auto cells = dump_cells();
  if (!cells.is_ok()) return cells.status();
  std::vector<std::string> rows;
  for (const auto& c : cells.value()) {
    if (rows.empty() || rows.back() != c.row) rows.push_back(c.row);
  }
  if (rows.size() < 2) {
    return Status::invalid_argument("region " + name() +
                                    " holds fewer than two rows; nothing to split");
  }
  return rows[rows.size() / 2];
}

std::vector<std::string> Region::store_file_paths() const {
  MutexLock lock(mutex_);
  std::vector<std::string> paths;
  paths.reserve(files_.size());
  for (const auto& f : files_) paths.push_back(f->path());
  return paths;
}

bool Region::has_references() const {
  MutexLock lock(mutex_);
  return !ref_markers_.empty();
}

std::uint64_t Region::store_bytes() const {
  MutexLock lock(mutex_);
  std::uint64_t total = memstore_.byte_size();
  for (const auto& f : files_) total += f->data_bytes();
  return total;
}

std::size_t Region::memstore_bytes() const {
  MutexLock lock(mutex_);
  return memstore_.byte_size();
}

std::size_t Region::store_file_count() const {
  MutexLock lock(mutex_);
  return files_.size();
}

}  // namespace tfr
