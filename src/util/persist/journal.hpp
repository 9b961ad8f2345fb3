// Append-only record journal with per-record CRC framing.
//
// Each record is committed as [u32 len][payload][u32 crc32(payload)] and
// flushed before append() returns (fsync'd when the journal was opened
// with sync_each = true). Recovery scans the file front to back and stops
// at the first record that is truncated or fails its CRC: everything
// before that point is the last-known-good state, the torn tail is
// reported (and can be truncated away) rather than silently replayed.
//
// The SDL uses this as its replayable write log; the snapshot/compact
// cycle lives at the call site.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/persist/bytes.hpp"
#include "util/persist/persist.hpp"

namespace orev::persist {

/// Records larger than this are rejected at append and treated as
/// corruption at scan — a flipped length byte must not drive a huge read.
inline constexpr std::uint64_t kMaxJournalRecord = 1ull << 30;

class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter() { close(); }

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Open (creating if needed) for appending. With `sync_each`, every
  /// append is fsync'd — durable across power loss, not just process
  /// death — at a per-record I/O cost.
  Status open(const std::string& path, bool sync_each = false);

  /// Frame, append and flush one record.
  Status append(std::string_view payload);

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  void close();

 private:
  int fd_ = -1;
  bool sync_each_ = false;
  std::string path_;
  ByteWriter frame_;  // the record being framed, reused across appends
};

/// Outcome of scanning a journal file.
struct JournalScan {
  std::vector<std::string> records;  // valid records, in append order
  std::uint64_t valid_bytes = 0;     // length of the clean prefix
  bool torn_tail = false;            // bytes after the clean prefix
};

/// Scan `path`; kNotFound when absent. A torn/corrupt tail is not an
/// error — the scan succeeds with `torn_tail` set and the bad bytes
/// excluded, which is exactly the crash-mid-append case.
Status scan_journal(const std::string& path, JournalScan& out);

}  // namespace orev::persist
