#include "util/persist/journal.hpp"

#include <cerrno>
#include <cstring>

#include "util/persist/bytes.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define OREV_JOURNAL_POSIX 1
#include <fcntl.h>
#include <unistd.h>
#endif

namespace orev::persist {

#ifdef OREV_JOURNAL_POSIX

Status JournalWriter::open(const std::string& path, bool sync_each) {
  close();
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd_ < 0)
    return Status::Fail(StatusCode::kIoError,
                        "open journal '" + path + "': " + std::strerror(errno));
  path_ = path;
  sync_each_ = sync_each;
  return Status::Ok();
}

Status JournalWriter::append(std::string_view payload) {
  if (fd_ < 0)
    return Status::Fail(StatusCode::kIoError, "journal is not open");
  if (payload.size() > kMaxJournalRecord)
    return Status::Fail(StatusCode::kBadValue, "journal record too large");
  ByteWriter& w = frame_;
  w.clear();
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.raw(payload.data(), payload.size());
  w.u32(crc32(payload));
  const std::string& rec = w.buffer();
  // O_APPEND writes of a full record buffer: a crash mid-write leaves a
  // torn tail that scan_journal() drops.
  std::size_t written = 0;
  while (written < rec.size()) {
    const ssize_t n = ::write(fd_, rec.data() + written, rec.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Fail(StatusCode::kIoError,
                          "append journal '" + path_ +
                              "': " + std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
  if (sync_each_ && ::fsync(fd_) != 0)
    return Status::Fail(StatusCode::kIoError,
                        "fsync journal '" + path_ +
                            "': " + std::strerror(errno));
  return Status::Ok();
}

void JournalWriter::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  path_.clear();
}

#else  // stdio fallback

Status JournalWriter::open(const std::string& path, bool sync_each) {
  close();
  (void)path;
  (void)sync_each;
  return Status::Fail(StatusCode::kIoError,
                      "journal requires a POSIX platform");
}

Status JournalWriter::append(std::string_view) {
  return Status::Fail(StatusCode::kIoError, "journal is not open");
}

void JournalWriter::close() {}

#endif

Status scan_journal(const std::string& path, JournalScan& out) {
  std::string bytes;
  Status st = read_file(path, bytes);
  if (!st.ok()) return st;

  JournalScan scan;
  ByteReader r(bytes);
  while (!r.at_end()) {
    std::uint32_t len = 0;
    if (!r.u32(len) || len > kMaxJournalRecord || len > r.remaining()) {
      scan.torn_tail = true;
      break;
    }
    const std::size_t payload_pos = r.pos();
    std::uint32_t stored_crc = 0;
    if (!r.skip(len) || !r.u32(stored_crc)) {
      scan.torn_tail = true;
      break;
    }
    const std::string_view payload =
        r.view_between(payload_pos, payload_pos + len);
    if (stored_crc != crc32(payload)) {
      scan.torn_tail = true;
      break;
    }
    scan.records.emplace_back(payload);
    scan.valid_bytes = r.pos();
  }
  out = std::move(scan);
  return Status::Ok();
}

}  // namespace orev::persist
