#include "service/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "obs/trace.h"
#include "util/failpoint.h"
#include "util/small_util.h"

namespace relview {
namespace {

constexpr char kMagic[] = "rv1";

// Validates one complete record line (terminator already stripped).
// Returns an empty string and sets *payload on success; otherwise a
// description of the damage.
std::string ValidateRecordLine(const std::string& line,
                               std::string* payload) {
  std::istringstream hdr(line);
  std::string magic, checksum_hex;
  size_t len = 0;
  if (!(hdr >> magic >> len >> checksum_hex) || magic != kMagic ||
      checksum_hex.size() != 16) {
    return "malformed header";
  }
  // Records are written with single-space separators, so the payload
  // offset is exactly the reconstructed header's length.
  const size_t payload_at =
      magic.size() + 1 + std::to_string(len).size() + 1 + 16 + 1;
  if (payload_at > line.size() || line.size() - payload_at != len) {
    return "length mismatch (torn write?)";
  }
  *payload = line.substr(payload_at);
  char want[17];
  std::snprintf(want, sizeof(want), "%016llx",
                static_cast<unsigned long long>(JournalChecksum(*payload)));
  if (checksum_hex != want) return "checksum mismatch";
  return "";
}

// Re-verifies the file's final record before a writer may extend it. A
// clean journal always ends in a newline-terminated record whose
// checksum validates; anything else means the previous incarnation died
// mid-append (or the disk flipped bits) and the caller must repair via
// Journal::Read first. Reads only a bounded tail window.
Status VerifyTailRecord(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::OK();  // no file yet: nothing to verify
  const std::streamoff size = in.tellg();
  if (size == 0) return Status::OK();  // empty journal is clean

  // A 1 MiB window covers any ordinary tail, but a single record can
  // legitimately outgrow it (huge-arity tuples), so keep doubling until
  // the window holds a whole record or spans the file.
  for (std::streamoff window = 1 << 20;; window *= 2) {
    const std::streamoff start = size > window ? size - window : 0;
    in.clear();
    in.seekg(start);
    std::string tail(static_cast<size_t>(size - start), '\0');
    if (!in.read(tail.data(), static_cast<std::streamsize>(tail.size()))) {
      return Status::Internal("journal " + path + ": cannot read tail");
    }
    if (tail.back() != '\n') {
      return Status::Corruption("journal " + path +
                                ": final record is torn (no terminator); "
                                "repair with Journal::Read before appending");
    }
    tail.pop_back();
    const size_t nl = tail.find_last_of('\n');
    if (nl == std::string::npos && start > 0) continue;  // grow the window
    const std::string line =
        nl == std::string::npos ? tail : tail.substr(nl + 1);
    std::string payload;
    const std::string bad = ValidateRecordLine(line, &payload);
    if (!bad.empty()) {
      return Status::Corruption("journal " + path + ": final record is "
                                "invalid (" + bad +
                                "); repair with Journal::Read before "
                                "appending");
    }
    return Status::OK();
  }
}

std::string HeaderFor(const std::string& payload) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s %zu %016llx ", kMagic, payload.size(),
                static_cast<unsigned long long>(JournalChecksum(payload)));
  return buf;
}

std::string EncodeTuple(const Tuple& t) {
  std::string out = std::to_string(t.arity());
  for (const Value& v : t.values()) out += " " + std::to_string(v.raw());
  return out;
}

Result<Tuple> DecodeTuple(std::istringstream* in) {
  int arity = -1;
  if (!(*in >> arity) || arity < 0) {
    return Status::InvalidArgument("journal payload: bad tuple arity");
  }
  std::vector<Value> vals;
  vals.reserve(arity);
  for (int i = 0; i < arity; ++i) {
    uint32_t raw;
    if (!(*in >> raw)) {
      return Status::InvalidArgument("journal payload: short tuple");
    }
    vals.push_back(raw & Value::kNullTag ? Value::Null(raw & ~Value::kNullTag)
                                         : Value::Const(raw));
  }
  return Tuple(std::move(vals));
}

}  // namespace

uint64_t JournalChecksum(const std::string& data) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : data) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string EncodeJournalPayload(const ViewUpdate& u) {
  switch (u.kind) {
    case UpdateKind::kInsert:
      return "I " + EncodeTuple(u.t1);
    case UpdateKind::kDelete:
      return "D " + EncodeTuple(u.t1);
    case UpdateKind::kReplace:
      return "R " + EncodeTuple(u.t1) + " " + EncodeTuple(u.t2);
    case UpdateKind::kNumUpdateKinds:
      break;  // sentinel, not a real kind
  }
  return "";
}

Result<ViewUpdate> DecodeJournalPayload(const std::string& payload) {
  std::istringstream in(payload);
  std::string kind;
  if (!(in >> kind)) {
    return Status::InvalidArgument("journal payload: empty record");
  }
  if (kind == "I" || kind == "D") {
    RELVIEW_ASSIGN_OR_RETURN(Tuple t, DecodeTuple(&in));
    return kind == "I" ? ViewUpdate::Insert(std::move(t))
                       : ViewUpdate::Delete(std::move(t));
  }
  if (kind == "R") {
    RELVIEW_ASSIGN_OR_RETURN(Tuple t1, DecodeTuple(&in));
    RELVIEW_ASSIGN_OR_RETURN(Tuple t2, DecodeTuple(&in));
    return ViewUpdate::Replace(std::move(t1), std::move(t2));
  }
  return Status::InvalidArgument("journal payload: unknown kind '" + kind +
                                 "'");
}

Result<Journal> Journal::Open(
    const std::string& path,
    std::shared_ptr<LatencyHistogram> fsync_latency) {
  // O_APPEND resumes after the last byte, so never extend a file whose
  // final record does not verify: appends after a torn tail would be
  // unreachable to replay (everything past the first bad record drops).
  RELVIEW_RETURN_IF_ERROR(VerifyTailRecord(path));
  int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd < 0) {
    return Status::InvalidArgument("cannot open journal " + path + ": " +
                                   std::strerror(errno));
  }
  Journal j(path, fd);
  if (fsync_latency != nullptr) j.fsync_latency_ = std::move(fsync_latency);
  return j;
}

Journal::Journal(Journal&& o) noexcept
    : path_(std::move(o.path_)),
      fd_(o.fd_),
      poisoned_(o.poisoned_.load(std::memory_order_relaxed)),
      unsynced_bytes_(o.unsynced_bytes_.load(std::memory_order_relaxed)),
      fsync_latency_(std::move(o.fsync_latency_)) {
  o.fd_ = -1;
}

Journal& Journal::operator=(Journal&& o) noexcept {
  if (this != &o) {
    if (fd_ >= 0) ::close(fd_);
    path_ = std::move(o.path_);
    fd_ = o.fd_;
    poisoned_.store(o.poisoned_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    unsynced_bytes_.store(o.unsynced_bytes_.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    fsync_latency_ = std::move(o.fsync_latency_);
    o.fd_ = -1;
  }
  return *this;
}

Journal::~Journal() {
  if (fd_ >= 0) ::close(fd_);
}

Status Journal::RollBackTo(off_t batch_start, Status cause) {
  // Undo the partially written batch: O_APPEND keeps writing at EOF, so
  // a torn record left behind would silently orphan every later batch at
  // replay (Read stops at the first bad record).
  if (::ftruncate(fd_, batch_start) == 0 && ::fsync(fd_) == 0) {
    return cause;
  }
  // The file still holds bytes the caller thinks were undone. Refuse all
  // further appends from this handle; reopening re-runs tail
  // verification and repair.
  poisoned_.store(true, std::memory_order_release);
  return Status::Internal(cause.message() + "; rollback to offset " +
                          std::to_string(batch_start) + " failed (" +
                          std::strerror(errno) +
                          "), journal poisoned until reopen");
}

Status Journal::Sync() {
  if (fd_ < 0) return Status::FailedPrecondition("journal not open");
  if (poisoned_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "journal " + path_ + ": poisoned by an earlier failure; reopen "
        "(with repair) before syncing");
  }
  Timer fsync_timer;
  // Claim the unsynced-byte gauge BEFORE the fsync: bytes appended while
  // the fsync is in flight then stay counted as unsynced even though the
  // syscall may in fact cover them — over-reporting exposure is the safe
  // direction for a durability gauge (mirrors the seq_-before-fsync rule
  // in DurableStore::Sync).
  const uint64_t claimed = unsynced_bytes_.exchange(0,
                                                    std::memory_order_relaxed);
  if (RELVIEW_FAILPOINT("commit.fsync")) {
    // No truncation here: appenders may be writing concurrently, and we
    // cannot know which bytes the failed fsync lost. Poison and force a
    // reopen instead (fsyncgate semantics).
    poisoned_.store(true, std::memory_order_release);
    unsynced_bytes_.fetch_add(claimed, std::memory_order_relaxed);
    return Status::Internal("journal fsync failed: injected EIO; journal "
                            "poisoned until reopen");
  }
  if (::fsync(fd_) != 0) {
    poisoned_.store(true, std::memory_order_release);
    unsynced_bytes_.fetch_add(claimed, std::memory_order_relaxed);
    return Status::Internal("journal fsync failed: " +
                            std::string(std::strerror(errno)) +
                            "; journal poisoned until reopen");
  }
  fsync_latency_->Record(fsync_timer.ElapsedNanos());
  return Status::OK();
}

Status Journal::AppendUnsynced(const std::vector<ViewUpdate>& updates) {
  if (fd_ < 0) return Status::FailedPrecondition("journal not open");
  if (poisoned_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "journal " + path_ + ": poisoned by an earlier failure; reopen "
        "(with repair) before appending");
  }
  if (updates.empty()) return Status::OK();
  RELVIEW_TRACE_SPAN_N(span, "journal.append");
  span.AddArg("records", updates.size());
  std::string block;
  for (const ViewUpdate& u : updates) {
    const std::string payload = EncodeJournalPayload(u);
    block += HeaderFor(payload);
    block += payload;
    block += '\n';
  }
  // Where this batch starts, so a failed append can be rolled off the
  // file and the journal still ends at a committed record boundary.
  const off_t batch_start = ::lseek(fd_, 0, SEEK_END);
  if (batch_start < 0) {
    return Status::Internal("journal seek failed: " +
                            std::string(std::strerror(errno)));
  }
  // Fault injection on the durability path (docs/OPERATIONS.md):
  // "journal.write" error fails the batch cleanly; a short write models a
  // crash mid-append — the torn record stays on disk for the repair path
  // and the handle is poisoned, exactly as if the process had died.
  size_t limit = block.size();
  bool injected_torn_tail = false;
  if (FailpointHit fp = RELVIEW_FAILPOINT("journal.write")) {
    if (fp.action == FailpointAction::kError) {
      return Status::Internal("journal write failed: injected EIO");
    }
    if (fp.action == FailpointAction::kShortWrite) {
      limit = fp.arg != 0 && fp.arg < limit ? fp.arg : limit / 2;
      injected_torn_tail = true;
    }
  }
  const char* p = block.data();
  size_t left = limit;
  while (left > 0) {
    ssize_t n = ::write(fd_, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return RollBackTo(batch_start,
                        Status::Internal("journal write failed: " +
                                         std::string(std::strerror(errno))));
    }
    p += n;
    left -= static_cast<size_t>(n);
  }
  if (injected_torn_tail) {
    poisoned_.store(true, std::memory_order_release);
    return Status::Internal("journal write failed: injected short write "
                            "(torn tail kept, handle poisoned)");
  }
  RELVIEW_FAILPOINT("journal.crash_after_write");  // crash-armed only
  unsynced_bytes_.fetch_add(block.size(), std::memory_order_relaxed);
  return Status::OK();
}

Result<JournalReadResult> Journal::Read(const std::string& path,
                                        bool repair) {
  JournalReadResult out;
  std::ifstream in(path, std::ios::binary);
  if (!in) return out;  // no journal yet: empty history

  uint64_t good_bytes = 0;  // offset of the end of the last valid record
  std::string line;
  int record_no = 0;
  while (std::getline(in, line)) {
    ++record_no;
    const bool has_newline = !in.eof();
    // Header: "rv1 <len> <checksum16> " followed by exactly <len> payload
    // bytes. Anything else is a torn or corrupt record.
    std::string payload;
    std::string bad = ValidateRecordLine(line, &payload);
    if (bad.empty() && !has_newline) bad = "missing record terminator";
    if (bad.empty()) {
      Result<ViewUpdate> u = DecodeJournalPayload(payload);
      if (!u.ok()) {
        bad = u.status().message();
      } else {
        out.updates.push_back(std::move(*u));
        good_bytes += line.size() + 1;
        continue;
      }
    }
    out.truncated = true;
    out.warning = "journal " + path + ": record " +
                  std::to_string(record_no) + " is invalid (" + bad +
                  "); truncating to " + std::to_string(out.updates.size()) +
                  " complete record(s)";
    break;
  }
  in.close();
  if (out.truncated) {
    std::fprintf(stderr, "relview: %s\n", out.warning.c_str());
    if (repair && ::truncate(path.c_str(), static_cast<off_t>(good_bytes)) !=
                      0) {
      return Status::Internal("journal truncate failed: " +
                              std::string(std::strerror(errno)));
    }
  }
  return out;
}

}  // namespace relview
