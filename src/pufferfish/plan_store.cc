#include "pufferfish/plan_store.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/failpoint.h"

namespace pf {
namespace {

constexpr char kMagic[8] = {'P', 'F', 'P', 'L', 'A', 'N', '0', '2'};

std::uint64_t Fnv1a(const char* data, std::size_t n) {
  std::uint64_t h = 0xCBF29CE484222325u;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001B3u;
  }
  return h;
}

// ---- Writer: fixed-width little-endian append onto a std::string. ----

void PutU64(std::string* out, std::uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
  out->append(buf, 8);
}

void PutDouble(std::string* out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutBool(std::string* out, bool v) { PutU64(out, v ? 1 : 0); }

void PutInt(std::string* out, int v) {
  PutU64(out, static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
}

void PutIntVector(std::string* out, const std::vector<int>& v) {
  PutU64(out, v.size());
  for (int x : v) PutInt(out, x);
}

void PutQuilt(std::string* out, const MarkovQuilt& q) {
  PutInt(out, q.target);
  PutIntVector(out, q.quilt);
  PutU64(out, q.nearby_count);
  PutIntVector(out, q.nearby);
  PutIntVector(out, q.remote);
}

void PutMemoryStats(std::string* out, const MemoryStats& m) {
  PutU64(out, m.peak_bytes);
  PutU64(out, m.arena_retained_bytes);
  PutU64(out, m.mallocs);
}

void PutMqmAnalysis(std::string* out, const MqmAnalysis& a) {
  PutDouble(out, a.sigma_max);
  PutU64(out, a.active.size());
  for (const QuiltScore& qs : a.active) {
    PutQuilt(out, qs.quilt);
    PutDouble(out, qs.influence);
    PutDouble(out, qs.score);
  }
  PutInt(out, a.worst_node);
  PutU64(out, a.total_nodes);
  PutU64(out, a.scored_nodes);
  PutU64(out, a.induced_width);
  PutU64(out, a.treewidth_bound);
  PutMemoryStats(out, a.memory);
}

void PutChainResult(std::string* out, const ChainMqmResult& r) {
  PutDouble(out, r.sigma_max);
  PutInt(out, r.worst_node);
  PutQuilt(out, r.active_quilt);
  PutDouble(out, r.influence);
  PutBool(out, r.used_stationary_shortcut);
  PutU64(out, r.total_nodes);
  PutU64(out, r.scored_nodes);
  PutMemoryStats(out, r.memory);
}

void PutPlan(std::string* out, const MechanismPlan& plan) {
  PutU64(out, static_cast<std::uint64_t>(plan.kind));
  PutDouble(out, plan.epsilon);
  PutDouble(out, plan.sigma);
  PutBool(out, plan.applicable);
  PutMqmAnalysis(out, plan.mqm);
  PutChainResult(out, plan.chain);
  PutDouble(out, plan.gk16.nu);
  PutDouble(out, plan.gk16.spectral_norm);
  PutBool(out, plan.gk16.applicable);
  PutDouble(out, plan.gk16.sigma);
  PutDouble(out, plan.wasserstein_w);
  // plan.cache_hits deliberately omitted: process-lifetime diagnostic.
}

// ---- Reader: bounds-checked cursor. Any out-of-bounds read trips
// `failed` and every subsequent read returns zero; callers check once at
// the end, so parse code stays linear. ----

struct Reader {
  const char* data;
  std::size_t size;
  std::size_t pos = 0;
  bool failed = false;

  std::uint64_t U64() {
    if (failed || size - pos < 8) {
      failed = true;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(data[pos + i]))
           << (8 * i);
    }
    pos += 8;
    return v;
  }

  double Double() {
    const std::uint64_t bits = U64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  bool Bool() { return U64() != 0; }

  int Int() { return static_cast<int>(static_cast<std::int64_t>(U64())); }

  /// A length prefix, validated against the bytes that could possibly back
  /// it (each element is at least 8 bytes) so corrupt lengths fail cleanly
  /// instead of attempting a huge resize.
  std::size_t Count() {
    const std::uint64_t n = U64();
    if (!failed && n > (size - pos) / 8) failed = true;
    return failed ? 0 : static_cast<std::size_t>(n);
  }

  std::vector<int> IntVector() {
    std::vector<int> v(Count());
    for (int& x : v) x = Int();
    return v;
  }
};

MarkovQuilt ReadQuilt(Reader* r) {
  MarkovQuilt q;
  q.target = r->Int();
  q.quilt = r->IntVector();
  q.nearby_count = static_cast<std::size_t>(r->U64());
  q.nearby = r->IntVector();
  q.remote = r->IntVector();
  return q;
}

MemoryStats ReadMemoryStats(Reader* r) {
  MemoryStats m;
  m.peak_bytes = static_cast<std::size_t>(r->U64());
  m.arena_retained_bytes = static_cast<std::size_t>(r->U64());
  m.mallocs = static_cast<std::size_t>(r->U64());
  return m;
}

MqmAnalysis ReadMqmAnalysis(Reader* r) {
  MqmAnalysis a;
  a.sigma_max = r->Double();
  a.active.resize(r->Count());
  for (QuiltScore& qs : a.active) {
    qs.quilt = ReadQuilt(r);
    qs.influence = r->Double();
    qs.score = r->Double();
  }
  a.worst_node = r->Int();
  a.total_nodes = static_cast<std::size_t>(r->U64());
  a.scored_nodes = static_cast<std::size_t>(r->U64());
  a.induced_width = static_cast<std::size_t>(r->U64());
  a.treewidth_bound = static_cast<std::size_t>(r->U64());
  a.memory = ReadMemoryStats(r);
  return a;
}

ChainMqmResult ReadChainResult(Reader* r) {
  ChainMqmResult c;
  c.sigma_max = r->Double();
  c.worst_node = r->Int();
  c.active_quilt = ReadQuilt(r);
  c.influence = r->Double();
  c.used_stationary_shortcut = r->Bool();
  c.total_nodes = static_cast<std::size_t>(r->U64());
  c.scored_nodes = static_cast<std::size_t>(r->U64());
  c.memory = ReadMemoryStats(r);
  return c;
}

bool ReadPlan(Reader* r, MechanismPlan* plan) {
  const std::uint64_t kind = r->U64();
  if (kind > static_cast<std::uint64_t>(MechanismKind::kMqmApprox)) {
    r->failed = true;
    return false;
  }
  plan->kind = static_cast<MechanismKind>(kind);
  plan->epsilon = r->Double();
  plan->sigma = r->Double();
  plan->applicable = r->Bool();
  plan->mqm = ReadMqmAnalysis(r);
  plan->chain = ReadChainResult(r);
  plan->gk16.nu = r->Double();
  plan->gk16.spectral_norm = r->Double();
  plan->gk16.applicable = r->Bool();
  plan->gk16.sigma = r->Double();
  plan->wasserstein_w = r->Double();
  // Restored plans start with a fresh hit counter: the count is a
  // process-lifetime diagnostic, and AnalysisCache bumps it through this
  // pointer on every hit.
  plan->cache_hits = std::make_shared<std::atomic<std::uint64_t>>(0);
  return !r->failed;
}

}  // namespace

std::string EncodePlanSnapshot(const std::vector<CachedPlan>& entries) {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  std::size_t count = 0;
  for (const CachedPlan& entry : entries) {
    if (entry.plan != nullptr) ++count;
  }
  PutU64(&out, count);
  for (const CachedPlan& entry : entries) {
    if (entry.plan == nullptr) continue;
    PutU64(&out, entry.fingerprint);
    PutU64(&out, entry.epsilon_bits);
    PutU64(&out, static_cast<std::uint64_t>(entry.kind));
    PutPlan(&out, *entry.plan);
  }
  PutU64(&out, Fnv1a(out.data(), out.size()));
  return out;
}

Result<std::vector<CachedPlan>> DecodePlanSnapshot(const std::string& bytes) {
  if (bytes.size() < sizeof(kMagic) + 16) {
    return Status::InvalidArgument("plan snapshot: truncated header");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(
        "plan snapshot: bad magic or unsupported version tag");
  }
  // Validate the checksum over the whole payload before parsing anything:
  // a single flipped bit anywhere rejects the file, so the parser below
  // only ever sees bytes the writer produced.
  const std::size_t body_size = bytes.size() - 8;
  std::uint64_t stored = 0;
  for (int i = 0; i < 8; ++i) {
    stored |= static_cast<std::uint64_t>(
                  static_cast<unsigned char>(bytes[body_size + i]))
              << (8 * i);
  }
  if (Fnv1a(bytes.data(), body_size) != stored) {
    return Status::InvalidArgument("plan snapshot: checksum mismatch");
  }
  Reader r{bytes.data(), body_size, sizeof(kMagic), false};
  const std::size_t count = r.Count();
  std::vector<CachedPlan> entries;
  entries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    CachedPlan entry;
    entry.fingerprint = r.U64();
    entry.epsilon_bits = r.U64();
    const std::uint64_t kind = r.U64();
    if (kind > static_cast<std::uint64_t>(MechanismKind::kMqmApprox)) {
      return Status::InvalidArgument("plan snapshot: invalid mechanism kind");
    }
    entry.kind = static_cast<MechanismKind>(kind);
    auto plan = std::make_shared<MechanismPlan>();
    if (!ReadPlan(&r, plan.get())) {
      return Status::InvalidArgument("plan snapshot: truncated entry");
    }
    entry.plan = std::move(plan);
    entries.push_back(std::move(entry));
  }
  if (r.failed || r.pos != body_size) {
    return Status::InvalidArgument(
        "plan snapshot: payload size does not match entry count");
  }
  return entries;
}

namespace {

// Failpoint evaluation usable mid-function (where the PF_FAILPOINT macro's
// direct return would skip cleanup like fclose/remove).
Status EvalFailpoint(const char* name) {
#ifdef PF_FAILPOINTS
  return FailpointRegistry::Instance().Evaluate(name);
#else
  (void)name;
  return Status::OK();
#endif
}

// fsyncs the directory containing `path` so the rename that just landed in
// it survives a power cut (POSIX: rename durability requires syncing the
// parent directory's entry, not just the file). No-op on Windows.
Status SyncParentDir(const std::string& path) {
  PF_FAILPOINT("plan_store.sync_dir");
#ifndef _WIN32
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::Internal("plan snapshot: cannot open directory " + dir);
  }
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  if (!synced) {
    return Status::Internal("plan snapshot: directory sync of " + dir +
                            " failed");
  }
#else
  (void)path;
#endif
  return Status::OK();
}

}  // namespace

Status SavePlanSnapshot(const std::string& path,
                        const std::vector<CachedPlan>& entries) {
  const std::string bytes = EncodePlanSnapshot(entries);
  // Temp-file + fsync(file) + rename + fsync(dir): readers never observe a
  // partially written snapshot, a crash mid-save leaves the previous one
  // intact, and a power cut after return cannot surface a zero-length or
  // torn file (both the data and the directory entry are durable).
  const std::string tmp = path + ".tmp";
  PF_FAILPOINT("plan_store.open");
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("plan snapshot: cannot open " + tmp);
  }
  // From here every failure path must fclose and remove the tmp file —
  // injected or real, a failed save leaves no debris (the torture test
  // asserts this).
  Status st = EvalFailpoint("plan_store.write");
  if (st.ok() && std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
    st = Status::Internal("plan snapshot: short write to " + tmp);
  }
  if (st.ok()) st = EvalFailpoint("plan_store.flush");
  if (st.ok() && std::fflush(f) != 0) {
    st = Status::Internal("plan snapshot: flush of " + tmp + " failed");
  }
  if (st.ok()) st = EvalFailpoint("plan_store.sync");
#ifndef _WIN32
  if (st.ok() && ::fsync(::fileno(f)) != 0) {
    st = Status::Internal("plan snapshot: fsync of " + tmp + " failed");
  }
#endif
  const bool closed = std::fclose(f) == 0;
  if (st.ok() && !closed) {
    st = Status::Internal("plan snapshot: close of " + tmp + " failed");
  }
  if (!st.ok()) {
    std::remove(tmp.c_str());
    return st;
  }
  // Simulated kill between the durable tmp write and the rename: the tmp
  // file is deliberately left behind (exactly what a crash leaves), and
  // the published snapshot at `path` is untouched.
  PF_FAILPOINT("plan_store.crash_before_rename");
  Status rn = EvalFailpoint("plan_store.rename");
  if (rn.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    rn = Status::Internal("plan snapshot: rename to " + path + " failed");
  }
  if (!rn.ok()) {
    std::remove(tmp.c_str());
    return rn;
  }
  return SyncParentDir(path);
}

Result<std::vector<CachedPlan>> LoadPlanSnapshot(const std::string& path) {
  PF_FAILPOINT("plan_store.load.open");
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("plan snapshot: cannot open " + path);
  }
  std::string bytes;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  const Status injected = EvalFailpoint("plan_store.load.read");
  if (!injected.ok()) read_error = true;
  if (read_error) {
    return Status::Internal("plan snapshot: read error on " + path);
  }
  return DecodePlanSnapshot(bytes);
}

}  // namespace pf
