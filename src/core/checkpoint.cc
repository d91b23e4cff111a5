#include "core/checkpoint.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>

#include "common/strings.h"
#include "common/telemetry.h"
#include "common/trace.h"

namespace piperisk {
namespace core {

namespace {

// Little-endian binary container: magic, format version, payload, FNV-1a
// checksum of the payload. All integers are fixed-width u64; doubles travel
// as their IEEE-754 bit pattern (std::bit_cast), never through text.
constexpr std::uint64_t kMagic = 0x70726b636b707431ULL;  // "prkckpt1"
constexpr std::uint64_t kFormatVersion = 2;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t FnvHash(const char* data, size_t size,
                      std::uint64_t state = kFnvOffset) {
  for (size_t i = 0; i < size; ++i) {
    state ^= static_cast<unsigned char>(data[i]);
    state *= kFnvPrime;
  }
  return state;
}

class ByteWriter {
 public:
  void PutU64(std::uint64_t v) {
    char bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
    buffer_.append(bytes, 8);
  }
  void PutI64(long long v) { PutU64(static_cast<std::uint64_t>(v)); }
  void PutDouble(double v) { PutU64(std::bit_cast<std::uint64_t>(v)); }
  void PutIntVec(const std::vector<int>& v) {
    PutU64(v.size());
    for (int x : v) PutI64(x);
  }
  void PutI64Vec(const std::vector<long long>& v) {
    PutU64(v.size());
    for (long long x : v) PutI64(x);
  }
  void PutDoubleVec(const std::vector<double>& v) {
    PutU64(v.size());
    for (double x : v) PutDouble(x);
  }

  const std::string& buffer() const { return buffer_; }

 private:
  std::string buffer_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Result<std::uint64_t> U64() {
    if (pos_ + 8 > data_.size()) {
      return Status::ParseError("checkpoint truncated");
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data_[pos_ + static_cast<size_t>(i)]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  Result<long long> I64() {
    PIPERISK_ASSIGN_OR_RETURN(std::uint64_t v, U64());
    return static_cast<long long>(v);
  }
  Result<double> Double() {
    PIPERISK_ASSIGN_OR_RETURN(std::uint64_t v, U64());
    return std::bit_cast<double>(v);
  }
  /// Bounded element count: a corrupt length must fail cleanly instead of
  /// attempting a multi-gigabyte allocation.
  Result<size_t> Count() {
    PIPERISK_ASSIGN_OR_RETURN(std::uint64_t v, U64());
    if (v * 8 > data_.size() - std::min(pos_, data_.size())) {
      return Status::ParseError("checkpoint vector length exceeds payload");
    }
    return static_cast<size_t>(v);
  }
  Result<std::vector<int>> IntVec() {
    PIPERISK_ASSIGN_OR_RETURN(size_t n, Count());
    std::vector<int> out(n);
    for (size_t i = 0; i < n; ++i) {
      PIPERISK_ASSIGN_OR_RETURN(long long v, I64());
      out[i] = static_cast<int>(v);
    }
    return out;
  }
  Result<std::vector<long long>> I64Vec() {
    PIPERISK_ASSIGN_OR_RETURN(size_t n, Count());
    std::vector<long long> out(n);
    for (size_t i = 0; i < n; ++i) {
      PIPERISK_ASSIGN_OR_RETURN(out[i], I64());
    }
    return out;
  }
  Result<std::vector<double>> DoubleVec() {
    PIPERISK_ASSIGN_OR_RETURN(size_t n, Count());
    std::vector<double> out(n);
    for (size_t i = 0; i < n; ++i) {
      PIPERISK_ASSIGN_OR_RETURN(out[i], Double());
    }
    return out;
  }

  size_t pos() const { return pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

struct CheckpointMetrics {
  telemetry::Counter* writes;
  telemetry::Counter* write_failures;
  telemetry::Counter* restores;
  telemetry::Histogram* write_us;
  telemetry::Histogram* restore_us;

  static const CheckpointMetrics& Get() {
    static const CheckpointMetrics metrics = [] {
      auto& registry = telemetry::Registry::Global();
      return CheckpointMetrics{
          registry.GetCounter("checkpoint.writes"),
          registry.GetCounter("checkpoint.write_failures"),
          registry.GetCounter("checkpoint.restores"),
          registry.GetHistogram("checkpoint.write_us",
                                telemetry::DefaultTimeBucketsUs()),
          registry.GetHistogram("checkpoint.restore_us",
                                telemetry::DefaultTimeBucketsUs())};
    }();
    return metrics;
  }
};

std::string EncodePayload(const ChainCheckpoint& c) {
  ByteWriter w;
  w.PutI64(c.chain);
  w.PutI64(c.next_sweep);
  w.PutI64(c.total_sweeps);
  w.PutU64(c.fingerprint);
  w.PutU64(c.rng.state);
  w.PutU64(c.rng.inc);
  w.PutDouble(c.alpha);
  w.PutIntVec(c.labels);
  w.PutDoubleVec(c.group_q);
  w.PutI64Vec(c.group_count);
  w.PutU64(c.adapters.size());
  for (const AdapterCheckpoint& a : c.adapters) {
    w.PutDouble(a.step);
    w.PutI64(a.proposals);
    w.PutI64(a.accepts);
  }
  w.PutDoubleVec(c.prob_sum);
  w.PutIntVec(c.k_trace);
  w.PutDoubleVec(c.alpha_trace);
  w.PutDoubleVec(c.qmax_trace);
  w.PutU64(c.group_traces.size());
  for (const std::vector<double>& trace : c.group_traces) {
    w.PutDoubleVec(trace);
  }
  w.PutI64(c.collected);
  w.PutU64(c.proposals);
  w.PutU64(c.accepts);
  return w.buffer();
}

Result<ChainCheckpoint> DecodePayload(std::string_view payload) {
  ByteReader r(payload);
  ChainCheckpoint c;
  PIPERISK_ASSIGN_OR_RETURN(long long chain, r.I64());
  PIPERISK_ASSIGN_OR_RETURN(long long next_sweep, r.I64());
  PIPERISK_ASSIGN_OR_RETURN(long long total_sweeps, r.I64());
  c.chain = static_cast<int>(chain);
  c.next_sweep = static_cast<int>(next_sweep);
  c.total_sweeps = static_cast<int>(total_sweeps);
  PIPERISK_ASSIGN_OR_RETURN(c.fingerprint, r.U64());
  PIPERISK_ASSIGN_OR_RETURN(c.rng.state, r.U64());
  PIPERISK_ASSIGN_OR_RETURN(c.rng.inc, r.U64());
  PIPERISK_ASSIGN_OR_RETURN(c.alpha, r.Double());
  PIPERISK_ASSIGN_OR_RETURN(c.labels, r.IntVec());
  PIPERISK_ASSIGN_OR_RETURN(c.group_q, r.DoubleVec());
  PIPERISK_ASSIGN_OR_RETURN(c.group_count, r.I64Vec());
  PIPERISK_ASSIGN_OR_RETURN(size_t num_adapters, r.Count());
  c.adapters.resize(num_adapters);
  for (AdapterCheckpoint& a : c.adapters) {
    PIPERISK_ASSIGN_OR_RETURN(a.step, r.Double());
    PIPERISK_ASSIGN_OR_RETURN(a.proposals, r.I64());
    PIPERISK_ASSIGN_OR_RETURN(a.accepts, r.I64());
  }
  PIPERISK_ASSIGN_OR_RETURN(c.prob_sum, r.DoubleVec());
  PIPERISK_ASSIGN_OR_RETURN(c.k_trace, r.IntVec());
  PIPERISK_ASSIGN_OR_RETURN(c.alpha_trace, r.DoubleVec());
  PIPERISK_ASSIGN_OR_RETURN(c.qmax_trace, r.DoubleVec());
  PIPERISK_ASSIGN_OR_RETURN(size_t num_traces, r.Count());
  c.group_traces.resize(num_traces);
  for (std::vector<double>& trace : c.group_traces) {
    PIPERISK_ASSIGN_OR_RETURN(trace, r.DoubleVec());
  }
  PIPERISK_ASSIGN_OR_RETURN(c.collected, r.I64());
  PIPERISK_ASSIGN_OR_RETURN(c.proposals, r.U64());
  PIPERISK_ASSIGN_OR_RETURN(c.accepts, r.U64());
  if (r.pos() != payload.size()) {
    return Status::ParseError("checkpoint has trailing bytes");
  }
  if (c.next_sweep < 0 || c.total_sweeps < 0 ||
      c.next_sweep > c.total_sweeps || c.chain < 0) {
    return Status::ParseError("checkpoint sweep bookkeeping out of range");
  }
  return c;
}

}  // namespace

Fingerprint& Fingerprint::Add(std::string_view text) {
  state_ = FnvHash(text.data(), text.size(), state_);
  // Separator so Add("ab") + Add("c") != Add("a") + Add("bc").
  state_ ^= 0xff;
  state_ *= kFnvPrime;
  return *this;
}

Fingerprint& Fingerprint::Add(std::uint64_t value) {
  char bytes[8];
  std::memcpy(bytes, &value, 8);
  state_ = FnvHash(bytes, 8, state_);
  return *this;
}

Fingerprint& Fingerprint::Add(double value) {
  return Add(std::bit_cast<std::uint64_t>(value));
}

std::string ChainCheckpointPath(const std::string& dir, const std::string& tag,
                                int chain) {
  return StrFormat("%s/%s.chain%d.ckpt", dir.c_str(), tag.c_str(), chain);
}

Status SaveChainCheckpoint(const ChainCheckpoint& checkpoint,
                           const std::string& path) {
  const CheckpointMetrics& metrics = CheckpointMetrics::Get();
  telemetry::ScopedTimer timer(metrics.write_us, "checkpoint.write");

  ByteWriter header;
  const std::string payload = EncodePayload(checkpoint);
  header.PutU64(kMagic);
  header.PutU64(kFormatVersion);
  header.PutU64(payload.size());
  header.PutU64(FnvHash(payload.data(), payload.size()));

  // Atomic-rename protocol: a crash can abandon a stale .tmp (overwritten by
  // the next write), but `path` only ever holds a complete snapshot.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      metrics.write_failures->Increment();
      return Status::IoError("cannot open checkpoint for writing: " + tmp);
    }
    out.write(header.buffer().data(),
              static_cast<std::streamsize>(header.buffer().size()));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    out.flush();
    if (!out) {
      metrics.write_failures->Increment();
      return Status::IoError("checkpoint write failed: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    metrics.write_failures->Increment();
    return Status::IoError("cannot rename checkpoint into place: " + path);
  }
  metrics.writes->Increment();
  return Status::OK();
}

Result<ChainCheckpoint> LoadChainCheckpoint(const std::string& path) {
  const CheckpointMetrics& metrics = CheckpointMetrics::Get();
  telemetry::ScopedTimer timer(metrics.restore_us, "checkpoint.restore");

  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open checkpoint: " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());

  ByteReader header(bytes);
  auto fail = [&path](const std::string& what) {
    return Status::ParseError("checkpoint " + path + ": " + what);
  };
  PIPERISK_ASSIGN_OR_RETURN(std::uint64_t magic, header.U64());
  if (magic != kMagic) return fail("not a piperisk checkpoint (bad magic)");
  PIPERISK_ASSIGN_OR_RETURN(std::uint64_t version, header.U64());
  if (version != kFormatVersion) {
    return fail(StrFormat("unsupported format version %llu (expected %llu)",
                          static_cast<unsigned long long>(version),
                          static_cast<unsigned long long>(kFormatVersion)));
  }
  PIPERISK_ASSIGN_OR_RETURN(std::uint64_t payload_size, header.U64());
  PIPERISK_ASSIGN_OR_RETURN(std::uint64_t checksum, header.U64());
  if (bytes.size() - header.pos() != payload_size) {
    return fail("payload size mismatch (truncated or corrupt)");
  }
  std::string_view payload(bytes.data() + header.pos(),
                           static_cast<size_t>(payload_size));
  if (FnvHash(payload.data(), payload.size()) != checksum) {
    return fail("checksum mismatch (corrupt)");
  }
  auto decoded = DecodePayload(payload);
  if (!decoded.ok()) {
    return fail(decoded.status().message());
  }
  metrics.restores->Increment();
  return decoded;
}

}  // namespace core
}  // namespace piperisk
