#include "eval/streaming_eval.h"

#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/strings.h"
#include "common/trace.h"
#include "core/streaming_hbp.h"
#include "data/split.h"

namespace piperisk {
namespace eval {

namespace {

// Splits one unquoted CSV line in place. Returns the number of fields and
// writes each into `fields` (sized num_columns by the caller; extra fields
// make the count exceed the size, which the caller rejects).
size_t SplitRow(std::string_view line, std::string_view* fields,
                size_t max_fields) {
  size_t count = 0;
  while (true) {
    const size_t comma = line.find(',');
    const std::string_view field =
        comma == std::string_view::npos ? line : line.substr(0, comma);
    if (count < max_fields) fields[count] = field;
    ++count;
    if (comma == std::string_view::npos) return count;
    line.remove_prefix(comma + 1);
  }
}

std::string_view StripCr(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

}  // namespace

Result<ScoresReader> ScoresReader::Open(const std::string& path) {
  ScoresReader reader;
  reader.path_ = path;
  reader.in_ = std::make_unique<std::ifstream>(path);
  if (!reader.in_->is_open()) {
    return Status::NotFound("cannot open scores file: " + path);
  }
  if (!std::getline(*reader.in_, reader.line_)) {
    return Status::ParseError("scores file has no header: " + path);
  }
  const std::string_view header = StripCr(reader.line_);
  bool have_id = false, have_score = false;
  size_t column = 0;
  std::string_view rest = header;
  while (true) {
    const size_t comma = rest.find(',');
    const std::string_view name =
        comma == std::string_view::npos ? rest : rest.substr(0, comma);
    if (name == "pipe_id") {
      reader.id_column_ = column;
      have_id = true;
    } else if (name == "score") {
      reader.score_column_ = column;
      have_score = true;
    }
    ++column;
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  reader.num_columns_ = column;
  if (!have_id || !have_score) {
    return Status::ParseError(
        "scores file header must contain pipe_id and score columns: " + path);
  }
  return reader;
}

Result<bool> ScoresReader::Next(std::int64_t* id, double* score) {
  std::string_view line;
  do {  // blank lines (e.g. a trailing one) are skipped
    if (!std::getline(*in_, line_)) {
      if (in_->bad()) return Status::IoError("read error: " + path_);
      return false;
    }
    ++row_;
    line = StripCr(line_);
  } while (line.empty());
  // A scores file has at most a handful of columns; 16 is far above any
  // artefact this tool writes.
  std::string_view fields[16];
  const size_t count = SplitRow(line, fields, 16);
  if (count != num_columns_) {
    return Status::ParseError(
        StrFormat("%s row %zu: %zu fields (header has %zu)", path_.c_str(),
                  row_, count, num_columns_));
  }
  PIPERISK_ASSIGN_OR_RETURN(const long long parsed_id,
                            ParseInt(std::string(fields[id_column_])));
  PIPERISK_ASSIGN_OR_RETURN(const double parsed_score,
                            ParseDouble(std::string(fields[score_column_])));
  *id = parsed_id;
  *score = parsed_score;
  return true;
}

Result<StreamedScoredPipes> BuildStreamedScoredPipes(
    const data::ShardedDataset& shards, net::PipeCategory category,
    const std::string& scores_path, int window) {
  const data::TemporalSplit split = data::TemporalSplit::Paper();
  StreamedScoredPipes out;
  out.test_year = split.test_year;
  size_t total = 0;
  {
    telemetry::ScopedSpan span("streaming_eval.shards");
    // Per-shard slots keep the concatenation in shard order no matter how
    // the window interleaves.
    std::vector<std::vector<data::PipeOutcome>> slots(shards.shards().size());
    PIPERISK_RETURN_IF_ERROR(shards.ForEachShard(
        window,
        [&](size_t shard, const data::RegionDataset& dataset) -> Status {
          PIPERISK_RETURN_IF_ERROR(core::CheckShardPipes(dataset, category));
          slots[shard] = data::BuildPipeOutcomes(dataset, split, category);
          return Status::OK();
        }));

    for (const auto& slot : slots) total += slot.size();
    if (total == 0) {
      return Status::InvalidArgument(
          "no pipes of the requested category in any shard");
    }
    out.ids.reserve(total);
    out.test_failures.reserve(total);
    out.lengths_m.reserve(total);
    for (auto& slot : slots) {
      for (const data::PipeOutcome& o : slot) {
        out.ids.push_back(static_cast<std::uint64_t>(o.pipe_id));
        out.test_failures.push_back(o.test_failures);
        out.lengths_m.push_back(o.length_m);
      }
      slot = {};  // release as we go
    }
  }

  // Sequential join against the scores file. Fast path: the file lists
  // pipes in shard order (what `fit --data-dir` writes), so each row
  // matches the cursor and nothing is buffered. Rows that fall out of order
  // land in a hash map and are resolved afterwards — correct for arbitrary
  // files, at the legacy map's RSS cost, proportional only to the
  // out-of-order tail.
  telemetry::ScopedSpan span("streaming_eval.join");
  out.scores.assign(total, 0.0);
  PIPERISK_ASSIGN_OR_RETURN(ScoresReader reader,
                            ScoresReader::Open(scores_path));
  std::unordered_map<std::uint64_t, double> overflow;
  size_t cursor = 0;
  std::int64_t id = 0;
  double score = 0.0;
  while (true) {
    PIPERISK_ASSIGN_OR_RETURN(const bool more, reader.Next(&id, &score));
    if (!more) break;
    const std::uint64_t uid = static_cast<std::uint64_t>(id);
    if (cursor < total && uid == out.ids[cursor]) {
      out.scores[cursor] = score;
      ++cursor;
      ++out.matched;
    } else {
      overflow[uid] = score;
    }
  }
  for (size_t i = cursor; i < total; ++i) {
    const auto it = overflow.find(out.ids[i]);
    if (it == overflow.end()) {
      ++out.missing;
    } else {
      out.scores[i] = it->second;
      ++out.fallback;
    }
  }
  if (out.matched + out.fallback == 0) {
    return Status::InvalidArgument("score file matches no pipes in the data");
  }
  return out;
}

}  // namespace eval
}  // namespace piperisk
