#ifndef PIPERISK_EVAL_STREAMING_EVAL_H_
#define PIPERISK_EVAL_STREAMING_EVAL_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/sharded_dataset.h"
#include "net/pipe.h"

namespace piperisk {
namespace eval {

/// Sequential reader for the `pipe_id,score` artefact `piperisk fit`
/// writes: one row at a time, never the whole document in memory (the
/// scores file for a continental dataset is hundreds of MB). The format is
/// the plain unquoted numeric CSV the fit command emits; quoted fields are
/// not supported here.
class ScoresReader {
 public:
  ScoresReader(ScoresReader&&) = default;
  ScoresReader& operator=(ScoresReader&&) = default;

  /// Opens the file and consumes the header, which must contain `pipe_id`
  /// and `score` columns (any order; extra columns are ignored).
  static Result<ScoresReader> Open(const std::string& path);

  /// Reads the next row into (id, score). Returns false at end of file.
  Result<bool> Next(std::int64_t* id, double* score);

 private:
  ScoresReader() = default;

  std::unique_ptr<std::ifstream> in_;
  std::string line_;
  size_t id_column_ = 0;
  size_t score_column_ = 0;
  size_t num_columns_ = 0;
  size_t row_ = 0;
  std::string path_;
};

/// Everything streaming `evaluate` / `serve` need, in shard order (the
/// global dataset order): parallel arrays over every pipe of the selected
/// category. Peak RSS during the build is one shard window of networks plus
/// these O(tens of bytes per pipe) arrays — the full network is never
/// resident, and no feature matrix is ever built.
struct StreamedScoredPipes {
  std::vector<std::uint64_t> ids;
  std::vector<double> scores;
  std::vector<int> test_failures;
  std::vector<double> lengths_m;
  int test_year = 0;
  /// Scores-file join accounting. `matched` rows hit the ordered fast path
  /// (the file lists pipes in shard order, as `fit --data-dir` writes
  /// them); `fallback` rows were out of order and resolved through a hash
  /// map (correct, but costs the map's RSS); `missing` pipes had no row and
  /// score 0.0 — the in-memory LoadScores rule.
  std::uint64_t matched = 0;
  std::uint64_t fallback = 0;
  std::uint64_t missing = 0;
};

/// Streams every shard once (`window` shards in flight; per shard,
/// core::CheckShardPipes then data::BuildPipeOutcomes), concatenates
/// ids/outcomes in shard order, then joins the scores file sequentially
/// against that order. Fails if the scores file matches no pipe at all.
Result<StreamedScoredPipes> BuildStreamedScoredPipes(
    const data::ShardedDataset& shards, net::PipeCategory category,
    const std::string& scores_path, int window);

}  // namespace eval
}  // namespace piperisk

#endif  // PIPERISK_EVAL_STREAMING_EVAL_H_
