// Reproduces the Sec. 6.2 analysis: retrieval cost of the flat scan
// (Eq. 24: Te = NT * Tm + O(NT log NT)) versus the cluster-based
// multi-level index (Eq. 25: Tc = Mc*Tc + Msc*Tsc + Ms*Ts + Mo*To +
// O(Mo log Mo)). Sweeps the database size by ingesting replicated mined
// corpora and reports per-query wall time and similarity-comparison counts
// at each level.
//
// Paper shape: Tc << Te, and Tc grows far slower than linearly in NT.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "index/hier_index.h"
#include "index/linear_index.h"
#include "util/parse.h"

int main(int argc, char** argv) {
  using namespace classminer;
  int max_copies = 8;
  if (argc > 2 ||
      (argc == 2 && !util::ParseFlag(util::ParseIntArg(argv[1], "max-copies",
                                                       1, 1 << 16),
                                     &max_copies))) {
    std::fprintf(stderr, "usage: sec62_indexing [max-copies]\n");
    return 2;
  }
  std::printf("=== Sec. 6.2 reproduction: cluster-based indexing vs linear "
              "scan ===\n");
  const std::vector<bench::MinedVideo> corpus = bench::MineCorpus(1.0);
  const index::ConceptHierarchy concepts =
      index::ConceptHierarchy::MedicalDefault();

  std::printf("\n%8s %8s | %12s %12s | %12s %12s | %8s %8s %8s %8s\n", "NT",
              "videos", "Te us/query", "cmp/query", "Tc us/query",
              "cmp/query", "Mc", "Msc", "Ms", "Mo");

  for (int copies = 1; copies <= max_copies; copies *= 2) {
    index::VideoDatabase db;
    for (int c = 0; c < copies; ++c) {
      for (const bench::MinedVideo& mv : corpus) {
        db.AddVideo(mv.input.video.name() + "_" + std::to_string(c),
                    mv.result.structure, mv.result.events);
      }
    }
    const index::LinearIndex linear(&db);
    const index::HierarchicalIndex hier(&db, &concepts);

    // Query workload: every 7th shot of the base corpus.
    std::vector<features::ShotFeatures> queries;
    for (const bench::MinedVideo& mv : corpus) {
      for (size_t s = 0; s < mv.result.structure.shots.size(); s += 7) {
        queries.push_back(mv.result.structure.shots[s].features);
      }
    }

    double te_us = 0.0, tc_us = 0.0;
    size_t te_cmp = 0, tc_cmp = 0, mc = 0, msc = 0, ms = 0, mo = 0;
    constexpr int kTopK = 10;
    for (const features::ShotFeatures& q : queries) {
      index::QueryStats stats;
      linear.Search(q, kTopK, &stats);
      te_us += stats.elapsed_us;
      te_cmp += stats.TotalComparisons();
      hier.Search(q, kTopK, &stats);
      tc_us += stats.elapsed_us;
      tc_cmp += stats.TotalComparisons();
      mc += stats.cluster_comparisons;
      msc += stats.subcluster_comparisons;
      ms += stats.scene_comparisons;
      mo += stats.shot_comparisons;
    }
    const double nq = static_cast<double>(queries.size());
    std::printf("%8zu %8d | %12.1f %12.0f | %12.1f %12.0f | %8.1f %8.1f "
                "%8.1f %8.1f\n",
                db.TotalShotCount(), db.video_count(), te_us / nq,
                te_cmp / nq, tc_us / nq, tc_cmp / nq, mc / nq, msc / nq,
                ms / nq, mo / nq);
  }

  std::printf("\npaper: (Mc + Msc + Ms + Mo) << NT and per-level costs use "
              "reduced feature subspaces, hence Tc << Te.\n");
  return 0;
}
