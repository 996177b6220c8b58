#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

// Everything a workload feeds the program, generated from the run seed:
// synthetic video scripts (rendered and encoded into CMV containers), the
// serve workloads' request lists, the library's query noise and upsert
// schedule. Nothing else about a run depends on the seed.

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "features/similarity.h"
#include "synth/video_generator.h"

namespace perfbench {

// ingest: the five corpus titles at two derived corpus seeds, half the
// default corpus scale (4 scenes per title, ~780 frames per container).
std::vector<synth::VideoScript> IngestScripts(uint64_t seed);
// serve_hot: ten short clips (2 scenes x 2 shots, ~120 frames), written
// without an audio track (see WriteContainers) so that warming the result
// cache in set-up stays cheap; the measured window never mines.
std::vector<synth::VideoScript> HotScripts(uint64_t seed);
// serve_browse: eight short clips (2 scenes x 2 shots, ~120 frames).
std::vector<synth::VideoScript> BrowseScripts(uint64_t seed);
// library: the five corpus titles at the corpus' default seed and half
// scale (~24 shots each), mined in process and replicated into the library.
// The base content is fixed so that the index's shape, which sets search
// cost, is the same at every seed; the seed draws the replica and query
// noise and the read/write mix.
std::vector<synth::VideoScript> LibraryCorpusScripts();
// One short clip (4 scenes x 2 shots, with sound) for the mining-layer
// probes of workloads whose own containers cannot serve: the library has
// none, serve_hot's have no soundtrack.
synth::VideoScript ProbeScript(uint64_t seed);

// serve_hot: the cacheable request keys, `mine --fast` plus skim levels 1-4
// per container, key = container * 5 + variant.
inline constexpr int kHotVariants = 5;
struct HotKey {
  int container = 0;
  int skim_level = 0;  // 0 = mine --fast
};
HotKey HotKeyOf(int key);
// The next request of one serve_hot caller: a key in [0, keys) or -1 for a
// health probe (about 5%).
int NextHotRequest(Rng* rng, int keys);

// serve_browse: a pool of distinct browse requests (1-3 containers each,
// clearance 0-3); sizes follow a fixed 1/2/3 pattern so every seed asks
// for the same amount of work, the containers and clearances are seeded.
struct BrowseRequest {
  std::vector<int> containers;
  int clearance = 0;
};
inline constexpr int kBrowsePool = 8;
std::vector<BrowseRequest> BrowsePool(uint64_t seed, int containers);
// Fixed seeded order in which the callers walk the pool (cycled).
std::vector<int> BrowseOrder(uint64_t seed, size_t length);

// library: one op of the read/write mix.
struct LibraryOp {
  bool upsert = false;
  int target = 0;         // search: corpus shot; upsert: library entry
  uint64_t noise = 0;     // search: query-noise seed
};
inline constexpr double kLibraryUpsertShare = 0.02;
LibraryOp NextLibraryOp(Rng* rng, int corpus_shots, int entries);

// Seeded multiplicative noise on a feature vector (histogram bins and
// Tamura coefficients, renormalised to the original histogram mass).
features::ShotFeatures NoisyFeatures(const features::ShotFeatures& base,
                                     uint64_t noise_seed, double amplitude);

// Canonical bytes of a workload's generated inputs that do not need the
// codec: scripts, request lists, op streams. Used by the determinism test.
std::vector<uint8_t> InputBytes(const std::string& workload, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
