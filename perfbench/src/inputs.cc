#include "inputs.h"

#include <algorithm>
#include <cstring>

#include "synth/corpus.h"

namespace perfbench {
namespace {

// Small corpus seeds keep the generator's per-title seed arithmetic
// (seed * 1000 + title) far from overflow.
uint64_t CorpusSeed(uint64_t seed, const std::string& tag) {
  return 1 + DeriveSeed(seed, tag) % 1000000;
}

// A short clip in the quickstart mould: `scenes` scenes cycling through
// presentation, dialog, clinical operation and other, two shots each.
synth::VideoScript ShortScript(const std::string& name, uint64_t seed,
                               int scenes, double shot_seconds) {
  using synth::SceneKind;
  static const SceneKind kKinds[] = {SceneKind::kPresentation,
                                     SceneKind::kDialog,
                                     SceneKind::kClinicalOperation,
                                     SceneKind::kOther};
  synth::VideoScript s;
  s.name = name;
  s.seed = seed;
  for (int i = 0; i < scenes; ++i) {
    synth::SceneScript scene;
    scene.kind = kKinds[i % 4];
    scene.shots = 2;
    scene.topic_id = 1 + 10 * (i % 4);
    scene.shot_seconds = shot_seconds;
    if (scene.kind == SceneKind::kPresentation) scene.speaker_a = 1;
    if (scene.kind == SceneKind::kDialog) {
      scene.speaker_a = 2;
      scene.speaker_b = 3;
    }
    s.scenes.push_back(scene);
  }
  return s;
}

std::vector<synth::VideoScript> ShortScripts(uint64_t seed,
                                             const std::string& prefix,
                                             int count, int scenes,
                                             double shot_seconds) {
  std::vector<synth::VideoScript> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(ShortScript(prefix + std::to_string(i),
                              CorpusSeed(seed, prefix + std::to_string(i)),
                              scenes, shot_seconds));
  }
  return out;
}

std::vector<synth::VideoScript> Corpus(uint64_t corpus_seed, double scale,
                                       const std::string& suffix) {
  synth::CorpusOptions opts;
  opts.seed = corpus_seed;
  opts.scale = scale;
  std::vector<synth::VideoScript> out = synth::MedicalCorpusScripts(opts);
  for (synth::VideoScript& s : out) s.name += suffix;
  return out;
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutDouble(std::vector<uint8_t>* out, double d) {
  uint64_t v;
  std::memcpy(&v, &d, sizeof(v));
  PutU64(out, v);
}

void PutString(std::vector<uint8_t>* out, const std::string& s) {
  PutU64(out, s.size());
  out->insert(out->end(), s.begin(), s.end());
}

void PutScripts(std::vector<uint8_t>* out,
                const std::vector<synth::VideoScript>& scripts) {
  for (const synth::VideoScript& s : scripts) {
    PutString(out, s.name);
    PutU64(out, s.seed);
    PutU64(out, static_cast<uint64_t>(s.width) << 32 | static_cast<uint32_t>(s.height));
    PutDouble(out, s.fps);
    for (const synth::SceneScript& scene : s.scenes) {
      PutU64(out, static_cast<uint64_t>(scene.kind));
      PutU64(out, static_cast<uint64_t>(scene.shots));
      PutU64(out, static_cast<uint64_t>(scene.topic_id));
      PutDouble(out, scene.shot_seconds);
    }
  }
}

}  // namespace

std::vector<synth::VideoScript> IngestScripts(uint64_t seed) {
  std::vector<synth::VideoScript> out =
      Corpus(CorpusSeed(seed, "ingest.a"), 0.5, "_a");
  for (synth::VideoScript& s : Corpus(CorpusSeed(seed, "ingest.b"), 0.5, "_b")) {
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<synth::VideoScript> HotScripts(uint64_t seed) {
  return ShortScripts(seed, "hot_", 10, 2, 2.5);
}

std::vector<synth::VideoScript> BrowseScripts(uint64_t seed) {
  return ShortScripts(seed, "browse_", 8, 2, 2.5);
}

std::vector<synth::VideoScript> LibraryCorpusScripts() {
  return Corpus(synth::CorpusOptions().seed, 0.5, "");
}

synth::VideoScript ProbeScript(uint64_t seed) {
  return ShortScript("probe", CorpusSeed(seed, "probe"), 4, 2.5);
}

HotKey HotKeyOf(int key) {
  return HotKey{key / kHotVariants, key % kHotVariants};
}

int NextHotRequest(Rng* rng, int keys) {
  if (rng->Uniform() < 0.05) return -1;
  return rng->Between(0, keys - 1);
}

std::vector<BrowseRequest> BrowsePool(uint64_t seed, int containers) {
  static const int kSizes[kBrowsePool] = {1, 2, 3, 2, 1, 2, 3, 2};
  Rng rng(DeriveSeed(seed, "browse.pool"));
  std::vector<BrowseRequest> pool;
  for (const int size : kSizes) {
    BrowseRequest req;
    std::vector<int> all(static_cast<size_t>(containers));
    for (int i = 0; i < containers; ++i) all[static_cast<size_t>(i)] = i;
    for (int i = 0; i < size; ++i) {  // partial Fisher-Yates: distinct picks
      const int j = rng.Between(i, containers - 1);
      std::swap(all[static_cast<size_t>(i)], all[static_cast<size_t>(j)]);
      req.containers.push_back(all[static_cast<size_t>(i)]);
    }
    req.clearance = rng.Between(0, 3);
    pool.push_back(std::move(req));
  }
  return pool;
}

std::vector<int> BrowseOrder(uint64_t seed, size_t length) {
  // Whole shuffled passes over the pool, so any prefix asks for nearly the
  // same mix of request sizes.
  Rng rng(DeriveSeed(seed, "browse.order"));
  std::vector<int> order;
  while (order.size() < length) {
    std::vector<int> pass(kBrowsePool);
    for (int i = 0; i < kBrowsePool; ++i) pass[static_cast<size_t>(i)] = i;
    for (int i = kBrowsePool - 1; i > 0; --i) {
      std::swap(pass[static_cast<size_t>(i)],
                pass[static_cast<size_t>(rng.Between(0, i))]);
    }
    order.insert(order.end(), pass.begin(), pass.end());
  }
  order.resize(length);
  return order;
}

LibraryOp NextLibraryOp(Rng* rng, int corpus_shots, int entries) {
  LibraryOp op;
  op.upsert = rng->Uniform() < kLibraryUpsertShare;
  op.target = op.upsert ? rng->Between(0, entries - 1)
                        : rng->Between(0, corpus_shots - 1);
  op.noise = rng->Next();
  return op;
}

features::ShotFeatures NoisyFeatures(const features::ShotFeatures& base,
                                     uint64_t noise_seed, double amplitude) {
  Rng rng(noise_seed);
  features::ShotFeatures out = base;
  double before = 0.0, after = 0.0;
  for (double& bin : out.histogram) {
    before += bin;
    bin *= 1.0 + amplitude * (2.0 * rng.Uniform() - 1.0);
    after += bin;
  }
  if (after > 0.0) {
    for (double& bin : out.histogram) bin *= before / after;
  }
  for (double& t : out.tamura) t *= 1.0 + amplitude * (2.0 * rng.Uniform() - 1.0);
  return out;
}

std::vector<uint8_t> InputBytes(const std::string& workload, uint64_t seed) {
  std::vector<uint8_t> out;
  if (workload == "ingest") {
    PutScripts(&out, IngestScripts(seed));
  } else if (workload == "serve_hot") {
    PutScripts(&out, HotScripts(seed));
    for (int caller = 0; caller < 4; ++caller) {
      Rng rng(DeriveSeed(seed, "hot.caller" + std::to_string(caller)));
      for (int i = 0; i < 256; ++i) PutU64(&out, NextHotRequest(&rng, 50) + 1);
    }
  } else if (workload == "serve_browse") {
    PutScripts(&out, BrowseScripts(seed));
    for (const BrowseRequest& r : BrowsePool(seed, 8)) {
      for (const int c : r.containers) PutU64(&out, static_cast<uint64_t>(c));
      PutU64(&out, static_cast<uint64_t>(r.clearance));
    }
    for (const int i : BrowseOrder(seed, 64)) PutU64(&out, static_cast<uint64_t>(i));
  } else if (workload == "library") {
    PutScripts(&out, LibraryCorpusScripts());
    PutScripts(&out, {ProbeScript(seed)});
    Rng rng(DeriveSeed(seed, "library.ops"));
    for (int i = 0; i < 1024; ++i) {
      const LibraryOp op = NextLibraryOp(&rng, 200, 1000);
      PutU64(&out, op.upsert);
      PutU64(&out, static_cast<uint64_t>(op.target));
      PutU64(&out, op.noise);
    }
  }
  return out;
}

}  // namespace perfbench
