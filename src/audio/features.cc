#include "audio/features.h"

#include <algorithm>
#include <cmath>

#include "util/cpu.h"
#include "util/fft.h"
#include "util/mathutil.h"

namespace classminer::audio {
namespace {

double FrameRms(std::span<const float> frame) {
  if (frame.empty()) return 0.0;
  double acc = 0.0;
  for (float s : frame) acc += static_cast<double>(s) * s;
  return std::sqrt(acc / static_cast<double>(frame.size()));
}

double FrameZcr(std::span<const float> frame) {
  if (frame.size() < 2) return 0.0;
  int crossings = 0;
  for (size_t i = 1; i < frame.size(); ++i) {
    if ((frame[i - 1] >= 0.0f) != (frame[i] >= 0.0f)) ++crossings;
  }
  return static_cast<double>(crossings) /
         static_cast<double>(frame.size() - 1);
}

struct SpectralStats {
  double centroid = 0.0;   // normalised to [0, 1] of Nyquist
  double bandwidth = 0.0;  // normalised
  std::array<double, 4> subband{};  // energy ratios
};

SpectralStats FrameSpectral(std::span<const double> frame, int sample_rate) {
  SpectralStats stats;
  if (frame.size() < 8) return stats;
  const std::vector<double> mags = util::MagnitudeSpectrum(frame);
  const double nyquist = sample_rate / 2.0;
  const double bin_hz = nyquist / (static_cast<double>(mags.size()) - 1.0);

  double total = 0.0, weighted = 0.0;
  for (size_t i = 0; i < mags.size(); ++i) {
    const double e = mags[i] * mags[i];
    total += e;
    weighted += e * (static_cast<double>(i) * bin_hz);
  }
  if (total < 1e-12) return stats;
  const double centroid_hz = weighted / total;
  stats.centroid = centroid_hz / nyquist;

  double spread = 0.0;
  for (size_t i = 0; i < mags.size(); ++i) {
    const double e = mags[i] * mags[i];
    const double d = static_cast<double>(i) * bin_hz - centroid_hz;
    spread += e * d * d;
  }
  stats.bandwidth = std::sqrt(spread / total) / nyquist;

  constexpr double kEdges[5] = {0.0, 630.0, 1720.0, 4400.0, 1e9};
  for (size_t i = 0; i < mags.size(); ++i) {
    const double hz = static_cast<double>(i) * bin_hz;
    const double e = mags[i] * mags[i];
    for (int b = 0; b < 4; ++b) {
      if (hz >= kEdges[b] && hz < std::min(kEdges[b + 1], nyquist + 1.0)) {
        stats.subband[static_cast<size_t>(b)] += e;
        break;
      }
    }
  }
  for (double& s : stats.subband) s /= total;
  return stats;
}

// One pass of the lane-per-lag contract (see features.h) over lags
// [lag, lag + kLanes): out[j] = sum over ascending i of x[i] * x[i+lag+j].
template <size_t kLanes>
void AutocorrLagBlock(std::span<const double> x, size_t lag, double* out) {
  const size_t n = x.size();
  double sum[kLanes] = {};
  // Shared range: every lag of the block has x[i + lag + j] in bounds.
  const size_t shared = n - (lag + kLanes - 1);
  for (size_t i = 0; i < shared; ++i) {
    const double xi = x[i];
    // Unrolled so the accumulators stay in registers.
#pragma GCC unroll 8
    for (size_t j = 0; j < kLanes; ++j) sum[j] += xi * x[i + lag + j];
  }
  // Tails: lane j runs on while i + lag + j < n. Outer i keeps each lane's
  // order ascending, and the lanes' chains overlap.
  for (size_t i = shared; i + lag < n; ++i) {
    for (size_t j = 0; j < kLanes && i + lag + j < n; ++j) {
      sum[j] += x[i] * x[i + lag + j];
    }
  }
  for (size_t j = 0; j < kLanes; ++j) out[j] = sum[j];
}

inline bool UsePitchAccel() {
  return util::ActiveDispatchLevel() >= util::DispatchLevel::kAvx2 &&
         internal::PitchAccelAvailable();
}

}  // namespace

namespace internal {

void PitchAutocorrScalar(std::span<const double> x, size_t min_lag,
                         size_t max_lag, double* acc) {
  size_t lag = min_lag;
  for (; lag + 7 <= max_lag; lag += 8) {
    AutocorrLagBlock<8>(x, lag, acc + (lag - min_lag));
  }
  // Fewer than 8 lags left: one narrower pass each for the 4s, 2s and 1s.
  if (lag + 3 <= max_lag) {
    AutocorrLagBlock<4>(x, lag, acc + (lag - min_lag));
    lag += 4;
  }
  if (lag + 1 <= max_lag) {
    AutocorrLagBlock<2>(x, lag, acc + (lag - min_lag));
    lag += 2;
  }
  if (lag <= max_lag) AutocorrLagBlock<1>(x, lag, acc + (lag - min_lag));
}

double FramePitch(std::span<const double> frame, int sample_rate) {
  const int min_lag = sample_rate / 500;
  const int max_lag = sample_rate / 60;
  if (static_cast<int>(frame.size()) <= max_lag || min_lag < 1) return 0.0;
  double energy = 0.0;
  for (double s : frame) energy += s * s;
  if (energy < 1e-9) return 0.0;

  const size_t lo = static_cast<size_t>(min_lag);
  const size_t hi = static_cast<size_t>(max_lag);
  std::vector<double> acc(hi - lo + 1);
  if (UsePitchAccel()) {
    PitchAutocorrAccel(frame, lo, hi, acc.data());
  } else {
    PitchAutocorrScalar(frame, lo, hi, acc.data());
  }
  double best = 0.0;
  int best_lag = 0;
  for (int lag = min_lag; lag <= max_lag; ++lag) {
    const double a = acc[static_cast<size_t>(lag - min_lag)];
    if (a > best) {
      best = a;
      best_lag = lag;
    }
  }
  // Voicing gate: the autocorrelation peak must carry a meaningful share of
  // the energy.
  if (best_lag == 0 || best < 0.25 * energy) return 0.0;
  return static_cast<double>(sample_rate) / best_lag;
}

}  // namespace internal

ClipFeatures ComputeClipFeatures(const AudioBuffer& clip,
                                 const ClipFeatureOptions& options) {
  ClipFeatures f{};
  const int sr = clip.sample_rate();
  const size_t frame_len =
      static_cast<size_t>(std::max(1.0, options.frame_seconds * sr));
  const size_t hop = static_cast<size_t>(std::max(1.0, options.hop_seconds * sr));
  if (clip.sample_count() < frame_len) return f;

  std::vector<double> volumes, zcrs, pitches, centroids, bandwidths;
  std::array<double, 4> subband_acc{};
  size_t spectral_frames = 0;

  const std::vector<float>& s = clip.samples();
  // Widened once for the pitch and spectral passes (exact, see FramePitch).
  const std::vector<double> wide(s.begin(), s.end());
  for (size_t start = 0; start + frame_len <= s.size(); start += hop) {
    std::span<const float> frame(s.data() + start, frame_len);
    std::span<const double> wide_frame(wide.data() + start, frame_len);
    volumes.push_back(FrameRms(frame));
    zcrs.push_back(FrameZcr(frame));
    const double pitch = internal::FramePitch(wide_frame, sr);
    if (pitch > 0.0) pitches.push_back(pitch);
    const SpectralStats st = FrameSpectral(wide_frame, sr);
    centroids.push_back(st.centroid);
    bandwidths.push_back(st.bandwidth);
    for (size_t b = 0; b < 4; ++b) subband_acc[b] += st.subband[b];
    ++spectral_frames;
  }
  if (volumes.empty()) return f;

  const double vol_mean = util::Mean(volumes);
  double vol_max = 0.0, vol_min = 1e9;
  for (double v : volumes) {
    vol_max = std::max(vol_max, v);
    vol_min = std::min(vol_min, v);
  }
  size_t silent = 0;
  for (double v : volumes) {
    if (v < 0.1 * std::max(vol_mean, 1e-6)) ++silent;
  }

  f[0] = vol_mean;
  f[1] = util::StdDev(volumes);
  f[2] = vol_max > 1e-9 ? (vol_max - vol_min) / vol_max : 0.0;
  f[3] = static_cast<double>(silent) / static_cast<double>(volumes.size());
  f[4] = util::Mean(zcrs);
  f[5] = util::StdDev(zcrs);
  f[6] = util::Mean(pitches) / 1000.0;
  f[7] = util::StdDev(pitches) / 1000.0;
  f[8] = util::Mean(centroids);
  f[9] = util::Mean(bandwidths);
  for (size_t b = 0; b < 4; ++b) {
    f[10 + b] = spectral_frames > 0
                    ? subband_acc[b] / static_cast<double>(spectral_frames)
                    : 0.0;
  }
  return f;
}

std::vector<AudioBuffer> SplitIntoClips(const AudioBuffer& audio,
                                        double clip_seconds) {
  std::vector<AudioBuffer> clips;
  if (audio.empty() || clip_seconds <= 0.0) return clips;
  const double total = audio.DurationSeconds();
  double t = 0.0;
  while (t + clip_seconds / 2.0 <= total) {
    clips.push_back(audio.Slice(t, clip_seconds));
    t += clip_seconds;
  }
  return clips;
}

}  // namespace classminer::audio
