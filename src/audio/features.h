#ifndef CLASSMINER_AUDIO_FEATURES_H_
#define CLASSMINER_AUDIO_FEATURES_H_

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "audio/audio_buffer.h"

namespace classminer::audio {

// 14 clip-level audio features (paper Sec. 4.2, after Liu & Huang [22]),
// computed over ~2 s clips from 30 ms analysis frames with 10 ms hop:
//   0 volume mean (RMS)          7 pitch std (Hz / 1000)
//   1 volume std                 8 spectral centroid mean (norm.)
//   2 volume dynamic range       9 spectral bandwidth mean (norm.)
//   3 silence ratio             10 subband energy ratio 0-630 Hz
//   4 ZCR mean                  11 subband ratio 630-1720 Hz
//   5 ZCR std                   12 subband ratio 1720-4400 Hz
//   6 pitch mean (Hz / 1000)    13 subband ratio 4400 Hz-Nyquist
inline constexpr int kClipFeatureDims = 14;

using ClipFeatures = std::array<double, kClipFeatureDims>;

struct ClipFeatureOptions {
  double frame_seconds = 0.030;
  double hop_seconds = 0.010;
};

// Computes clip features; an empty clip yields all zeros.
ClipFeatures ComputeClipFeatures(const AudioBuffer& clip,
                                 const ClipFeatureOptions& options = {});

// Splits `audio` into adjacent clips of `clip_seconds`; the trailing
// remainder shorter than half a clip is dropped.
std::vector<AudioBuffer> SplitIntoClips(const AudioBuffer& audio,
                                        double clip_seconds = 2.0);

namespace internal {

// Autocorrelation pitch of one analysis frame (feature 6/7 input), in
// [60, 500] Hz; 0 when unvoiced, silent, or the frame is no longer than the
// longest lag. The frame is the clip's float samples widened to double:
// float x float products are exact in double, so this equals the sum over
// float samples bit for bit. Dispatches the lag kernel below.
double FramePitch(std::span<const double> frame, int sample_rate);

// Lane-per-lag autocorrelation contract shared by every kernel path:
//   acc[lag - min_lag] = sum_{i ascending, i + lag < x.size()} x[i]*x[i+lag]
// for lag in [min_lag, max_lag], each lag in its own accumulator starting
// at +0.0. Lags are evaluated several per pass over x (the shared range
// where every lag of the block is in bounds, then each lag's own tail), so
// the vector kernel is this contract with one SIMD lane per lag and its
// sums are bit-identical to the scalar reference. Requires
// 1 <= min_lag <= max_lag < x.size().
void PitchAutocorrScalar(std::span<const double> x, size_t min_lag,
                         size_t max_lag, double* acc);

// AVX2 kernel (x86-64 only). Callable only when PitchAccelAvailable().
bool PitchAccelAvailable();
void PitchAutocorrAccel(std::span<const double> x, size_t min_lag,
                        size_t max_lag, double* acc);

}  // namespace internal

}  // namespace classminer::audio

#endif  // CLASSMINER_AUDIO_FEATURES_H_
