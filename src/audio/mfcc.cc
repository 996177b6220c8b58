#include "audio/mfcc.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/fft.h"

namespace classminer::audio {
namespace {

double HzToMel(double hz) { return 2595.0 * std::log10(1.0 + hz / 700.0); }
double MelToHz(double mel) {
  return 700.0 * (std::pow(10.0, mel / 2595.0) - 1.0);
}

// One triangular mel filter, stored sparse: the weights of bins
// [first_bin, first_bin + weights.size()), which span every nonzero weight
// of the dense row. A bin outside the span would add exactly +0.0 to the
// filter's non-negative energy sum, so skipping it leaves the sum's bits
// unchanged. A filter with no nonzero weight has an empty span.
struct MelFilter {
  size_t first_bin = 0;
  std::vector<double> weights;
};

// Triangular mel filterbank over FFT bins [0, n_bins).
std::vector<MelFilter> BuildFilterbank(int n_filters, int n_bins,
                                       double bin_hz, double low_hz,
                                       double high_hz) {
  const double low_mel = HzToMel(low_hz);
  const double high_mel = HzToMel(high_hz);
  std::vector<double> centers(static_cast<size_t>(n_filters) + 2);
  for (int i = 0; i < n_filters + 2; ++i) {
    const double mel =
        low_mel + (high_mel - low_mel) * i / (n_filters + 1.0);
    centers[static_cast<size_t>(i)] = MelToHz(mel);
  }
  std::vector<MelFilter> bank(static_cast<size_t>(n_filters));
  std::vector<double> row(static_cast<size_t>(n_bins));
  for (int m = 0; m < n_filters; ++m) {
    const double lo = centers[static_cast<size_t>(m)];
    const double mid = centers[static_cast<size_t>(m) + 1];
    const double hi = centers[static_cast<size_t>(m) + 2];
    size_t first = row.size(), last = 0;
    for (int b = 0; b < n_bins; ++b) {
      const double hz = b * bin_hz;
      double w = 0.0;
      if (hz >= lo && hz <= mid && mid > lo) {
        w = (hz - lo) / (mid - lo);
      } else if (hz > mid && hz <= hi && hi > mid) {
        w = (hi - hz) / (hi - mid);
      }
      row[static_cast<size_t>(b)] = w;
      if (w != 0.0) {
        first = std::min(first, static_cast<size_t>(b));
        last = static_cast<size_t>(b);
      }
    }
    if (first < row.size()) {
      MelFilter& filter = bank[static_cast<size_t>(m)];
      filter.first_bin = first;
      filter.weights.assign(row.begin() + static_cast<ptrdiff_t>(first),
                            row.begin() + static_cast<ptrdiff_t>(last) + 1);
    }
  }
  return bank;
}

}  // namespace

util::Matrix ComputeMfcc(const AudioBuffer& clip, const MfccOptions& options) {
  const int sr = clip.sample_rate();
  const size_t win =
      static_cast<size_t>(std::max(2.0, options.window_seconds * sr));
  const size_t hop =
      static_cast<size_t>(std::max(1.0, options.hop_seconds * sr));
  const std::vector<float>& s = clip.samples();
  if (s.size() < win) return util::Matrix(0, kMfccDims);

  const size_t fft_size = util::NextPowerOfTwo(win);
  const int n_bins = static_cast<int>(fft_size / 2 + 1);
  const double bin_hz = static_cast<double>(sr) / static_cast<double>(fft_size);
  const double high_hz = options.high_hz > 0.0
                             ? std::min(options.high_hz, sr / 2.0)
                             : sr / 2.0;
  const std::vector<MelFilter> bank = BuildFilterbank(
      options.mel_filters, n_bins, bin_hz, options.low_hz, high_hz);
  const size_t n_filters = bank.size();

  // Hamming window.
  std::vector<double> hamming(win);
  for (size_t i = 0; i < win; ++i) {
    hamming[i] = 0.54 - 0.46 * std::cos(2.0 * std::numbers::pi * i /
                                        (static_cast<double>(win) - 1.0));
  }

  // DCT-II basis, row k = cepstral coefficient k.
  std::vector<double> dct(static_cast<size_t>(kMfccDims) * n_filters);
  for (int k = 0; k < kMfccDims; ++k) {
    for (int m = 0; m < options.mel_filters; ++m) {
      dct[static_cast<size_t>(k) * n_filters + static_cast<size_t>(m)] =
          std::cos(std::numbers::pi * k * (m + 0.5) / options.mel_filters);
    }
  }

  const size_t n_windows = (s.size() - win) / hop + 1;
  util::Matrix mfcc(n_windows, kMfccDims);

  std::vector<std::complex<double>> buf(fft_size);
  std::vector<double> mag(static_cast<size_t>(n_bins));
  std::vector<double> mel_log(n_filters);
  for (size_t w = 0; w < n_windows; ++w) {
    const size_t start = w * hop;
    // Pre-emphasis + window.
    for (size_t i = 0; i < fft_size; ++i) {
      if (i < win) {
        const double cur = s[start + i];
        const double prev = (start + i > 0) ? s[start + i - 1] : 0.0;
        buf[i] = {(cur - options.pre_emphasis * prev) * hamming[i], 0.0};
      } else {
        buf[i] = {0.0, 0.0};
      }
    }
    util::Fft(&buf);
    for (size_t b = 0; b < mag.size(); ++b) mag[b] = std::abs(buf[b]);

    for (size_t m = 0; m < n_filters; ++m) {
      const MelFilter& filter = bank[m];
      const double* bin_mag = mag.data() + filter.first_bin;
      double acc = 0.0;
      for (size_t j = 0; j < filter.weights.size(); ++j) {
        acc += filter.weights[j] * bin_mag[j] * bin_mag[j];
      }
      mel_log[m] = std::log(std::max(acc, 1e-12));
    }

    // DCT-II of the log mel energies -> cepstral coefficients 0..13.
    for (size_t k = 0; k < static_cast<size_t>(kMfccDims); ++k) {
      const double* basis = dct.data() + k * n_filters;
      double acc = 0.0;
      for (size_t m = 0; m < n_filters; ++m) acc += mel_log[m] * basis[m];
      mfcc.at(w, k) = acc;
    }
  }
  return mfcc;
}

util::Matrix AppendDeltas(const util::Matrix& mfcc, int reach) {
  const size_t n = mfcc.rows();
  const size_t d = mfcc.cols();
  util::Matrix out(n, 2 * d);
  if (n == 0) return out;
  double norm = 0.0;
  for (int t = 1; t <= reach; ++t) norm += 2.0 * t * t;
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < d; ++c) {
      out.at(i, c) = mfcc.at(i, c);
      double acc = 0.0;
      for (int t = 1; t <= reach; ++t) {
        const size_t fwd =
            std::min(n - 1, i + static_cast<size_t>(t));
        const size_t bwd =
            i >= static_cast<size_t>(t) ? i - static_cast<size_t>(t) : 0;
        acc += t * (mfcc.at(fwd, c) - mfcc.at(bwd, c));
      }
      out.at(i, d + c) = norm > 0.0 ? acc / norm : 0.0;
    }
  }
  return out;
}

void CepstralMeanNormalize(util::Matrix* mfcc) {
  const size_t n = mfcc->rows();
  const size_t d = mfcc->cols();
  if (n == 0) return;
  for (size_t c = 0; c < d; ++c) {
    double mean = 0.0;
    for (size_t i = 0; i < n; ++i) mean += mfcc->at(i, c);
    mean /= static_cast<double>(n);
    for (size_t i = 0; i < n; ++i) mfcc->at(i, c) -= mean;
  }
}

}  // namespace classminer::audio
