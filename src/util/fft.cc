#include "util/fft.h"

#include <bit>
#include <cmath>
#include <numbers>
#include <utility>

#include "util/logging.h"

namespace classminer::util {
namespace {

// Everything a transform of one size and direction reuses: the bit-reversal
// swaps and the twiddle factors of every butterfly stage, concatenated (the
// stage of half-length h occupies [h - 1, 2h - 1)). The twiddles come from
// the same `w *= wlen` recurrence the butterfly used to run inline, so each
// entry is bit-identical to the factor it replaces.
struct FftPlan {
  std::vector<std::pair<size_t, size_t>> swaps;
  std::vector<std::complex<double>> twiddles;
};

void BuildPlan(size_t n, bool inverse, FftPlan* plan) {
  for (size_t i = 1, j = 0; i < n; ++i) {
    size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) plan->swaps.emplace_back(i, j);
  }
  plan->twiddles.reserve(n - 1);
  for (size_t len = 2; len <= n; len <<= 1) {
    const double angle =
        2.0 * std::numbers::pi / static_cast<double>(len) *
        (inverse ? 1.0 : -1.0);
    const std::complex<double> wlen(std::cos(angle), std::sin(angle));
    std::complex<double> w(1.0, 0.0);
    for (size_t k = 0; k < len / 2; ++k) {
      plan->twiddles.push_back(w);
      w *= wlen;
    }
  }
}

// Plans up to 2^16 points (every audio window size) are built once per
// thread and kept: no locking, and no thread sees a plan another is filling.
// A larger size, which only unusual or hostile sample rates produce, builds
// into `*uncached` for this call, so its memory is not retained.
const FftPlan& PlanFor(size_t n, bool inverse, FftPlan* uncached) {
  constexpr int kMaxCachedLog2 = 16;
  const int log2n = std::countr_zero(n);
  if (log2n > kMaxCachedLog2) {
    BuildPlan(n, inverse, uncached);
    return *uncached;
  }
  thread_local FftPlan plans[2][kMaxCachedLog2 + 1];
  FftPlan& plan = plans[inverse ? 1 : 0][log2n];
  if (plan.twiddles.size() + 1 != n) BuildPlan(n, inverse, &plan);
  return plan;
}

}  // namespace

void Fft(std::vector<std::complex<double>>* data, bool inverse) {
  const size_t n = data->size();
  CM_CHECK(n > 0 && (n & (n - 1)) == 0) << "FFT size must be a power of two";
  auto& a = *data;
  FftPlan uncached;
  const FftPlan& plan = PlanFor(n, inverse, &uncached);

  // Bit-reversal permutation.
  for (const auto& [i, j] : plan.swaps) std::swap(a[i], a[j]);

  // The complex multiply is written out as the formula std::complex
  // evaluates for finite operands (without its NaN-recovery branch), so
  // results match the operator bit for bit.
  for (size_t half = 1; half < n; half <<= 1) {
    const std::complex<double>* tw = plan.twiddles.data() + (half - 1);
    for (size_t i = 0; i < n; i += 2 * half) {
      std::complex<double>* lo = a.data() + i;
      std::complex<double>* hi = lo + half;
      for (size_t k = 0; k < half; ++k) {
        const double xr = hi[k].real(), xi = hi[k].imag();
        const double wr = tw[k].real(), wi = tw[k].imag();
        const std::complex<double> v(xr * wr - xi * wi, xr * wi + xi * wr);
        const std::complex<double> u = lo[k];
        lo[k] = u + v;
        hi[k] = u - v;
      }
    }
  }

  if (inverse) {
    for (auto& x : a) x /= static_cast<double>(n);
  }
}

size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::vector<double> MagnitudeSpectrum(std::span<const double> signal) {
  const size_t n = NextPowerOfTwo(std::max<size_t>(signal.size(), 2));
  std::vector<std::complex<double>> buf(n, {0.0, 0.0});
  for (size_t i = 0; i < signal.size(); ++i) buf[i] = {signal[i], 0.0};
  Fft(&buf);
  std::vector<double> mags(n / 2 + 1);
  for (size_t i = 0; i <= n / 2; ++i) mags[i] = std::abs(buf[i]);
  return mags;
}

}  // namespace classminer::util
