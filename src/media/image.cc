#include "media/image.h"

#include <utility>

namespace classminer::media {

Image::Image(int width, int height, Rgb fill)
    : width_(width > 0 ? width : 0),
      height_(height > 0 ? height : 0),
      pixels_(static_cast<size_t>(width_) * static_cast<size_t>(height_),
              fill) {}

Image::Image(int width, int height, std::vector<Rgb> pixels)
    : width_(width > 0 ? width : 0),
      height_(height > 0 ? height : 0),
      pixels_(std::move(pixels)) {}

Image Image::Resized(int new_width, int new_height) const {
  if (new_width <= 0 || new_height <= 0 || empty()) return Image();
  Image out(new_width, new_height);
  for (int y = 0; y < new_height; ++y) {
    const int sy = y * height_ / new_height;
    for (int x = 0; x < new_width; ++x) {
      const int sx = x * width_ / new_width;
      out.set(x, y, at(sx, sy));
    }
  }
  return out;
}

GrayImage::GrayImage(int width, int height, uint8_t fill)
    : width_(width > 0 ? width : 0),
      height_(height > 0 ? height : 0),
      pixels_(static_cast<size_t>(width_) * static_cast<size_t>(height_),
              fill) {}

double GrayImage::CoverageFraction() const {
  if (empty()) return 0.0;
  size_t on = 0;
  for (uint8_t v : pixels_) {
    if (v > 0) ++on;
  }
  return static_cast<double>(on) / static_cast<double>(pixels_.size());
}

}  // namespace classminer::media
