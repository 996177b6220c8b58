#ifndef CLASSMINER_MEDIA_IMAGE_H_
#define CLASSMINER_MEDIA_IMAGE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace classminer::media {

// 8-bit RGB pixel.
struct Rgb {
  uint8_t r = 0;
  uint8_t g = 0;
  uint8_t b = 0;

  friend bool operator==(const Rgb&, const Rgb&) = default;
};

// Interleaved 8-bit RGB raster image. Copyable; frames are small
// (database-scale videos are stored compressed by the codec module).
class Image {
 public:
  Image() : width_(0), height_(0) {}
  Image(int width, int height, Rgb fill = Rgb{0, 0, 0});
  // Adopts `pixels` (row-major, width * height of them) with no fill pass,
  // for producers that write every pixel anyway.
  Image(int width, int height, std::vector<Rgb> pixels);

  int width() const { return width_; }
  int height() const { return height_; }
  bool empty() const { return width_ == 0 || height_ == 0; }
  size_t pixel_count() const {
    return static_cast<size_t>(width_) * static_cast<size_t>(height_);
  }

  Rgb at(int x, int y) const { return pixels_[Index(x, y)]; }
  void set(int x, int y, Rgb c) { pixels_[Index(x, y)] = c; }

  bool Contains(int x, int y) const {
    return x >= 0 && y >= 0 && x < width_ && y < height_;
  }

  const std::vector<Rgb>& pixels() const { return pixels_; }
  std::vector<Rgb>& pixels() { return pixels_; }

  // Nearest-neighbour resize; returns an empty image for non-positive dims.
  Image Resized(int new_width, int new_height) const;

  friend bool operator==(const Image& a, const Image& b) {
    return a.width_ == b.width_ && a.height_ == b.height_ &&
           a.pixels_ == b.pixels_;
  }

 private:
  size_t Index(int x, int y) const {
    return static_cast<size_t>(y) * static_cast<size_t>(width_) +
           static_cast<size_t>(x);
  }

  int width_;
  int height_;
  std::vector<Rgb> pixels_;
};

// Single-channel 8-bit raster, used for grey images, masks and label maps.
class GrayImage {
 public:
  GrayImage() : width_(0), height_(0) {}
  GrayImage(int width, int height, uint8_t fill = 0);

  int width() const { return width_; }
  int height() const { return height_; }
  bool empty() const { return width_ == 0 || height_ == 0; }
  size_t pixel_count() const {
    return static_cast<size_t>(width_) * static_cast<size_t>(height_);
  }

  uint8_t at(int x, int y) const { return pixels_[Index(x, y)]; }
  void set(int x, int y, uint8_t v) { pixels_[Index(x, y)] = v; }

  bool Contains(int x, int y) const {
    return x >= 0 && y >= 0 && x < width_ && y < height_;
  }

  const std::vector<uint8_t>& pixels() const { return pixels_; }
  std::vector<uint8_t>& pixels() { return pixels_; }

  // Fraction of pixels with value > 0.
  double CoverageFraction() const;

  friend bool operator==(const GrayImage& a, const GrayImage& b) {
    return a.width_ == b.width_ && a.height_ == b.height_ &&
           a.pixels_ == b.pixels_;
  }

 private:
  size_t Index(int x, int y) const {
    return static_cast<size_t>(y) * static_cast<size_t>(width_) +
           static_cast<size_t>(x);
  }

  int width_;
  int height_;
  std::vector<uint8_t> pixels_;
};

}  // namespace classminer::media

#endif  // CLASSMINER_MEDIA_IMAGE_H_
