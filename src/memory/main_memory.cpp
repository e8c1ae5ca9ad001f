#include "memory/main_memory.h"

#include <algorithm>

namespace rvss::memory {

std::uint16_t MainMemory::Read16(std::uint32_t address) const {
  return static_cast<std::uint16_t>(bytes_[address]) |
         static_cast<std::uint16_t>(bytes_[address + 1]) << 8;
}

std::uint32_t MainMemory::Read32(std::uint32_t address) const {
  return static_cast<std::uint32_t>(bytes_[address]) |
         static_cast<std::uint32_t>(bytes_[address + 1]) << 8 |
         static_cast<std::uint32_t>(bytes_[address + 2]) << 16 |
         static_cast<std::uint32_t>(bytes_[address + 3]) << 24;
}

std::uint64_t MainMemory::Read64(std::uint32_t address) const {
  return static_cast<std::uint64_t>(Read32(address)) |
         static_cast<std::uint64_t>(Read32(address + 4)) << 32;
}

void MainMemory::Write16(std::uint32_t address, std::uint16_t value) {
  bytes_[address] = static_cast<std::uint8_t>(value);
  bytes_[address + 1] = static_cast<std::uint8_t>(value >> 8);
  MarkDirtyRange(address, 2);
}

void MainMemory::Write32(std::uint32_t address, std::uint32_t value) {
  Write16(address, static_cast<std::uint16_t>(value));
  Write16(address + 2, static_cast<std::uint16_t>(value >> 16));
}

void MainMemory::Write64(std::uint32_t address, std::uint64_t value) {
  Write32(address, static_cast<std::uint32_t>(value));
  Write32(address + 4, static_cast<std::uint32_t>(value >> 32));
}

std::uint64_t MainMemory::ReadBytes(std::uint32_t address,
                                    std::uint32_t accessSize) const {
  switch (accessSize) {
    case 1: return Read8(address);
    case 2: return Read16(address);
    case 4: return Read32(address);
    default: return Read64(address);
  }
}

void MainMemory::WriteBytes(std::uint32_t address, std::uint32_t accessSize,
                            std::uint64_t value) {
  switch (accessSize) {
    case 1: Write8(address, static_cast<std::uint8_t>(value)); break;
    case 2: Write16(address, static_cast<std::uint16_t>(value)); break;
    case 4: Write32(address, static_cast<std::uint32_t>(value)); break;
    default: Write64(address, value); break;
  }
}

void MainMemory::MarkAllDirty() {
  std::fill(dirtyPages_.begin(), dirtyPages_.end(), 1);
}

void MainMemory::Rebase() {
  base_ = std::make_shared<const std::vector<std::uint8_t>>(bytes_);
  std::fill(dirtyPages_.begin(), dirtyPages_.end(), 0);
}

namespace {

constexpr std::uint32_t kPage = MainMemory::kPageSizeBytes;

/// Page `page` of `image`; only the last page may be short.
std::span<const std::uint8_t> PageOf(std::span<const std::uint8_t> image,
                                     std::size_t page) {
  const std::size_t offset = page * kPage;
  return image.subspan(offset,
                       std::min<std::size_t>(kPage, image.size() - offset));
}

/// Page `page` of `base` (all zeros when null) in an image of `size` bytes.
std::span<const std::uint8_t> BasePage(const MainMemory::Image& base,
                                       std::size_t size, std::size_t page) {
  static const std::vector<std::uint8_t> kZeroPage(kPage, 0);
  if (base != nullptr) return PageOf(*base, page);
  return std::span<const std::uint8_t>(kZeroPage).first(
      std::min<std::size_t>(kPage, size - page * kPage));
}

/// Copies the state's pages over `out`, an image of the memory's size.
void Overlay(const MainMemory::State& state, std::span<std::uint8_t> out) {
  for (std::size_t i = 0; i < state.pages.size(); ++i) {
    const std::size_t offset = std::size_t{state.pages[i]} * kPage;
    std::copy_n(
        state.pageBytes.begin() + static_cast<std::ptrdiff_t>(i * kPage),
        std::min<std::size_t>(kPage, out.size() - offset),
        out.begin() + static_cast<std::ptrdiff_t>(offset));
  }
}

}  // namespace

void MainMemory::State::CopyImageTo(std::span<std::uint8_t> out) const {
  if (base != nullptr) {
    std::copy(base->begin(), base->end(), out.begin());
  } else {
    std::fill(out.begin(), out.end(), 0);
  }
  Overlay(*this, out);
}

MainMemory::State MainMemory::Diff(Image base,
                                   std::span<const std::uint8_t> image) {
  State state;
  for (std::size_t page = 0; page * kPage < image.size(); ++page) {
    const auto current = PageOf(image, page);
    const auto original = BasePage(base, image.size(), page);
    if (std::equal(current.begin(), current.end(), original.begin())) {
      continue;
    }
    state.pages.push_back(static_cast<std::uint32_t>(page));
    state.pageBytes.insert(state.pageBytes.end(), current.begin(),
                           current.end());
  }
  state.base = std::move(base);
  return state;
}

MainMemory::State MainMemory::SaveState() const {
  State state;
  state.base = base_;
  const auto dirty = static_cast<std::size_t>(
      std::count(dirtyPages_.begin(), dirtyPages_.end(), 1));
  state.pages.reserve(dirty);
  state.pageBytes.reserve(dirty * kPage);
  for (std::size_t page = 0; page < dirtyPages_.size(); ++page) {
    if (dirtyPages_[page] == 0) continue;
    const auto current = PageOf(bytes_, page);
    state.pages.push_back(static_cast<std::uint32_t>(page));
    state.pageBytes.insert(state.pageBytes.end(), current.begin(),
                           current.end());
  }
  return state;
}

void MainMemory::RestoreState(const State& state) {
  if (state.base != base_) {
    // Built on another memory's base: materialize, then describe the
    // image against this memory's own base.
    std::vector<std::uint8_t> image(bytes_.size());
    state.CopyImageTo(image);
    RestoreState(Diff(base_, image));
    return;
  }
  for (std::size_t page = 0; page < dirtyPages_.size(); ++page) {
    if (dirtyPages_[page] == 0) continue;
    const auto original = BasePage(base_, bytes_.size(), page);
    std::copy(original.begin(), original.end(),
              bytes_.begin() + static_cast<std::ptrdiff_t>(page * kPage));
    dirtyPages_[page] = 0;
  }
  Overlay(state, bytes_);
  for (const std::uint32_t page : state.pages) dirtyPages_[page] = 1;
}

}  // namespace rvss::memory
