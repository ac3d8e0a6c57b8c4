#include "dnscore/name.hpp"

#include <algorithm>
#include <stdexcept>

namespace recwild::dns {

namespace {

/// A name is at most 255 wire octets, so at most 127 labels.
constexpr std::size_t kMaxLabels = 127;

std::atomic<std::uint64_t> g_heap_spills{0};

void check_label(std::string_view label) {
  if (label.empty()) throw std::invalid_argument{"Name: empty label"};
  if (label.size() > kMaxLabelLength) {
    throw std::invalid_argument{"Name: label exceeds 63 octets"};
  }
}

void check_size(std::size_t label_bytes) {
  if (label_bytes + 1 > kMaxNameWireLength) {
    throw std::invalid_argument{"Name: exceeds 255 octets"};
  }
}

/// Case-insensitive equality of two runs of wire bytes. Length octets are
/// at most 63, below 'A', so folding leaves them alone.
bool equal_folded(const std::uint8_t* a, const std::uint8_t* b,
                  std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i] && Name::to_lower(static_cast<char>(a[i])) !=
                            Name::to_lower(static_cast<char>(b[i]))) {
      return false;
    }
  }
  return true;
}

int compare_labels(const std::uint8_t* a, const std::uint8_t* b) noexcept {
  const std::size_t la = a[0];
  const std::size_t lb = b[0];
  const std::size_t n = std::min(la, lb);
  for (std::size_t i = 1; i <= n; ++i) {
    const auto ca =
        static_cast<unsigned char>(Name::to_lower(static_cast<char>(a[i])));
    const auto cb =
        static_cast<unsigned char>(Name::to_lower(static_cast<char>(b[i])));
    if (ca != cb) return ca < cb ? -1 : 1;
  }
  if (la != lb) return la < lb ? -1 : 1;
  return 0;
}

/// Records where each label's length octet sits; returns the label count.
std::size_t label_offsets(std::span<const std::uint8_t> wire,
                          std::uint8_t* out) noexcept {
  std::size_t count = 0;
  for (std::size_t p = 0; p < wire.size(); p += 1 + std::size_t{wire[p]}) {
    out[count++] = static_cast<std::uint8_t>(p);
  }
  return count;
}

/// Offset of label `i` in `wire` (or wire.size() when i == label count).
std::size_t skip_labels(std::span<const std::uint8_t> wire,
                        std::size_t i) noexcept {
  std::size_t p = 0;
  for (; i > 0; --i) p += 1 + std::size_t{wire[p]};
  return p;
}

}  // namespace

std::uint8_t* Name::allocate(std::size_t size) {
  g_heap_spills.fetch_add(1, std::memory_order_relaxed);
  return new std::uint8_t[size];
}

std::uint64_t Name::heap_spills() noexcept {
  return g_heap_spills.load(std::memory_order_relaxed);
}

std::uint8_t* Name::init(std::size_t size, std::size_t count) {
  size_ = static_cast<std::uint8_t>(size);
  count_ = static_cast<std::uint8_t>(count);
  if (!spilled()) return buf_;
  set_heap(allocate(size));
  return heap();
}

Name Name::parse(std::string_view text) {
  if (text.empty()) throw std::invalid_argument{"Name: empty input"};
  if (text == ".") return Name{};
  Name n;
  char label[kMaxLabelLength];
  std::size_t len = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (c == '\\') {
      if (i + 1 >= text.size()) {
        throw std::invalid_argument{"Name: dangling escape"};
      }
      c = text[++i];
    } else if (c == '.') {
      if (len == 0) {
        throw std::invalid_argument{"Name: empty label in '" +
                                    std::string(text) + "'"};
      }
      n.append_label({label, len});
      len = 0;
      continue;
    }
    if (len == kMaxLabelLength) {
      throw std::invalid_argument{"Name: label exceeds 63 octets"};
    }
    label[len++] = c;
  }
  if (len > 0) n.append_label({label, len});
  return n;
}

Name Name::from_labels(const std::vector<std::string>& labels) {
  Name n;
  for (const auto& l : labels) n.append_label(l);
  return n;
}

void Name::append_label(std::string_view label) {
  check_label(label);
  const std::size_t old_size = size_;
  const std::size_t size = old_size + 1 + label.size();
  check_size(size);
  std::uint8_t* dst = buf_;
  if (size > kInlineCapacity) {
    // Spill (or grow the spilled block) to exactly the new size.
    dst = allocate(size);
    std::memcpy(dst, data(), old_size);
    free_heap();
    set_heap(dst);
  }
  dst[old_size] = static_cast<std::uint8_t>(label.size());
  std::memcpy(dst + old_size + 1, label.data(), label.size());
  size_ = static_cast<std::uint8_t>(size);
  ++count_;
  hash_cache_.store(0, std::memory_order_relaxed);
}

std::string_view Name::label(std::size_t i) const {
  if (i >= count_) throw std::out_of_range{"Name: label index"};
  return *LabelIterator{data() + skip_labels(wire(), i)};
}

std::string Name::to_string() const {
  std::string out;
  out.reserve(size_ + 1);
  append_to(out);
  return out;
}

void Name::append_to(std::string& out) const {
  if (is_root()) {
    out.push_back('.');
    return;
  }
  for (const std::string_view l : *this) {
    for (const char c : l) {
      if (c == '.' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    out.push_back('.');
  }
}

bool Name::equals(const Name& o) const noexcept {
  return size_ == o.size_ && count_ == o.count_ &&
         equal_folded(data(), o.data(), size_);
}

int Name::compare(const Name& o) const noexcept {
  // Right-to-left (least-specific label first), per canonical DNS order.
  std::uint8_t off_a[kMaxLabels];
  std::uint8_t off_b[kMaxLabels];
  std::size_t i = label_offsets(wire(), off_a);
  std::size_t j = label_offsets(o.wire(), off_b);
  const std::uint8_t* a = data();
  const std::uint8_t* b = o.data();
  while (i > 0 && j > 0) {
    const int c = compare_labels(a + off_a[i - 1], b + off_b[j - 1]);
    if (c != 0) return c;
    --i;
    --j;
  }
  if (i != j) return i < j ? -1 : 1;
  return 0;
}

bool Name::is_subdomain_of(const Name& ancestor) const noexcept {
  if (ancestor.count_ > count_) return false;
  const std::size_t p = skip_labels(wire(), count_ - ancestor.count_);
  return size_ - p == ancestor.size_ &&
         equal_folded(data() + p, ancestor.data(), ancestor.size_);
}

Name Name::suffix(std::size_t depth) const {
  if (depth > count_) throw std::out_of_range{"Name: suffix depth"};
  const std::size_t p = skip_labels(wire(), count_ - depth);
  Name n;
  std::memcpy(n.init(size_ - p, depth), data() + p, size_ - p);
  return n;
}

Name Name::parent() const {
  if (is_root()) return Name{};
  return suffix(count_ - 1u);
}

Name Name::prefixed(std::string_view label) const {
  check_label(label);
  const std::size_t size = 1 + label.size() + size_;
  check_size(size);
  Name n;
  std::uint8_t* dst = n.init(size, count_ + 1u);
  dst[0] = static_cast<std::uint8_t>(label.size());
  std::memcpy(dst + 1, label.data(), label.size());
  std::memcpy(dst + 1 + label.size(), data(), size_);
  return n;
}

Name Name::concat(const Name& origin) const {
  const std::size_t size = std::size_t{size_} + origin.size_;
  check_size(size);
  Name n;
  std::uint8_t* dst = n.init(size, std::size_t{count_} + origin.count_);
  std::memcpy(dst, data(), size_);
  std::memcpy(dst + size_, origin.data(), origin.size_);
  return n;
}

std::size_t Name::hash() const noexcept {
  const std::size_t cached = hash_cache_.load(std::memory_order_relaxed);
  if (cached != 0) return cached;
  // FNV-1a over lowered labels with separators.
  std::size_t h = 0xcbf29ce484222325ULL;
  for (const std::string_view l : *this) {
    for (const char c : l) {
      h ^= static_cast<unsigned char>(to_lower(c));
      h *= 0x100000001b3ULL;
    }
    h ^= 0xff;
    h *= 0x100000001b3ULL;
  }
  if (h == 0) h = 0x9e3779b97f4a7c15ULL;  // keep 0 free as the sentinel
  hash_cache_.store(h, std::memory_order_relaxed);
  return h;
}

}  // namespace recwild::dns
