/// \file
/// \brief JSONL scan-result sink: one structured row per bulk-scan query.
///
/// The bulk scan driver (experiment::run_scan) emits ZDNS-style output:
/// one JSON object per line, fixed key order, deterministic number
/// formatting — so a fixed-seed scan serialises to byte-identical output
/// at any shard count, and fixtures can be committed and diffed.
///
/// A scan may hold one row per name until it ends, so a row is flat: 80
/// bytes with its qname and answer text inline, and a heap block of its
/// own only when that text outgrows ScanRow::kInlineCapacity (the idiom
/// of dns::Name and dns::RdataBlock). A generated scan name with its
/// one-string probe answer fits inline.
///
/// Like the rest of src/obs, this file is dependency-light on purpose
/// (strings and streams only, no dns types): rcode and answers arrive
/// already in presentation form.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <iterator>
#include <span>
#include <string_view>
#include <vector>

namespace recwild::obs {

/// A mnemonic of at most kCapacity characters (an rcode name), stored
/// inline. Compares by text with strings: `row.rcode != "NOERROR"`.
class ShortText {
 public:
  static constexpr std::size_t kCapacity = 11;

  ShortText() = default;
  /// Replaces the text; throws std::length_error past kCapacity.
  ShortText& operator=(std::string_view s);

  [[nodiscard]] std::string_view view() const noexcept {
    return {chars_, size_};
  }
  operator std::string_view() const noexcept { return view(); }  // NOLINT

  friend bool operator==(const ShortText& a, std::string_view b) noexcept {
    return a.view() == b;
  }
  friend bool operator==(const ShortText& a, const ShortText& b) noexcept {
    return a.view() == b.view();
  }

 private:
  char chars_[kCapacity]{};
  std::uint8_t size_ = 0;
};

/// One completed scan query. `sim_ms` is simulated latency (admission to
/// completion) — host wall time never appears in a row, which is what
/// keeps fixed-seed scan output reproducible; wall-clock throughput is
/// reported once per run (scan.qps / ScanResult), not per row.
///
/// The qname and the answers share one text block: the qname's bytes,
/// then each answer as a LEB128 length and its bytes. Up to
/// kInlineCapacity bytes sit in the row itself; a larger block spills to
/// one heap block of exactly its size.
class ScanRow {
 public:
  static constexpr std::size_t kInlineCapacity = 36;

  /// Forward range over the answers, in chain order.
  class Answers {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = std::string_view;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = std::string_view;

      iterator() = default;
      std::string_view operator*() const noexcept;
      iterator& operator++() noexcept;
      iterator operator++(int) noexcept {
        iterator old = *this;
        ++*this;
        return old;
      }
      bool operator==(const iterator& o) const noexcept { return p_ == o.p_; }

     private:
      friend class Answers;
      explicit iterator(const char* p) noexcept : p_(p) {}
      const char* p_ = nullptr;
    };

    [[nodiscard]] iterator begin() const noexcept { return iterator{first_}; }
    [[nodiscard]] iterator end() const noexcept { return iterator{last_}; }
    [[nodiscard]] bool empty() const noexcept { return first_ == last_; }

   private:
    friend class ScanRow;
    Answers(const char* first, const char* last) noexcept
        : first_(first), last_(last) {}
    const char* first_;
    const char* last_;
  };

  std::uint64_t index = 0;    ///< Global name index (stable across shards).
  double sim_ms = 0.0;        ///< Simulated resolution latency, ms.
  std::uint32_t chain = 0;    ///< Records in the answer chain (CNAMEs incl).
  std::uint32_t upstream = 0; ///< Upstream transmissions (0 = cache hit).
  ShortText rcode;            ///< Final rcode ("NOERROR", "SERVFAIL", ...).
  bool cache_hit = false;     ///< Answered without any upstream query.

  ScanRow() = default;
  ScanRow(const ScanRow& o);
  ScanRow(ScanRow&& o) noexcept { steal(o); }
  ScanRow& operator=(const ScanRow& o) {
    if (this != &o) *this = ScanRow{o};
    return *this;
  }
  ScanRow& operator=(ScanRow&& o) noexcept {
    if (this != &o) {
      free_heap();
      steal(o);
    }
    return *this;
  }
  ~ScanRow() { free_heap(); }

  /// Queried name, presentation form.
  [[nodiscard]] std::string_view qname() const noexcept {
    return {text(), qname_size_};
  }
  /// Answer payloads (TXT strings or rdata presentation), chain order.
  [[nodiscard]] Answers answers() const noexcept {
    return {text() + qname_size_, text() + size_};
  }

  /// Replaces the qname and keeps the answers. Throws std::length_error
  /// past 65,535 bytes.
  void set_qname(std::string_view qname);
  /// Replaces the answers and keeps the qname.
  void set_answers(std::span<const std::string_view> answers);

  /// True when the text lives in a heap block rather than inline.
  [[nodiscard]] bool spilled() const noexcept {
    return size_ > kInlineCapacity;
  }

  friend bool operator==(const ScanRow& a, const ScanRow& b) noexcept;

 private:
  [[nodiscard]] const char* text() const noexcept {
    return spilled() ? heap() : buf_;
  }
  [[nodiscard]] char* heap() const noexcept {
    char* p = nullptr;
    std::memcpy(&p, buf_, sizeof p);
    return p;
  }
  void free_heap() noexcept {
    if (spilled()) delete[] heap();
  }
  void steal(ScanRow& o) noexcept;
  /// Rebuilds the text block as `qname`, the already-encoded answers
  /// `encoded`, then `answers` encoded.
  void rebuild(std::string_view qname, std::string_view encoded,
               std::span<const std::string_view> answers);

  std::uint16_t qname_size_ = 0;
  std::uint32_t size_ = 0;  ///< Text block bytes.
  /// The text while it fits; once spilled, the heap block's address.
  char buf_[kInlineCapacity]{};
};

/// Writes one `{"i":...,"qname":...,...}` object per row, `\n`-terminated,
/// keys in fixed order, sim_ms with exactly 3 decimals (microsecond
/// precision): deterministic bytes for deterministic rows.
void write_scan_rows(std::ostream& out, const std::vector<ScanRow>& rows);

/// Parses write_scan_rows' format. Skips blank lines; throws
/// std::runtime_error naming the 1-based line number on malformed input
/// (unknown key, wrong type, trailing garbage, an rcode longer than
/// ShortText::kCapacity) — the same discipline as obs::read_trace.
[[nodiscard]] std::vector<ScanRow> read_scan_rows(std::istream& in);

}  // namespace recwild::obs
