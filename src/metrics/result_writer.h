// Unified machine-readable results API: every CSV/JSON artifact the CLI and
// the bench binaries export goes through this one writer, so the quoting
// rules, header layout and schema versioning live in a single place.
//
// A ResultWriter is a list of rows of named fields plus optional run
// metadata. Columns are the union of field names in first-seen order; a row
// missing a column emits an empty cell. CSV output is a plain header + rows
// (appendable: the header is written only when the file is created, and an
// existing header must match — a schema drift aborts instead of silently
// mixing layouts). JSON output wraps rows and metadata in a
// schema-versioned document:
//
//   {"schema_version": 1, "meta": {...}, "rows": [{...}, ...]}
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cmcp::metrics {

class ResultWriter {
 public:
  static constexpr int kSchemaVersion = 1;

  class Row {
   public:
    Row& set(std::string name, std::string value);
    Row& set(std::string name, std::string_view value);
    Row& set(std::string name, const char* value);
    Row& set(std::string name, double value);
    Row& set(std::string name, std::uint64_t value);
    Row& set(std::string name, std::int64_t value);
    Row& set(std::string name, int value) {
      return set(std::move(name), static_cast<std::int64_t>(value));
    }
    Row& set(std::string name, unsigned value) {
      return set(std::move(name), static_cast<std::uint64_t>(value));
    }

   private:
    friend class ResultWriter;
    struct Field {
      std::string name;
      std::string text;
      bool quoted_in_json;  ///< string vs number/bool literal
    };
    Row& set_raw(std::string name, std::string text, bool quoted);
    std::vector<Field> fields_;
  };

  /// Append an empty row; fill it through the returned reference, which
  /// stays valid as later rows are appended.
  Row& add_row();

  /// Run metadata, emitted as the JSON "meta" object (CSV ignores it).
  ResultWriter& meta(std::string name, std::string value);

  // --- CSV -----------------------------------------------------------------
  void to_csv(std::ostream& os) const;
  /// Truncate-write `path` (parent directories created).
  void save_csv(const std::string& path) const;
  /// Append rows to `path`; writes the header only when creating the file
  /// and aborts if an existing header does not match this writer's columns.
  void append_csv(const std::string& path) const;

  /// The one CSV serialization primitive (escaping + row layout) — also
  /// used by metrics::Table so every CSV the project writes agrees.
  static void write_csv_row(std::ostream& os,
                            const std::vector<std::string>& cells);

  // --- JSON ----------------------------------------------------------------
  void to_json(std::ostream& os) const;
  void save_json(const std::string& path) const;

  /// Column names (union over rows, first-seen order).
  std::vector<std::string> columns() const;

 private:
  void write_rows_csv(std::ostream& os,
                      const std::vector<std::string>& cols) const;

  /// Deque, not vector: `add_row()` hands out references that must survive
  /// later appends.
  std::deque<Row> rows_;
  std::vector<std::pair<std::string, std::string>> meta_;
};

}  // namespace cmcp::metrics
