#include "relational/database.h"

#include <cctype>
#include <cstdint>

#include "common/io.h"
#include "common/strings.h"

namespace hermes::relational {

namespace {

Result<ColumnType> ParseColumnType(const std::string& text) {
  if (text == "int") return ColumnType::kInt;
  if (text == "double") return ColumnType::kDouble;
  if (text == "string" || text.empty()) return ColumnType::kString;
  if (text == "bool") return ColumnType::kBool;
  return Status::InvalidArgument("unknown column type '" + text + "'");
}

bool LooksNumeric(const std::string& field) {
  if (field.empty()) return false;
  size_t i = field[0] == '-' ? 1 : 0;
  if (i >= field.size()) return false;
  bool digits = false;
  bool dot = false;
  for (; i < field.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(field[i]))) {
      digits = true;
    } else if (field[i] == '.' && !dot) {
      dot = true;
    } else {
      return false;
    }
  }
  return digits;
}

Result<Value> ParseCsvField(const std::string& raw, ColumnType type) {
  std::string field = TrimString(raw);
  // Quoted fields are strings with the quotes stripped.
  if (field.size() >= 2 && (field.front() == '\'' || field.front() == '"') &&
      field.back() == field.front()) {
    field = field.substr(1, field.size() - 2);
    if (type != ColumnType::kString) {
      return Status::TypeError("quoted value '" + field +
                               "' in non-string column");
    }
    return Value::Str(field);
  }
  switch (type) {
    case ColumnType::kInt: {
      int64_t value = 0;
      if (!ParseNumber(field, &value)) {
        return Status::TypeError("'" + field + "' is not a 64-bit int");
      }
      return Value::Int(value);
    }
    case ColumnType::kDouble: {
      double value = 0.0;
      if (!LooksNumeric(field) || !ParseNumber(field, &value)) {
        return Status::TypeError("'" + field + "' is not a double");
      }
      return Value::Double(value);
    }
    case ColumnType::kBool:
      if (field == "true" || field == "1") return Value::Bool(true);
      if (field == "false" || field == "0") return Value::Bool(false);
      return Status::TypeError("'" + field + "' is not a bool");
    case ColumnType::kString:
      return Value::Str(field);
  }
  return Status::Internal("unreachable column type");
}

}  // namespace

Result<Table*> Database::CreateTable(const std::string& name, Schema schema) {
  if (HasTable(name)) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  auto table = std::make_unique<Table>(name, std::move(schema));
  Table* raw = table.get();
  tables_.emplace(name, std::move(table));
  return raw;
}

Result<Table*> Database::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table '" + name + "'");
  }
  return it->second.get();
}

Result<const Table*> Database::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table '" + name + "'");
  }
  return static_cast<const Table*>(it->second.get());
}

Status Database::DropTable(const std::string& name) {
  if (tables_.erase(name) == 0) {
    return Status::NotFound("no table '" + name + "'");
  }
  return Status::OK();
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, table] : tables_) out.push_back(name);
  return out;
}

Result<Table*> Database::LoadCsv(const std::string& table_name,
                                 const std::string& csv_text) {
  std::vector<std::string> lines = SplitString(csv_text, '\n');
  size_t first = 0;
  while (first < lines.size() && TrimString(lines[first]).empty()) ++first;
  if (first >= lines.size()) {
    return Status::InvalidArgument("CSV text has no header line");
  }

  // Header: name:type pairs.
  std::vector<Column> columns;
  for (const std::string& field : SplitString(lines[first], ',')) {
    std::vector<std::string> parts = SplitString(TrimString(field), ':');
    if (parts.empty() || parts[0].empty()) {
      return Status::InvalidArgument("empty column name in CSV header");
    }
    Column col;
    col.name = TrimString(parts[0]);
    HERMES_ASSIGN_OR_RETURN(
        col.type, ParseColumnType(parts.size() > 1 ? TrimString(parts[1]) : ""));
    columns.push_back(std::move(col));
  }

  HERMES_ASSIGN_OR_RETURN(Table * table,
                          CreateTable(table_name, Schema(std::move(columns))));
  const Schema& schema = table->schema();

  for (size_t i = first + 1; i < lines.size(); ++i) {
    std::string line = TrimString(lines[i]);
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> fields = SplitString(line, ',');
    if (fields.size() != schema.num_columns()) {
      return Status::InvalidArgument(
          "CSV line " + std::to_string(i + 1) + " has " +
          std::to_string(fields.size()) + " fields, expected " +
          std::to_string(schema.num_columns()));
    }
    ValueList row;
    row.reserve(fields.size());
    for (size_t c = 0; c < fields.size(); ++c) {
      HERMES_ASSIGN_OR_RETURN(Value v,
                              ParseCsvField(fields[c], schema.column(c).type));
      row.push_back(std::move(v));
    }
    HERMES_RETURN_IF_ERROR(table->Insert(std::move(row)));
  }
  return table;
}

Result<Table*> Database::LoadCsvFile(const std::string& table_name,
                                     const std::string& path) {
  HERMES_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return LoadCsv(table_name, text);
}

}  // namespace hermes::relational
