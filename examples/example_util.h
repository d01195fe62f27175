#ifndef SPHERE_EXAMPLES_EXAMPLE_UTIL_H_
#define SPHERE_EXAMPLES_EXAMPLE_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "adaptor/jdbc.h"
#include "common/strings.h"
#include "common/table_printer.h"

namespace sphere::examples {

/// Aborts the example with a readable message when a Status is not OK.
inline void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL at %s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T Unwrap(Result<T> result, const char* what) {
  Check(result.status(), what);
  return std::move(result).value();
}

/// Executes a statement through a connection, aborting on error.
inline void Exec(adaptor::ShardingConnection* conn, const std::string& sql) {
  auto r = conn->ExecuteSQL(sql);
  Check(r.status(), sql.c_str());
}

/// Runs a query and prints it as an aligned table; columns widen to fit
/// their longest cell.
inline void PrintQuery(adaptor::ShardingConnection* conn,
                       const std::string& sql) {
  std::printf("sql> %s\n", sql.c_str());
  auto rs = Unwrap(conn->ExecuteQuery(sql), sql.c_str());
  const auto& cols = rs.columns();
  TablePrinter table(cols);
  int rows = 0;
  while (rs.Next()) {
    std::vector<std::string> cells;
    cells.reserve(cols.size());
    for (size_t i = 0; i < cols.size(); ++i) {
      cells.push_back(rs.Get(static_cast<int>(i)).ToString());
    }
    table.AddRow(std::move(cells));
    ++rows;
  }
  table.Print();
  std::printf("(%d rows)\n\n", rows);
}

}  // namespace sphere::examples

#endif  // SPHERE_EXAMPLES_EXAMPLE_UTIL_H_
