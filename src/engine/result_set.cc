#include "engine/result_set.h"

namespace sphere::engine {

size_t ResultSet::NextBatch(std::vector<Row>* out, size_t max) {
  size_t n = 0;
  Row row;
  while (n < max && Next(&row)) {
    out->push_back(std::move(row));
    ++n;
  }
  return n;
}

std::vector<Row> DrainResultSet(ResultSet* rs) {
  std::vector<Row> rows;
  while (rs->NextBatch(&rows, kBatchSize) > 0) {
  }
  return rows;
}

}  // namespace sphere::engine
