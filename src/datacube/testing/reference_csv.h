#ifndef DATACUBE_TESTING_REFERENCE_CSV_H_
#define DATACUBE_TESTING_REFERENCE_CSV_H_

#include <string>

#include "datacube/table/table.h"

namespace datacube {
namespace testing {

/// WriteCsvString evaluated a cell at a time: each cell is read back as a
/// Value (Table::GetValue) and printed with Value::ToString, and every
/// field is escaped on its own. NULL is an empty field and ALL is "ALL".
/// A field that is empty or holds the delimiter, a quote, CR or LF is
/// quoted. It shares no formatting or escaping code with the typed writer,
/// so tests require byte-identical output from both.
std::string ReferenceCsv(const Table& table, char delimiter = ',');

}  // namespace testing
}  // namespace datacube

#endif  // DATACUBE_TESTING_REFERENCE_CSV_H_
