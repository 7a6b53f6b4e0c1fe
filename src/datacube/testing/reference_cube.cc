#include "datacube/testing/reference_cube.h"

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "datacube/cube/cube_internal.h"

namespace datacube {
namespace testing {

namespace {

/// One cell of one GROUP BY: a scratchpad per aggregate and the first input
/// row that fell into it (none for the empty set's row on empty input).
struct Group {
  std::vector<AggStatePtr> states;
  std::optional<size_t> first_row;
};

}  // namespace

Result<Table> ReferenceCube(const Table& input, const CubeSpec& spec) {
  // The default materialized keys: every key column is a Value vector.
  DATACUBE_ASSIGN_OR_RETURN(cube_internal::CubeContext ctx,
                            cube_internal::BuildCubeContext(input, spec));

  std::vector<Field> fields;
  for (size_t k = 0; k < ctx.num_keys; ++k) {
    fields.push_back(Field{ctx.key_names[k], ctx.key_types[k],
                           /*nullable=*/true, /*allow_all=*/true});
  }
  for (const Decoration& d : spec.decorations) {
    fields.push_back(Field{d.name, d.expr->output_type(), /*nullable=*/true,
                           /*allow_all=*/false});
  }
  for (size_t a = 0; a < ctx.aggs.size(); ++a) {
    fields.push_back(Field{spec.aggregates[a].column_name(),
                           ctx.agg_result_types[a], /*nullable=*/true,
                           /*allow_all=*/false});
  }
  if (spec.add_grouping_columns) {
    for (size_t k = 0; k < ctx.num_keys; ++k) {
      fields.push_back(Field{"grouping_" + ctx.key_names[k], DataType::kBool,
                             /*nullable=*/false, /*allow_all=*/false});
    }
  }
  if (spec.add_grouping_id) {
    fields.push_back(Field{"grouping_id", DataType::kInt64,
                           /*nullable=*/false, /*allow_all=*/false});
  }
  Table out{Schema{std::move(fields)}};

  auto new_group = [&ctx]() {
    Group g;
    for (const AggregateFunctionPtr& agg : ctx.aggs) {
      g.states.push_back(agg->Init());
    }
    return g;
  };

  std::vector<Value> argv;
  for (GroupingSet set : ctx.sets) {
    // GROUP BY `set`: one cell per distinct key tuple.
    std::map<std::vector<Value>, Group> groups;
    for (size_t row = 0; row < ctx.num_rows(); ++row) {
      std::vector<Value> key(ctx.num_keys, Value::All());
      for (size_t k = 0; k < ctx.num_keys; ++k) {
        if (IsGrouped(set, k)) key[k] = ctx.key_columns[k][row];
      }
      auto [it, inserted] = groups.try_emplace(std::move(key));
      Group& g = it->second;
      if (inserted) {
        g = new_group();
        g.first_row = row;
      }
      for (size_t a = 0; a < ctx.aggs.size(); ++a) {
        argv.clear();
        for (const std::vector<Value>& arg : ctx.agg_args[a]) {
          argv.push_back(arg[row]);
        }
        ctx.aggs[a]->Iter(g.states[a].get(), argv.data(), argv.size());
      }
    }
    // SQL semantics: the aggregate over the empty set is one row.
    if (set == 0 && groups.empty()) {
      groups.emplace(std::vector<Value>(ctx.num_keys, Value::All()),
                     new_group());
    }

    for (const auto& [key, g] : groups) {
      std::vector<Value> row;
      for (size_t k = 0; k < ctx.num_keys; ++k) {
        if (IsGrouped(set, k)) {
          row.push_back(key[k]);
        } else {
          row.push_back(spec.all_mode == AllMode::kAllToken ? Value::All()
                                                            : Value::Null());
        }
      }
      for (const Decoration& d : spec.decorations) {
        if ((set & d.determinant) == d.determinant && g.first_row) {
          DATACUBE_ASSIGN_OR_RETURN(Value v,
                                    d.expr->Evaluate(input, *g.first_row));
          row.push_back(std::move(v));
        } else {
          row.push_back(Value::Null());
        }
      }
      for (size_t a = 0; a < ctx.aggs.size(); ++a) {
        DATACUBE_ASSIGN_OR_RETURN(Value v,
                                  ctx.aggs[a]->FinalChecked(g.states[a].get()));
        row.push_back(std::move(v));
      }
      if (spec.add_grouping_columns) {
        for (size_t k = 0; k < ctx.num_keys; ++k) {
          row.push_back(Value::Bool(!IsGrouped(set, k)));
        }
      }
      if (spec.add_grouping_id) {
        int64_t id = 0;
        for (size_t k = 0; k < ctx.num_keys; ++k) {
          if (!IsGrouped(set, k)) id |= int64_t{1} << k;
        }
        row.push_back(Value::Int64(id));
      }
      DATACUBE_RETURN_IF_ERROR(out.AppendRow(row));
    }
  }
  return out;
}

}  // namespace testing
}  // namespace datacube
