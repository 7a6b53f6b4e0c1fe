#include "datacube/agg/distinct.h"

#include <map>
#include <vector>

#include "datacube/common/codec.h"

namespace datacube {

namespace {

struct DistinctState : AggState {
  // Distinct argument tuples with multiplicities. Multiplicities matter only
  // for Remove: a tuple leaves the set when its count reaches zero.
  std::map<std::vector<Value>, int64_t> seen;
};

class DistinctAggregate : public AggregateFunction {
 public:
  explicit DistinctAggregate(AggregateFunctionPtr inner)
      : inner_(std::move(inner)), name_(inner_->name() + "_distinct") {}

  const std::string& name() const override { return name_; }
  AggClass agg_class() const override { return AggClass::kHolistic; }
  DeleteClass delete_class() const override { return DeleteClass::kDeletable; }
  bool supports_merge() const override { return true; }
  int num_args() const override { return inner_->num_args(); }

  Result<DataType> ResultType(
      const std::vector<DataType>& arg_types) const override {
    return inner_->ResultType(arg_types);
  }

  AggStatePtr Init() const override {
    return std::make_unique<DistinctState>();
  }

  void Iter(AggState* state, const Value* args, size_t nargs) const override {
    std::vector<Value> key(args, args + nargs);
    ++static_cast<DistinctState*>(state)->seen[std::move(key)];
  }

  Value Final(const AggState* state) const override {
    return inner_->Final(ReplayDistinct(state).get());
  }

  Result<Value> FinalChecked(const AggState* state) const override {
    // Propagates the inner function's error domain (e.g. SUM overflow).
    return inner_->FinalChecked(ReplayDistinct(state).get());
  }

  Status Merge(AggState* dst, const AggState* src) const override {
    auto* d = static_cast<DistinctState*>(dst);
    for (const auto& [key, count] :
         static_cast<const DistinctState*>(src)->seen) {
      d->seen[key] += count;
    }
    return Status::OK();
  }

  Status Remove(AggState* state, const Value* args,
                size_t nargs) const override {
    auto* s = static_cast<DistinctState*>(state);
    std::vector<Value> key(args, args + nargs);
    auto it = s->seen.find(key);
    if (it == s->seen.end()) {
      return Status::InvalidArgument("DISTINCT: removing absent tuple");
    }
    if (--it->second == 0) s->seen.erase(it);
    return Status::OK();
  }

  Status SerializeState(const AggState* state,
                        std::string* out) const override {
    const auto& seen = static_cast<const DistinctState*>(state)->seen;
    EncodeCount(seen.size(), out);
    for (const auto& [key, count] : seen) {
      EncodeCount(key.size(), out);
      for (const Value& v : key) EncodeValue(v, out);
      EncodeValue(Value::Int64(count), out);
    }
    return Status::OK();
  }
  Result<AggStatePtr> DeserializeState(const std::string& data,
                                       size_t* pos) const override {
    auto s = std::make_unique<DistinctState>();
    DATACUBE_ASSIGN_OR_RETURN(uint64_t n, DecodeCount(data, pos));
    for (uint64_t i = 0; i < n; ++i) {
      DATACUBE_ASSIGN_OR_RETURN(uint64_t arity, DecodeListCount(data, pos, 2));
      std::vector<Value> key;
      key.reserve(arity);
      for (uint64_t k = 0; k < arity; ++k) {
        DATACUBE_ASSIGN_OR_RETURN(Value v, DecodeValue(data, pos));
        key.push_back(std::move(v));
      }
      DATACUBE_ASSIGN_OR_RETURN(int64_t count, DecodeInt64(data, pos));
      s->seen.emplace(std::move(key), count);
    }
    return AggStatePtr(std::move(s));
  }
  AggStatePtr Clone(const AggState* state) const override {
    return std::make_unique<DistinctState>(
        *static_cast<const DistinctState*>(state));
  }

 private:
  // Replays the distinct tuples into a fresh inner scratchpad.
  AggStatePtr ReplayDistinct(const AggState* state) const {
    AggStatePtr inner_state = inner_->Init();
    for (const auto& [key, count] :
         static_cast<const DistinctState*>(state)->seen) {
      (void)count;
      inner_->Iter(inner_state.get(), key.data(), key.size());
    }
    return inner_state;
  }

  AggregateFunctionPtr inner_;
  std::string name_;
};

}  // namespace

AggregateFunctionPtr MakeDistinct(AggregateFunctionPtr inner) {
  return std::make_shared<DistinctAggregate>(std::move(inner));
}

}  // namespace datacube
