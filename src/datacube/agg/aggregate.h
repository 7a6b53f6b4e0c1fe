#ifndef DATACUBE_AGG_AGGREGATE_H_
#define DATACUBE_AGG_AGGREGATE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "datacube/common/result.h"
#include "datacube/common/value.h"

namespace datacube {

/// The paper's Section 5 taxonomy of aggregate functions, which determines
/// how super-aggregates can be computed:
///  * Distributive — F({Xij}) = G({F(column j)}); super-aggregates can be
///    computed from sub-aggregate *results* (COUNT, SUM, MIN, MAX).
///  * Algebraic — an M-tuple scratchpad summarizes a sub-aggregation and a
///    final H() produces the result (AVG via (sum, count), stddev, MaxN).
///  * Holistic — no constant-size scratchpad exists (MEDIAN, MODE, RANK);
///    super-aggregates require the 2^N algorithm over base data.
enum class AggClass {
  kDistributive,
  kAlgebraic,
  kHolistic,
};

/// The paper's Section 6 *orthogonal* hierarchy for maintenance: a function
/// can be cheap for SELECT/INSERT but expensive for DELETE. "max is
/// distributive for SELECT and INSERT, but it is holistic for DELETE."
enum class DeleteClass {
  /// Remove() is supported: deleting a row updates the scratchpad in O(1)
  /// amortized (SUM, COUNT, AVG, VAR; also MEDIAN/MODE with counted state).
  kDeletable,
  /// Deleting a contributing row may require recomputing the cell from base
  /// data (MIN, MAX).
  kDeleteHolistic,
};

const char* AggClassName(AggClass c);

/// One argument column of a batched Iter sweep. Kernels prefer the raw
/// typed buffer (`data` + per-row `states`) when the planner bound the
/// argument straight to a table column; `values` is the materialized
/// fallback. Rows are addressed by ABSOLUTE row id (see AggBatch::RowId),
/// so both views span the whole input, not the morsel.
struct AggBatchArg {
  /// Materialized argument values for every input row, or null when the
  /// one-shot path left a plain INT64/FLOAT64 column reference unevaluated
  /// (`data` is set then). A kernel that needs this view and finds it null
  /// returns false, and the caller replays the rows through scalar Iter.
  const Value* values = nullptr;
  /// Raw column storage (int64_t* / double* per `type`), or null when the
  /// argument is a computed expression or a non-numeric column.
  const void* data = nullptr;
  /// Per-row value/NULL/ALL codes (0 = plain value); set whenever the
  /// argument is a plain column reference, even if `data` is null.
  const uint8_t* states = nullptr;
  DataType type = DataType::kInt64;
};

/// A morsel handed to IterBatch: `n` (row, cell) pairs sharing one
/// aggregate. Position i folds input row RowId(i) into the scratchpad at
/// `blocks[i] + slot_offset` — the exact pointer InitAt() constructed, so
/// inline-state kernels cast it straight to their concrete state type.
struct AggBatch {
  /// Per-position cell block (duplicates when rows share a group).
  char* const* blocks = nullptr;
  /// Byte offset of this aggregate's slot within each block.
  size_t slot_offset = 0;
  /// Optional row-id indirection; when null the morsel is the contiguous
  /// range [base, base + n).
  const uint32_t* rows = nullptr;
  size_t base = 0;
  size_t n = 0;
  const AggBatchArg* args = nullptr;
  size_t nargs = 0;

  size_t RowId(size_t i) const {
    return rows != nullptr ? rows[i] : base + i;
  }
  void* Slot(size_t i) const { return blocks[i] + slot_offset; }
};

/// The cells handed to FinalBatch: `n` states of one aggregate, at
/// blocks[i] + slot_offset, whose results fill a result column of `type`
/// (INT64 or FLOAT64) in place. `data` holds n int64_t or double slots and
/// `states` n state bytes (0 value, 1 NULL: the Column layout), all zero on
/// entry.
struct AggFinalBatch {
  const char* const* blocks = nullptr;
  size_t slot_offset = 0;
  size_t n = 0;
  DataType type = DataType::kInt64;
  void* data = nullptr;
  uint8_t* states = nullptr;

  const void* Slot(size_t i) const { return blocks[i] + slot_offset; }
};

/// The state pairs handed to MergeBatch: position i merges the scratchpad
/// at src[i] + src_offset into the one at dst[i] + dst_offset, in position
/// order; destinations repeat when several source cells feed one cell.
struct AggMergeBatch {
  char* const* dst = nullptr;
  size_t dst_offset = 0;
  const char* const* src = nullptr;
  size_t src_offset = 0;
  size_t n = 0;
};

/// Opaque per-cell scratchpad ("handle" in the paper's Figure 7 / Informix
/// Init/Iter/Final description). Each AggregateFunction defines its own
/// concrete state type.
struct AggState {
  virtual ~AggState() = default;
};

using AggStatePtr = std::unique_ptr<AggState>;

/// A (user-definable) aggregate function following the paper's extended
/// protocol:
///
///   Init()               "start(&handle)"  — allocate the scratchpad
///   Iter(state, args)    "next(&handle,v)" — fold one input row in
///   Merge(dst, src)      "Iter_super(&handle,&handle)" — fold a
///                        sub-aggregate's scratchpad into a super-aggregate's
///   Final(state)         "end(&handle)"    — produce the result value
///   Remove(state, args)  Section 6 delete maintenance (kDeletable only)
///
/// Implementations are immutable/stateless and therefore shareable across
/// threads; all mutation happens on AggState objects owned by the caller.
///
/// NULL/ALL semantics (Section 3.3): "ALL, like NULL, does not participate
/// in any aggregate except COUNT()" — i.e. COUNT(*) counts every row, while
/// value aggregates skip NULL/ALL inputs. Iter() receives every row and each
/// function applies that rule itself (count_star overrides it).
class AggregateFunction {
 public:
  virtual ~AggregateFunction() = default;

  virtual const std::string& name() const = 0;
  virtual AggClass agg_class() const = 0;
  virtual DeleteClass delete_class() const {
    return DeleteClass::kDeleteHolistic;
  }

  /// Number of input argument columns (0 for count_star, 2 for
  /// center_of_mass(position, mass), else 1).
  virtual int num_args() const { return 1; }

  /// Result type given the input argument types.
  virtual Result<DataType> ResultType(
      const std::vector<DataType>& arg_types) const = 0;

  virtual AggStatePtr Init() const = 0;
  virtual void Iter(AggState* state, const Value* args, size_t nargs) const = 0;
  virtual Value Final(const AggState* state) const = 0;

  /// Final with an error channel. The cube pipeline calls this form so that
  /// functions with partial result domains can reject rather than lie — SUM
  /// over int64 returns InvalidArgument when the exact sum exceeds INT64
  /// range instead of a silently wrapped or rounded integer. The default
  /// simply defers to Final(), which every total function keeps using.
  virtual Result<Value> FinalChecked(const AggState* state) const {
    return Final(state);
  }

  /// Whether Merge() is usable. Defaults to the paper's rule — distributive
  /// and algebraic functions have constant-size mergeable scratchpads,
  /// holistic ones do not ("we know of no more efficient way of computing
  /// super-aggregates of holistic functions" than recomputing from base
  /// data). A holistic function with an unbounded-but-mergeable state (e.g.
  /// MODE's value→count map) may override this to true; planners then trade
  /// memory for scans.
  virtual bool supports_merge() const {
    return agg_class() != AggClass::kHolistic;
  }

  /// Folds `src` into `dst`. Supported when supports_merge() is true;
  /// otherwise returns NotImplemented, which forces cube computation onto
  /// the 2^N / from-base path.
  virtual Status Merge(AggState* dst, const AggState* src) const {
    (void)dst;
    (void)src;
    return Status::NotImplemented("Merge not supported for holistic " + name());
  }

  /// Un-applies one input row (Section 6 maintenance). Only meaningful when
  /// delete_class() == kDeletable.
  virtual Status Remove(AggState* state, const Value* args,
                        size_t nargs) const {
    (void)state;
    (void)args;
    (void)nargs;
    return Status::NotImplemented("Remove not supported for " + name());
  }

  /// Maintenance hint (Section 6): can folding `args` into `state` change
  /// the aggregate's result? MAX answers false when the new value "loses the
  /// competition" — and the paper observes it then loses in all lower
  /// dimensions, enabling the insert short-circuit. Conservative default:
  /// always true.
  virtual bool InsertMightChange(const AggState* state, const Value* args,
                                 size_t nargs) const {
    (void)state;
    (void)args;
    (void)nargs;
    return true;
  }

  /// Whether InsertMightChange can answer false — a new value can "lose a
  /// competition" (MIN, MAX). Maintenance consults InsertMightChange only
  /// when every aggregate of a spec has this trait, and folds other specs
  /// through the batch kernels; override the two together.
  virtual bool insert_can_lose() const { return false; }

  /// Maintenance hint (Section 6): can removing `args` change the result?
  /// MAX answers true only when the deleted value ties the current maximum —
  /// the delete-holistic recompute can be skipped otherwise. Conservative
  /// default: always true.
  virtual bool RemoveMightChange(const AggState* state, const Value* args,
                                 size_t nargs) const {
    (void)state;
    (void)args;
    (void)nargs;
    return true;
  }

  /// Deep copy of a scratchpad (used by materialized cubes and parallel
  /// merge trees).
  virtual AggStatePtr Clone(const AggState* state) const = 0;

  /// Serializes the scratchpad for cube persistence (the Section 6
  /// customers who "compute and store the cube"). Built-ins implement this;
  /// user-defined aggregates may leave the default NotImplemented, in which
  /// case cubes using them cannot be checkpointed.
  virtual Status SerializeState(const AggState* state, std::string* out) const {
    (void)state;
    (void)out;
    return Status::NotImplemented("SerializeState not supported for " + name());
  }

  /// Reconstructs a scratchpad serialized by SerializeState, consuming from
  /// `data` at *pos.
  virtual Result<AggStatePtr> DeserializeState(const std::string& data,
                                               size_t* pos) const {
    (void)data;
    (void)pos;
    return Status::NotImplemented("DeserializeState not supported for " +
                                  name());
  }

  /// Folds a whole morsel in one virtual call. Returns true when the
  /// function handled every row of the batch; false means "no batch kernel
  /// for this shape" and the caller MUST replay the same rows through the
  /// scalar Iter path — an implementation may only return false before
  /// mutating any state (all-or-nothing). The default keeps holistic and
  /// user-defined aggregates on the classic per-row protocol. Kernels must
  /// be row-order-insensitive per cell (every built-in Iter is), because
  /// batched dispatch sweeps aggregates one at a time rather than
  /// interleaving them per row.
  virtual bool IterBatch(const AggBatch& batch) const {
    (void)batch;
    return false;
  }

  /// Merge over a batch of inline state pairs, all-or-nothing like
  /// IterBatch: true means every pair merged exactly as n Merge calls would,
  /// all OK; false (no state touched) makes the caller replay scalar Merge,
  /// which reports any failure. Only a Merge that cannot fail has a kernel.
  virtual bool MergeBatch(const AggMergeBatch& batch) const {
    (void)batch;
    return false;
  }

  /// FinalChecked for a whole column of inline states at once, written
  /// straight into the result buffer. Returns how many leading cells it
  /// wrote: all n, or fewer when it reaches a cell whose FinalChecked fails
  /// or whose result Column::Append would reject (0 when it has no kernel
  /// for batch.type). The caller finishes from that cell with FinalChecked
  /// and Column::Append, which report the error, so results and errors
  /// match the per-cell path exactly.
  virtual size_t FinalBatch(const AggFinalBatch& batch) const {
    (void)batch;
    return 0;
  }

  /// Convenience for the common single-argument case.
  void Iter1(AggState* state, const Value& v) const { Iter(state, &v, 1); }

  // --- Fixed-slot (placement) state protocol -------------------------------
  //
  // The columnar execution core stores scratchpads inline in a per-table
  // arena: each cell is one contiguous block with a fixed slot per
  // aggregate. Functions whose state has a fixed footprint (distributive
  // and algebraic built-ins) advertise it via state_size() > 0 and
  // construct/destroy states in place; everything else (holistic states,
  // user aggregates that have not opted in) reports state_size() == 0 and
  // gets a compatibility slot holding a heap AggStatePtr — the classic
  // Init() path, unchanged. Derive from WithInlineState<State> (below) to
  // opt a function in without writing any of these overrides by hand.

  /// In-place state footprint; 0 selects the AggStatePtr compatibility
  /// slot.
  virtual size_t state_size() const { return 0; }
  virtual size_t state_align() const { return alignof(std::max_align_t); }

  /// Constructs a fresh scratchpad in `slot` (placement "start(&handle)").
  /// The default services the compatibility slot via Init().
  virtual void InitAt(void* slot) const {
    ::new (slot) AggStatePtr(Init());
  }

  /// Destroys the scratchpad living in `slot`.
  virtual void DestroyAt(void* slot) const {
    static_cast<AggStatePtr*>(slot)->~AggStatePtr();
  }

  /// Reconstructs a SerializeState blob directly into raw storage `slot`.
  virtual Status DeserializeAt(const std::string& data, size_t* pos,
                               void* slot) const {
    Result<AggStatePtr> state = DeserializeState(data, pos);
    if (!state.ok()) return state.status();
    ::new (slot) AggStatePtr(std::move(state).value());
    return Status::OK();
  }

  /// The AggState view of a slot, for the virtual Iter/Merge/Remove/Final
  /// protocol. Overridden by WithInlineState to upcast the inline object;
  /// the default dereferences the compatibility slot's pointer.
  virtual AggState* StateAt(void* slot) const {
    return static_cast<AggStatePtr*>(slot)->get();
  }
  const AggState* StateAt(const void* slot) const {
    return StateAt(const_cast<void*>(slot));
  }

  // Slot-addressed bridges onto the classic protocol. Hot loops that have
  // precomputed the slot→state adjustment skip these; maintenance and
  // serialization paths use them directly.
  void IterAt(void* slot, const Value* args, size_t nargs) const {
    Iter(StateAt(slot), args, nargs);
  }
  Status MergeAt(void* dst, const void* src) const {
    return Merge(StateAt(dst), StateAt(src));
  }
  Status RemoveAt(void* slot, const Value* args, size_t nargs) const {
    return Remove(StateAt(slot), args, nargs);
  }
  Result<Value> FinalAt(const void* slot) const {
    return FinalChecked(StateAt(slot));
  }
  Status SerializeAt(const void* slot, std::string* out) const {
    return SerializeState(StateAt(slot), out);
  }
};

using AggregateFunctionPtr = std::shared_ptr<const AggregateFunction>;

/// Mixin that opts an aggregate into the fixed-slot protocol: derive the
/// function from WithInlineState<State, Base> instead of Base and its
/// scratchpads live inline in cell arenas with zero per-cell heap
/// allocations. `State` must be the concrete AggState subclass the
/// function's Init()/Iter()/... already operate on; it must be
/// move-constructible (for DeserializeAt).
template <typename State, typename Base = AggregateFunction>
class WithInlineState : public Base {
  static_assert(std::is_base_of_v<AggState, State>,
                "inline aggregate states must derive from AggState");

 public:
  using Base::Base;

  size_t state_size() const override { return sizeof(State); }
  size_t state_align() const override { return alignof(State); }

  void InitAt(void* slot) const override { ::new (slot) State(); }
  void DestroyAt(void* slot) const override {
    static_cast<State*>(slot)->~State();
  }
  Status DeserializeAt(const std::string& data, size_t* pos,
                       void* slot) const override {
    Result<AggStatePtr> state = this->DeserializeState(data, pos);
    if (!state.ok()) return state.status();
    State* concrete = dynamic_cast<State*>(state.value().get());
    if (concrete == nullptr) {
      return Status::Internal("DeserializeState produced an unexpected " +
                              std::string("state type for ") + this->name());
    }
    ::new (slot) State(std::move(*concrete));
    return Status::OK();
  }
  AggState* StateAt(void* slot) const override {
    return static_cast<State*>(slot);
  }
};

}  // namespace datacube

#endif  // DATACUBE_AGG_AGGREGATE_H_
